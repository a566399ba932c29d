"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import selfsim  # noqa: E402


# ----------------------------------------------------------------------
# op_s_tail: highest ladder percentile with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, cap, expected",
    [
        (19, 99.9, None),  # the median of 19 has only 9 beyond it
        (20, 99.9, 50.0),
        (39, 99.9, 50.0),
        (40, 99.9, 75.0),
        (99, 99.9, 75.0),
        (100, 99.9, 90.0),
        (199, 99.9, 90.0),
        (200, 99.9, 95.0),
        (1000, 99.9, 99.0),
        (10000, 99.9, 99.9),
        (10000, 75.0, 75.0),  # the cap freezes the percentile
        (30, 75.0, 50.0),  # too few samples for the cap
    ],
)
def test_tail_percentile_rule(n, cap, expected):
    assert stats.tail_percentile(n, cap) == expected


def test_tail_percentile_leaves_ten_beyond():
    for n in range(20, 3000, 7):
        q = stats.tail_percentile(n, 99.9)
        assert n - stats.rank(n, q) >= stats.MIN_BEYOND
        higher = [p for p in stats.LADDER if p > q]
        if higher:
            assert n - stats.rank(n, higher[0]) < stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([7.0], 75) == 7.0


def test_latencies_are_scaled_by_the_reference_around_their_pass():
    # pass 1 ran with the host 2x slow: its reference took twice as long
    passes = [[0.1, 1.0], [0.2, None], [0.1, 1.0]]
    refs = [[0.01, 0.01], [0.02, 0.02], [0.01, 0.015]]
    by_position = stats.scaled_latencies(passes, refs, nominal=0.01)
    assert by_position[0] == pytest.approx([0.1, 0.1, 0.1])
    assert by_position[1] == pytest.approx([1.0, 1.0 / 1.5])
    assert stats.position_medians([[0.3, 0.1, 0.2], [2.0], []]) == [0.2, 0.2, 0.2, 2.0]


def test_end_to_end_cancels_a_slow_host():
    # 20 positions over 4 passes; passes 1 and 2 ran 1.5x slow, and so did
    # the reference timed around them
    fast = [0.01 * (j + 1) for j in range(20)]
    slow = [1.5 * t for t in fast]
    result = {
        "passes": [fast, slow, slow, fast],
        "reference": [[r] * 20 for r in (0.025, 0.03, 0.03, 0.025)],
        "reference_nominal": 0.02,
        "busy_s": 5 * sum(fast),
        "peak_rss_mb": 1.0,
    }
    values, _ = run.end_to_end("sweep", result, [0.5, 0.25, 0.75], [0.1, 0.05, 0.1])
    assert values["setup_s"] == pytest.approx(5.0 * reference.SPAWN_NOMINAL_S)
    # unscaled, each position's median would be 1.25x its fast time; scaled,
    # it lies between 0.8x (a fast pass beside a slow reference) and 1x
    assert 0.8 * 0.105 <= values["op_s_p50"] <= 0.105
    # p75 of 80 ops: rank 60, the 15th position
    assert 0.8 * fast[14] <= values["op_s_tail"] <= fast[14]
    assert 20 / sum(fast) <= values["ops_per_s"] <= 20 / (0.8 * sum(fast))


# ----------------------------------------------------------------------
# self time = span - children
# ----------------------------------------------------------------------
def test_self_time_on_hand_built_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7];
    # 4 [11, 12] is a second top-level span
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 5.0, 6.0, 11.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 12.0])
    self_s = tracing.self_times(parent, end - start)
    assert self_s.tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    # self times of all spans add up to the time the top-level spans cover
    assert self_s.sum() == (end - start)[parent < 0].sum()
    names = np.array([0, 1, 2, 1, 1])
    assert [tracing.has_ancestor(i, parent, names, 2) for i in range(5)] == [
        False, False, False, True, False
    ]


def test_tracer_records_nested_spans_and_restores_library():
    original = selfsim.solve
    tracer = tracing.Tracer()
    tracer.op_id = 7
    tracer.install()
    try:
        assert selfsim.solve is not original
        assert selfsim.solver.solve is selfsim.solve
        res = selfsim.solve(selfsim.presets.cantor_family(1.0 / 3.0, 0.0), 1, 1e-4)
    finally:
        tracer.uninstall()
    assert selfsim.solve is original and selfsim.solver.solve is original
    assert selfsim.PiecewiseLinearFn.value_right.__name__ == "value_right"
    summary = tracing.Summary(tracer, 8)
    assert summary.total("solver.solve", "calls") == 1
    assert summary.total("solver.solve", "iterations") == res.iterations
    assert summary.total("solver.solve", "stop_target") == 1
    assert summary.total("simop.apply_G", "calls") == res.iterations
    assert summary.total("solver.lp_distance", "calls") == res.iterations
    # every span is inside the solve span, which is the op's only top-level span
    (solve_id,) = summary.ids("solver.solve")
    assert summary.op_covered[7] == pytest.approx(summary.duration[solve_id])
    assert summary.self_s.sum() == pytest.approx(summary.duration[solve_id])


# ----------------------------------------------------------------------
# the wrappers change no result
# ----------------------------------------------------------------------
def _small_ops(tmp_path):
    certify = workloads.Workload("certify", 5, tmp_path, ROOT / "src").ops(0)
    sweep = workloads.Workload("sweep", 5, tmp_path, ROOT / "src").ops(0)
    exact = workloads.Workload("exact", 5, tmp_path, ROOT / "src").ops(0)
    return (
        [op for op in certify if "family p=1" in op.label or "cantor p=1" in op.label]
        + [op for op in sweep if "n=4" not in op.label]
        + [op for op in exact if "dyadic" not in op.label]
    )


def test_traced_outputs_bitwise_equal_untraced(tmp_path):
    tracer = tracing.Tracer()
    for i, op in enumerate(_small_ops(tmp_path)):
        plain = op.run(None)
        assert op.check(plain) == [], op.label
        tracer.op_id = i
        tracer.install()
        try:
            traced = op.run(None)
        finally:
            tracer.uninstall()
        assert run._output_digest(traced) == run._output_digest(plain), op.label
        assert i in set(tracer.op), op.label


def test_traced_cli_child_bitwise_equal_untraced(tmp_path):
    cli = workloads.CliWorkload(5, tmp_path, ROOT / "src")
    index = next(i for i, c in enumerate(cli.commands) if c[0] == "measure")
    plain = cli.run(index, None)
    traced = cli.run(index, tracing.Tracer())
    assert cli.check(index, plain) == []
    assert run._output_digest(traced) == run._output_digest(plain)
    tracer = tracing.Tracer()
    tracer.ingest(traced.spans, 0)
    assert tracing.Summary(tracer, 1).total("cli.main", "calls") == 1


def test_fingerprint_sees_every_bit():
    x = np.array([0.0, 0.5, 1.0])
    f = selfsim.PiecewiseLinearFn(x, [0.0, 0.25, 1.0])
    g = selfsim.PiecewiseLinearFn(x, [0.0, np.nextafter(0.25, 1.0), 1.0])
    assert workloads.fingerprint(f) != workloads.fingerprint(g)
    assert workloads.fingerprint({"a": 0.0}) != workloads.fingerprint({"a": -0.0})


# ----------------------------------------------------------------------
# inputs and the benchmark contract
# ----------------------------------------------------------------------
def test_planned_target_is_met_at_the_planned_depth():
    rng = np.random.default_rng(11)
    for p in (1.0, 2.5, float("inf")):
        system = workloads.random_system(rng, 3, 0.3, 0.4)
        res = selfsim.solve(system, p, workloads.planned_target(system, p, 8))
        assert res.converged and res.iterations == 8


def test_same_seed_same_inputs(tmp_path):
    for name in ("certify", "sweep", "exact"):
        a = workloads.Workload(name, 3, tmp_path, ROOT / "src").ops(2)
        b = workloads.Workload(name, 3, tmp_path, ROOT / "src").ops(2)
        assert [op.label for op in a] == [op.label for op in b]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    # every per-layer metric has a written prediction, exactly once
    groups = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    predicted = [name for group in groups for name in group["layer_metrics"]]
    assert sorted(predicted) == sorted(name for name, _ in tracing.PER_LAYER)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
