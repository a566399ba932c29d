"""selfsim benchmark: one closed-loop client driving the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload {certify,sweep,exact,cli} --seed N \
        --seconds S --trace {0,1}

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs every
op untraced and then traced, checks that both give bitwise equal outputs, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Full results,
with the environment, go to .perfbench_out/.

The measured process is a worker child of this script; set-up time is taken
from the worker's spawn to the end of its untimed warm-up op, over several
workers, so it includes interpreter start and `import selfsim`.

A run repeats passes over a fixed list of ops; every pass draws fresh inputs
of the same size, so op j does the same work in each.  The shared host this
runs on changes speed by 1.3x to 3x for seconds to minutes at a time, so
fixed reference work (reference.py) is timed between passes (beside every
other op for cli) and beside each set-up, and the end-to-end times are
scaled by nominal / measured reference time: they are seconds at the host
speed where the reference takes its nominal time.  op_s_p50 and op_s_tail are
percentiles over the ops, each at its position's median over the passes;
ops_per_s is the number of positions over the sum of those medians.  The raw,
unscaled medians are printed beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
WORKER_TIMEOUT = 170.0
# a worker stops starting new ops after this much wall time
WALL_LIMIT = 110.0
# passes a run makes even when the host is slow, so that the cli workload
# (14 ops a pass) always has the 40 ops that op_s_tail's p75 needs
MIN_PASSES = 3

# op_s_tail is reported at p75 on every workload: at this commit every run
# has at least ten ops beyond it, even when the machine runs 2x slow
TAIL_CAP = 75.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


# ----------------------------------------------------------------------
# worker: set-up, warm-up, then the timed (or traced) closed loop
# ----------------------------------------------------------------------
def _check(op, out) -> list:
    try:
        return op.check(out)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)]


def _peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def timed_loop(workload, seconds: float) -> dict:
    """Whole passes over the op list until `seconds` of op time have been spent.

    Op j of every pass does the same work on fresh inputs of the same size.
    passes[k][j] is its latency in pass k, None when it failed, and refs[k][j]
    the time of the reference work nearest to it: timed before every other
    op for child-process ops, else the mean of the timings before and after
    the pass.
    """
    passes, refs, failures = [], [], []
    attempted, busy = 0, 0.0
    start = time.monotonic()
    before = None if workload.reference_per_op else workload.reference_s()
    while (busy < seconds or len(passes) < MIN_PASSES) and time.monotonic() - start < WALL_LIMIT:
        times, op_refs = [], []
        for j, op in enumerate(workload.ops(len(passes))):
            if workload.reference_per_op:
                op_refs.append(workload.reference_s() if j % 2 == 0 else op_refs[-1])
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run(None)
            except Exception as exc:
                busy += time.perf_counter() - t0
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                times.append(None)
                continue
            dt = time.perf_counter() - t0
            busy += dt
            problems = _check(op, out)
            del out
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
            times.append(None if problems else dt)
        if not workload.reference_per_op:
            after = workload.reference_s()
            op_refs = [0.5 * (before + after)] * len(times)
            before = after
        passes.append(times)
        refs.append(op_refs)
    return {
        "passes": passes,
        "reference": refs,
        "reference_nominal": workload.reference_nominal,
        "attempted": attempted,
        "failures": failures,
        "busy_s": busy,
        "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli"),
    }


def _output_digest(out) -> str:
    import workloads

    if dataclasses.is_dataclass(out) and hasattr(out, "spans"):
        out = dataclasses.replace(out, spans=None)
    return workloads.fingerprint(out)


def traced_loop(workload, seconds: float, trace_path: Path) -> dict:
    """Each op once untraced, then once traced; outputs must match bitwise."""
    import tracing

    cost = tracing.wrapper_cost()
    tracer = tracing.Tracer()
    walls_u, walls_t, labels, failures = [], [], [], []
    child_ops = set()
    bytes_written, busy, k = 0, 0.0, 0
    start = time.monotonic()
    while busy < seconds and time.monotonic() - start < WALL_LIMIT:
        for op in workload.ops(k):
            i = len(labels)
            labels.append(op.label)
            try:
                t0 = time.perf_counter()
                out = op.run(None)
                walls_u.append(time.perf_counter() - t0)
                problems = _check(op, out)
                digest_u = _output_digest(out)
                del out
                tracer.op_id = i
                if op.child:
                    t0 = time.perf_counter()
                    out = op.run(tracer)
                    walls_t.append(time.perf_counter() - t0)
                    if out.spans is not None:
                        tracer.ingest(out.spans, i)
                    child_ops.add(i)
                    bytes_written += len(out.stdout) + len(out.out_bytes or b"")
                else:
                    tracer.install()
                    try:
                        t0 = time.perf_counter()
                        out = op.run(None)
                        walls_t.append(time.perf_counter() - t0)
                    finally:
                        tracer.uninstall()
                if _output_digest(out) != digest_u:
                    problems.append("traced output differs from untraced output")
                del out
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
                walls_u.extend([0.0] * (i + 1 - len(walls_u)))
                walls_t.extend([0.0] * (i + 1 - len(walls_t)))
            busy += walls_u[i] + walls_t[i]
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
        k += 1

    tracer.dump(trace_path)
    n_ops = len(labels)
    summary = tracing.Summary(tracer, n_ops)
    startup = sum(walls_t[i] - summary.op_covered[i] for i in child_ops)
    extra = {
        "cli.startup_s": float(startup),
        "cli.bytes_written": bytes_written,
        "trace.overhead_ratio": sum(walls_t) / sum(walls_u),
    }
    metrics = tracing.layer_metrics(summary, extra)
    # an in-process op whose top-level spans leave more of its traced wall
    # time uncovered than the wrappers and a little glue can explain
    flagged = []
    for i in range(n_ops):
        if i in child_ops:
            continue
        gap = walls_t[i] - summary.op_covered[i]
        allowed = 2.0 * cost * summary.op_spans[i] + 2e-4 + 0.01 * walls_t[i]
        if gap > allowed:
            flagged.append({"op": labels[i], "uncovered_s": gap, "allowed_s": allowed})
    return {
        "attempted": n_ops,
        "failures": failures,
        "passes": k,
        "metrics": metrics,
        "table": summary.table(),
        "flagged": flagged,
        "wrapper_cost_s": cost,
        "spans": int(summary.name.size),
        "traced_s": sum(walls_t),
        "untraced_s": sum(walls_u),
    }


def worker(args) -> int:
    import selfsim

    if Path(selfsim.__file__).resolve().parent != (SRC / "selfsim").resolve():
        print(f"error: imported selfsim from {selfsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.Workload(args.workload, args.seed, workdir, SRC)
        workload.ops(0)[0].run(None)  # untimed warm-up op
        result = {"ready_at": time.monotonic()}
        if not args.setup_only:
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}.npz"
                result.update(traced_loop(workload, args.seconds, trace_path))
            else:
                result.update(timed_loop(workload, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: spawn workers, derive the metrics, report
# ----------------------------------------------------------------------
def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_worker(args, setup_only: bool) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return result, result["ready_at"] - spawned


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        llc = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        llc = None
    commit = None
    # a checkout without .git may sit inside another repository: ask git only here
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "selfsim").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def end_to_end(workload: str, result: dict, setup_samples: list, setup_refs: list) -> tuple[dict, dict]:
    import reference
    import stats

    by_position = stats.scaled_latencies(
        result["passes"], result["reference"], result["reference_nominal"]
    )
    typical = [statistics.median(v) for v in by_position if v]
    lat = stats.position_medians(by_position)
    n = len(lat)
    q = stats.tail_percentile(n, TAIL_CAP)
    tail = stats.percentile(lat, q) if q is not None and n else (max(lat) if n else 0.0)
    beyond = n - stats.rank(n, q) if q is not None else 0
    setup_ratios = [s / r for s, r in zip(setup_samples, setup_refs)]
    values = {
        "setup_s": statistics.median(setup_ratios) * reference.SPAWN_NOMINAL_S,
        "op_s_p50": statistics.median(lat) if n else 0.0,
        "op_s_tail": tail,
        "ops_per_s": len(typical) / sum(typical) if typical else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = [t for times in result["passes"] for t in times if t is not None]
    nominal = result["reference_nominal"]
    refs = [r for op_refs in result["reference"] for r in op_refs]
    detail = {
        "setup_s": f"median of {len(setup_samples)} set-ups, each over the reference process "
        f"start beside it; raw median {statistics.median(setup_samples):.6g} s",
        "op_s_p50": f"n={n}, each op at its position's median over {len(result['passes'])} passes"
        + (f"; raw median {statistics.median(raw):.6g} s" if raw else ""),
        "op_s_tail": f"p{q:g}, {beyond} ops beyond, n={n}" if q is not None else f"max, n={n}",
        "ops_per_s": f"{len(typical)} op positions at their median; raw {len(raw)} ops in "
        f"{result['busy_s']:.3f} s of op time",
        "peak_rss_mb": "worker" + (" + largest child" if workload == "cli" else ""),
        "reference": f"median {statistics.median(refs):.6g} s over {len(refs)} timings, nominal "
        f"{nominal:g} s; op times are scaled by nominal / reference",
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "sweep", "exact", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "selfsim" / "__init__.py").is_file():
        print(f"error: no selfsim sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.worker:
        return worker(args)

    import reference

    try:
        # each set-up is paired with a reference process start just before it
        refs = [reference.time_spawn(worker_env())]
        result, setup = spawn_worker(args, setup_only=False)
        samples = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                refs.append(reference.time_spawn(worker_env()))
                samples.append(spawn_worker(args, setup_only=True)[1])
    except (RuntimeError, subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for line in result["failures"][:10]:
        print(f"FAILED {line}")

    if args.trace:
        import tracing

        metrics = result["metrics"]
        units = dict(tracing.PER_LAYER)
        print(f"per-layer self time ({result['spans']} spans, wrapper cost "
              f"{result['wrapper_cost_s'] * 1e6:.2f} us/call)")
        for name, calls, self_s in result["table"]:
            print(f"  {name:40s} calls {calls:9d}  self {self_s:10.4f} s")
        print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.4f} "
              f"({result['traced_s']:.3f} s traced / {result['untraced_s']:.3f} s untraced)")
        print(f"ops whose spans do not cover their traced time: {len(result['flagged'])}")
        for flag in result["flagged"][:5]:
            print(f"  {flag['op']}: {flag['uncovered_s'] * 1e3:.3f} ms uncovered, "
                  f"{flag['allowed_s'] * 1e3:.3f} ms allowed")
        for name, value in metrics.items():
            print(f"  {name} = {value} {units[name]}")
        report = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        extra = {"flagged": result["flagged"], "table": result["table"]}
    else:
        values, detail = end_to_end(args.workload, result, samples, refs)
        for name, unit in END_TO_END:
            print(f"  {name:12s} {values[name]:.6g} {unit}  ({detail[name]})")
        print(f"  reference    {detail['reference']}")
        print(f"  {'error_rate':12s} {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
        report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = {"detail": detail, "setup_samples": samples, "error_rate": failed / attempted,
                 "passes": result["passes"], "reference": result["reference"],
                 "setup_reference": refs}

    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
            "attempted": attempted, "failed": failed, "failures": result["failures"],
            "metrics": report, **extra}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n"
    )
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
