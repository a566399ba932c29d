"""Spans around the public functions of each selfsim module.

A Tracer replaces each traced function by a wrapper that records a span
(name, parent span, op id, start, end) and, for some functions, counts of the
work done.  Every module-level name in ``selfsim.*`` bound to the function is
rebound, because the library imports by name; methods are patched on
``PiecewiseLinearFn``.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

MODULES = (
    "selfsim",
    "selfsim.params",
    "selfsim.pwl",
    "selfsim.simop",
    "selfsim.solver",
    "selfsim.analysis",
    "selfsim.measure",
    "selfsim.paramfile",
    "selfsim.cli",
)

# span name -> (module, attribute)
FUNCTIONS = {
    "params.validate": ("selfsim.params", "validate"),
    "simop.apply_G": ("selfsim.simop", "apply_G"),
    "simop.boundary_anchors": ("selfsim.simop", "boundary_anchors"),
    "simop.build_mesh": ("selfsim.simop", "build_mesh"),
    "simop.code_to_segment": ("selfsim.simop", "code_to_segment"),
    "simop.exact_value_at_code_point": ("selfsim.simop", "exact_value_at_code_point"),
    "simop.mesh_code_values": ("selfsim.simop", "mesh_code_values"),
    "solver.solve": ("selfsim.solver", "solve"),
    "solver.lp_distance": ("selfsim.solver", "lp_distance"),
    "solver.lp_norm": ("selfsim.solver", "lp_norm"),
    "analysis.norm_bound": ("selfsim.analysis", "norm_bound"),
    "analysis.continuity_check": ("selfsim.analysis", "continuity_check"),
    "analysis.monotonicity_classify": ("selfsim.analysis", "monotonicity_classify"),
    "analysis.variation_on_mesh": ("selfsim.analysis", "variation_on_mesh"),
    "analysis.stability_bound": ("selfsim.analysis", "stability_bound"),
    "measure.measure_from_function": ("selfsim.measure", "measure_from_function"),
    "measure.cdf_consistency": ("selfsim.measure", "cdf_consistency"),
    "measure.coded_interval": ("selfsim.measure", "coded_interval"),
    "measure.coded_interval_mass": ("selfsim.measure", "coded_interval_mass"),
    "measure.sample": ("selfsim.measure", "sample"),
    "paramfile.read_system": ("selfsim.paramfile", "read_system"),
    "paramfile.write_system": ("selfsim.paramfile", "write_system"),
    "cli.main": ("selfsim.cli", "main"),
}

# span name -> PiecewiseLinearFn methods; value_left/value_right are the
# searchsorted evaluations
METHODS = {
    "pwl.eval": ("value_left", "value_right"),
    "pwl.merged": ("merged",),
}


def _solve_counts(args, kwargs, res):
    max_depth = kwargs.get("max_depth", args[4] if len(args) > 4 else 60)
    if res.converged:
        stop = "stop_target"
    elif res.iterations >= max_depth:
        stop = "stop_max_depth"
    else:
        stop = "stop_piece_cap"
    return {"iterations": res.iterations, stop: 1}


def _apply_g_counts(args, kwargs, res):
    system, f = args[0], args[1]
    unmerged = system.n * (f.x.size - 1) + 1
    # the three breakpoint/value arrays written before merging
    return {
        "pieces_out": res.n_pieces,
        "bytes_computed": 3 * 8 * unmerged,
        "max_array_bytes": 8 * unmerged,
    }


COUNTERS = {
    "solver.solve": _solve_counts,
    "solver.lp_distance": lambda args, kw, res: {
        "pieces_in": args[0].n_pieces + args[1].n_pieces
    },
    "pwl.eval": lambda args, kw, res: {"points": int(np.size(args[1]))},
    "pwl.merged": lambda args, kw, res: {
        "pieces_in": args[0].n_pieces,
        "pieces_out": res.n_pieces,
    },
    "simop.apply_G": _apply_g_counts,
    "simop.mesh_code_values": lambda args, kw, res: {"codes": int(res[0].size)},
    "measure.cdf_consistency": lambda args, kw, res: {
        "codes": args[1].n ** int(args[2] if len(args) > 2 else kw["m"])
    },
    "measure.sample": lambda args, kw, res: {"draws": int(res.size)},
    "analysis.monotonicity_classify": lambda args, kw, res: {
        "indeterminate": int(res.verdict == "indeterminate")
    },
}


class Tracer:
    """In-memory span recorder; install() patches selfsim, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span in each column, in call order
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._wrappers: dict | None = None

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                counts[sid] = counter(args, kwargs, result)
            return result

        return wrapper

    def _build_wrappers(self):
        mods = [importlib.import_module(m) for m in MODULES]
        cls = sys.modules["selfsim.pwl"].PiecewiseLinearFn
        functions = {}
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr)
            functions[orig] = self._wrap(name, orig)
        methods = []
        for name, attrs in METHODS.items():
            for attr in attrs:
                orig = cls.__dict__[attr]
                methods.append((cls, attr, orig, self._wrap(name, orig)))
        self._wrappers = {"modules": mods, "functions": functions, "methods": methods}

    def install(self) -> None:
        if self._wrappers is None:
            self._build_wrappers()
        functions = self._wrappers["functions"]
        for mod in self._wrappers["modules"]:
            for key, val in list(vars(mod).items()):
                if callable(val) and val in functions:
                    self._saved.append((mod, key, val))
                    setattr(mod, key, functions[val])
        for cls, attr, orig, wrapper in self._wrappers["methods"]:
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, val = self._saved.pop()
            setattr(obj, key, val)

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def dump(self, path) -> None:
        """Write every span, its counts and the span names to an .npz file."""
        counts = json.dumps({str(k): v for k, v in self.counts.items()})
        np.savez_compressed(path, names=np.array(self.names), counts=np.array(counts), **self.columns())

    def ingest(self, path, op_id: int) -> None:
        """Append the spans another process dumped to `path`, under op_id."""
        with np.load(path) as data:
            base = len(self.name)
            ids = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int32)
            parent = data["parent"]
            self.name.extend(ids[data["name"]].tolist())
            self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
            self.op.extend([op_id] * parent.size)
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            for sid, c in json.loads(str(data["counts"])).items():
                self.counts[int(sid) + base] = c


def wrapper_cost(reps: int = 20000) -> float:
    """Seconds one tracing wrapper adds to a call."""

    def noop(*args):
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(reps):
        noop(1)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        wrapped(1)
    return max(0.0, (time.perf_counter() - t0 - bare) / reps)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children of one span never
    overlap and their durations add up to the time they cover.
    """
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def has_ancestor(span: int, parent: np.ndarray, name: np.ndarray, ancestor: int) -> bool:
    """True when a span named `ancestor` encloses `span`."""
    p = parent[span]
    while p >= 0:
        if name[p] == ancestor:
            return True
        p = parent[p]
    return False


# per-layer metrics of a traced run: (name, unit)
PER_LAYER = (
    ("solver.lp_distance.calls", "count"),
    ("solver.lp_distance.self_s", "s"),
    ("solver.lp_distance.pieces_in", "count"),
    ("pwl.eval.calls", "count"),
    ("pwl.eval.self_s", "s"),
    ("pwl.eval.points", "count"),
    ("simop.apply_G.calls", "count"),
    ("simop.apply_G.self_s", "s"),
    ("simop.apply_G.pieces_out", "count"),
    ("simop.apply_G.bytes_computed", "B"),
    ("simop.apply_G.max_array_bytes", "B"),
    ("pwl.merged.calls", "count"),
    ("pwl.merged.self_s", "s"),
    ("pwl.merged.keep_ratio", "ratio"),
    ("solver.solve.calls", "count"),
    ("solver.solve.self_s", "s"),
    ("solver.solve.iterations", "count"),
    ("solver.solve.stop_target", "count"),
    ("solver.solve.stop_max_depth", "count"),
    ("solver.solve.stop_piece_cap", "count"),
    ("solver.lp_norm.calls", "count"),
    ("solver.lp_norm.self_s", "s"),
    ("params.validate.calls", "count"),
    ("params.validate.self_s", "s"),
    ("simop.mesh_code_values.calls", "count"),
    ("simop.mesh_code_values.self_s", "s"),
    ("simop.mesh_code_values.codes", "count"),
    ("simop.exact_value_at_code_point.calls", "count"),
    ("simop.exact_value_at_code_point.self_s", "s"),
    ("simop.code_to_segment.calls", "count"),
    ("simop.code_to_segment.self_s", "s"),
    ("simop.build_mesh.self_s", "s"),
    ("measure.cdf_consistency.calls", "count"),
    ("measure.cdf_consistency.self_s", "s"),
    ("measure.cdf_consistency.codes", "count"),
    ("measure.measure_from_function.self_s", "s"),
    ("measure.sample.self_s", "s"),
    ("measure.sample.draws", "count"),
    ("measure.coded_interval.calls", "count"),
    ("analysis.norm_bound.self_s", "s"),
    ("analysis.continuity_check.self_s", "s"),
    ("analysis.variation_on_mesh.self_s", "s"),
    ("analysis.monotonicity_classify.calls", "count"),
    ("analysis.monotonicity_classify.self_s", "s"),
    ("analysis.monotonicity_classify.indeterminate", "count"),
    ("analysis.monotonicity_classify.scan_codes", "count"),
    ("paramfile.read_system.self_s", "s"),
    ("paramfile.write_system.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_ratio", "ratio"),
)


class Summary:
    """Per-span-name totals of a traced run, and per-op coverage."""

    def __init__(self, tracer: Tracer, n_ops: int):
        cols = tracer.columns()
        self.names = list(tracer.names)
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.op = cols["op"]
        self.duration = cols["end"] - cols["start"]
        self.self_s = self_times(self.parent, self.duration)
        self.counts = tracer.counts
        top = self.parent < 0
        # time covered by spans in each op, and spans per op
        self.op_covered = np.bincount(self.op[top], self.duration[top], minlength=n_ops)
        self.op_spans = np.bincount(self.op, minlength=n_ops)

    def ids(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(0, dtype=int)
        return np.nonzero(self.name == self.names.index(span))[0]

    def total(self, span: str, field: str) -> float:
        ids = self.ids(span)
        if field == "calls":
            return int(ids.size)
        if field == "self_s":
            return float(self.self_s[ids].sum())
        values = [self.counts[i].get(field, 0) for i in ids.tolist() if i in self.counts]
        if field == "max_array_bytes":
            return int(max(values, default=0))
        return int(sum(values))

    def scan_codes(self) -> int:
        if "analysis.monotonicity_classify" not in self.names:
            return 0
        mono = self.names.index("analysis.monotonicity_classify")
        return int(
            sum(
                self.counts[i]["codes"]
                for i in self.ids("simop.mesh_code_values").tolist()
                if has_ancestor(i, self.parent, self.name, mono)
            )
        )

    def table(self) -> list:
        """(span name, calls, self seconds), largest self time first."""
        rows = [(n, int(self.ids(n).size), float(self.self_s[self.ids(n)].sum())) for n in self.names]
        return sorted((r for r in rows if r[1]), key=lambda r: -r[2])


def layer_metrics(summary: Summary, extra: dict) -> dict:
    """Values of every PER_LAYER metric; `extra` supplies the ones measured
    outside the spans (cli.startup_s, cli.bytes_written, trace.overhead_ratio)."""
    out = {}
    for metric, _unit in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
        elif metric == "pwl.merged.keep_ratio":
            pieces_in = summary.total("pwl.merged", "pieces_in")
            out[metric] = summary.total("pwl.merged", "pieces_out") / pieces_in if pieces_in else 0.0
        elif metric == "analysis.monotonicity_classify.scan_codes":
            out[metric] = summary.scan_codes()
        else:
            span, field = metric.rsplit(".", 1)
            out[metric] = summary.total(span, field)
    return out
