"""The four workloads: inputs made from the seed, the op each runs, and the
output checks, each against an oracle that does not reuse the code under test.

A workload is a list of passes; pass k is built from ``(seed, k)`` alone, so
the untraced and the traced run see the same inputs.  Every op calls the
library through ``selfsim.<name>`` so that the tracer's rebinding reaches it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference
import selfsim as ss
from selfsim import presets


@dataclass
class Op:
    label: str
    # run(tracer) -> output; in-process ops ignore the tracer (the runner
    # installs it around them), child-process ops launch a traced child
    run: Callable[[Any], Any]
    # check(output) -> list of failure messages, empty when the output is right
    check: Callable[[Any], list]
    child: bool = False


def fingerprint(obj) -> str:
    """Digest of an op's output, exact to the bit for every float and array."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif obj is None or isinstance(obj, (bool, int, str, bytes, np.integer, np.bool_)):
        h.update(repr(obj).encode())
    elif isinstance(obj, ss.PiecewiseLinearFn):
        for arr in (obj.x, obj.yl, obj.yr):
            _feed(h, arr)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


# ----------------------------------------------------------------------
# oracles shared by the workloads
# ----------------------------------------------------------------------
def rate(system, p) -> float:
    """Contraction rate q = r_p^(1/p) (max |d_k| at p = inf), from the parameters."""
    d = np.abs(np.asarray(system.d))
    if math.isinf(p):
        return float(d.max())
    return float(np.asarray(system.a) @ d**p) ** (1.0 / p)


def _line_norm_p(u: float, w: float, p: float) -> float:
    """Integral over [0, 1] of |u t + w|^p."""
    if abs(u) <= 1e-9 * max(1.0, abs(w)):
        return abs(w + 0.5 * u) ** p

    def prim(v):
        return math.copysign(abs(v) ** (p + 1.0), v) / (p + 1.0)

    return (prim(u + w) - prim(w)) / u


def planned_target(system, p, depth: int) -> float:
    """A target error that solve from the identity seed meets at exactly `depth`.

    Steps contract exactly: ||f_m - f_{m-1}||_p = q^(m-1) ||G(id) - id||_p, so the
    certified error after m steps is q/(1-q) q^(m-1) step_1.  The target sits
    halfway (geometrically) between the errors after depth-1 and depth steps.
    On branch k, G(id) - id is (c_k + d_k - a_k) t + (beta_k - alpha_k).
    """
    alpha = np.concatenate(([0.0], np.cumsum(system.a)[:-1]))
    u = np.asarray(system.c) + np.asarray(system.d) - np.asarray(system.a)
    w = np.asarray(system.beta) - alpha
    if math.isinf(p):
        step1 = float(np.maximum(np.abs(w), np.abs(u + w)).max())
    else:
        parts = [ak * _line_norm_p(uk, wk, p) for ak, uk, wk in zip(system.a, u, w)]
        step1 = math.fsum(parts) ** (1.0 / p)
    q = rate(system, p)
    return q / (1.0 - q) * q ** (depth - 1) * step1 / math.sqrt(q)


def exact_mean(system) -> float:
    """Integral of the fixed point: sum a_k (c_k/2 + beta_k) / (1 - sum a_k d_k)."""
    a, c, d, b = (np.asarray(v) for v in (system.a, system.c, system.d, system.beta))
    return float(a @ (0.5 * c + b) / (1.0 - a @ d))


def trapezoid_mean(f) -> float:
    """Integral of a piecewise-linear function, piece by piece."""
    return float(np.sum(np.diff(f.x) * 0.5 * (f.yr[:-1] + f.yl[1:])))


def random_system(rng, n, d_lo, d_hi, a_min=0.0):
    """Random system with |d_k| drawn from [d_lo, d_hi] and random signs.

    a_min keeps every segment of a deep solve wider than the float spacing:
    below a_min^depth ~ 1e-16 neighbouring breakpoints round together, and a
    sup-norm solve then stalls short of its target.
    """
    a = a_min + (1.0 - n * a_min) * rng.dirichlet(np.full(n, 2.0))
    a = a / a.sum()
    d = rng.uniform(d_lo, d_hi, n) * rng.choice((-1.0, 1.0), n)
    return ss.SimilaritySystem(
        a=a, c=rng.uniform(-1.0, 1.0, n), d=d, beta=rng.uniform(-1.0, 1.0, n)
    )


def identity_negative_d(rng, n):
    """f(x) = x written with some d_k < 0: c_k = a_k - d_k, beta_k = alpha_k."""
    a = rng.dirichlet(np.full(n, 4.0))
    a = a / a.sum()
    d = rng.uniform(0.05, 0.4, n) * np.where(np.arange(n) % 2 == 1, -1.0, 1.0)
    alpha = np.concatenate(([0.0], np.cumsum(a)[:-1]))
    return ss.SimilaritySystem(a=a, c=a - d, d=d, beta=alpha)


def dyadic_measure(rng):
    """Three-branch CDF on (1/4, 1/2, 1/4) with weights in quarters: at depth m
    every code point is an integer over 4^m and every value an integer over
    4^(m+1), so up to depth 25 all of them are floats exactly."""
    d = [(0.25, 0.5, 0.25), (0.5, 0.25, 0.25), (0.25, 0.25, 0.5)][int(rng.integers(3))]
    return ss.SimilaritySystem(
        a=(0.25, 0.5, 0.25), c=(0.0, 0.0, 0.0), d=d, beta=(0.0, d[0], d[0] + d[1])
    )


def _fail(cond: bool, msg: str, out: list) -> None:
    if not cond:
        out.append(msg)


# ----------------------------------------------------------------------
# certify: solve to a certified error
# ----------------------------------------------------------------------
# (kind, p, depth at which the planned target is met).  The final approximants
# run from 2e4 to 1.6e6 pieces, the heavy ops are spread over the pass, and
# the odd count keeps the median and p75 inside one class's latencies.
CERTIFY_PLAN = (
    ("family", 1.0, 9),
    ("bernoulli", 1.0, 15),
    ("random3", 1.0, 10),
    ("cantor", math.inf, 18),
    ("cantor", 1.0, 14),
    ("bernoulli", 2.0, 17),
    ("random2", 1.0, 16),
    ("random3", 3.0, 13),
    ("family", 2.0, 10),
    ("cantor", 2.0, 16),
    ("random2", math.inf, 19),
    ("bernoulli", 3.0, 18),
    ("family", 3.0, 11),
    ("bernoulli", math.inf, 19),
    ("random3", 2.0, 11),
    ("cantor", 3.0, 17),
    ("family", math.inf, 12),
)


def _certify_system(kind, rng):
    if kind == "cantor":
        return presets.cantor_family(1.0 / 3.0, 0.0), 0.5
    if kind == "bernoulli":
        w = float(rng.uniform(0.25, 0.4))
        return presets.bernoulli(w), w
    if kind == "family":
        return presets.cantor_family(float(rng.uniform(0.25, 0.4)), float(rng.uniform(0.03, 0.12))), None
    n = 2 if kind == "random2" else 3
    return random_system(rng, n, 0.3, 0.4, a_min=0.2), None


def _certify_check(system, target, closed_l1):
    def check(res):
        out = []
        _fail(res.converged, "solve did not converge", out)
        err = res.aposteriori_error
        _fail(err <= target, f"certified error {err!r} above target {target!r}", out)
        f = res.approximant
        # |integral(f_m - f)| <= ||f_m - f||_1 <= ||f_m - f||_p <= err; for the
        # nonnegative Cantor and Bernoulli iterates the integral is ||f_m||_1
        want = exact_mean(system) if closed_l1 is None else closed_l1
        if closed_l1 is not None:
            _fail(min(f.yl.min(), f.yr.min()) >= 0.0, "negative Cantor/Bernoulli iterate", out)
        mean = trapezoid_mean(f)
        _fail(
            abs(mean - want) <= err + 1e-12 * max(1.0, abs(want)),
            f"integral {mean!r} not within {err!r} of {want!r}",
            out,
        )
        return out

    return check


def certify_pass(seed: int, k: int) -> list:
    rng = np.random.default_rng([seed, 1, k])
    ops = []
    for kind, p, depth in CERTIFY_PLAN:
        system, closed_l1 = _certify_system(kind, rng)
        # a fresh target each pass, still met at `depth` (the planned target
        # sits a factor 1/sqrt(q) >= 1.15 above the error there), so no pass
        # repeats the previous pass's call
        target = planned_target(system, p, depth) * float(rng.uniform(0.95, 1.0))
        ops.append(
            Op(
                f"certify {kind} p={p:g} target={target:.3g}",
                lambda tracer, s=system, p=p, t=target: ss.solve(s, p, t),
                _certify_check(system, target, closed_l1),
            )
        )
    return ops


# ----------------------------------------------------------------------
# sweep: the randomized acceptance sweep, one (system, p) per op
# ----------------------------------------------------------------------
SWEEP_P = (1.0, 1.5, 2.0, 2.5, 3.0, math.inf)
SWEEP_N = (2, 3, 4)
SWEEP_DEPTH = 9
# extra checks per (p index, n index).  Only n = 2 takes the stability extra,
# whose second solve would otherwise split the n = 3 and n = 4 latencies in
# two, and the median falls among the n = 3 ops
EXTRAS = (
    ("stability", "contraction", "plain"),
    ("contraction", "plain", "contraction"),
    ("stability", "plain", "plain"),
    ("contraction", "contraction", "plain"),
    ("stability", "plain", "contraction"),
    ("contraction", "plain", "plain"),
)


def _random_pwl(rng):
    m = int(rng.integers(2, 7))
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, m)), [1.0]))
    yl = rng.uniform(-1.0, 1.0, x.size)
    yr = np.where(rng.uniform(size=x.size) < 0.5, yl, rng.uniform(-1.0, 1.0, x.size))
    return ss.PiecewiseLinearFn(x, yl, yr)


def _loose_solve(system, p):
    # target out of reach: every solve stops on max depth
    return ss.solve(system, p, 1e-300, max_depth=SWEEP_DEPTH, piece_cap=2 * 10**6)


def _sweep_run(system, p, extra, other):
    res = _loose_solve(system, p)
    out = {
        "bound": ss.norm_bound(system, p).bound,
        "result": res,
        "measured": ss.lp_norm(res.approximant, p),
    }
    if extra == "stability":
        res2 = _loose_solve(other, p)
        norms = (
            out["measured"] + res.aposteriori_error,
            ss.lp_norm(res2.approximant, p) + res2.aposteriori_error,
        )
        out["result2"] = res2
        out["stability_bound"] = ss.stability_bound(system, other, p, norms)
        out["distance"] = ss.lp_distance(res.approximant, res2.approximant, p)
    elif extra == "contraction":
        f, g = other
        out["before"] = ss.lp_distance(f, g, p)
        out["after"] = ss.lp_distance(ss.apply_G(system, f), ss.apply_G(system, g), p)
    return out


def _sweep_check(system, p, extra):
    def check(out):
        bad = []
        err = out["result"].aposteriori_error
        _fail(
            out["measured"] <= out["bound"] + err,
            f"norm {out['measured']!r} above bound {out['bound']!r} + {err!r}",
            bad,
        )
        if extra == "stability":
            allowed = out["stability_bound"] + err + out["result2"].aposteriori_error
            _fail(
                out["distance"] <= allowed,
                f"distance {out['distance']!r} above stability bound {allowed!r}",
                bad,
            )
        elif extra == "contraction":
            want = rate(system, p) * out["before"]
            _fail(
                abs(out["after"] - want) <= 1e-9 * want,
                f"contraction {out['after']!r} != r_p^(1/p) x {out['before']!r}",
                bad,
            )
        return bad

    return check


def sweep_pass(seed: int, k: int) -> list:
    rng = np.random.default_rng([seed, 2, k])
    ops = []
    for ip, p in enumerate(SWEEP_P):
        for i_n, n in enumerate(SWEEP_N):
            extra = EXTRAS[ip][i_n]
            # a_k >= 0.05 keeps all n^9 pieces distinct, so an op's cost
            # depends on (n, p, extra) and not on the draw
            system = random_system(rng, n, 0.0, 0.6, a_min=0.05)
            if extra == "stability":
                other = ss.SimilaritySystem(
                    a=system.a,
                    c=rng.uniform(-1.0, 1.0, n),
                    d=rng.uniform(-0.6, 0.6, n),
                    beta=rng.uniform(-1.0, 1.0, n),
                )
            elif extra == "contraction":
                other = (_random_pwl(rng), _random_pwl(rng))
            else:
                other = None
            ops.append(
                Op(
                    f"sweep n={n} p={p:g} {extra}",
                    lambda tracer, s=system, p=p, e=extra, o=other: _sweep_run(s, p, e, o),
                    _sweep_check(system, p, extra),
                )
            )
    return ops


# ----------------------------------------------------------------------
# exact: code-point values and verdicts, no solve
# ----------------------------------------------------------------------
BATCH_DEPTH = 20
BATCH_SIZE = 32
# codes per op replayed in exact rationals: mesh indices, and batch codes
REPLAY_SAMPLES = 16
REPLAY_BATCH = 8


def _exact_run(system, m, cdf_depth, collapse, codes):
    anchors = ss.boundary_anchors(system)
    out = {
        "anchors": anchors,
        "mesh": ss.mesh_code_values(system, anchors, m),
        "variation": ss.variation_on_mesh(system, m),
        "continuity": ss.continuity_check(system),
        "monotonicity": ss.monotonicity_classify(system),
        "batch": [
            (
                ss.code_to_segment(system, w),
                ss.exact_value_at_code_point(system, anchors, w, "left"),
                ss.exact_value_at_code_point(system, anchors, w, "right"),
            )
            for w in codes
        ],
    }
    if cdf_depth:
        mu = ss.measure_from_function(system, collapse_zero_branches=collapse)
        out["cdf"] = ss.cdf_consistency(system, mu, cdf_depth)
    return out


def _replay(system, word, end):
    """Fraction replay of the code recursion: (point, one-sided value)."""
    F = [[Fraction(v) for v in seq] for seq in (system.a, system.c, system.d, system.beta)]
    a, c, d, b = F
    alpha = [Fraction(0)]
    for ak in a:
        alpha.append(alpha[-1] + ak)
    if end == "left":
        t, v = Fraction(0), b[0] / (1 - d[0])
    else:
        t, v = Fraction(1), (c[-1] + b[-1]) / (1 - d[-1])
    for k in reversed(word):
        i = k - 1
        v = c[i] * t + d[i] * v + b[i]
        t = a[i] * t + alpha[i]
    return t, v


def _word(index: int, n: int, m: int) -> tuple:
    letters = []
    for _ in range(m):
        index, r = divmod(index, n)
        letters.append(r + 1)
    return tuple(reversed(letters))


def _exact_check(system, m, expect, samples, codes):
    def check(out):
        bad = []
        _fail(
            out["continuity"].verdict == expect["continuity"],
            f"continuity {out['continuity'].verdict} != {expect['continuity']}",
            bad,
        )
        mono = out["monotonicity"]
        _fail(
            mono.verdict == expect["monotonicity"],
            f"monotonicity {mono.verdict} != {expect['monotonicity']}",
            bad,
        )
        if "witnesses" in expect:
            kinds = {w["condition"] for w in mono.witnesses}
            _fail(kinds == expect["witnesses"], f"witnesses {kinds}", bad)
        if "variation" in expect:
            want, rel = expect["variation"]
            _fail(
                abs(out["variation"] - want) <= rel * want,
                f"Var over T_{m} = {out['variation']!r}, expected {want!r}",
                bad,
            )
        if "cdf" in out:
            _fail(out["cdf"] <= 1e-12, f"cdf_consistency {out['cdf']!r} > 1e-12", bad)
        if expect.get("dyadic"):
            xL, vL, xR, vR = out["mesh"]
            for i in samples:
                word = _word(i, system.n, m)
                for end, xs, vs in (("left", xL, vL), ("right", xR, vR)):
                    t, v = _replay(system, word, end)
                    if (xs[i], vs[i]) != (float(t), float(v)):
                        bad.append(f"mesh {end} value at code {word} differs from Fraction replay")
            for w, ((lo, hi), left, right) in zip(codes[:REPLAY_BATCH], out["batch"]):
                t0, v0 = _replay(system, w, "left")
                t1, v1 = _replay(system, w, "right")
                if (lo, hi, left, right) != (float(t0), float(t1), float(v0), float(v1)):
                    bad.append(f"depth-{len(w)} code {w} differs from Fraction replay")
        return bad

    return check


def _exact_cases(rng):
    """(label, system, mesh depth, cdf depth, collapse, expected results).

    Seven ops of distinct cost, so that the median and p75 each fall inside
    the latencies of one of them.
    """
    a = float(rng.uniform(0.25, 0.4))
    delta = float(rng.uniform(0.03, 0.12))
    w = (0.25, 0.75)[int(rng.integers(2))]
    holds = {"continuity": "holds", "monotonicity": "holds", "variation": (1.0, 1e-12), "dyadic": True}
    return (
        (
            "family",
            presets.cantor_family(a, delta),
            10,
            0,
            False,
            {
                "continuity": "holds",
                "monotonicity": "fails",
                "variation": ((1.0 + 4.0 * delta) ** 10, 1e-9),
            },
        ),
        (
            "counterexample",
            presets.counterexample(float(rng.uniform(0.3, 0.7))),
            9,
            0,
            False,
            {"continuity": "holds", "monotonicity": "fails", "witnesses": {"mesh_decrease"}},
        ),
        (
            "identity-negative-d",
            identity_negative_d(rng, 4),
            8,
            0,
            False,
            {"continuity": "holds", "monotonicity": "indeterminate", "variation": (1.0, 1e-9)},
        ),
        ("bernoulli", presets.bernoulli(w), 16, 10, False, holds),
        ("dyadic-measure", dyadic_measure(rng), 11, 8, False, holds),
        ("cantor", presets.cantor_family(0.25, 0.0), 12, 10, True, holds),
        (
            "family-a=1/3",
            presets.cantor_family(1.0 / 3.0, delta),
            11,
            0,
            False,
            {
                "continuity": "holds",
                "monotonicity": "fails",
                "variation": ((1.0 + 4.0 * delta) ** 11, 1e-9),
            },
        ),
    )


def exact_pass(seed: int, k: int) -> list:
    rng = np.random.default_rng([seed, 3, k])
    ops = []
    for label, system, m, cdf_depth, collapse, expect in _exact_cases(rng):
        n = system.n
        codes = [tuple(int(v) for v in rng.integers(1, n + 1, BATCH_DEPTH)) for _ in range(BATCH_SIZE)]
        samples = sorted({0, n**m - 1, *(int(v) for v in rng.integers(0, n**m, REPLAY_SAMPLES))})
        ops.append(
            Op(
                f"exact {label} m={m}",
                lambda tracer, s=system, m=m, cd=cdf_depth, c=collapse, w=codes: _exact_run(
                    s, m, cd, c, w
                ),
                _exact_check(system, m, expect, samples, codes),
            )
        )
    return ops


# ----------------------------------------------------------------------
# cli: one `python -m selfsim.cli` child process per op
# ----------------------------------------------------------------------
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class CliOutput:
    returncode: int
    stdout: bytes
    stderr: bytes
    out_bytes: bytes | None
    spans: str | None  # traced runs: the child's span file


class CliWorkload:
    """Parameter files written at set-up, and the commands of one pass."""

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.dir = workdir
        self.env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "LC_ALL": "C"}
        rng = np.random.default_rng([seed, 4])
        self.systems = {
            "cantor": presets.cantor_family(1.0 / 3.0, 0.0),
            "bern": presets.bernoulli(float(rng.uniform(0.25, 0.4))),
            "fam": presets.cantor_family(float(rng.uniform(0.25, 0.4)), float(rng.uniform(0.03, 0.12))),
            "cx": presets.counterexample(float(rng.uniform(0.3, 0.7))),
            "idneg": identity_negative_d(rng, 4),
            "rand": random_system(rng, 3, 0.3, 0.4, a_min=0.2),
        }
        for name, system in self.systems.items():
            ss.write_system(system, self.path(name))
        self.preset = (float(rng.uniform(0.2, 0.45)), float(rng.uniform(0.0, 0.3)))
        # depth-20 codes; every system here has three branches
        self.codes = [",".join(str(v) for v in rng.integers(1, 4, 20)) for _ in range(2)]
        self.sample_seed = int(rng.integers(1 << 30))
        self.commands = self._commands()
        self._expected: dict[int, Any] = {}

    def path(self, name: str) -> str:
        return str(self.dir / f"{name}.json")

    def _commands(self):
        P, S = self.path, self.systems
        solve_t = planned_target(S["bern"], 1.0, 17)  # 98304 pieces
        solve2_t = planned_target(S["rand"], math.inf, 10)  # 59049 pieces
        norms_t = planned_target(S["rand"], 2.0, 9)
        render_t = planned_target(S["fam"], 1.0, 9)
        a, delta = self.preset
        # nine read-mostly commands and five that write 4e3 to 1e5 lines, so
        # the median falls among the readers and p75 among the writers.  A
        # short pass gives each command several passes in a run to be timed in
        return [
            ("validate", [P("cantor")], None),
            ("check", [P("cx")], None),
            ("eval", [P("cantor"), "--code", self.codes[0], "--json"], None),
            ("solve", [P("bern"), "--p", "1", "--target-error", repr(solve_t), "--json"], "sol.csv"),
            ("validate", [P("rand"), "--p", "1", "2", "2.5", "inf", "--json"], None),
            ("check", [P("idneg")], None),
            ("measure", [P("bern"), "--depth", "12"], "measure.csv"),
            ("eval", [P("rand"), "--code", self.codes[1], "--end", "right", "--json"], None),
            ("variation", [P("fam"), "--depth", "8", "--json"], None),
            ("render", [P("fam"), "--p", "1", "--target-error", repr(render_t), "--points", "4096"], "render.csv"),
            ("norms", [P("rand"), "--p", "2", "--target-error", repr(norms_t), "--json"], None),
            ("measure", [P("bern"), "--samples", "50000", "--sample-depth", "20",
                         "--seed", str(self.sample_seed)], "samples.txt"),
            ("preset", ["cantor_family", repr(a), repr(delta), "--json"], "preset.json"),
            ("solve", [P("rand"), "--p", "inf", "--target-error", repr(solve2_t), "--json"], "sol2.csv"),
        ]

    def argv(self, index: int, tracer) -> list:
        cmd, args, out = self.commands[index]
        argv = [cmd, *args] + (["--out", str(self.dir / out)] if out else [])
        if tracer is None:
            return [sys.executable, "-m", "selfsim.cli", *argv]
        return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(self.dir / "spans.npz"), *argv]

    def run(self, index: int, tracer) -> CliOutput:
        out = self.commands[index][2]
        proc = subprocess.run(
            self.argv(index, tracer), env=self.env, capture_output=True, timeout=120
        )
        out_bytes = (self.dir / out).read_bytes() if out and proc.returncode == 0 else None
        spans = str(self.dir / "spans.npz") if tracer is not None and proc.returncode == 0 else None
        return CliOutput(proc.returncode, proc.stdout, proc.stderr, out_bytes, spans)

    def expected(self, index: int):
        """In-process library results for command `index` (computed once)."""
        if index not in self._expected:
            self._expected[index] = self._compute_expected(index)
        return self._expected[index]

    def _compute_expected(self, index: int):
        cmd, args, _ = self.commands[index]
        name = Path(args[0]).stem if cmd != "preset" else None
        system = self.systems.get(name)
        opt = dict(zip(args, args[1:]))
        p = float(opt["--p"]) if "--p" in opt else None
        if cmd == "validate":
            ps = [float(v) for v in args[args.index("--p") + 1 : -1]] if "--p" in args else [1.0, 2.0, math.inf]
            return {
                "alpha": list(ss.validate(system).alpha),
                "r_p": [ss.contraction_factor(system, q).r_p for q in ps],
            }
        if cmd == "check":
            return {
                "continuity": ss.continuity_check(system).verdict,
                "monotonicity": ss.monotonicity_classify(system).verdict,
            }
        if cmd == "eval":
            word = [int(v) for v in opt["--code"].split(",")]
            end = opt.get("--end", "left")
            lo, hi = ss.code_to_segment(system, word)
            value = ss.exact_value_at_code_point(system, ss.boundary_anchors(system), word, end)
            return {"point": lo if end == "left" else hi, "value": value}
        if cmd == "variation":
            D, verdict = ss.variation_criterion(system)
            depth = int(opt["--depth"])
            return {"D": D, "verdict": verdict.verdict, "variation_on_mesh": ss.variation_on_mesh(system, depth)}
        if cmd in ("solve", "norms", "render"):
            res = ss.solve(system, p, float(opt["--target-error"]))
            doc = {
                "iterations": res.iterations,
                "certified_error": res.aposteriori_error,
                "converged": res.converged,
                "pieces": res.approximant.n_pieces,
            }
            if cmd == "norms":
                doc["bound"] = ss.norm_bound(system, p).bound
                doc["measured_norm"] = ss.lp_norm(res.approximant, p)
            if cmd == "render":
                grid = np.union1d(res.approximant.x, np.linspace(0.0, 1.0, int(opt["--points"])))
                doc["rows"] = grid.size
            return doc
        if cmd == "measure":
            mu = ss.measure_from_function(system, collapse_zero_branches="--collapse" in args)
            if "--samples" in opt:
                xs = ss.sample(mu, int(opt["--samples"]), int(opt["--sample-depth"]), self.sample_seed)
                return {"samples": xs}
            return {"rows": mu.n ** int(opt["--depth"])}
        if cmd == "preset":
            a, delta = self.preset
            return {"system": presets.cantor_family(a, delta)}
        raise ValueError(cmd)

    def check(self, index: int, out: CliOutput) -> list:
        bad = []
        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr.decode(errors='replace')[-300:]}"]
        cmd, args, _ = self.commands[index]
        want = self.expected(index)
        text = out.stdout.decode()
        doc = json.loads(text) if "--json" in args or cmd == "check" else None
        if cmd == "validate":
            if doc is None:
                lines = text.splitlines()
                _fail(lines[0] == f"n: {self.systems['cantor'].n}" and len(lines) == 5, "validate text output", bad)
            else:
                _fail(doc["alpha"] == want["alpha"], "validate alpha", bad)
                _fail([r["r_p"] for r in doc["reports"]] == want["r_p"], "validate r_p", bad)
        elif cmd == "check":
            _fail(doc["continuity"]["verdict"] == want["continuity"], "check continuity verdict", bad)
            _fail(doc["monotonicity"]["verdict"] == want["monotonicity"], "check monotonicity verdict", bad)
            expected_mono = {"cx": "fails", "idneg": "indeterminate"}[
                Path(args[0]).stem
            ]
            _fail(want["monotonicity"] == expected_mono, f"monotonicity not {expected_mono}", bad)
        elif cmd in ("eval", "variation"):
            for key, value in want.items():
                _fail(doc[key] == value, f"{cmd} {key}: {doc[key]!r} != {value!r}", bad)
        elif cmd in ("solve", "norms"):
            for key, value in want.items():
                if key in doc:
                    _fail(doc[key] == value, f"{cmd} {key}: {doc[key]!r} != {value!r}", bad)
            _fail(doc["converged"] is True, f"{cmd} did not converge", bad)
            if cmd == "solve":
                rows = out.out_bytes.count(b"\n") - 2
                _fail(rows == want["pieces"] + 1, f"solve wrote {rows} rows, expected {want['pieces'] + 1}", bad)
        elif cmd == "render":
            rows = out.out_bytes.count(b"\n") - 1
            _fail(rows == want["rows"], f"render wrote {rows} rows, expected {want['rows']}", bad)
        elif cmd == "measure" and "samples" in want:
            xs = np.array([float(v) for v in out.out_bytes.split()])
            _fail(np.array_equal(xs, want["samples"]), "measure samples differ from in-process sample", bad)
        elif cmd == "measure":
            lines = out.out_bytes.decode().splitlines()[1:]
            mass = math.fsum(float(line.rsplit(",", 1)[1]) for line in lines)
            _fail(len(lines) == want["rows"], f"measure wrote {len(lines)} rows", bad)
            _fail(abs(mass - 1.0) <= 1e-12, f"measure masses sum to {mass!r}", bad)
        elif cmd == "preset":
            _fail(doc["n"] == 3, "preset n", bad)
            _fail(ss.read_system(doc["out"]) == want["system"], "preset file differs from preset", bad)
        return bad


def cli_pass(workload: CliWorkload) -> list:
    return [
        Op(
            f"cli {cmd} {Path(args[0]).name}",
            lambda tracer, i=i: workload.run(i, tracer),
            lambda out, i=i: workload.check(i, out),
            child=True,
        )
        for i, (cmd, args, _) in enumerate(workload.commands)
    ]


class Workload:
    """Ops of pass k for one named workload."""

    def __init__(self, name: str, seed: int, workdir: Path, src: Path):
        self.name = name
        self.seed = seed
        self.cli = CliWorkload(seed, workdir, src) if name == "cli" else None
        # a process start is timed beside every other cli op, the kernel
        # around each pass
        self.reference_per_op = self.cli is not None
        self.reference_nominal = (
            reference.SPAWN_NOMINAL_S if self.cli is not None else reference.KERNEL_NOMINAL_S
        )

    def ops(self, k: int) -> list:
        if self.cli is not None:
            return cli_pass(self.cli)
        return PASSES[self.name](self.seed, k)

    def reference_s(self) -> float:
        """Time of this workload's reference work: a process start for the
        cli workload, whose ops are process starts, else the kernel."""
        if self.cli is not None:
            return reference.time_spawn(self.cli.env)
        return reference.time_kernel()


PASSES = {"certify": certify_pass, "sweep": sweep_pass, "exact": exact_pass}
NAMES = ("certify", "sweep", "exact", "cli")
