"""Fixed-point iteration with certified a-posteriori error, and exact L_p
norms/distances of piecewise-linear functions.

The certified error is the contraction estimate q/(1-q) * ||f_m - f_{m-1}||_p
with q = r_p^{1/p} (r_inf for p = inf).  On branch k, G f - G g is
d_k (f - g)(t), so ||G f - G g||_p = q ||f - g||_p holds with equality and
every step follows from the first: ||f_m - f_{m-1}||_p = q^{m-1} step_1.
Only step_1 = ||f_1 - f_0||_p is measured; later steps are bounded by
q^{m-1} step_1 (1 + STEP_REL_ALLOWANCE) + STEP_ABS_ULPS * eps * max|f_m|, a
rounding allowance sized so that it covers the measured steps (the absolute
term takes over once a step reaches the rounding floor of the iterate's
values).

Known limit: near the float spacing the computed iterates stop following G
exactly.  Breakpoints a_k x + alpha_k are rounded, which moves the shortest
segments (length a_min^m) by a relative eps / a_min^m, and slopes that grow
like (|d_k| / a_k)^m carry that into the values.  For a = (0.91, 0.09),
c = (0.3, -0.2), d = (0.3, 0.6), beta = (0.1, 0.2) at p = inf (shortest
segment 3e-12 at depth 11) the measured steps leave the identity by 1.3e-6
at depth 11 and by 0.23% at depth 14.  Neither this certificate nor one from
a measured last step accounts for that rounding of the iterates themselves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadOption, NonFinite, NotContractive
from .params import SimilaritySystem, check_exponent, contraction_factor
from .pwl import _BLOCK, PiecewiseLinearFn
from .simop import DEFAULT_SEGMENT_CAP, apply_G

# Rounding allowance on the predicted step q^{m-1} step_1: a relative part, and
# an absolute part in units of eps times the iterate's largest value.
STEP_REL_ALLOWANCE = 1e-6
STEP_ABS_ULPS = 4.0
# _piece_integrals switches to its midpoint expansion below |dg/g| = this / (p+1)
NEAR_CONSTANT = 0.1


@dataclass(frozen=True)
class SolveResult:
    approximant: PiecewiseLinearFn
    iterations: int
    contraction_q: float
    aposteriori_error: float
    converged: bool
    stop: str


def _piece_integrals(g0: np.ndarray, g1: np.ndarray, h: np.ndarray, p: float) -> np.ndarray:
    """Exact integrals of |g|^p over pieces where g runs linearly g0 -> g1.

    Uses the antiderivative sign(u)|u|^{p+1}/(p+1) in the variable u = g(t),
    which is valid across sign changes.  Its difference A1 - A0 cancels on
    near-constant pieces, with relative error about 1.5e-16 / ((p+1) delta)
    at delta = dg/g.  Pieces with |dg| <= NEAR_CONSTANT / (p+1) * max|g| use
    the midpoint expansion sum_j C(p, 2j) (delta/2)^{2j} / (2j+1) through
    delta^6 instead, whose truncation grows like (p delta)^8.  At that switch
    both stay within about 2e-15 relative of 50-digit mpmath for p from 1
    to 20.

    The expansion runs in place over every piece (most pieces of an
    iterate are near-constant); only the closed-form pieces are gathered,
    and their results overwrite it.  A NaN piece fails the `<=` test and
    takes the closed form.  A near piece with gm = 0 has g0 = g1 = 0, so its
    delta stays dg = +-0.  At p = 1 the expansion is exactly 1 and |gm|^p = |gm|,
    so both are skipped.
    """
    g0 = np.asarray(g0, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    dg = g1 - g0
    scale = np.maximum(np.abs(g0), np.abs(g1))
    exact = np.flatnonzero(~(np.abs(dg) <= NEAR_CONSTANT / (p + 1.0) * scale))
    dg[exact] = 0.0  # the expansion of a closed-form piece is overwritten: keep it finite

    out = g0 + g1
    out *= 0.5
    np.abs(out, out=out)  # |gm|
    if p != 1.0:
        d2 = np.divide(dg, out, out=dg, where=out != 0.0)  # +-delta, in dg's buffer
        d2 *= d2
        c1 = p * (p - 1.0) / 24.0
        c2 = c1 * (p - 2.0) * (p - 3.0) / 80.0
        c3 = c2 * (p - 4.0) * (p - 5.0) / 168.0
        poly = d2 * c3
        poly += c2
        poly *= d2
        poly += c1
        poly *= d2
        poly += 1.0
        out **= p
        out *= poly
    out *= h

    if exact.size:
        a0, a1 = g0[exact], g1[exact]
        A0 = np.sign(a0) * np.abs(a0) ** (p + 1.0)
        A1 = np.sign(a1) * np.abs(a1) ** (p + 1.0)
        out[exact] = (A1 - A0) / ((a1 - a0) * (p + 1.0)) * h[exact]
    return out


def _norm(x: np.ndarray, yl: np.ndarray, yr: np.ndarray, p: float) -> float:
    """Exact L_p norm of the piecewise-linear function (x, yl, yr).

    Finite p integrates the closed form per linear piece yr[i] -> yl[i+1],
    in blocks of _BLOCK pieces whose temporaries stay in cache (full-size
    ones fault in fresh pages on every call), into one array that is summed
    once, so the sum is numpy's pairwise sum over all pieces.  p = inf is the
    maximum of the one-sided |values| (a piecewise-linear function attains
    its sup at a breakpoint), read off max and min without an |y|
    temporary; NaN propagates and an all-zero function gives +0.0.
    """
    if math.isinf(p):
        top = np.maximum(yl.max(), yr.max())
        bottom = np.minimum(yl.min(), yr.min())
        return float(np.maximum(top, -bottom)) + 0.0
    pieces = np.empty(x.size - 1)
    for lo in range(0, pieces.size, _BLOCK):
        hi = min(lo + _BLOCK, pieces.size)
        pieces[lo:hi] = _piece_integrals(yr[lo:hi], yl[lo + 1 : hi + 1], np.diff(x[lo : hi + 1]), p)
    return float(pieces.sum()) ** (1.0 / p)


def lp_distance(f: PiecewiseLinearFn, g: PiecewiseLinearFn, p) -> float:
    """Exact L_p distance of two piecewise-linear functions: the norm of
    their difference on the union of breakpoints."""
    p = check_exponent(p)
    xs = np.union1d(f.x, g.x)
    dl = f.value_left(xs) - g.value_left(xs)
    dr = f.value_right(xs) - g.value_right(xs)
    return _norm(xs, dl, dr, p)


def lp_norm(f: PiecewiseLinearFn, p) -> float:
    """Exact L_p norm, integrated over f's own pieces.

    Equal to lp_distance(f, zero, p): bitwise for finite p; for p = inf the
    maximum of the one-sided values, within an ulp.
    """
    return _norm(f.x, f.yl, f.yr, check_exponent(p))


def step_bound(step1: float, q: float, m: int, f_m: PiecewiseLinearFn) -> float:
    """Bound on ||f_m - f_{m-1}||_p from the first step, with rounding allowance."""
    floor = STEP_ABS_ULPS * sys.float_info.epsilon * _norm(f_m.x, f_m.yl, f_m.yr, math.inf)
    return q ** (m - 1) * step1 * (1.0 + STEP_REL_ALLOWANCE) + floor


def solve(
    system: SimilaritySystem,
    p,
    target_error: float,
    seed: PiecewiseLinearFn | None = None,
    max_depth: int = 60,
    piece_cap: int = DEFAULT_SEGMENT_CAP,
) -> SolveResult:
    """Iterate f_m = G(f_{m-1}) until the certified error meets the target.

    The certified error is q/(1-q) times the step: measured for m = 1, and
    step_bound (q^{m-1} step_1 plus the rounding allowance) after that, so
    lp_distance runs once per call.  A first step of exactly 0 certifies
    error 0 at once.  See the module docstring for the allowance and for
    its limit near the float spacing.

    Stops early (converged=False) when max_depth iterations are reached or
    the next iterate would exceed piece_cap pieces; the approximant and the
    certified error achieved are still returned.  `stop` names the reason:
    "target", "max_depth" or "piece_cap".  A non-finite error (a seed or an
    iterate that overflowed) raises NonFinite.
    """
    p = check_exponent(p)
    if not target_error > 0.0:
        raise BadOption(f"target_error must be positive, got {target_error}")
    if max_depth < 1 or piece_cap < 1:
        raise BadOption(f"max_depth and piece_cap must be >= 1, got {max_depth}, {piece_cap}")
    report = contraction_factor(system, p)
    if not report.contractive:
        raise NotContractive(f"r_p = {report.r_p} >= 1 at p = {p}")
    q = report.r_p if math.isinf(p) else report.r_p ** (1.0 / p)

    f = PiecewiseLinearFn.identity() if seed is None else seed
    for m in range(1, max_depth + 1):
        f_prev, f = f, apply_G(system, f)
        if m == 1:
            step1 = step = lp_distance(f, f_prev, p)
        else:
            step = step_bound(step1, q, m, f)
        err = q / (1.0 - q) * step
        if not math.isfinite(err):
            raise NonFinite(f"certified error {err} at iteration {m}: seed or iterate not finite")
        if err <= target_error:
            stop = "target"
        elif m == max_depth:
            stop = "max_depth"
        elif f.n_pieces * system.n > piece_cap:
            stop = "piece_cap"
        else:
            continue
        return SolveResult(f, m, q, err, stop == "target", stop)
