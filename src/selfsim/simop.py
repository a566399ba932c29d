"""The similarity operator on piecewise-linear functions, refinement meshes
with segment codes, and exact evaluation of the fixed point at code points.

Code convention: a code (k_1, ..., k_m) addresses the segment
S_{k_1}(S_{k_2}(... S_{k_m}([0,1]))), where S_k(t) = a_k t + alpha_k.  The
first letter is the outermost map, so codes in lexicographic order run left
to right across [0,1].  Value recursions therefore process the code from the
last letter to the first, carrying the pair (t, f(t)) and applying
f(S_k(t)) = c_k t + d_k f(t) + beta_k at each step.

Every recursion in the library (G, meshes, code points, the measure) is the
step (t, v) <- (a_k t + alpha_k, (c_k t + beta_k) + d_k v), with the image
of t = 1 exactly alpha_{k+1}.  It is written twice, vectorized in
:func:`_image` and as the scalar fold :func:`_fold` over one word; both round
in this order, so a code-point value equals its mesh value bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadIndex, DepthTooLarge, NonFinite, NonzeroC, Unbounded
from .params import Branch, SimilaritySystem, branches, validate
from .pwl import PiecewiseLinearFn

DEFAULT_SEGMENT_CAP = 10**7


@dataclass(frozen=True)
class Mesh:
    """Sorted distinct endpoints of the n^m segments of T_m."""

    depth: int
    points: np.ndarray


@dataclass(frozen=True)
class BoundaryAnchors:
    """One-sided boundary values f0 = f(0+), f1 = f(1-) of the fixed point."""

    f0: float
    f1: float


def _image(branch: Branch, t: np.ndarray, v, t_out, v_out=None) -> None:
    """The step for one branch, written into t_out and v_out (either may be
    None).  Branch fields may be arrays broadcast against t; t_out may alias
    t only without v_out, as it holds c_k t + beta_k meanwhile."""
    a, lo, hi, c, d, beta = branch
    if v_out is not None:
        drift = np.multiply(t, c, out=t_out)
        drift += beta
        np.multiply(v, d, out=v_out)
        v_out += drift
    if t_out is not None:
        ones = t == 1.0
        np.multiply(t, a, out=t_out)
        t_out += lo
        np.copyto(t_out, hi, where=ones)


def _fold(maps: Sequence[Branch], word: Sequence[int], t: float, v: float) -> tuple[float, float]:
    """Scalar :func:`_image` over a whole word, last letter first."""
    for k in reversed(word):
        a, lo, hi, c, d, beta = maps[k - 1]
        v = (c * t + beta) + d * v
        t = hi if t == 1.0 else a * t + lo
    return t, v


def _words(maps: Sequence[Branch], m: int, t, v=None):
    """Images of the points t (values v) under every word of length m.

    Blocks are in lexicographic (= left-to-right) word order; the last
    letter acts first.  v=None skips the values.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    v = None if v is None else np.atleast_1d(np.asarray(v, dtype=float))
    for _ in range(m):
        size = t.size
        t_new = np.empty(len(maps) * size)
        v_new = None if v is None else np.empty_like(t_new)
        # prepend each letter k as the new outermost map
        for k, branch in enumerate(maps):
            blk = slice(k * size, (k + 1) * size)
            _image(branch, t, v, t_new[blk], None if v is None else v_new[blk])
        t, v = t_new, v_new
    return t, v


def check_code(code: Sequence[int], n: int) -> tuple[int, ...]:
    word = tuple(int(k) for k in code)
    for k in word:
        if not 1 <= k <= n:
            raise BadIndex(f"code letter {k} outside 1..{n}")
    return word


def check_depth(n: int, m: int, cap: int) -> None:
    """Reject depths below 1 and n^m above the cap, before allocating."""
    if m < 1:
        raise DepthTooLarge(f"depth must be >= 1, got {m}")
    if n**m > cap:
        raise DepthTooLarge(f"n^m = {n}^{m} exceeds cap {cap}")


def require_bounded(system: SimilaritySystem) -> None:
    if max(abs(dk) for dk in system.d) >= 1.0:
        raise Unbounded("some |d_k| >= 1: bounded fixed point does not exist")


def boundary_anchors(system: SimilaritySystem) -> BoundaryAnchors:
    """Anchors forced by the junction conditions when the one-sided limits exist."""
    validate(system)
    d1, dn = system.d[0], system.d[-1]
    if abs(d1) >= 1.0 or abs(dn) >= 1.0:
        raise Unbounded(f"|d_1|={abs(d1)}, |d_n|={abs(dn)}: boundary anchors undefined")
    f0 = system.beta[0] / (1.0 - d1)
    f1 = (system.c[-1] + system.beta[-1]) / (1.0 - dn)
    if not (math.isfinite(f0) and math.isfinite(f1)):
        raise NonFinite(f"boundary anchors overflow: f0={f0}, f1={f1}")
    return BoundaryAnchors(f0=f0, f1=f1)


def apply_G(system: SimilaritySystem, f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """One application of the similarity operator.

    On (alpha_k, alpha_{k+1}) the image is beta_k + c_k t + d_k f(t) with
    t = (x - alpha_k)/a_k; one-sided limits of f are carried to the scaled
    breakpoints, so piecewise-linear functions map to piecewise-linear
    functions (with the branch images merged where they continue collinearly).

    A constant branch (c_k = d_k = 0) images only f's two ends, as one
    piece: every value of its full image is beta_k and every slope 0, so
    merged() would drop all of its interior breakpoints, and the decisions
    at alpha_k and alpha_{k+1} see the same slope 0 either way.

    It does not check finiteness itself: parameters that overflow give
    infinite or NaN values (and numpy warnings).  solve checks its certified
    error and raises NonFinite; the CLI turns the first overflow into one
    error line and exit 2.
    """
    maps = branches(system)
    full = (f.x, f.yl, f.yr)
    ends = tuple(arr[:: arr.size - 1] for arr in full)
    sources = [ends if br.c == 0.0 and br.d == 0.0 else full for br in maps]

    xs = np.empty(sum(src[0].size - 1 for src in sources) + 1)
    yl = np.empty_like(xs)
    yr = np.empty_like(xs)
    lo = 0
    for branch, (x, g_yl, g_yr) in zip(maps, sources):
        end = lo + x.size - 1
        # scaled breakpoints with the right limits there (the junction
        # alpha_{k+1} takes its right limit from the next branch's first point)
        _image(branch, x[:-1], g_yr[:-1], xs[lo:end], yr[lo:end])
        # left limits, including this branch's contribution at alpha_{k+1}
        _image(branch, x[1:], g_yl[1:], None, yl[lo + 1 : end + 1])
        lo = end
    xs[-1] = 1.0
    yl[0] = yr[0]
    yr[-1] = yl[-1]
    # scaling can round distinct breakpoints to the same float; collapse each
    # run to one breakpoint keeping the outer one-sided limits
    if (np.diff(xs) == 0.0).any():
        pos = np.diff(xs) > 0.0
        first = np.concatenate(([True], pos))
        last = np.concatenate((pos, [True]))
        xs, yl, yr = xs[first], yl[first], yr[last]
    return PiecewiseLinearFn(xs, yl, yr, _trusted=True).merged()


def build_mesh(system: SimilaritySystem, m: int) -> Mesh:
    """Refinement mesh T_m: the endpoints of the n^m depth-m code segments.

    The right end of word u k n^r is the left end of word u (k+1) 1^r, both
    S_u(alpha_{k+1}) by the same float operations, so one left-end pass plus
    1 gives every endpoint, bitwise as :func:`code_to_segment` computes it.
    """
    maps = branches(system)
    check_depth(len(maps), m, DEFAULT_SEGMENT_CAP)
    return Mesh(depth=m, points=np.unique(np.append(_words(maps, m, 0.0)[0], 1.0)))


def code_to_segment(system: SimilaritySystem, code: Sequence[int]) -> tuple[float, float]:
    """Endpoints of the coded segment, nesting the affine images from [0,1]."""
    maps = branches(system)
    word = check_code(code, len(maps))
    return _fold(maps, word, 0.0, 0.0)[0], _fold(maps, word, 1.0, 0.0)[0]


def exact_value_at_code_point(
    system: SimilaritySystem,
    anchors: BoundaryAnchors,
    code: Sequence[int],
    end: str = "left",
) -> float:
    """One-sided fixed-point value at an endpoint of the coded segment.

    Left ends give the right limit f(x+0) anchored at f0; right ends give the
    left limit f(x-0) anchored at f1.  Requires |d_k| < 1 for all k.
    """
    maps = branches(system)
    word = check_code(code, len(maps))
    require_bounded(system)
    if end == "left":
        return _fold(maps, word, 0.0, anchors.f0)[1]
    if end == "right":
        return _fold(maps, word, 1.0, anchors.f1)[1]
    raise BadIndex(f"end must be 'left' or 'right', got {end!r}")


def iterate_closed_form(system: SimilaritySystem, code: Sequence[int], x: float) -> float:
    """Closed-form value of the m-th iterate (seed f_0(x) = x) on its segment.

    Only valid for c_k = 0: on the coded segment the iterate is the affine
    function with slope prod(d)/prod(a) through the exactly-known left
    endpoint value sum_j beta_{k_j} prod_{i<j} d_{k_i}.
    """
    validate(system)
    word = check_code(code, system.n)
    if any(ck != 0.0 for ck in system.c):
        raise NonzeroC("closed-form iterate requires c_k = 0 for all k")
    lo, hi = code_to_segment(system, word)
    if not (lo - 1e-12 <= x <= hi + 1e-12):
        raise BadIndex(f"x={x} outside coded segment [{lo}, {hi}]")
    slope_den = 1.0
    intercept = 0.0
    dprod = 1.0  # product of d over letters outward of the current one
    for k in word:
        i = k - 1
        intercept += system.beta[i] * dprod
        dprod *= system.d[i]
        slope_den *= system.a[i]
    return (dprod / slope_den) * (x - lo) + intercept


def _end_values(system: SimilaritySystem, anchors: BoundaryAnchors, m: int, end: str):
    """(x, v) at the left ends (from 0, f0) or right ends (from 1, f1) of all depth-m segments."""
    maps = branches(system)
    check_depth(len(maps), m, DEFAULT_SEGMENT_CAP)
    require_bounded(system)
    t, v = (0.0, anchors.f0) if end == "left" else (1.0, anchors.f1)
    return _words(maps, m, t, v)


def mesh_code_values(
    system: SimilaritySystem, anchors: BoundaryAnchors, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact one-sided fixed-point values over all depth-m segments.

    Returns (xL, vL, xR, vR) in left-to-right segment order: vL is the right
    limit at each segment's left end, vR the left limit at its right end.
    Each equals :func:`code_to_segment` / :func:`exact_value_at_code_point`
    of its code bitwise.
    """
    return (*_end_values(system, anchors, m, "left"), *_end_values(system, anchors, m, "right"))
