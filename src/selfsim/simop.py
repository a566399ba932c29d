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
of t = 1 exactly alpha_{k+1}.  It is written twice, vectorized in its halves
:func:`_drift`, :func:`_values` and :func:`_points` (which :func:`_image`
joins, and apply_G and the code-point kernel :func:`_levels` call directly)
and as the scalar fold :func:`_fold` over one word; both round in this
order, so a code-point value equals its mesh value bitwise.

Every code-point scan runs one point recursion, from t = 0.  Where the maps
tile [0, 1] (alpha_1 = 0, each hi_k = lo_{k+1}, hi_n = 1), the right end of
word i is the left end of word i + 1 by the same float operations, and the
right end of the last word is 1; so values anchored at t = 1 read the drift
c_k t + beta_k one point on, and the right ends are the left ends shifted by
one with 1.0 appended.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BadIndex, BadOption, DepthTooLarge, NonFinite, Unbounded
from .params import Branch, SimilaritySystem, branches, validate
from .pwl import PiecewiseLinearFn

DEFAULT_SEGMENT_CAP = 10**7


def _drift(branch: Branch, t: np.ndarray, out) -> np.ndarray:
    """c_k t + beta_k, the part of the value step that reads t, into out
    (None: a new array).  out may alias t."""
    out = np.multiply(t, branch.c, out=out)
    out += branch.beta
    return out


def _values(branch: Branch, drift: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """The value step (c_k t + beta_k) + d_k v into out, from drift = :func:`_drift`."""
    np.multiply(v, branch.d, out=out)
    out += drift


def _points(branch: Branch, t: np.ndarray, out: np.ndarray) -> None:
    """The point step a_k t + alpha_k into out, without the t = 1 snap.
    out may alias t."""
    np.multiply(t, branch.a, out=out)
    out += branch.lo


def _image(branch: Branch, t: np.ndarray, v, t_out, v_out=None) -> None:
    """The step for one branch, written into t_out and v_out (either may be
    None), with t = 1 mapped exactly to alpha_{k+1}.  Branch fields may be
    arrays broadcast against t; t_out may alias t only without v_out, as it
    holds c_k t + beta_k meanwhile."""
    if v_out is not None:
        _values(branch, _drift(branch, t, t_out), v, v_out)
    if t_out is not None:
        ones = t == 1.0
        _points(branch, t, t_out)
        np.copyto(t_out, branch.hi, where=ones)


def _fold(maps: Sequence[Branch], word: Sequence[int], t: float, v: float) -> tuple[float, float]:
    """Scalar :func:`_image` over a whole word, last letter first."""
    for k in reversed(word):
        a, lo, hi, c, d, beta = maps[k - 1]
        v = (c * t + beta) + d * v
        t = hi if t == 1.0 else a * t + lo
    return t, v


def _levels(maps: Sequence[Branch], m: int, t0: float, left=(), right=(), points=False):
    """The code recursion from the point t0, one level per step for m steps.

    Each level yields (buf, *values) over all words of that length, in
    lexicographic (= left-to-right) order, the last letter acting first:
    buf is the images of t0 and then 1.0 (None at the last level unless
    points), values the images of (t0, v) for each v in left, then of (1, v)
    for each v in right, read one point on (t0 = 0 and tiling maps only).
    Each level overwrites the arrays of the one before.
    """
    n, N = len(maps), len(maps) ** m
    # arrays of the final size, each level written over the last; block 0,
    # which overwrites the input, runs last
    buf = np.empty((N if points else N // n) + 1)
    buf[:2] = t0, 1.0
    vals = np.empty((len(left) + len(right), N))
    vals[:, 0] = (*left, *right)
    reads = [slice(0, -1)] * len(left) + [slice(1, None)] * len(right)
    drift = np.empty(N // n + 1)
    size = 1
    for level in range(1, m + 1):
        t, dr = buf[: size + 1], drift[: size + 1]
        ones = np.flatnonzero(t[:-1] == 1.0)
        for k in reversed(range(n)):
            _drift(maps[k], t, dr)
            for v, read in zip(vals, reads):
                _values(maps[k], dr[read], v[:size], v[k * size : (k + 1) * size])
        step = points or level < m
        if step:
            for k in reversed(range(n)):
                blk = buf[k * size : (k + 1) * size]
                _points(maps[k], t[:-1], blk)
                blk[ones] = maps[k].hi
            buf[n * size] = 1.0
        size *= n
        yield (buf[: size + 1] if step else None, *(v[:size] for v in vals))


def _words(maps: Sequence[Branch], m: int, left=(), right=(), points=False):
    """(xL, xR, *values): every word of length m applied to (0, v) for each
    v in left, then to (1, v) for each v in right.  xL and xR (None unless
    points) are read-only, views of one buffer when the maps tile [0, 1];
    with gaps between the images, the right ends get their own recursion."""
    tiles = [0.0, *(br.hi for br in maps)] == [*(br.lo for br in maps), 1.0]
    *_, (buf, *vals) = _levels(maps, m, 0.0, left, right if tiles else (), points)
    ends = buf
    if not tiles and (right or points):
        *_, (ends, *right_vals) = _levels(maps, m, 1.0, right, (), points)
        vals += right_vals
    if points:
        buf.flags.writeable = ends.flags.writeable = False
        buf, ends = buf[:-1], ends[1:] if tiles else ends[:-1]
    return (buf, ends, *vals)


def check_code(code: Sequence[int], n: int) -> tuple[int, ...]:
    word = tuple(int(k) for k in code)
    for k in word:
        if not 1 <= k <= n:
            raise BadIndex(f"code letter {k} outside 1..{n}")
    return word


def check_depth(n: int, m: int, cap: int) -> None:
    """Reject depths below 1 and n^m above the cap, before allocating."""
    if m < 1:
        raise BadOption(f"depth must be >= 1, got {m}")
    if n**m > cap:
        raise DepthTooLarge(f"n^m = {n}^{m} exceeds cap {cap}")


def require_bounded(system: SimilaritySystem) -> None:
    if max(abs(dk) for dk in system.d) >= 1.0:
        raise Unbounded("some |d_k| >= 1: bounded fixed point does not exist")


def boundary_anchors(system: SimilaritySystem) -> tuple[float, float]:
    """The one-sided boundary values (f0, f1) = (f(0+), f(1-)) of the fixed
    point, forced by the junction conditions when those limits exist."""
    validate(system)
    d1, dn = system.d[0], system.d[-1]
    if abs(d1) >= 1.0 or abs(dn) >= 1.0:
        raise Unbounded(f"|d_1|={abs(d1)}, |d_n|={abs(dn)}: boundary anchors undefined")
    f0 = system.beta[0] / (1.0 - d1)
    f1 = (system.c[-1] + system.beta[-1]) / (1.0 - dn)
    if not (math.isfinite(f0) and math.isfinite(f1)):
        raise NonFinite(f"boundary anchors overflow: f0={f0}, f1={f1}")
    return f0, f1


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

    Each branch is written straight into its slices of the three output
    arrays, with no full-size temporary: a fresh temporary of an iterate's
    size is returned to the kernel when freed and faults in new pages on the
    next call.  merged() then works in cache-sized blocks.
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
        # c_k x + beta_k at every point, parked in the branch's breakpoint
        # slots (xs[end] is the next branch's first breakpoint, or 1)
        drift = _drift(branch, x, xs[lo : end + 1])
        # right limits at the scaled breakpoints (the junction alpha_{k+1}
        # takes its right limit from the next branch's first point), and left
        # limits, including this branch's contribution at alpha_{k+1}
        _values(branch, drift[:-1], g_yr[:-1], yr[lo:end])
        _values(branch, drift[1:], g_yl[1:], yl[lo + 1 : end + 1])
        # x[:-1] < 1, so the breakpoints need no t = 1 snap
        _points(branch, x[:-1], xs[lo:end])
        lo = end
    xs[-1] = 1.0
    yl[0] = yr[0]
    yr[-1] = yl[-1]
    # scaling can round distinct breakpoints to the same float; collapse each
    # run to one breakpoint keeping the outer one-sided limits
    if (xs[1:] == xs[:-1]).any():
        pos = np.diff(xs) > 0.0
        first = np.concatenate(([True], pos))
        last = np.concatenate((pos, [True]))
        xs, yl, yr = xs[first], yl[first], yr[last]
    return PiecewiseLinearFn(xs, yl, yr, _trusted=True).merged()


def build_mesh(system: SimilaritySystem, m: int) -> np.ndarray:
    """Refinement mesh T_m: the sorted distinct endpoints of the n^m depth-m
    code segments.

    The right end of word u k n^r is the left end of word u (k+1) 1^r, both
    S_u(alpha_{k+1}) by the same float operations, so one left-end pass plus
    1 gives every endpoint, bitwise as :func:`code_to_segment` computes it.
    """
    maps = branches(system)
    check_depth(len(maps), m, DEFAULT_SEGMENT_CAP)
    return np.unique(np.append(_words(maps, m, points=True)[0], 1.0))


def code_to_segment(system: SimilaritySystem, code: Sequence[int]) -> tuple[float, float]:
    """Endpoints of the coded segment, nesting the affine images from [0,1]."""
    maps = branches(system)
    word = check_code(code, len(maps))
    return _fold(maps, word, 0.0, 0.0)[0], _fold(maps, word, 1.0, 0.0)[0]


def exact_value_at_code_point(
    system: SimilaritySystem,
    anchors: tuple[float, float],
    code: Sequence[int],
    end: str = "left",
) -> float:
    """One-sided fixed-point value at an endpoint of the coded segment.

    Left ends give the right limit f(x+0) anchored at f0; right ends give the
    left limit f(x-0) anchored at f1, with anchors = (f0, f1) from
    :func:`boundary_anchors`.  Requires |d_k| < 1 for all k.
    """
    maps = branches(system)
    word = check_code(code, len(maps))
    require_bounded(system)
    if end == "left":
        return _fold(maps, word, 0.0, anchors[0])[1]
    if end == "right":
        return _fold(maps, word, 1.0, anchors[1])[1]
    raise BadIndex(f"end must be 'left' or 'right', got {end!r}")


def mesh_code_values(
    system: SimilaritySystem, anchors: tuple[float, float], m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact one-sided fixed-point values over all depth-m segments.

    Returns (xL, vL, xR, vR) in left-to-right segment order: vL is the right
    limit at each segment's left end, vR the left limit at its right end.
    Each equals :func:`code_to_segment` / :func:`exact_value_at_code_point`
    of its code bitwise.  xL and xR are read-only views of one buffer of
    n^m + 1 points (xR = xL shifted by one, then 1.0).
    """
    maps = branches(system)
    check_depth(len(maps), m, DEFAULT_SEGMENT_CAP)
    require_bounded(system)
    xL, xR, vL, vR = _words(maps, m, [anchors[0]], [anchors[1]], points=True)
    return xL, vL, xR, vR
