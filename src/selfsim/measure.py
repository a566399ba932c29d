"""Self-similar probability measures induced by nondecreasing normalized
self-similar functions (c_k = 0, f(0) = 0, f(1) = 1): the branch weights are
rho_k = d_k and the maps send [0,1] affinely onto the partition segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import check_tol, monotonicity_classify, normalization_violations
from .errors import BadOption, DepthTooLarge, NotApplicable
from .params import Branch, SimilaritySystem, branches
from .simop import (
    DEFAULT_SEGMENT_CAP,
    _fold,
    _image,
    _words,
    boundary_anchors,
    check_code,
    check_depth,
)

ZERO_BRANCH_TOL = 1e-15
DEFAULT_CODE_CAP = 10**6


@dataclass(frozen=True)
class SelfSimilarMeasure:
    """Weights rho_k and affine maps t -> length_k * t + left_k (1 -> right_k).

    letters records, per branch, the 1-based index of the originating branch
    of the source system (they differ when zero-weight branches were
    collapsed away).  maps has d = rho, so values from v = 1 are masses.
    """

    rho: tuple[float, ...]
    left: tuple[float, ...]
    length: tuple[float, ...]
    letters: tuple[int, ...]
    right: tuple[float, ...]
    maps: tuple[Branch, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = zip(self.length, self.left, self.right, self.rho)
        maps = tuple(Branch(a, lo, hi, 0.0, rho, 0.0) for a, lo, hi, rho in rows)
        object.__setattr__(self, "maps", maps)

    @property
    def n(self) -> int:
        return len(self.rho)


def measure_from_function(
    system: SimilaritySystem,
    collapse_zero_branches: bool = False,
    tol: float = 1e-9,
) -> SelfSimilarMeasure:
    """Build the measure mu_f([z, x)) = f(x) - f(z) of a nondecreasing
    normalized fixed point; rho_k = d_k.

    Zero-weight branches (d_k = 0) are rejected by default; with
    collapse_zero_branches=True they are removed and the remaining maps keep
    their original image segments.
    """
    check_tol(tol)
    maps = branches(system)
    violated = normalization_violations(system, tol)
    if not violated:
        if not monotonicity_classify(system, tol).holds:
            violated.append("nondecreasing")
        if abs(math.fsum(system.d) - 1.0) > 1e-12:
            violated.append("sum_d=1")
        zero = any(abs(dk) <= ZERO_BRANCH_TOL for dk in system.d)
        if any(dk < -ZERO_BRANCH_TOL for dk in system.d) or (zero and not collapse_zero_branches):
            violated.append("d_k>0")
    if violated:
        raise NotApplicable(sorted(set(violated)))

    keep = [k for k, dk in enumerate(system.d) if dk > ZERO_BRANCH_TOL]
    if len(keep) < 2:
        raise NotApplicable(["n>1"], "fewer than two positive-weight branches")
    return SelfSimilarMeasure(
        rho=tuple(system.d[k] for k in keep),
        left=tuple(maps[k].lo for k in keep),
        length=tuple(system.a[k] for k in keep),
        letters=tuple(k + 1 for k in keep),
        right=tuple(maps[k].hi for k in keep),
    )


def coded_interval_mass(measure: SelfSimilarMeasure, code) -> float:
    """Mass of the coded interval: the product of the branch weights."""
    return _fold(measure.maps, check_code(code, measure.n), 0.0, 1.0)[1]


def coded_interval(measure: SelfSimilarMeasure, code) -> tuple[float, float]:
    """Endpoints of the coded interval under the measure's maps."""
    word = check_code(code, measure.n)
    return _fold(measure.maps, word, 0.0, 1.0)[0], _fold(measure.maps, word, 1.0, 1.0)[0]


def coded_intervals(measure: SelfSimilarMeasure, depth: int):
    """(left, right, mass) arrays over all depth-long codes, in lexicographic
    order; each entry equals coded_interval / coded_interval_mass bitwise.
    left and right are read-only."""
    check_depth(measure.n, depth, DEFAULT_CODE_CAP)
    return _words(measure.maps, depth, [1.0], points=True)


def cdf_consistency(system: SimilaritySystem, measure: SelfSimilarMeasure, m: int) -> float:
    """Max residual |mass(code) - (f(right) - f(left))| over depth-m codes.

    f values are the exact one-sided fixed-point values of the system the
    measure was built from, at the codes mapped to its letters.
    """
    check_depth(measure.n, m, DEFAULT_CODE_CAP)
    f0, f1 = boundary_anchors(system)
    maps = branches(system)
    sub = [maps[k - 1] for k in measure.letters]
    f_lo, f_hi = _words(sub, m, [f0], [f1])[2:]
    mass = _words(measure.maps, m, [1.0])[2]
    return float(np.abs(mass - (f_hi - f_lo)).max())


def sample(
    measure: SelfSimilarMeasure, count: int, depth: int, rng_seed: int
) -> np.ndarray:
    """Left endpoints of depth-long codes drawn letter-by-letter with
    probabilities rho; deterministic for a fixed seed (NumPy PCG64).
    count * depth letters are drawn at once, at most DEFAULT_SEGMENT_CAP.
    """
    if count < 1 or depth < 1:
        raise BadOption(f"count and depth must be positive, got {count} and {depth}")
    if count * depth > DEFAULT_SEGMENT_CAP:
        raise DepthTooLarge(f"count * depth = {count * depth} exceeds cap {DEFAULT_SEGMENT_CAP}")
    rng = np.random.default_rng(rng_seed)
    rho = np.asarray(measure.rho)
    rho = rho / rho.sum()
    idx = rng.choice(measure.n, size=(count, depth), p=rho)
    a, lo, hi = np.asarray(measure.maps)[:, :3].T
    x = np.zeros(count)
    # each draw's own letter, one contiguous row per step, last letter first
    for lj in np.ascontiguousarray(idx.T[::-1]):
        _image(Branch(a.take(lj), lo.take(lj), hi.take(lj), 0.0, 0.0, 0.0), x, None, x)
    return x
