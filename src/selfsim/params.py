"""Similarity parameter sets, their validation and derived quantities.

A system is the tuple {a_k, c_k, d_k, beta_k}, k = 1..n: a_k are the
horizontal segment lengths (summing to 1), d_k the vertical contraction
factors, c_k linear drifts and beta_k vertical offsets.  Everything else in
the library is derived from a validated system.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadExponent, BadLengths, LengthMismatch, NDegenerate, NonFinite

SUM_TOL = 1e-12


FIELDS = ("a", "c", "d", "beta")


@dataclass(frozen=True)
class SimilaritySystem:
    """Immutable similarity parameter set.

    Construction only freezes the values; call :func:`validate` to check the
    invariants and obtain the derived partition.
    """

    a: tuple[float, ...]
    c: tuple[float, ...]
    d: tuple[float, ...]
    beta: tuple[float, ...]
    # (Partition, branch maps) kept by the first successful validate(); not a field
    _checked = None

    def __post_init__(self):
        for name in FIELDS:
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class Partition:
    """Partition points alpha_1 = 0 < alpha_2 < ... < alpha_{n+1} = 1."""

    alpha: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.alpha) - 1


class Branch(NamedTuple):
    """Branch k's maps: t -> a t + lo (t = 1 -> exactly hi), v -> (c t + beta) + d v."""

    a: float
    lo: float
    hi: float
    c: float
    d: float
    beta: float


@dataclass(frozen=True)
class ContractionReport:
    """Contraction factor of the similarity operator at one exponent."""

    p: float
    r_p: float
    contractive: bool


def check_exponent(p) -> float:
    """Normalize an L_p exponent; math.inf encodes the sup norm."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise BadExponent(f"exponent must lie in [1, +inf], got {p}")
    return p


def validate(system: SimilaritySystem) -> Partition:
    """Check the system invariants and return the derived partition.

    The partition is built by sequential prefix summation of the a_k; the
    final point is clamped to exactly 1 so downstream meshes have exact
    endpoints.  The first successful result is kept on the (frozen) system
    and returned by later calls; failures are not kept.
    """
    if system._checked is not None:
        return system._checked[0]
    n = system.n
    if n <= 1:
        raise NDegenerate(f"need n > 1 branches, got n={n}")
    if not (len(system.c) == len(system.d) == len(system.beta) == n):
        raise LengthMismatch(
            f"sequence lengths differ: a={n}, c={len(system.c)}, "
            f"d={len(system.d)}, beta={len(system.beta)}"
        )
    for name in FIELDS:
        if not all(map(math.isfinite, getattr(system, name))):
            raise NonFinite(f"{name} must be finite, got {getattr(system, name)}")
    if any(ak <= 0.0 for ak in system.a):
        raise BadLengths(f"all a_k must be positive, got {system.a}")
    total = math.fsum(system.a)
    if abs(total - 1.0) > SUM_TOL:
        raise BadLengths(f"sum of a_k must be 1 within {SUM_TOL}, got {total!r}")

    alpha = [0.0, *itertools.accumulate(system.a)]
    alpha[-1] = 1.0
    if any(alpha[k + 1] <= alpha[k] for k in range(n)):
        raise BadLengths("partition points not strictly increasing")
    part = Partition(tuple(alpha))
    rows = zip(system.a, alpha[:-1], alpha[1:], system.c, system.d, system.beta)
    object.__setattr__(system, "_checked", (part, tuple(Branch(*r) for r in rows)))
    return part


def branches(system: SimilaritySystem) -> tuple[Branch, ...]:
    """The validated system's branch maps, k = 1..n."""
    if system._checked is None:
        validate(system)
    return system._checked[1]


def contraction_factor(system: SimilaritySystem, p) -> ContractionReport:
    """Contraction factor r_p = sum a_k |d_k|^p (max |d_k| for p = inf)."""
    p = check_exponent(p)
    validate(system)
    d = np.abs(np.asarray(system.d))
    if math.isinf(p):
        r = float(d.max())
    else:
        with np.errstate(over="ignore"):  # |d_k|^p may overflow: r_p = inf, not contractive
            r = float(np.asarray(system.a) @ d**p)
    return ContractionReport(p=p, r_p=r, contractive=r < 1.0)


def weighted_pair_norm(x: Sequence[float], y: Sequence[float], s, a: Sequence[float]) -> float:
    """Weighted pair norm ||{x,y}||_{s,a} = (sum (|x_k|+|y_k|)^s a_k)^{1/s}.

    For s = inf the weights drop out and the norm is max_k (|x_k|+|y_k|).
    When the sum overflows or underflows to 0 although some pair is finite
    and nonzero, the pairs are divided by the largest one, m, first:
    m (sum (pair_k/m)^s a_k)^{1/s}.
    """
    s = check_exponent(s)
    x = np.abs(np.asarray(x, dtype=float))
    y = np.abs(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise LengthMismatch(f"vector lengths differ: {x.shape} vs {y.shape}")
    pair = x + y
    if math.isinf(s):
        return float(pair.max())
    a = np.asarray(a, dtype=float)
    if a.shape != pair.shape:
        raise LengthMismatch("weights length differs from vectors")
    with np.errstate(over="ignore"):
        total = pair**s @ a
    m = pair.max(initial=0.0)
    if 0.0 < total < math.inf or not 0.0 < m < math.inf:
        return float(total ** (1.0 / s))
    return float(m * ((pair / m) ** s @ a) ** (1.0 / s))
