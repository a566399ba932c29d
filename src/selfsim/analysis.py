"""Analytic criteria for self-similar functions: a-priori norm bounds,
continuity and monotonicity checks, bounded-variation discriminant, and
stability of the fixed point under parameter perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadExponent,
    BadOption,
    NonFinite,
    NotApplicable,
    NotContractive,
    NotContractiveAtSomeS,
    PartitionMismatch,
    Unbounded,
)
from .params import (
    SimilaritySystem,
    branches,
    check_exponent,
    contraction_factor,
    validate,
    weighted_pair_norm,
)
from .pwl import _BLOCK
from .simop import (
    DEFAULT_SEGMENT_CAP,
    _levels,
    _words,
    boundary_anchors,
    check_depth,
    require_bounded,
)

DEFAULT_TOL = 1e-9
# monotonicity fallback scan: deepest mesh, and the most segments per depth
FALLBACK_DEPTH = 8
FALLBACK_CAP = 10**6
# norm_bound computes [p] pair norms and contraction factors: the largest [p]
BOUND_EXPONENT_CAP = 10**4


@dataclass(frozen=True)
class NormBound:
    p: float
    bound: float
    components: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RegularityVerdict:
    kind: str  # continuity | monotonicity | bounded_variation
    verdict: str  # holds | fails | indeterminate
    witnesses: tuple = ()

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def check_tol(tol: float) -> None:
    """A verdict tolerance must be finite and >= 0 (NaN would pass every test)."""
    if not 0.0 <= tol < math.inf:
        raise BadOption(f"tol must be finite and >= 0, got {tol}")


def _finite(value: float, what: str) -> float:
    """A residual that a verdict compares; overflow to inf or NaN is rejected."""
    if not math.isfinite(value):
        raise NonFinite(f"{what} overflows: {value}")
    return value


def _witness(condition: str, index=None, residual=None, point=None) -> dict:
    w = {"condition": condition, "index": index, "residual": residual, "point": point}
    return {key: value for key, value in w.items() if value is not None}


# ----------------------------------------------------------------------
# norm bounds
# ----------------------------------------------------------------------
def _intermediate_factors(system: SimilaritySystem, top: int):
    """Weighted pair norms and contraction factors for s = 1..top."""
    norms = [weighted_pair_norm(system.c, system.beta, s, system.a) for s in range(1, top + 1)]
    rs = [contraction_factor(system, s).r_p for s in range(1, top + 1)]
    bad = [s for s, r in enumerate(rs, start=1) if r >= 1.0]
    if bad:
        raise NotContractiveAtSomeS(bad)
    return norms, rs


def norm_bound(system: SimilaritySystem, p) -> NormBound:
    """A-priori bound on ||f||_p of the fixed point.

    With cb_max = max_k(|c_k|+|beta_k|) and N_s = ||{c,beta}||_{s,a}:
    integer p: (sum_{s=1..p} N_s) / (prod_{s=1..p} (1-r_s))^{1/p};
    non-integer p: C (N_[p]^[p] + sum_{s<=[p]} N_s)^{[p]/p} /
    ((1-r_p) prod_{s<=[p]} (1-r_s))^{1/p}, with the explicit constant
    C = max(cb_max, max_k |d_k|, sum_{s<=[p]} N_s)^{(p-[p])/p};
    p = inf: cb_max / (1 - max_k |d_k|).
    """
    p = check_exponent(p)
    ip = 0 if math.isinf(p) else int(p)  # [p]
    if ip > BOUND_EXPONENT_CAP:
        raise BadOption(f"[p] = {ip} exceeds cap {BOUND_EXPONENT_CAP}")
    norms, rs = _intermediate_factors(system, ip)
    if p == ip:
        bound = math.fsum(norms) / math.prod(1.0 - r for r in rs) ** (1.0 / p)
        return NormBound(p=p, bound=bound, components={"weighted_norms": norms, "r_s": rs})
    r_p = contraction_factor(system, p).r_p
    if r_p >= 1.0:
        raise NotContractive(f"r_p = {r_p} >= 1 at p = {p}")
    cb_max = max(abs(ck) + abs(bk) for ck, bk in zip(system.c, system.beta))
    if math.isinf(p):
        return NormBound(
            p=p, bound=cb_max / (1.0 - r_p), components={"cb_max": cb_max, "r_inf": r_p}
        )
    fp = p - ip  # {p}
    norm_sum = math.fsum(norms)
    d_max = max(abs(dk) for dk in system.d)
    C = max(cb_max**fp, d_max**fp, norm_sum**fp) ** (1.0 / p)
    # ||{c,beta}||_[p]^[p] may pass the float range: numpy gives inf (and its
    # overflow warning) where a Python float raises OverflowError
    num = (np.float64(norms[ip - 1]) ** ip + norm_sum) ** (ip / p)
    den = ((1.0 - r_p) * math.prod(1.0 - r for r in rs)) ** (1.0 / p)
    return NormBound(
        p=p,
        bound=float(C * num / den),
        components={"weighted_norms": norms, "r_s": rs, "r_p": r_p, "C": C},
    )


# ----------------------------------------------------------------------
# regularity checks
# ----------------------------------------------------------------------
def continuity_check(system: SimilaritySystem, tol: float = DEFAULT_TOL) -> RegularityVerdict:
    """Necessary-and-sufficient continuity conditions.

    Requires max|d_k| < 1, the junction equalities
    c_k + d_k f1 + beta_k = d_{k+1} f0 + beta_{k+1} at every interior
    partition point, and the closure identity
    sum c_j + (f1-f0) sum d_j = f1 - f0.
    """
    check_tol(tol)
    part = validate(system)
    witnesses = []
    d_max = max(abs(dk) for dk in system.d)
    if d_max >= 1.0:
        k_bad = int(np.argmax(np.abs(system.d)))
        witnesses.append(_witness("max|d|<1", index=k_bad + 1, residual=d_max - 1.0))
        return RegularityVerdict("continuity", "fails", tuple(witnesses))
    f0, f1 = boundary_anchors(system)
    for k in range(system.n - 1):
        lhs = system.c[k] + system.d[k] * f1 + system.beta[k]
        rhs = system.d[k + 1] * f0 + system.beta[k + 1]
        res = _finite(lhs - rhs, f"junction {k + 1} residual")
        if abs(res) > tol:
            witnesses.append(
                _witness("junction", index=k + 1, residual=res, point=part.alpha[k + 1])
            )
    try:
        closure = math.fsum(system.c) + (f1 - f0) * math.fsum(system.d) - (f1 - f0)
    except OverflowError as exc:
        raise NonFinite(f"closure sum overflows: {exc}") from None
    if abs(_finite(closure, "closure residual")) > tol:
        witnesses.append(_witness("closure", residual=closure))
    verdict = "fails" if witnesses else "holds"
    return RegularityVerdict("continuity", verdict, tuple(witnesses))


def _necessary_monotone_witnesses(system: SimilaritySystem, f0: float, f1: float, tol: float):
    """Violations of the necessary nondecreasing conditions.

    In anchored form: the within-branch drift c_k + d_k (f1 - f0) must be
    nonnegative, the one-sided values at the partition points must be
    ordered, and the right-end value may not exceed f1 (the beta_{n+1} = f1
    convention).
    """
    n = system.n
    witnesses = []
    for k in range(n):
        drift = _finite(system.c[k] + system.d[k] * (f1 - f0), f"drift {k + 1}")
        if drift < -tol:
            witnesses.append(_witness("c_k+d_k>=0", index=k + 1, residual=drift))
    starts = [system.d[k] * f0 + system.beta[k] for k in range(n)] + [f1]
    for k in range(n):
        res = _finite(starts[k] - starts[k + 1], f"offset order {k + 1}")
        if res > tol:
            witnesses.append(_witness("beta_k<=beta_{k+1}", index=k + 1, residual=res))
    for k in range(n):
        end = system.c[k] + system.d[k] * f1 + system.beta[k]
        nxt = starts[k + 1]
        res = _finite(end - nxt, f"junction order {k + 1}")
        if res > tol:
            witnesses.append(
                _witness("junction_monotone", index=k + 1, residual=res)
            )
    return witnesses


def monotonicity_classify(system: SimilaritySystem, tol: float = DEFAULT_TOL) -> RegularityVerdict:
    """Classify whether the fixed point is nondecreasing.

    Fails when a necessary condition is violated; holds when the sufficient
    conditions (c_k >= 0, d_k >= 0, ordered offsets) are met; otherwise the
    exact code-point values are scanned up to FALLBACK_DEPTH (while n^m <=
    FALLBACK_CAP) for a decreasing pair, and the verdict stays indeterminate
    only when none is found.
    """
    check_tol(tol)
    validate(system)
    require_bounded(system)
    f0, f1 = boundary_anchors(system)

    witnesses = _necessary_monotone_witnesses(system, f0, f1, tol)
    if witnesses:
        return RegularityVerdict("monotonicity", "fails", tuple(witnesses))

    sufficient = all(ck >= -tol for ck in system.c) and all(dk >= -tol for dk in system.d)
    if sufficient:
        return RegularityVerdict("monotonicity", "holds")

    # numerical fallback: exact one-sided values on refinement meshes, one level per depth
    depth = sum(system.n**m <= FALLBACK_CAP for m in range(1, FALLBACK_DEPTH + 1))
    levels = _levels(branches(system), depth, 0.0, [f0], [f1], points=True)
    for m, (buf, vL, vR) in enumerate(levels, start=1):
        vals = np.empty(2 * vL.size)
        vals[0::2], vals[1::2] = vL, vR
        drops = np.nonzero(np.diff(vals) < -tol)[0]
        if drops.size:
            i = int(drops[0])
            # vals[i] and vals[i + 1] sit at buf[(i + 1) // 2] and buf[i // 2 + 1]
            witnesses = (
                _witness(
                    "mesh_decrease",
                    index=m,
                    residual=float(vals[i + 1] - vals[i]),
                    point=(float(buf[(i + 1) // 2]), float(buf[i // 2 + 1])),
                ),
            )
            return RegularityVerdict("monotonicity", "fails", witnesses)
    return RegularityVerdict("monotonicity", "indeterminate")


def normalization_violations(system: SimilaritySystem, tol: float) -> list:
    """Which of c = 0, bounded, f0 = 0 and f1 = 1 the system violates."""
    violated = [] if all(ck == 0.0 for ck in system.c) else ["c=0"]
    try:
        f0, f1 = boundary_anchors(system)
    except Unbounded:
        return violated + ["bounded"]
    if abs(f0) > tol:
        violated.append("f0=0")
    if abs(f1 - 1.0) > tol:
        violated.append("f1=1")
    return violated


def variation_criterion(system: SimilaritySystem, tol: float = DEFAULT_TOL):
    """Bounded-variation discriminant D = sum |d_k| for normalized systems.

    Requires a continuous system with c_k = 0 anchored at f0 = 0, f1 = 1
    (which forces sum d_k = 1).  Returns (D, verdict): bounded variation
    (total variation 1) iff D <= 1, unbounded variation iff D > 1.
    """
    violated = [] if continuity_check(system, tol).holds else ["continuity"]
    violated += normalization_violations(system, tol)
    if violated:
        raise NotApplicable(violated)
    D = math.fsum(abs(dk) for dk in system.d)
    if D <= 1.0 + 1e-12:
        verdict = RegularityVerdict("bounded_variation", "holds")
    else:
        verdict = RegularityVerdict(
            "bounded_variation", "fails", (_witness("D<=1", residual=D - 1.0),)
        )
    return D, verdict


def variation_on_mesh(system: SimilaritySystem, m: int) -> float:
    """Variation of the fixed point over the mesh T_m.

    Uses the left-continuity convention: the value at each interior mesh
    point is the exact left limit there, the value at 0 is f0.  The
    differences are taken in place over blocks of _BLOCK values, last block
    first, so the sum runs over the same n^m values as
    |diff([f0, *vR])|.sum() and equals it bitwise.
    """
    f0, f1 = boundary_anchors(system)
    maps = branches(system)
    check_depth(len(maps), m, DEFAULT_SEGMENT_CAP)
    require_bounded(system)
    v = _words(maps, m, right=[f1])[2]
    for lo in reversed(range(1, v.size, _BLOCK)):
        hi = min(lo + _BLOCK, v.size)
        v[lo:hi] -= v[lo - 1 : hi - 1]
    v[0] -= f0
    return float(np.abs(v, out=v).sum())


# ----------------------------------------------------------------------
# stability and family bounds
# ----------------------------------------------------------------------
def stability_bound(
    s1: SimilaritySystem,
    s2: SimilaritySystem,
    p,
    norms: tuple[float, float],
) -> float:
    """Bound on ||f - g||_p for two systems sharing the partition.

    norms supplies (an upper bound on) ||f||_p and ||g||_p; the bound is
    monotone increasing in both.
    """
    p = check_exponent(p)
    validate(s1)
    validate(s2)
    if s1.a != s2.a:
        raise PartitionMismatch("systems must share the segment lengths a")
    r1 = contraction_factor(s1, p).r_p
    r2 = contraction_factor(s2, p).r_p
    if r1 >= 1.0 or r2 >= 1.0:
        raise NotContractive(f"r_p = {r1}, r'_p = {r2} at p = {p}")
    dc = np.subtract(s1.c, s2.c)
    db = np.subtract(s1.beta, s2.beta)
    dd = np.abs(np.subtract(s1.d, s2.d))
    nf, ng = norms
    if math.isinf(p):
        num = 2.0 * weighted_pair_norm(dc, db, p, s1.a) + dd.max() * (nf + ng)
        den = 2.0 - r1 - r2
    else:
        dnorm = float(np.asarray(s1.a) @ dd**p) ** (1.0 / p)
        num = 2.0**p * weighted_pair_norm(dc, db, p, s1.a) + 2.0 ** (p - 1.0) * dnorm * (nf + ng)
        den = 2.0 - r1 ** (1.0 / p) - r2 ** (1.0 / p)
    return num / den


def family_bound(R: float, eps: float, p) -> float:
    """Uniform norm bound for the family ||{c,beta}||_{p,a} <= R, r_p <= 1-eps.

    Integer p maximizes the integer-exponent bound using
    r_s <= r_p^{s/p} and ||{c,beta}||_{s,a} <= ||{c,beta}||_{p,a};
    p = inf maximizes the sup-norm bound, giving R/eps.  For non-integer p
    the explicit-constant bound is not uniform over the family (its constant
    depends on max_k(|c_k|+|beta_k|), uncontrolled by the weighted norm), so
    the contraction estimate ||f||_p <= R/(1 - r_p^{1/p}) is maximized
    instead.
    """
    p = check_exponent(p)
    if not 0.0 <= R < math.inf:
        raise BadExponent(f"R must be finite and nonnegative, got {R}")
    if not 0.0 < eps < 1.0:
        raise BadExponent(f"eps must lie in (0,1), got {eps}")
    if R == 0.0:
        return 0.0
    if math.isinf(p):
        return R / eps
    q = 1.0 - eps
    if p == int(p):
        ip = int(p)
        den = math.prod(1.0 - q ** (s / p) for s in range(1, ip + 1)) ** (1.0 / p)
        return ip * R / den
    return R / (1.0 - q ** (1.0 / p))
