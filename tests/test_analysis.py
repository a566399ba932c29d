import math
import time

import numpy as np
import pytest

from selfsim import (
    SimilaritySystem,
    continuity_check,
    family_bound,
    lp_distance,
    lp_norm,
    monotonicity_classify,
    norm_bound,
    solve,
    stability_bound,
    variation_criterion,
    variation_on_mesh,
    weighted_pair_norm,
)
from selfsim import analysis, boundary_anchors, mesh_code_values
from selfsim.errors import (
    BadExponent,
    BadOption,
    NonFinite,
    NotApplicable,
    NotContractiveAtSomeS,
    PartitionMismatch,
    Unbounded,
)
from selfsim.presets import (
    bernoulli,
    cantor_family,
    characteristic,
    counterexample,
    identity2,
)

from conftest import random_system

CANTOR = cantor_family(1.0 / 3.0, 0.0)


# ----------------------------------------------------------------------
# norm bounds
# ----------------------------------------------------------------------
def test_integer_bound_cantor_p1():
    nb = norm_bound(CANTOR, 1)
    assert nb.bound == pytest.approx(0.5, rel=1e-14)


def test_integer_bound_zero_data():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(0.3, -0.2), beta=(0, 0))
    for p in (1, 2, 3):
        assert norm_bound(s, p).bound == 0.0


def test_integer_bound_identity_p1():
    nb = norm_bound(identity2(), 1)
    assert nb.bound == pytest.approx(0.75, rel=1e-14)
    assert nb.bound >= 0.5  # true L_1 norm of x


def test_integer_bound_not_contractive():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(1.5, 0.1), beta=(1, 1))
    with pytest.raises(NotContractiveAtSomeS):
        norm_bound(s, 2)


def test_fractional_bound_zero_data():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(0.3, -0.2), beta=(0, 0))
    assert norm_bound(s, 1.5).bound == 0.0


def test_fractional_bound_dominates_measured():
    for system, p in ((CANTOR, 1.5), (identity2(), 2.5)):
        nb = norm_bound(system, p)
        res = solve(system, p, 1e-6)
        assert lp_norm(res.approximant, p) <= nb.bound + res.aposteriori_error


def test_fractional_bound_identity_value():
    nb = norm_bound(identity2(), 2.5)
    assert nb.bound >= (1 / 3.5) ** (1 / 2.5)


def test_bound_refuses_exponent_above_cap_at_once():
    # [p] pair norms would take hours at p = 1e9; the cap refuses before computing one
    start = time.perf_counter()
    for p in (1e9, 1e9 + 0.5, analysis.BOUND_EXPONENT_CAP + 1):
        with pytest.raises(BadOption):
            norm_bound(CANTOR, p)
    assert time.perf_counter() - start < 1.0


def test_infinity_bound_cantor():
    nb = norm_bound(CANTOR, math.inf)
    assert nb.bound == pytest.approx(1.0, rel=1e-14)


def test_infinity_bound_step():
    s = characteristic(0.25, 0.75)
    assert norm_bound(s, math.inf).bound == 1.0


def test_bound_validity_random(rng):
    # measured norm never exceeds bound + certified error
    for _ in range(20):
        system = random_system(rng, d_max=0.55)
        for p in (1, 2, 1.5, math.inf):
            nb = norm_bound(system, p)
            res = solve(system, p, 1e-5, max_depth=9, piece_cap=200_000)
            measured = lp_norm(res.approximant, p)
            assert measured <= nb.bound + res.aposteriori_error + 1e-12


# ----------------------------------------------------------------------
# continuity
# ----------------------------------------------------------------------
def test_continuity_cantor_family_grid():
    for a in (0.1, 0.25, 1 / 3, 0.45):
        for delta in (0.0, 0.1, 0.25, 0.32):
            assert continuity_check(cantor_family(a, delta)).holds


def test_continuity_characteristic_fails_with_jumps():
    v = continuity_check(characteristic(0.25, 0.75))
    assert v.verdict == "fails"
    points = sorted(w["point"] for w in v.witnesses if "point" in w)
    assert points == [0.25, 0.75]
    assert all(abs(w["residual"]) == pytest.approx(1.0) for w in v.witnesses)


def test_continuity_identity_residuals_zero():
    v = continuity_check(identity2())
    assert v.holds and v.witnesses == ()


def test_continuity_rejects_large_d():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(1.0, 0.2), beta=(0, 0))
    v = continuity_check(s)
    assert v.verdict == "fails"
    assert v.witnesses[0]["condition"] == "max|d|<1"


def test_continuous_systems_have_matching_one_sided_values(rng):
    # exact one-sided values agree at shared T_2 points for continuous
    # systems; the characteristic function exhibits unit jumps there
    from selfsim import boundary_anchors, mesh_code_values

    system = cantor_family(0.3, 0.1)
    anc = boundary_anchors(system)
    xL, vL, xR, vR = mesh_code_values(system, anc, 2)
    assert np.allclose(vR[:-1], vL[1:], atol=1e-10)

    system = characteristic(0.25, 0.75)
    anc = boundary_anchors(system)
    xL, vL, xR, vR = mesh_code_values(system, anc, 2)
    assert np.max(np.abs(vR[:-1] - vL[1:])) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# monotonicity
# ----------------------------------------------------------------------
def test_monotone_cantor_holds():
    assert monotonicity_classify(CANTOR).verdict == "holds"


def test_monotone_counterexample_fails_via_fallback():
    v = monotonicity_classify(counterexample(0.5))
    assert v.verdict == "fails"
    assert all(w["condition"] == "mesh_decrease" for w in v.witnesses)


def test_monotone_beta_decrease_fails_immediately():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(0.5, 0.5), beta=(0.5, 0.0))
    v = monotonicity_classify(s)
    assert v.verdict == "fails"
    assert any(w["condition"] == "beta_k<=beta_{k+1}" for w in v.witnesses)


def test_monotone_unbounded():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(1.0, 0.5), beta=(0, 0))
    with pytest.raises(Unbounded):
        monotonicity_classify(s)


def _identity_alternating(a, d_abs):
    # f(x) = x with d_k of alternating sign (c_k = a_k - d_k, beta_k = alpha_k):
    # monotone, but the sufficient conditions fail, so the full scan runs
    d = [dk if k % 2 else -dk for k, dk in enumerate(d_abs)]
    alpha = np.concatenate(([0.0], np.cumsum(a)[:-1]))
    return SimilaritySystem(a=a, c=[ak - dk for ak, dk in zip(a, d)], d=d, beta=alpha)


def _reference_scan(system, tol=1e-9):
    # the fallback written with a fresh mesh_code_values pass per depth
    anc = boundary_anchors(system)
    for m in range(1, analysis.FALLBACK_DEPTH + 1):
        if system.n**m > analysis.FALLBACK_CAP:
            break
        xL, vL, xR, vR = mesh_code_values(system, anc, m)
        pts = np.ravel(np.column_stack((xL, xR)))
        vals = np.ravel(np.column_stack((vL, vR)))
        drops = np.nonzero(np.diff(vals) < -tol)[0]
        if drops.size:
            i = int(drops[0])
            return "fails", (
                {
                    "condition": "mesh_decrease",
                    "index": m,
                    "residual": float(vals[i + 1] - vals[i]),
                    "point": (float(pts[i]), float(pts[i + 1])),
                },
            )
    return "indeterminate", ()


@pytest.mark.parametrize(
    "system, verdict",
    [(counterexample(d), "fails") for d in (0.3, 0.5, 0.7)]
    + [
        (_identity_alternating([0.5, 0.5], [0.3, 0.2]), "indeterminate"),
        (_identity_alternating([0.3, 0.3, 0.4], [0.2, 0.5, 0.1]), "indeterminate"),
        (_identity_alternating([0.2, 0.3, 0.25, 0.25], [0.4, 0.1, 0.3, 0.2]), "indeterminate"),
        # the first decreasing pair shows at depth 7, and at depth 8
        (SimilaritySystem((0.82, 0.18), (0.118, -0.41), (0.7, 0.59), (0.0, 0.82)), "fails"),
        (SimilaritySystem((0.76, 0.24), (0.537, -0.35), (0.22, 0.59), (0.0, 0.76)), "fails"),
    ],
)
def test_fallback_scan_matches_mesh_code_values(system, verdict):
    v = monotonicity_classify(system)
    assert v.verdict == verdict
    assert (v.verdict, v.witnesses) == _reference_scan(system)


def test_monotone_verdicts_consistent_with_mesh(rng):
    from selfsim import boundary_anchors, mesh_code_values

    for _ in range(10):
        system = random_system(rng, n=3, d_max=0.6)
        try:
            v = monotonicity_classify(system)
        except Unbounded:
            continue
        anc = boundary_anchors(system)
        xL, vL, xR, vR = mesh_code_values(system, anc, 6)
        vals = np.empty(2 * vL.size)
        vals[0::2], vals[1::2] = vL, vR
        decreasing = (np.diff(vals) < -1e-9).any()
        if v.verdict == "holds":
            assert not decreasing
        if v.verdict == "fails":
            xs = np.empty_like(vals)
            # a witness decrease must exist at some depth <= 8
            found = False
            for m in range(1, 9):
                _, a_, _, b_ = mesh_code_values(system, anc, m)
                seq = np.empty(2 * a_.size)
                seq[0::2], seq[1::2] = a_, b_
                if (np.diff(seq) < -1e-9).any():
                    found = True
                    break
            assert found


# ----------------------------------------------------------------------
# variation
# ----------------------------------------------------------------------
def test_variation_criterion_cantor_family():
    for delta in (0.0, 0.05, 0.1, 0.2):
        D, verdict = variation_criterion(cantor_family(1 / 3, delta))
        assert D == pytest.approx(1 + 4 * delta, rel=1e-14)
        assert verdict.verdict == ("holds" if delta == 0.0 else "fails")


def test_variation_criterion_preconditions():
    with pytest.raises(NotApplicable):
        variation_criterion(identity2())  # c != 0
    with pytest.raises(NotApplicable):
        variation_criterion(characteristic(0.25, 0.75))  # discontinuous


def test_variation_identity_Dm(rng):
    for delta in (0.0, 0.05, 0.1):
        system = cantor_family(1 / 3, delta)
        D, _ = variation_criterion(system)
        for m in range(1, 7):
            assert variation_on_mesh(system, m) == pytest.approx(D**m, rel=1e-9)


def test_variation_monotone_system_telescopes():
    system = bernoulli(1 / 3)
    for m in range(1, 7):
        assert variation_on_mesh(system, m) == pytest.approx(1.0, rel=1e-12)


def test_variation_identity_function():
    for m in (1, 3, 5):
        assert variation_on_mesh(identity2(), m) == pytest.approx(1.0, rel=1e-14)


def test_variation_on_mesh_sums_right_end_values(rng):
    # one right-end pass gives mesh_code_values' vR bitwise; the deep cases
    # difference in place over several blocks
    cases = [(random_system(rng), (1, 3, 5)) for _ in range(20)]
    cases += [(random_system(rng, n=2), (15,)), (random_system(rng, n=3), (10,))]
    for system, depths in cases:
        anc = boundary_anchors(system)
        for m in depths:
            vR = mesh_code_values(system, anc, m)[3]
            expected = float(np.abs(np.diff(np.concatenate(([anc[0]], vR)))).sum())
            assert variation_on_mesh(system, m) == expected


# ----------------------------------------------------------------------
# tolerances and overflow
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
@pytest.mark.parametrize("check", [continuity_check, monotonicity_classify, variation_criterion])
def test_bad_tol_rejected(check, tol):
    # a NaN tolerance would pass every residual test: the indicator has jumps
    with pytest.raises(BadOption):
        check(characteristic(0.25, 0.75), tol)
    with pytest.raises(BadOption):
        check(CANTOR, tol)


def test_zero_tol_accepted():
    assert continuity_check(CANTOR, 0.0).holds
    assert monotonicity_classify(CANTOR, 0.0).holds


def test_overflowing_anchors_rejected():
    s = SimilaritySystem(a=(0.5, 0.5), c=(1e308, 1e308), d=(0.5, 0.5), beta=(1e308, 1e308))
    for check in (boundary_anchors, continuity_check, monotonicity_classify):
        with pytest.raises(NonFinite):
            check(s)


def test_overflowing_closure_rejected():
    # finite anchors, but sum(c) overflows inside math.fsum
    s = SimilaritySystem(a=(0.5, 0.5), c=(1e308, 1e308), d=(0.5, -0.9), beta=(0.0, 0.0))
    boundary_anchors(s)
    with pytest.raises(NonFinite):
        continuity_check(s)


def test_overflowing_residuals_rejected():
    # f0 = -1e308 and f1 = 1e308 are finite, f1 - f0 is not
    s = SimilaritySystem(a=(0.5, 0.5), c=(0.0, 0.0), d=(0.0, 0.0), beta=(-1e308, 1e308))
    for check in (continuity_check, monotonicity_classify):
        with pytest.raises(NonFinite):
            check(s)


# ----------------------------------------------------------------------
# stability and family bound
# ----------------------------------------------------------------------
def test_stability_identical_zero():
    assert stability_bound(CANTOR, CANTOR, 1, (0.5, 0.5)) == 0.0


def test_stability_partition_mismatch():
    with pytest.raises(PartitionMismatch):
        stability_bound(CANTOR, identity2(), 1, (1, 1))


def test_stability_beta_shift_plugin():
    eps = 0.125
    s1 = bernoulli(1 / 4)
    s2 = SimilaritySystem(
        a=s1.a, c=s1.c, d=s1.d, beta=tuple(b + eps for b in s1.beta)
    )
    r1 = 0.5 * (0.25 + 0.75)
    expected = eps / (1 - r1)
    assert stability_bound(s1, s2, 1, (0.0, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_stability_dominates_measured(rng):
    for _ in range(10):
        s1 = random_system(rng, n=3, d_max=0.5)
        s2 = SimilaritySystem(
            a=s1.a,
            c=np.asarray(s1.c) + rng.uniform(-0.2, 0.2, 3),
            d=np.clip(np.asarray(s1.d) + rng.uniform(-0.1, 0.1, 3), -0.6, 0.6),
            beta=np.asarray(s1.beta) + rng.uniform(-0.2, 0.2, 3),
        )
        r1 = solve(s1, 1, 1e-7, max_depth=10)
        r2 = solve(s2, 1, 1e-7, max_depth=10)
        n1 = lp_norm(r1.approximant, 1) + r1.aposteriori_error
        n2 = lp_norm(r2.approximant, 1) + r2.aposteriori_error
        bound = stability_bound(s1, s2, 1, (n1, n2))
        measured = lp_distance(r1.approximant, r2.approximant, 1)
        assert measured <= bound + r1.aposteriori_error + r2.aposteriori_error + 1e-12


def test_family_bound_examples():
    assert family_bound(1.0, 0.5, math.inf) == 2.0
    assert family_bound(1.0, 0.5, 1) == 2.0
    assert family_bound(0.0, 0.5, 2) == 0.0


def test_family_bound_dominates_member_bounds(rng):
    # integer p: the family bound majorizes every member's a-priori bound
    R, eps = 2.0, 0.5
    for p in (1, 2):
        fb = family_bound(R, eps, p)
        for _ in range(25):
            system = random_system(rng, d_max=0.5)
            if weighted_pair_norm(system.c, system.beta, p, system.a) > R:
                continue
            assert norm_bound(system, p).bound <= fb + 1e-12


def test_family_bound_bad_args():
    for R in (-1.0, math.nan, math.inf):
        with pytest.raises(BadExponent):
            family_bound(R, 0.5, 2)
    with pytest.raises(BadExponent):
        family_bound(1.0, 1.5, 1)
    with pytest.raises(BadExponent):
        family_bound(1.0, 0.5, 0.2)
