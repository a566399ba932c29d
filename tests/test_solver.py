import math

import numpy as np
import pytest

from selfsim import (
    PiecewiseLinearFn,
    SimilaritySystem,
    apply_G,
    contraction_factor,
    lp_distance,
    lp_norm,
    solve,
)
from selfsim.errors import BadExponent, BadOption, NonFinite, NotContractive
from selfsim.presets import (
    bernoulli,
    cantor_family,
    characteristic,
    counterexample,
    identity2,
    step,
)
from selfsim import solver
from selfsim.solver import step_bound

from conftest import random_system

CANTOR = cantor_family(1.0 / 3.0, 0.0)
IDENTITY = PiecewiseLinearFn.identity()
ZERO = PiecewiseLinearFn.zero()


# ----------------------------------------------------------------------
# exact L_p integration
# ----------------------------------------------------------------------
def test_distance_of_equal_functions_is_zero():
    f = PiecewiseLinearFn([0, 0.4, 1], [1.0, -2.0, 3.0])
    for p in (1, 2, 2.5, math.inf):
        assert lp_distance(f, f, p) == 0.0


def test_identity_norms():
    assert lp_norm(IDENTITY, 2) == pytest.approx(math.sqrt(1 / 3), rel=1e-15)
    assert lp_norm(IDENTITY, math.inf) == 1.0
    assert lp_norm(IDENTITY, 1) == pytest.approx(0.5, rel=1e-15)


def test_identity_fractional_norm():
    # int_0^1 x^p dx = 1/(p+1)
    for p in (1.5, 2.5, 3.75):
        assert lp_norm(IDENTITY, p) == pytest.approx((1 / (p + 1)) ** (1 / p), rel=1e-12)


def test_step_norm():
    f = PiecewiseLinearFn(
        [0, 1 / 3, 2 / 3, 1], [0, 0, 0.5, 0.5], [0, 0.5, 0.5, 0.5]
    )
    assert lp_norm(f, 1) == pytest.approx(1 / 3, rel=1e-14)


def test_sign_change_piece():
    # f(x) = 2x - 1: int |2x-1| dx = 1/2; int (2x-1)^2 = 1/3
    f = PiecewiseLinearFn([0, 1], [-1.0, 1.0])
    assert lp_distance(f, ZERO, 1) == pytest.approx(0.5, rel=1e-14)
    assert lp_distance(f, ZERO, 2) == pytest.approx(math.sqrt(1 / 3), rel=1e-14)


def test_near_constant_piece_stable():
    # nearly flat piece: closed form would cancel catastrophically
    eps = 1e-12
    f = PiecewiseLinearFn([0, 1], [1.0, 1.0 + eps])
    assert lp_norm(f, 3) == pytest.approx(1.0, rel=1e-12)


def test_bad_exponent():
    with pytest.raises(BadExponent):
        lp_distance(IDENTITY, ZERO, 0.3)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7.25])
@pytest.mark.parametrize(
    "g0, g1, h, rel",
    [
        (-0.7, 1.3, 0.25, 1e-14),  # sign change
        (1.0, 1.0 + 3e-7, 0.5, 1e-14),  # near-constant: midpoint expansion
        (-0.8, -0.8, 0.3, 1e-14),  # dg = 0
        (1.0, 1.0 + 1.1e-6, 0.4, 1e-14),  # just above the old 1e-6 switch
        (0.4, 2.1, 0.7, 1e-14),  # generic
    ],
)
def test_piece_integrals_match_mpmath(p, g0, g1, h, rel):
    # oracle: int_0^h |g0 + (g1 - g0) t / h|^p dt by 50-digit quadrature,
    # split at the root of a sign change
    mpmath = pytest.importorskip("mpmath")
    got = solver._piece_integrals(np.array([g0]), np.array([g1]), np.array([h]), p)[0]
    with mpmath.workdps(50):
        G0, G1, H, P = (mpmath.mpf(v) for v in (g0, g1, h, p))
        nodes = [0, H * G0 / (G0 - G1), H] if G0 * G1 < 0 else [0, H]
        expected = mpmath.quad(lambda t: abs(G0 + (G1 - G0) * t / H) ** P, nodes)
        assert abs((mpmath.mpf(got) - expected) / expected) < rel


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 4, 5, 6, 7.25, 20])
@pytest.mark.parametrize("side", [0.9, 1.1])
@pytest.mark.parametrize("g0", [1.0, -3.5])
def test_piece_integrals_at_the_switch(p, side, g0):
    # just below the near-constant switch (midpoint expansion, truncated at
    # delta^6) and just above it (closed form, cancelling): both within 1e-14
    # of 50-digit quadrature
    mpmath = pytest.importorskip("mpmath")
    g1 = g0 * (1.0 + side * solver.NEAR_CONSTANT / (p + 1.0))
    got = solver._piece_integrals(np.array([g0]), np.array([g1]), np.array([0.6]), p)[0]
    with mpmath.workdps(50):
        G0, G1, H, P = (mpmath.mpf(v) for v in (g0, g1, 0.6, p))
        expected = mpmath.quad(lambda t: abs(G0 + (G1 - G0) * t / H) ** P, [0, H])
        assert abs((mpmath.mpf(got) - expected) / expected) < 1e-14


def _piece_integrals_reference(g0, g1, h, p):
    # the masked-gather form that _piece_integrals replaced: the same float
    # operations per element, so results must agree to the bit
    g0 = np.asarray(g0, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    dg = g1 - g0
    scale = np.maximum(np.abs(g0), np.abs(g1))
    out = np.empty_like(g0)
    near = np.abs(dg) <= solver.NEAR_CONSTANT / (p + 1.0) * scale
    exact = ~near
    if exact.any():
        a0, a1, d = g0[exact], g1[exact], dg[exact]
        A0 = np.sign(a0) * np.abs(a0) ** (p + 1.0)
        A1 = np.sign(a1) * np.abs(a1) ** (p + 1.0)
        out[exact] = (A1 - A0) / (d * (p + 1.0)) * h[exact]
    if near.any():
        gm = 0.5 * (g0[near] + g1[near])
        delta = np.where(gm != 0.0, dg[near] / np.where(gm != 0.0, gm, 1.0), 0.0)
        d2 = delta**2
        c1 = p * (p - 1.0) / 24.0
        c2 = c1 * (p - 2.0) * (p - 3.0) / 80.0
        c3 = c2 * (p - 4.0) * (p - 5.0) / 168.0
        out[near] = np.abs(gm) ** p * (1.0 + d2 * (c1 + d2 * (c2 + d2 * c3))) * h[near]
    return out


def _mixed_pieces(rng, n, p, big=False):
    """g0, g1, h mixing near-constant, closed-form, zero, +-0, sign-change,
    one-ulp, switch-boundary and large antisymmetric pieces (and overflowing
    1e300-scale ones if big)."""
    g0 = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 5, n)
    kind = rng.integers(0, 9, n)
    switch = solver.NEAR_CONSTANT / (p + 1.0)
    g1 = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5, n)  # mostly closed form
    g1 = np.where(kind == 0, g0, g1)
    g1 = np.where(kind == 1, g0 * (1.0 + rng.uniform(-1.0, 1.0, n) * switch), g1)
    g1 = np.where(kind == 2, g0 * (1.0 + rng.choice([0.999, 1.0, 1.001], n) * switch), g1)
    g1 = np.where(kind == 3, -g0, g1)
    g1 = np.where(kind == 4, np.nextafter(g0, np.inf), g1)
    g1 = np.where(kind == 5, rng.choice([0.0, -0.0], n), g1)
    g0 = np.where(kind == 6, rng.choice([0.0, -0.0], n), g0)
    g1 = np.where(kind == 6, rng.choice([0.0, -0.0, 1.0], n), g1)
    g1 = np.where(kind == 7, -np.nextafter(g0, 0.0), g1)
    # gm = 0 on a closed-form piece, at the largest scale whose |g|^(p+1)
    # does not overflow: the reference computes no expansion there
    top = 10.0 ** (290.0 / (p + 1.0))
    g0 = np.where(kind == 8, rng.choice([top, -top, 1e-200], n), g0)
    g1 = np.where(kind == 8, -g0, g1)
    if big:
        g0 = np.where(kind == 8, rng.choice([1e300, -1e300, 1.7e308, 1e60], n), g0)
        g1 = np.where(kind == 8, g0 * rng.choice([1.0, -1.0, 1.01, 0.5], n), g1)
    return g0, g1, rng.uniform(0.0, 1.0, n)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3, 4, 5, 6, 7.25, 20])
def test_piece_integrals_matches_reference(p):
    rng = np.random.default_rng(int(p * 100))
    p = float(p)
    for n in (1, 2, 7, 3000):
        g0, g1, h = _mixed_pieces(rng, n, p)
        _assert_bitwise(solver._piece_integrals(g0, g1, h, p), _piece_integrals_reference(g0, g1, h, p))
    # overflowing values warn in both forms; the results still agree
    g0, g1, h = _mixed_pieces(rng, 3000, p, big=True)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _piece_integrals_reference(g0, g1, h, p)
        _assert_bitwise(solver._piece_integrals(g0, g1, h, p), want)
    # every piece near-constant, every piece closed form
    g0 = rng.normal(size=500)
    h = rng.uniform(0.0, 1.0, 500)
    switch = solver.NEAR_CONSTANT / (p + 1.0)
    for g1 in (g0 * (1.0 + rng.uniform(-0.9, 0.9, 500) * switch), -g0 + 0.25):
        _assert_bitwise(solver._piece_integrals(g0, g1, h, p), _piece_integrals_reference(g0, g1, h, p))
    # a NaN piece takes the closed form and stays NaN
    got = solver._piece_integrals(np.array([np.nan, 1.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]), p)
    assert np.isnan(got[0]) and got[1] == 0.5


def _mixed_function(rng, p):
    """A 60-200-piece function with jumps, flat, near-constant, sign-change
    and generic pieces."""
    m = int(rng.integers(60, 201))
    x = np.unique(np.concatenate(([0.0], rng.uniform(0.0, 1.0, m - 1), [1.0])))
    k = x.size
    yr = rng.normal(size=k) * 10.0 ** rng.uniform(-2, 2, k)
    kind = rng.integers(0, 4, k)
    yl = np.where(kind == 0, yr, rng.normal(size=k))  # continuous at x[i], or a jump
    near = np.roll(yr, 1) * (1.0 + rng.uniform(-0.9, 0.9, k) * solver.NEAR_CONSTANT / (p + 1.0))
    yl = np.where(kind == 1, near, yl)  # piece i - 1 is near-constant
    yl = np.where(kind == 2, np.roll(yr, 1), yl)  # piece i - 1 is flat
    return PiecewiseLinearFn(x, yl, yr)


@pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 4])
def test_lp_norm_of_mixed_function_matches_mpmath(p):
    # oracle: sum over f's pieces of the 50-digit closed form
    # h (F(g1) - F(g0)) / (g1 - g0), F(u) = sign(u)|u|^{p+1}/(p+1)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(p * 10) + 77)
    for _ in range(4):
        f = _mixed_function(rng, p)
        with mpmath.workdps(50):
            P = mpmath.mpf(p)
            total = mpmath.mpf(0)
            for x0, x1, g0, g1 in zip(f.x[:-1], f.x[1:], f.yr[:-1], f.yl[1:]):
                G0, G1, H = mpmath.mpf(g0), mpmath.mpf(g1), mpmath.mpf(x1) - mpmath.mpf(x0)
                if G0 == G1:
                    total += abs(G0) ** P * H
                else:
                    F0 = mpmath.sign(G0) * abs(G0) ** (P + 1) / (P + 1)
                    F1 = mpmath.sign(G1) * abs(G1) ** (P + 1) / (P + 1)
                    total += H * (F1 - F0) / (G1 - G0)
            expected = total ** (1 / P)
            assert abs((mpmath.mpf(lp_norm(f, p)) - expected) / expected) < 1e-13


def test_sup_norm_of_negative_zero_is_positive_zero():
    f = PiecewiseLinearFn([0, 0.5, 1], [-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0])
    for g in (f, ZERO):
        got = lp_norm(g, math.inf)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert math.copysign(1.0, lp_distance(f, ZERO, math.inf)) == 1.0


def test_non_finite_function_rejected():
    # before: accepted, and lp_norm(., inf) read 1.0 past the NaN
    with pytest.raises(NonFinite):
        PiecewiseLinearFn([0, 0.5, 1], [0, 1, 0], [0, math.nan, 0])
    # a NaN that gets past the constructor propagates through the sup norm
    f = PiecewiseLinearFn([0, 0.5, 1], [0.0, 1.0, 0.0], [0.0, math.nan, 0.0], _trusted=True)
    assert math.isnan(lp_norm(f, math.inf))
    for p in (1, 2, math.inf):
        with pytest.raises(NonFinite):
            solve(bernoulli(0.3), p, 1e-3, seed=f)


def test_solve_overflow_raises_non_finite():
    # before: 10 iterations and aposteriori_error nan, converged False
    s = SimilaritySystem(a=(0.5, 0.5), c=(1e308, 1e308), d=(0.5, 0.5), beta=(1e308, 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
        solve(s, math.inf, 1e-3, max_depth=10)


@pytest.mark.parametrize(
    "kwargs, stop, iterations",
    [
        ({"target_error": 1e-4}, "target", None),
        ({"target_error": 1e-30, "max_depth": 3}, "max_depth", 3),
        ({"target_error": 1e-30, "piece_cap": 100}, "piece_cap", 5),
    ],
)
def test_solve_stop_reason(kwargs, stop, iterations):
    res = solve(CANTOR, 1, **kwargs)
    assert res.stop == stop
    assert res.converged == (stop == "target")
    if iterations is not None:
        assert res.iterations == iterations
    if stop == "piece_cap":
        # Cantor iterates have 2^(m+1) - 1 pieces; the next would exceed the cap
        assert res.approximant.n_pieces * CANTOR.n > 100 >= res.approximant.n_pieces
    if stop == "target":
        assert res.aposteriori_error <= kwargs["target_error"]


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
def test_solve_identity_system_immediately_exact():
    res = solve(identity2(), 2, 1e-12)
    assert res.iterations == 1
    assert res.aposteriori_error == 0.0
    assert res.converged
    ts = np.linspace(0, 1, 11)
    assert np.allclose(res.approximant.value_right(ts), ts, atol=1e-15)


def test_solve_step_system():
    s = step([0.0, 1 / 3, 2 / 3, 1.0], [0.0, 0.5, 0.5])
    res = solve(s, 1, 1e-12)
    assert res.iterations == 1 and res.aposteriori_error == 0.0
    assert res.approximant.value_right([0.5])[0] == 0.5
    assert res.approximant.value_right([0.1])[0] == 0.0


def test_solve_cantor_geometric_decay():
    # consecutive L_1 steps shrink by exactly r_1 = 1/3
    f_prev = IDENTITY
    steps = []
    for _ in range(6):
        f_next = apply_G(CANTOR, f_prev)
        steps.append(lp_distance(f_next, f_prev, 1))
        f_prev = f_next
    ratios = [steps[i + 1] / steps[i] for i in range(len(steps) - 1)]
    assert np.allclose(ratios, 1 / 3, rtol=1e-9)


def test_solve_not_contractive():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(1.2, 1.1), beta=(0, 0))
    with pytest.raises(NotContractive):
        solve(s, 1, 1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_error": -1.0},
        {"target_error": 0.0},
        {"target_error": math.nan},
        {"max_depth": 0},
        {"piece_cap": 0},
    ],
)
def test_solve_rejects_bad_numeric_inputs(kwargs):
    kwargs = {"target_error": 1e-6, **kwargs}
    with pytest.raises(BadOption):
        solve(CANTOR, 1, **kwargs)
    with pytest.raises(ValueError):
        solve(CANTOR, 1, **kwargs)


def test_solve_depth_flagged():
    res = solve(CANTOR, 1, 1e-30, max_depth=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.aposteriori_error > 0


def test_contraction_rate_equality(rng):
    # the operator scales L_p distances by exactly r_p^(1/p) for finite p
    for _ in range(10):
        system = random_system(rng, d_max=0.9)
        f = PiecewiseLinearFn([0, 0.3, 1], rng.normal(size=3))
        g = PiecewiseLinearFn([0, 0.7, 1], rng.normal(size=3))
        for p in (1, 2):
            rp = contraction_factor(system, p).r_p
            lhs = lp_distance(apply_G(system, f), apply_G(system, g), p)
            rhs = rp ** (1 / p) * lp_distance(f, g, p)
            assert lhs == pytest.approx(rhs, rel=1e-10)
        r_inf = contraction_factor(system, math.inf).r_p
        lhs = lp_distance(apply_G(system, f), apply_G(system, g), math.inf)
        assert lhs <= r_inf * lp_distance(f, g, math.inf) + 1e-12


def test_seed_independence(rng):
    system = random_system(rng, n=2, d_max=0.5)
    r1 = solve(system, 1, 1e-9, seed=IDENTITY)
    r2 = solve(system, 1, 1e-9, seed=PiecewiseLinearFn([0, 1], [2.0, -1.0]))
    d = lp_distance(r1.approximant, r2.approximant, 1)
    assert d <= r1.aposteriori_error + r2.aposteriori_error


def test_certified_error_honest_on_known_fixed_points():
    # identity and step systems have exactly known fixed points
    res = solve(identity2(), 1, 1e-10)
    assert lp_distance(res.approximant, IDENTITY, 1) <= res.aposteriori_error
    s = step([0.0, 0.5, 1.0], [1.0, -1.0])
    res = solve(s, 1, 1e-10)
    exact = PiecewiseLinearFn([0, 0.5, 1], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0])
    assert lp_distance(res.approximant, exact, 1) <= res.aposteriori_error


def test_solve_measures_only_the_first_step(monkeypatch):
    calls = []

    def counted(f, g, p):
        calls.append(p)
        return lp_distance(f, g, p)

    monkeypatch.setattr(solver, "lp_distance", counted)
    res = solve(CANTOR, 1, 1e-8)
    assert res.converged and res.iterations > 1
    assert calls == [1.0]


def _jump_seed():
    return PiecewiseLinearFn([0, 0.3, 0.7, 1], [0.2, -0.5, 1.0, 0.4], [0.2, 0.8, -0.3, 0.4])


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_step_bound_covers_measured_steps(rng, p):
    # solve measures only the first step; every later measured step must sit
    # under the prediction q^(m-1) step_1 plus the rounding allowance.  The
    # d_max = 0.01 systems drive the steps down to the rounding floor of the
    # iterate's values, where only the absolute allowance holds.
    cases = [(random_system(rng), IDENTITY, 7) for _ in range(10)]
    cases += [(random_system(rng, d_max=0.01), IDENTITY, 7) for _ in range(10)]
    cases += [
        (CANTOR, IDENTITY, 12),
        (cantor_family(0.25, 0.1), IDENTITY, 10),
        (bernoulli(0.3), IDENTITY, 14),
        (counterexample(0.5), IDENTITY, 10),
        (characteristic(0.25, 0.75), IDENTITY, 6),
        (random_system(rng, n=2), _jump_seed(), 12),
    ]
    for system, seed, depth in cases:
        rp = contraction_factor(system, p).r_p
        q = rp if math.isinf(p) else rp ** (1 / p)
        f_prev = seed
        f = apply_G(system, f_prev)
        step1 = lp_distance(f, f_prev, p)
        for m in range(2, depth + 1):
            f_prev, f = f, apply_G(system, f)
            assert lp_distance(f, f_prev, p) <= step_bound(step1, q, m, f)


def _random_jump_pwl(rng):
    m = int(rng.integers(1, 40))
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, m)), [1.0]))
    x = np.unique(x)
    yl = rng.normal(size=x.size) * 10.0 ** rng.uniform(-3, 3)
    yr = np.where(rng.uniform(size=x.size) < 0.5, yl, rng.normal(size=x.size))
    return PiecewiseLinearFn(x, yl, yr)


def test_lp_norm_matches_distance_to_zero(rng):
    for _ in range(300):
        f = _random_jump_pwl(rng)
        for p in (1, 1.5, 2, 3):
            assert lp_norm(f, p) == lp_distance(f, ZERO, p)
        want = lp_distance(f, ZERO, math.inf)
        assert abs(lp_norm(f, math.inf) - want) <= np.spacing(want)
