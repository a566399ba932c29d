import itertools
import math

import numpy as np
import pytest

from selfsim import (
    SimilaritySystem,
    boundary_anchors,
    cdf_consistency,
    coded_interval,
    coded_interval_mass,
    coded_intervals,
    code_to_segment,
    exact_value_at_code_point,
    measure_from_function,
    mesh_code_values,
    sample,
)
from selfsim.errors import BadIndex, BadOption, DepthTooLarge, NotApplicable
from selfsim.presets import bernoulli, cantor_family, identity2

CANTOR = cantor_family(1.0 / 3.0, 0.0)
BERN = bernoulli(1.0 / 3.0)


def uniform_system():
    # d = a, c = 0, beta_k = alpha_k: the fixed point is x, mu is Lebesgue
    return SimilaritySystem(
        a=(0.5, 0.25, 0.25), c=(0, 0, 0), d=(0.5, 0.25, 0.25), beta=(0.0, 0.5, 0.75)
    )


def test_cantor_rejected_without_collapse():
    with pytest.raises(NotApplicable):
        measure_from_function(CANTOR)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_bad_tol_rejected(tol):
    with pytest.raises(BadOption):
        measure_from_function(BERN, tol=tol)


def test_cantor_collapse():
    mu = measure_from_function(CANTOR, collapse_zero_branches=True)
    assert mu.rho == (0.5, 0.5)
    assert mu.letters == (1, 3)
    assert mu.left == pytest.approx((0.0, 2 / 3), abs=1e-15)
    assert coded_interval_mass(mu, (1, 1)) == 0.25
    lo, hi = coded_interval(mu, (1, 1))
    assert (lo, hi) == (0.0, 1 / 9)


# a_2 + alpha_2 rounds to 1.0000000000001; the partition clamps alpha_3 to 1
OVERSHOOT = SimilaritySystem(a=(0.3, 0.7000000000001), c=(0, 0), d=(0.5, 0.5), beta=(0, 0.5))


@pytest.mark.parametrize("system, collapse", [(OVERSHOOT, False), (CANTOR, True)])
def test_coded_interval_is_code_segment(system, collapse):
    mu = measure_from_function(system, collapse_zero_branches=collapse)
    for m in (1, 2, 3):
        lo, hi, mass = coded_intervals(mu, m)
        for i, w in enumerate(itertools.product(range(1, mu.n + 1), repeat=m)):
            seg = code_to_segment(system, [mu.letters[k - 1] for k in w])
            assert coded_interval(mu, w) == seg == (lo[i], hi[i])
            assert coded_interval_mass(mu, w) == mass[i]
            assert 0.0 <= seg[0] <= seg[1] <= 1.0
    assert coded_interval(measure_from_function(OVERSHOOT), (2, 2, 2))[1] == 1.0


def test_coded_intervals_cap():
    mu = measure_from_function(BERN)
    with pytest.raises(DepthTooLarge):
        coded_intervals(mu, 40)
    with pytest.raises(BadOption):
        coded_intervals(mu, 0)


def test_bernoulli_weights():
    mu = measure_from_function(BERN)
    assert mu.rho == pytest.approx((1 / 3, 2 / 3), abs=1e-15)


def test_uniform_is_lebesgue():
    mu = measure_from_function(uniform_system())
    for w in itertools.product((1, 2, 3), repeat=3):
        lo, hi = coded_interval(mu, w)
        assert coded_interval_mass(mu, w) == pytest.approx(hi - lo, abs=1e-14)


def test_rejects_nonzero_c():
    with pytest.raises(NotApplicable) as exc:
        measure_from_function(identity2())
    assert "c=0" in exc.value.violated


def test_rejects_non_monotone():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(1.5 / 2, 0.25), beta=(0.5, 0.0))
    with pytest.raises(NotApplicable):
        measure_from_function(s)


def test_mass_conservation():
    mu = measure_from_function(BERN)
    for m in (1, 3, 6):
        total = math.fsum(
            coded_interval_mass(mu, w)
            for w in itertools.product((1, 2), repeat=m)
        )
        assert abs(total - 1.0) <= m * mu.n * 1e-15


def test_empty_code_mass_one():
    mu = measure_from_function(BERN)
    assert coded_interval_mass(mu, ()) == 1.0


def test_bad_letter():
    mu = measure_from_function(BERN)
    with pytest.raises(BadIndex):
        coded_interval_mass(mu, (3,))


def test_depth1_masses_match_cdf_increments():
    mu = measure_from_function(BERN)
    anc = boundary_anchors(BERN)
    _, vL, _, vR = mesh_code_values(BERN, anc, 1)
    for k in range(mu.n):
        assert mu.rho[k] == pytest.approx(vR[k] - vL[k], abs=1e-14)


# a zero-weight middle branch whose values round: residuals are not all 0
GAPPED = SimilaritySystem(a=(0.3, 0.3, 0.4), c=(0, 0, 0), d=(0.3, 0, 0.7), beta=(0, 0.3, 0.3))


@pytest.mark.parametrize("system", [CANTOR, GAPPED])
def test_cdf_consistency_collapsed_matches_scalar_folds(system):
    # the collapsed maps leave a gap, so the right ends take their own pass from t = 1
    mu = measure_from_function(system, collapse_zero_branches=True)
    anc = boundary_anchors(system)
    for m in (1, 2, 3, 4):
        worst = 0.0
        for w in itertools.product(range(1, mu.n + 1), repeat=m):
            code = [mu.letters[k - 1] for k in w]
            f_lo = exact_value_at_code_point(system, anc, code, "left")
            f_hi = exact_value_at_code_point(system, anc, code, "right")
            worst = max(worst, abs(coded_interval_mass(mu, w) - (f_hi - f_lo)))
        assert cdf_consistency(system, mu, m) == worst


def test_cdf_consistency_examples():
    assert cdf_consistency(uniform_system(), measure_from_function(uniform_system()), 6) <= 1e-14
    assert cdf_consistency(BERN, measure_from_function(BERN), 6) <= 1e-12
    mu = measure_from_function(CANTOR, collapse_zero_branches=True)
    assert cdf_consistency(CANTOR, mu, 5) <= 1e-12


def test_sample_deterministic():
    mu = measure_from_function(BERN)
    a = sample(mu, 100, 15, rng_seed=7)
    b = sample(mu, 100, 15, rng_seed=7)
    assert np.array_equal(a, b)
    assert ((a >= 0) & (a <= 1)).all()


@pytest.mark.parametrize("count, depth", [(0, 10), (10, 0), (-1, 5), (5, -1)])
def test_sample_rejects_nonpositive_sizes(count, depth):
    with pytest.raises(BadOption):
        sample(measure_from_function(BERN), count, depth, rng_seed=0)


def test_sample_cap(monkeypatch):
    # count * depth letters are drawn at once: refused above the cap before
    # any is drawn (10^12 letters would not fit in memory)
    mu = measure_from_function(BERN)
    with pytest.raises(DepthTooLarge):
        sample(mu, 10**9, 10**3, rng_seed=0)
    monkeypatch.setattr("selfsim.measure.DEFAULT_SEGMENT_CAP", 100)
    assert sample(mu, 10, 10, rng_seed=0).shape == (10,)
    for count, depth in ((101, 1), (10, 11)):
        with pytest.raises(DepthTooLarge):
            sample(mu, count, depth, rng_seed=0)


def test_sample_uniform_kolmogorov():
    mu = measure_from_function(uniform_system())
    xs = np.sort(sample(mu, 10_000, 20, rng_seed=3))
    ecdf = np.arange(1, xs.size + 1) / xs.size
    assert np.abs(ecdf - xs).max() <= 0.02
