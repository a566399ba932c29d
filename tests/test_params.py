import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim import (
    SimilaritySystem,
    contraction_factor,
    norm_bound,
    validate,
    weighted_pair_norm,
)
from selfsim.errors import (
    BadExponent,
    BadLengths,
    LengthMismatch,
    NDegenerate,
    NonFinite,
    SelfSimError,
)
from selfsim.presets import cantor_family

from conftest import random_system

CANTOR = cantor_family(1.0 / 3.0, 0.0)


def test_validate_equal_thirds():
    s = SimilaritySystem(a=(1 / 3, 1 / 3, 1 / 3), c=(0, 0, 0), d=(0, 0, 0), beta=(0, 0, 0))
    part = validate(s)
    assert part.alpha == (0.0, 1 / 3, 2 / 3, 1.0)


def test_validate_halves():
    s = SimilaritySystem(a=(0.5, 0.5), c=(1, -2), d=(0.3, 0.4), beta=(5, 6))
    assert validate(s).alpha == (0.0, 0.5, 1.0)


def test_validate_rejects_bad_sum():
    s = SimilaritySystem(a=(0.5, 0.25), c=(0, 0), d=(0, 0), beta=(0, 0))
    with pytest.raises(BadLengths):
        validate(s)


def test_validate_rejects_n1():
    s = SimilaritySystem(a=(1.0,), c=(0,), d=(0,), beta=(0,))
    with pytest.raises(NDegenerate):
        validate(s)


def test_validate_rejects_length_mismatch():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0,), d=(0, 0), beta=(0, 0))
    with pytest.raises(LengthMismatch):
        validate(s)


def test_validate_rejects_nonpositive():
    s = SimilaritySystem(a=(1.5, -0.5), c=(0, 0), d=(0, 0), beta=(0, 0))
    with pytest.raises(BadLengths):
        validate(s)


@pytest.mark.parametrize("field", ["a", "c", "d", "beta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite(field, bad):
    params = dict(a=[0.5, 0.5], c=[0.0, 0.0], d=[0.5, 0.5], beta=[0.0, 0.5])
    params[field][0] = bad
    with pytest.raises(NonFinite):
        validate(SimilaritySystem(**params))
    assert issubclass(NonFinite, SelfSimError)


def test_validate_result_is_kept():
    s = SimilaritySystem(a=(0.5, 0.5), c=(1, -2), d=(0.3, 0.4), beta=(5, 6))
    assert validate(s) is validate(s)
    # equal systems built separately validate separately, to equal partitions
    twin = SimilaritySystem(a=(0.5, 0.5), c=(1, -2), d=(0.3, 0.4), beta=(5, 6))
    assert twin == s and validate(twin) == validate(s)


def test_validate_failures_are_not_kept():
    s = SimilaritySystem(a=(0.5, 0.25), c=(0, 0), d=(0, 0), beta=(0, 0))
    for _ in range(3):
        with pytest.raises(BadLengths):
            validate(s)


def test_contraction_cantor_p1():
    rep = contraction_factor(CANTOR, 1)
    assert rep.r_p == pytest.approx(1 / 3, abs=1e-15)
    assert rep.contractive


def test_contraction_zero_d():
    s = SimilaritySystem(a=(0.5, 0.5), c=(1, 1), d=(0, 0), beta=(2, 3))
    rep = contraction_factor(s, 2)
    assert rep.r_p == 0.0 and rep.contractive


def test_contraction_cantor_inf():
    rep = contraction_factor(CANTOR, math.inf)
    assert rep.r_p == 0.5 and rep.contractive


def test_contraction_bad_exponent():
    with pytest.raises(BadExponent):
        contraction_factor(CANTOR, 0.5)


def test_weighted_pair_norm_cantor():
    v = weighted_pair_norm((0, 0, 0), (0, 0.5, 0.5), 1, (1 / 3, 1 / 3, 1 / 3))
    assert v == pytest.approx(1 / 3, rel=1e-15)


def test_weighted_pair_norm_zero():
    for s in (1, 2, 3.5, math.inf):
        assert weighted_pair_norm((0, 0), (0, 0), s, (0.5, 0.5)) == 0.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("s", [1, 2, 2.5, 3, 7.25])
def test_weighted_pair_norm_past_the_float_range(scale, s):
    # (|x_k|+|y_k|)^s overflows or underflows although the norm is a normal float
    mpmath = pytest.importorskip("mpmath")
    x, y, a = (scale, 0.3 * scale, 0.0), (scale, 0.0, 0.0), (0.25, 0.5, 0.25)
    with mpmath.workdps(50):
        pair = [mpmath.mpf(u) + mpmath.mpf(v) for u, v in zip(x, y)]
        total = sum(q ** mpmath.mpf(s) * mpmath.mpf(w) for q, w in zip(pair, a))
        exact = total ** (1 / mpmath.mpf(s))
        got = weighted_pair_norm(x, y, s, a)
        assert abs((mpmath.mpf(got) - exact) / exact) < 1e-14
    assert weighted_pair_norm((scale, scale), (scale, scale), s, (0.5, 0.5)) == 2.0 * scale


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norm_bound_scales_past_the_float_range(scale):
    # the integer-p bound is homogeneous in (c, beta): scaling them scales it
    def system(v):
        return SimilaritySystem(a=(0.5, 0.5), c=(v, v), d=(0.5, 0.5), beta=(v, v))

    for p in (2, 3, 5):
        want = scale * norm_bound(system(1.0), p).bound
        assert norm_bound(system(scale), p).bound == pytest.approx(want, rel=1e-14)
    if scale > 1.0:
        # at p = 2.5 the bound itself, about 1e361, is past the float range:
        # inf with numpy's warning, not a Python OverflowError
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert norm_bound(system(scale), 2.5).bound == math.inf


def test_weighted_pair_norm_unchanged_in_range():
    # a finite, positive sum keeps the unscaled form bit for bit
    rng = np.random.default_rng(5)
    for s in (1.0, 2.0, 2.5, 3.0, 7.25):
        x, y = rng.normal(size=4) * 10.0 ** rng.uniform(-5, 5, 4), rng.normal(size=4)
        a = rng.dirichlet(np.ones(4))
        pair = np.abs(x) + np.abs(y)
        assert weighted_pair_norm(x, y, s, a) == float((pair**s @ a) ** (1.0 / s))


def test_weighted_pair_norm_inf():
    assert weighted_pair_norm((0, 0, 0), (0, 0.5, 0.5), math.inf, (1 / 3,) * 3) == 0.5


@given(seed=st.integers(0, 10**6), s=st.floats(1.0, 15.0), p=st.floats(1.0, 16.0))
@settings(max_examples=50, deadline=None)
def test_rs_monotone_in_p(seed, s, p):
    if s >= p:
        s, p = p, s + 1e-3
    rng = np.random.default_rng(seed)
    system = random_system(rng, d_max=0.9)
    r_s = contraction_factor(system, s).r_p
    r_p = contraction_factor(system, p).r_p
    assert r_s <= r_p ** (s / p) + 1e-12


@given(seed=st.integers(0, 10**6), t=st.floats(0.0, 50.0), s=st.floats(1.0, 8.0))
@settings(max_examples=50, deadline=None)
def test_pair_norm_homogeneous(seed, t, s):
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    x = np.asarray(system.c)
    y = np.asarray(system.beta)
    base = weighted_pair_norm(x, y, s, system.a)
    scaled = weighted_pair_norm(t * x, t * y, s, system.a)
    assert scaled == pytest.approx(t * base, rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_partition_roundtrip(seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng)
    part = validate(system)
    assert np.allclose(np.diff(part.alpha), system.a, rtol=0, atol=1e-15)
