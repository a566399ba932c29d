import math

import pytest

from selfsim import boundary_anchors, build_preset, solve, validate
from selfsim.errors import BadPresetParams
from selfsim.presets import (
    PRESET_NAMES,
    bernoulli,
    cantor_family,
    characteristic,
    counterexample,
    identity2,
    identity3,
    step,
)


def test_all_presets_valid():
    for s in (
        characteristic(0.3, 0.7),
        step((0.0, 0.25, 0.75, 1.0), (0.0, 0.5, 1.0)),
        identity2(),
        identity3(),
        cantor_family(1 / 3, 0.0),
        cantor_family(0.3, 0.1),
        counterexample(0.4),
        bernoulli(0.2),
    ):
        validate(s)


def test_characteristic_fixed_point():
    s = characteristic(0.3, 0.7)
    res = solve(s, 1, 1e-12)
    f = res.approximant
    assert res.iterations == 1
    assert f.value_right(0.0) == 0.0
    assert f.value_right(0.5) == 1.0
    assert f.value_left(1.0) == 0.0
    assert f.value_left(0.3) == 0.0 and f.value_right(0.3) == 1.0
    assert f.value_left(0.7) == 1.0 and f.value_right(0.7) == 0.0


def test_step_fixed_point():
    s = step((0.0, 0.25, 0.75, 1.0), (0.0, 0.5, 1.0))
    f = solve(s, 1, 1e-12).approximant
    assert f.value_right(0.1) == 0.0
    assert f.value_right(0.5) == 0.5
    assert f.value_right(0.9) == 1.0


def test_identity_presets_fix_identity():
    for s in (identity2(), identity3()):
        f = solve(s, 2, 1e-13).approximant
        for x in (0.0, 0.2, 1 / 3, 0.5, 2 / 3, 1.0):
            assert f.value_right(x) == pytest.approx(x, abs=1e-13)


def test_cantor_family_defaults():
    s = cantor_family(1 / 3, 0.0)
    assert s.a == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    assert s.d == (0.5, 0.0, 0.5)
    assert s.beta == (0.0, 0.5, 0.5)
    f0, f1 = boundary_anchors(s)
    assert f0 == 0.0 and f1 == 1.0


def test_cantor_family_perturbed_normalized():
    s = cantor_family(0.3, 0.1)
    assert math.fsum(s.d) == pytest.approx(1.0, abs=1e-15)
    f0, f1 = boundary_anchors(s)
    assert f0 == pytest.approx(0.0, abs=1e-15)
    assert f1 == pytest.approx(1.0, abs=1e-15)


def test_counterexample_anchors():
    f0, f1 = boundary_anchors(counterexample(0.4))
    assert f0 == 0.0 and f1 == 1.0


def test_bernoulli_anchors():
    f0, f1 = boundary_anchors(bernoulli(0.25))
    assert f0 == 0.0 and f1 == 1.0


def test_bad_params():
    with pytest.raises(BadPresetParams):
        characteristic(0.7, 0.3)
    with pytest.raises(BadPresetParams):
        cantor_family(0.6, 0.0)
    with pytest.raises(BadPresetParams):
        cantor_family(1 / 3, 0.5)
    with pytest.raises(BadPresetParams):
        counterexample(1.5)
    with pytest.raises(BadPresetParams):
        bernoulli(0.0)


def test_build_preset_dispatch():
    assert build_preset("identity2", []) == identity2()
    assert build_preset("cantor_family", [1 / 3, 0.0]) == cantor_family(1 / 3, 0.0)
    assert build_preset("characteristic", [0.3, 0.7]) == characteristic(0.3, 0.7)
    with pytest.raises(BadPresetParams):
        build_preset("identity2", [0.5])
    assert set(PRESET_NAMES) >= {
        "characteristic",
        "step",
        "identity2",
        "identity3",
        "cantor_family",
        "counterexample",
        "bernoulli",
    }
