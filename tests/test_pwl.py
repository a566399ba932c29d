import math

import numpy as np
import pytest

from selfsim import PiecewiseLinearFn, pwl
from selfsim.errors import NonFinite, SelfSimError


def test_identity_eval():
    f = PiecewiseLinearFn.identity()
    ts = np.array([0.0, 0.25, 1.0])
    assert np.allclose(f.value_right(ts), ts)
    assert np.allclose(f.value_left(ts), ts)


def test_one_sided_values_at_jump():
    # jump at 1/2: left limit 1, right limit 0
    f = PiecewiseLinearFn([0, 0.5, 1], [0, 1.0, 0.0], [0, 0.0, 0.0])
    assert f.value_left([0.5])[0] == 1.0
    assert f.value_right([0.5])[0] == 0.0
    assert f.value_right([0.25])[0] == 0.5
    assert f.value_left([0.75])[0] == 0.0


def test_rejects_bad_breakpoints():
    with pytest.raises(SelfSimError):
        PiecewiseLinearFn([0, 0.5, 0.4, 1], [0, 0, 0, 0])
    with pytest.raises(SelfSimError):
        PiecewiseLinearFn([0.1, 1], [0, 0])


def test_merge_collinear():
    f = PiecewiseLinearFn([0, 0.25, 0.5, 1], [0, 0.25, 0.5, 1.0])
    g = f.merged()
    assert g.n_pieces == 1
    assert np.allclose(g.value_right([0.3]), [0.3])


def test_merge_keeps_jump():
    f = PiecewiseLinearFn([0, 0.5, 1], [0, 0.5, 1.5], [0, 1.0, 1.5])
    assert f.merged().n_pieces == 2


@pytest.mark.parametrize(
    "x, yl, yr",
    [
        ([0, math.nan, 1], [0, 1, 0], [0, 1, 0]),
        ([0, 0.5, 1], [0, 1, 0], [0, math.nan, 0]),
        ([0, 0.5, 1], [0, math.inf, 0], [0, 1, 0]),
        ([0, 0.5, 1], [0, 1, 0], [0, 1, -math.inf]),
        ([0, 0.5, math.inf], [0, 1, 0], [0, 1, 0]),
    ],
)
def test_rejects_non_finite(x, yl, yr):
    with pytest.raises(NonFinite):
        PiecewiseLinearFn(x, yl, yr)


def _merged_reference(f):
    # merged() as first written: slopes(), an index array and fancy gathers
    if f.n_pieces < 2:
        return f
    s = f.slopes()
    scale = np.maximum(1.0, np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
    collinear = np.abs(s[1:] - s[:-1]) <= 1e-13 * scale
    interior = np.arange(1, f.x.size - 1)
    drop = collinear & (f.yl[interior] == f.yr[interior])
    keep = np.ones(f.x.size, dtype=bool)
    keep[interior[drop]] = False
    return PiecewiseLinearFn(f.x[keep], f.yl[keep], f.yr[keep], _trusted=True)


def _random_merge_case(rng, kind):
    m = int(rng.integers(1, 3)) if kind == "small" else int(rng.integers(3, 40))
    x = np.unique(np.concatenate(([0.0], rng.uniform(0.0, 1.0, m - 1), [1.0])))
    if kind == "collinear":
        # exactly collinear runs: y = 2x - 0.5 on dyadic points, with a kink
        x = np.unique(np.concatenate(([0.0], rng.integers(1, 64, m) / 64.0, [1.0])))
        y = 2.0 * x - 0.5
        y[x > 0.5] = 0.5 - 3.0 * (x[x > 0.5] - 0.75)
        # one-ulp jumps keep their breakpoints although the slopes agree
        return x, y, np.where(rng.uniform(size=x.size) < 0.3, np.nextafter(y, np.inf), y)
    y = rng.normal(size=x.size) * 10.0 ** rng.uniform(-3, 3)
    if kind == "jumps":
        return x, y, y + rng.choice([-1.0, 1.0], x.size) * rng.uniform(0.1, 1.0, x.size)
    if kind == "gap":
        # slope s on every piece, perturbed by a relative gap just inside or
        # just outside the 1e-13 tolerance
        s = rng.uniform(-5.0, 5.0)
        rel = rng.choice([0.9e-13, 1.1e-13, 0.5e-13, 2e-13], x.size - 1)
        slopes = s * (1.0 + rel * rng.choice([-1.0, 1.0], x.size - 1))
        y = np.concatenate(([0.0], np.cumsum(slopes * np.diff(x))))
        return x, y, y.copy()
    if kind == "zeros":
        y = np.where(rng.uniform(size=x.size) < 0.5, -0.0, 0.0)
        y[rng.uniform(size=x.size) < 0.2] = 1.0
        return x, y, np.where(rng.uniform(size=x.size) < 0.5, 0.0, y)
    yr = np.where(rng.uniform(size=x.size) < 0.5, y, rng.normal(size=x.size))
    return x, y, yr


def _assert_merged_matches_reference(f):
    got, want = f.merged(), _merged_reference(f)
    for a, b in ((got.x, want.x), (got.yl, want.yl), (got.yr, want.yr)):
        assert a.tobytes() == b.tobytes()
    return got


MERGE_KINDS = ["jumps", "collinear", "gap", "small", "zeros", "mixed"]


@pytest.mark.parametrize("kind", MERGE_KINDS)
def test_merged_matches_reference(rng, kind):
    for _ in range(200):
        f = PiecewiseLinearFn(*_random_merge_case(rng, kind))
        got = _assert_merged_matches_reference(f)
        if kind == "jumps" and f.n_pieces > 1:
            assert got is f  # no jump-free junction: returned unchanged


@pytest.mark.parametrize("kind", MERGE_KINDS)
def test_merged_across_small_blocks(rng, kind, monkeypatch):
    # blocks of 7 junctions put block edges all over the 3-40-piece cases
    monkeypatch.setattr(pwl, "_BLOCK", 7)
    for _ in range(200):
        _assert_merged_matches_reference(PiecewiseLinearFn(*_random_merge_case(rng, kind)))


def test_merged_drops_on_block_edges(rng):
    # 4 blocks of pieces on a dyadic grid with integer slopes, so every slope
    # is exact; jump-free collinear junctions sit on both sides of each block
    # edge, every other junction has a jump or a slope change of 1-3
    n = 4 * pwl._BLOCK
    edges = {e + k for e in range(pwl._BLOCK, n - 1, pwl._BLOCK) for k in (-2, -1, 0)}
    edges |= {0, n - 2}  # the first and last junction
    step = rng.choice([-3, -2, -1, 1, 2, 3], n - 1)
    slopes = np.concatenate(([0], np.cumsum(np.where(np.isin(np.arange(n - 1), list(edges)), 0, step))))
    jumps = np.where(rng.uniform(size=n - 1) < 0.3, rng.integers(1, 5, n - 1), 0)
    jumps[list(edges)] = 0
    # integer numerators over n: yr[i] = yl[i] + jump, yl[i + 1] = yr[i] + slope_i
    yl, yr = np.zeros(n + 1), np.zeros(n + 1)
    for i in range(n):
        yr[i] = yl[i] + (jumps[i - 1] if 0 < i else 0)
        yl[i + 1] = yr[i] + slopes[i]
    yr[n] = yl[n]
    f = PiecewiseLinearFn(np.arange(n + 1) / n, yl / n, yr / n)
    assert np.array_equal(f.slopes(), slopes)
    got = _assert_merged_matches_reference(f)
    assert got.n_pieces == n - len(edges)


def test_merged_tolerance_boundary():
    # relative slope gaps of 0.9e-13 merge, 1.1e-13 do not
    for rel, pieces in ((0.9e-13, 1), (1.1e-13, 2)):
        f = PiecewiseLinearFn([0, 0.5, 1], [0.0, 1.0, 2.0 * (1.0 + rel) - rel])
        assert f.merged().n_pieces == pieces
    # slopes 0 and exactly 1e-13: a gap equal to the tolerance merges
    f = PiecewiseLinearFn([0, 0.5, 1], [0.0, 0.0, 0.5e-13])
    assert f.slopes()[1] == 1e-13
    assert f.merged().n_pieces == 1
