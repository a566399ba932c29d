import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from selfsim import (
    PiecewiseLinearFn,
    SimilaritySystem,
    apply_G,
    boundary_anchors,
    build_mesh,
    cdf_consistency,
    code_to_segment,
    coded_intervals,
    exact_value_at_code_point,
    lp_norm,
    measure_from_function,
    mesh_code_values,
    pwl,
    validate,
    variation_on_mesh,
)
from selfsim.errors import BadIndex, BadOption, DepthTooLarge, Unbounded
from selfsim.params import branches
from selfsim.simop import _image
from selfsim.presets import bernoulli, cantor_family, counterexample, identity2

from conftest import random_system
from test_pwl import _merged_reference

CANTOR = cantor_family(1.0 / 3.0, 0.0)


# ----------------------------------------------------------------------
# apply_G
# ----------------------------------------------------------------------
def test_apply_G_identity_system_absorbs_anything():
    f = PiecewiseLinearFn([0, 0.3, 1], [5.0, -2.0, 7.0])
    g = apply_G(identity2(), f)
    ts = np.linspace(0, 1, 17)
    assert np.allclose(g.value_right(ts), ts, atol=1e-15)


def test_apply_G_step_when_d_zero():
    s = SimilaritySystem(a=(0.25, 0.75), c=(0, 0), d=(0, 0), beta=(2.0, -1.0))
    g = apply_G(s, PiecewiseLinearFn.identity())
    assert g.value_right([0.1])[0] == 2.0
    assert g.value_right([0.5])[0] == -1.0
    assert g.value_left([0.25])[0] == 2.0
    assert g.value_right([0.25])[0] == -1.0


def test_apply_G_cantor_first_iterate():
    g = apply_G(CANTOR, PiecewiseLinearFn.identity())
    assert g.value_left([1 / 3])[0] == pytest.approx(0.5, abs=1e-15)
    assert g.value_right([2 / 3])[0] == pytest.approx(0.5, abs=1e-15)
    assert g.slopes()[0] == pytest.approx(1.5, rel=1e-14)


def test_apply_G_carries_jumps():
    sys_char = SimilaritySystem(
        a=(0.5, 0.5), c=(0, 0), d=(0.5, 0.5), beta=(0.0, 1.0)
    )
    f = PiecewiseLinearFn([0, 0.5, 1], [0, 1.0, 0.0], [0, 0.0, 0.0])
    g = apply_G(sys_char, f)
    # interior jump of f at 1/2 is carried to 1/4 scaled by d_1
    assert g.value_left([0.25])[0] - g.value_right([0.25])[0] == pytest.approx(0.5)


def _apply_G_reference(system, f):
    # every branch imaged over all of f's points by the whole step, collapsed
    # and merged in one pass, as apply_G did before constant branches were
    # written as one piece and before its kernels were blocked
    maps = branches(system)
    m = f.x.size
    xs = np.empty(len(maps) * (m - 1) + 1)
    yl = np.empty_like(xs)
    yr = np.empty_like(xs)
    for k, branch in enumerate(maps):
        lo = k * (m - 1)
        _image(branch, f.x[:-1], f.yr[:-1], xs[lo : lo + m - 1], yr[lo : lo + m - 1])
        _image(branch, f.x[1:], f.yl[1:], None, yl[lo + 1 : lo + m])
    xs[-1] = 1.0
    yl[0] = yr[0]
    yr[-1] = yl[-1]
    pos = np.diff(xs) > 0.0
    first = np.concatenate(([True], pos))
    last = np.concatenate((pos, [True]))
    return _merged_reference(PiecewiseLinearFn(xs[first], yl[first], yr[last], _trusted=True))


def _with_constant_branch(system, k, beta):
    c, d, b = list(system.c), list(system.d), list(system.beta)
    c[k], d[k], b[k] = 0.0, 0.0, beta
    return SimilaritySystem(a=system.a, c=c, d=d, beta=b)


def test_apply_G_constant_branch_matches_full_image(rng):
    systems = [CANTOR, cantor_family(0.25, 0.0)]
    for beta in (0.0, -0.0, -0.7, 0.4):
        for k in (0, 1, 2):  # constant first, middle or last branch
            systems.append(_with_constant_branch(random_system(rng, n=3, d_max=0.9), k, beta))
    # d_k = 0 with c_k != 0 is a line, not a constant: imaged in full
    s = random_system(rng, n=3, d_max=0.9)
    systems.append(SimilaritySystem(a=s.a, c=s.c, d=(s.d[0], 0.0, s.d[2]), beta=s.beta))
    seeds = [
        PiecewiseLinearFn.identity(),
        PiecewiseLinearFn([0, 1], [-0.0, 0.0]),
        PiecewiseLinearFn([0, 0.3, 0.7, 1], [0.2, -0.5, 1.0, 0.4], [0.2, 0.8, -0.3, 0.4]),
        PiecewiseLinearFn([0, 0.25, 0.5, 1], [0.0, -0.0, 0.5, 1.0], [0.0, 0.0, -0.25, 1.0]),
    ]
    for system in systems:
        for seed in seeds:
            f = g = seed
            for _ in range(5):
                f, g = apply_G(system, f), _apply_G_reference(system, g)
                for a, b in ((f.x, g.x), (f.yl, g.yl), (f.yr, g.yr)):
                    assert a.tobytes() == b.tobytes()


def test_apply_G_collapses_breakpoints_that_round_together():
    # 0.5 x + 0.5 rounds x = 1e-20 onto x = 0: the run keeps one breakpoint
    # with the outer one-sided limits
    s = SimilaritySystem(a=(0.5, 0.5), c=(0.2, -0.1), d=(0.4, 0.3), beta=(0.1, 0.3))
    f = PiecewiseLinearFn([0.0, 1e-20, 1.0], [1.0, 2.0, 3.0], [1.0, -1.0, 3.0])
    g, want = apply_G(s, f), _apply_G_reference(s, f)
    assert np.all(np.diff(g.x) > 0.0) and g.n_pieces == 3
    for a, b in ((g.x, want.x), (g.yl, want.yl), (g.yr, want.yr)):
        assert a.tobytes() == b.tobytes()


def _iterate(system, m):
    """The iterate f_m = G^m(id)."""
    f = PiecewiseLinearFn.identity()
    for _ in range(m):
        f = apply_G(system, f)
    return f


DEEP = [
    (bernoulli(0.3), 15),
    (cantor_family(0.3, 0.08), 10),
    (random_system(np.random.default_rng(3), n=3), 10),
]


@pytest.mark.parametrize("system, depth", DEEP, ids=["bernoulli", "cantor_family", "random3"])
def test_apply_G_deep_iterates_match_reference(system, depth):
    # iterates of thousands of pieces, whose merge runs over several blocks
    f = PiecewiseLinearFn.identity()
    for _ in range(depth):
        g, f = _apply_G_reference(system, f), apply_G(system, f)
        for a, b in ((f.x, g.x), (f.yl, g.yl), (f.yr, g.yr)):
            assert a.tobytes() == b.tobytes()
    assert f.n_pieces >= 3 * pwl._BLOCK


MEMORY = [
    (random_system(np.random.default_rng(4), n=4), 9, 262_144),
    (cantor_family(0.3, 0.08), 11, 177_147),
    (bernoulli(0.3), 17, 98_304),
]


def _traced_peak(call):
    """call()'s result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("system, depth, pieces", MEMORY, ids=["random4", "cantor_family", "bernoulli"])
def test_solve_kernels_allocate_little_beyond_their_output(system, depth, pieces):
    # apply_G writes into its outputs, and merged and the L_p integrator work
    # in blocks: no full-size temporary is made beside the result
    f = _iterate(system, depth - 1)
    g, apply_peak = _traced_peak(lambda: apply_G(system, f))
    assert g.n_pieces == pieces
    assert apply_peak <= 1.25 * (g.x.nbytes + g.yl.nbytes + g.yr.nbytes)
    _, norm_peak = _traced_peak(lambda: lp_norm(g, 2.5))
    assert norm_peak <= 1.5 * g.x.nbytes


# ----------------------------------------------------------------------
# meshes and codes
# ----------------------------------------------------------------------
def test_mesh_depth1_is_partition():
    pts = build_mesh(CANTOR, 1)
    assert np.array_equal(pts, np.asarray(validate(CANTOR).alpha))


def test_mesh_depth2_cantor():
    pts = build_mesh(CANTOR, 2)
    assert pts.size == 10
    assert np.isclose(pts, 1 / 9).any() and np.isclose(pts, 2 / 9).any()


def test_mesh_dyadic():
    s = identity2()
    pts = build_mesh(s, 3)
    assert np.array_equal(pts, np.arange(9) / 8.0)


def test_mesh_cap():
    with pytest.raises(DepthTooLarge):
        build_mesh(CANTOR, 20)


@pytest.mark.parametrize("m", [0, -1])
def test_depth_below_one_is_bad_option(m):
    anc = boundary_anchors(CANTOR)
    mu = measure_from_function(CANTOR, collapse_zero_branches=True)
    calls = (
        lambda: build_mesh(CANTOR, m),
        lambda: mesh_code_values(CANTOR, anc, m),
        lambda: variation_on_mesh(CANTOR, m),
        lambda: coded_intervals(mu, m),
        lambda: cdf_consistency(CANTOR, mu, m),
    )
    for call in calls:
        with pytest.raises(BadOption):
            call()


def test_mesh_points_are_read_only_views_of_one_buffer():
    xL, _, xR, _ = mesh_code_values(CANTOR, boundary_anchors(CANTOR), 3)
    assert np.shares_memory(xL, xR)
    assert np.array_equal(xL[1:], xR[:-1]) and xR[-1] == 1.0
    for x in (xL, xR):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.5


def test_code_to_segment_examples():
    assert code_to_segment(CANTOR, (1,)) == (0.0, 1 / 3)
    lo, hi = code_to_segment(CANTOR, (1, 3))
    assert lo == pytest.approx(2 / 9, abs=1e-16) and hi == pytest.approx(1 / 3, abs=1e-16)
    part = validate(CANTOR)
    for k in (1, 2, 3):
        assert code_to_segment(CANTOR, (k,)) == (part.alpha[k - 1], part.alpha[k])


def test_code_to_segment_length():
    rng = np.random.default_rng(7)
    system = random_system(rng, n=3)
    for w in itertools.product((1, 2, 3), repeat=4):
        lo, hi = code_to_segment(system, w)
        assert hi - lo == pytest.approx(math.prod(system.a[k - 1] for k in w), abs=1e-14)


def test_code_bad_index():
    with pytest.raises(BadIndex):
        code_to_segment(CANTOR, (1, 4))


def test_codes_reproduce_mesh_exactly(rng):
    for _ in range(5):
        system = random_system(rng, n=3)
        m = 3
        mesh = set(build_mesh(system, m).tolist())
        endpoints = set()
        for w in itertools.product((1, 2, 3), repeat=m):
            lo, hi = code_to_segment(system, w)
            endpoints.add(lo)
            endpoints.add(hi)
        assert mesh == endpoints


# ----------------------------------------------------------------------
# exact values
# ----------------------------------------------------------------------
def test_anchors_cantor():
    assert boundary_anchors(CANTOR) == (0.0, 1.0)


def test_anchors_unbounded():
    s = SimilaritySystem(a=(0.5, 0.5), c=(0, 0), d=(1.0, 0.5), beta=(0, 0))
    with pytest.raises(Unbounded):
        boundary_anchors(s)


def test_exact_value_cantor_third():
    anc = boundary_anchors(CANTOR)
    assert exact_value_at_code_point(CANTOR, anc, (1,), "right") == 0.5
    assert exact_value_at_code_point(CANTOR, anc, (2, 1), "left") == 0.5


def test_exact_value_counterexample():
    s = counterexample(0.5)
    anc = boundary_anchors(s)
    v = exact_value_at_code_point(s, anc, (2, 2), "left")
    assert v == pytest.approx(5 / 12, abs=1e-15)


def test_exact_value_self_similarity(rng):
    # f(a_k t + alpha_k) = c_k t + d_k f(t) + beta_k at every (code, end)
    for _ in range(5):
        system = random_system(rng, n=3)
        anc = boundary_anchors(system)
        part = validate(system)
        for w in itertools.product((1, 2, 3), repeat=3):
            for end, t0 in (("left", 0.0), ("right", 1.0)):
                v = exact_value_at_code_point(system, anc, w, end)
                inner = exact_value_at_code_point(system, anc, w[1:], end)
                k = w[0] - 1
                t_inner, _ = code_to_segment(system, w[1:])
                if end == "right":
                    t_inner = code_to_segment(system, w[1:])[1]
                expected = system.c[k] * t_inner + system.d[k] * inner + system.beta[k]
                assert v == pytest.approx(expected, abs=1e-12)


def _fraction_fold(system, word, t, v):
    """The word's maps applied to (t, v) in exact rationals, last letter first."""
    for k in reversed(word):
        a, lo, _, c, d, beta = map(Fraction, branches(system)[k - 1])
        t, v = a * t + lo, (c * t + beta) + d * v
    return t, v


def test_iterate_examples():
    f1, f2 = _iterate(CANTOR, 1), _iterate(CANTOR, 2)
    assert f1.value_right([0.0])[0] == 0.0
    assert f2.value_left([1 / 9])[0] == pytest.approx(0.25, abs=1e-15)
    assert f1.value_right([0.5])[0] == 0.5


def test_iterates_match_fraction_fold(rng):
    # f_m = G^m(id) is the word's maps applied to (t, t) on S_w([0, 1]), for
    # any c: the exact fold from (0, 0) gives its right limit at the
    # segment's left end, the fold from (1, 1) its left limit at the right end
    assert _fraction_fold(CANTOR, (1, 1), 1, 1)[1] == Fraction(1, 4)  # f_2(1/9-)
    cases = [(CANTOR, 2), (CANTOR, 4)]
    cases += [(random_system(rng, n=3, c_zero=c_zero), 4) for c_zero in (True, True, False, False)]
    for system, m in cases:
        f = _iterate(system, m)
        for w in itertools.product(range(1, system.n + 1), repeat=m):
            lo, hi = code_to_segment(system, w)
            left = float(_fraction_fold(system, w, 0, 0)[1])
            right = float(_fraction_fold(system, w, 1, 1)[1])
            assert f.value_right([lo])[0] == pytest.approx(left, abs=1e-14)
            assert f.value_left([hi])[0] == pytest.approx(right, abs=1e-14)


def test_iterates_agree_with_fixed_point_on_mesh():
    # continuous system: f_m restricted to T_m equals the fixed point there
    system = cantor_family(0.3, 0.05)
    anc = boundary_anchors(system)
    m = 5
    f = _iterate(system, m)
    xL, vL, xR, vR = mesh_code_values(system, anc, m)
    assert np.allclose(f.value_right(xL), vL, atol=m * 1e-12)
    assert np.allclose(f.value_left(xR), vR, atol=m * 1e-12)


def test_mesh_code_values_match_scalar_recursion(rng):
    # the vectorized step and the scalar fold round alike: bitwise equal
    # a_2 + alpha_2 rounds above 1: only the snapped image of t = 1 stays in [0, 1]
    overshoot = dict(a=(0.3, 0.7000000000001), d=(0.5, 0.5), beta=(0, 0.5))
    # a_2 = 0.01: the left end of 2^9 rounds to 1.0, and depth 10 images it
    snap = SimilaritySystem(a=(0.99, 0.01), c=(0.3, -0.1), d=(0.5, 0.4), beta=(0.1, 0.2))
    assert mesh_code_values(snap, boundary_anchors(snap), 9)[0][-1] == 1.0
    # a_2 + alpha_2 rounds above 1 and the left end of 2^7 to 1.0: only the
    # snap keeps the left end of 2^8 at 1
    snap_over = SimilaritySystem(
        a=(0.99, 0.01000000000001), c=(0.3, -0.1), d=(0.5, 0.4), beta=(0.1, 0.2)
    )
    assert mesh_code_values(snap_over, boundary_anchors(snap_over), 7)[0][-1] == 1.0
    systems = [(random_system(rng), 3) for _ in range(8)] + [
        (SimilaritySystem(c=(0, 0), **overshoot), 3),
        (SimilaritySystem(c=(0.5, -0.25), **overshoot), 3),
        (SimilaritySystem(c=(0.5, -0.25), **overshoot), 8),
        (CANTOR, 3),
        (snap, 9),
        (snap, 10),
        (snap_over, 8),
    ]
    for system, m in systems:
        anc = boundary_anchors(system)
        xL, vL, xR, vR = mesh_code_values(system, anc, m)
        words = itertools.product(range(1, system.n + 1), repeat=m)
        for i, w in enumerate(words):
            assert code_to_segment(system, w) == (xL[i], xR[i])
            assert vL[i] == exact_value_at_code_point(system, anc, w, "left")
            assert vR[i] == exact_value_at_code_point(system, anc, w, "right")
