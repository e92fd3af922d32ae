"""Invariant-measure sampling: escape rates, backward orbits, caps, pullbacks."""

import math

import numpy as np
import pytest

from dynamo.errors import RootFindingFailure
from dynamo.hypersurface import diagonal_surface, graph_surface
from dynamo.measure import (
    cap_fractions,
    clt_threshold,
    fibonacci_caps,
    green,
    measure_compare,
    pullback_to_hypersurface,
    sample_invariant_measure,
    sample_product_measure,
    sphere_embed,
)
from dynamo.heights import height_step_bound
from dynamo.projective import evaluate_cpoint, CPoint
from dynamo.roots import to_chart

from conftest import poly_lift
from sample_stats import arc_discrepancy_uniform, segment_distance


def test_green_power_map_is_log_plus(sq):
    for z, want in ((2.0, math.log(2)), (3.0 + 0j, math.log(3)), (0.5, 0.0)):
        assert green(sq, z, 12) == pytest.approx(want, abs=1e-9)


def test_green_unit_circle_zero(sq):
    for k in range(8):
        z = complex(math.cos(k), math.sin(k))
        assert abs(green(sq, z, 10)) < 1e-12


def test_green_scaling_exact_identity_polynomial(sq, basilica):
    # for polynomial lifts green(F, f(z), n) = d * green(F, z, n+1) exactly
    for F in (sq, basilica):
        for z in (0.3 + 0.4j, 2.0 - 1.0j, -1.5):
            fz = evaluate_cpoint(F, CPoint.from_affine(z)).affine()
            lhs = green(F, fz, 9)
            rhs = F.degree * green(F, z, 10)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_green_step_bound_invariant(basilica, cheb2):
    rng = np.random.default_rng(3)
    for F in (basilica, cheb2):
        c = height_step_bound(F)
        n = 10
        for _ in range(40):
            z = complex(rng.normal(), rng.normal())
            fz = evaluate_cpoint(F, CPoint.from_affine(z)).affine()
            gap = abs(green(F, fz, n) - F.degree * green(F, z, n))
            assert gap <= c / F.degree**n + 1e-9


def test_sample_unit_circle(sq):
    m = sample_invariant_measure(sq, 10_000, 30, seed=7)
    radii = np.abs(m.affine())
    assert 0.999 <= float(np.mean(radii)) <= 1.001
    angles = np.angle(m.affine())
    assert arc_discrepancy_uniform(angles) < 0.03


def test_sample_chebyshev_segment(cheb2):
    m = sample_invariant_measure(cheb2, 10_000, 25, seed=11)
    dist = segment_distance(m.affine())
    assert float(np.mean(dist < 1e-6)) >= 0.99


def test_sample_determinism(sq):
    a = sample_invariant_measure(sq, 500, 10, seed=42)
    b = sample_invariant_measure(sq, 500, 10, seed=42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.inverted, b.inverted)
    c = sample_invariant_measure(sq, 500, 10, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_measure_growth_law(sq):
    # mu(f(A)) = d * mu(A) for small sets where f is injective: take a small
    # arc A on the circle; f(A) is the doubled arc
    m = sample_invariant_measure(sq, 20_000, 30, seed=5)
    ang = np.mod(np.angle(m.affine()), 2 * math.pi)
    lo, hi = 0.3, 0.55
    in_a = float(np.mean((ang >= lo) & (ang < hi)))
    in_fa = float(np.mean((ang >= 2 * lo) & (ang < 2 * hi)))
    sigma = math.sqrt(in_fa * (1 - in_fa) / 20_000) + math.sqrt(in_a * (1 - in_a) / 20_000) * 2
    assert abs(in_fa - 2 * in_a) <= 3 * max(sigma, 1e-3)


def test_forward_push_invariance(sq):
    # pushing the sample forward by f stays close to a fresh sample
    m = sample_invariant_measure(sq, 10_000, 30, seed=1)
    pushed = np.array([evaluate_cpoint(sq, CPoint(v if not i else 1.0, 1.0 if not i else v))
                       for v, i in zip(m.values[:, 0], m.inverted[:, 0])])
    pushed_xyz = sphere_embed(*to_chart(np.array([p.affine() for p in pushed])))
    fresh = sample_invariant_measure(sq, 10_000, 30, seed=2)
    d = np.max(np.abs(cap_fractions(pushed_xyz) - cap_fractions(fresh.sphere(0))))
    assert d < clt_threshold(10_000)


def test_product_measure_independence(sq, basilica):
    m = sample_product_measure([sq, sq, basilica], skip=1, n_samples=4000, depth=20, seed=3)
    assert m.width == 2
    a = np.angle(m.affine(0))
    b = np.angle(m.affine(1))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_product_measure_single_factor(sq):
    m = sample_product_measure([sq, sq], skip=2, n_samples=2000, depth=20, seed=9)
    assert m.width == 1
    assert 0.99 <= float(np.mean(np.abs(m.affine()))) <= 1.01


def test_pullback_diagonal(sq):
    H = diagonal_surface()
    out = pullback_to_hypersurface(H, [sq, sq], 2, 3000, 25, seed=13)
    m = out.measure
    assert out.discarded == 0
    # on-diagonal and first coordinate on the unit circle
    a = m.affine(0)
    b = m.affine(1)
    assert np.allclose(a, b, atol=1e-8)
    assert 0.99 <= float(np.mean(np.abs(a))) <= 1.01


def test_pullback_square_graph_branches(sq):
    # solving x2 = x1^2 for x1: two roots chosen with frequency ~1/2
    H = graph_surface([0, 0, 1])
    out = pullback_to_hypersurface(H, [sq, sq], 1, 10_000, 25, seed=17)
    m = out.measure
    x1 = m.affine(0)
    x2 = m.affine(1)
    assert np.allclose(x1**2, x2, atol=1e-6)
    # the two square roots differ by sign: classify by real part sign of x1
    frac = float(np.mean(np.angle(x1) >= 0))
    assert abs(frac - 0.5) <= 0.02
    assert out.discarded < 0.01 * 10_000


def test_pullback_respects_surface(sq, basilica):
    H = diagonal_surface()
    out = pullback_to_hypersurface(H, [sq, basilica], 1, 2000, 25, seed=19)
    m = out.measure
    assert np.allclose(m.affine(0), m.affine(1), atol=1e-8)


def test_fibonacci_caps_are_unit_vectors():
    c = fibonacci_caps()
    assert c.shape == (64, 3)
    assert np.allclose(np.linalg.norm(c, axis=1), 1.0)


def test_cap_fractions_uniform_sphere():
    rng = np.random.default_rng(101)
    pts = rng.normal(size=(20000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    fr = cap_fractions(pts)
    # caps with cos aperture 0.5 cover a quarter of the sphere each
    assert np.all(np.abs(fr - 0.25) < 0.02)


def _traced_peak(fn, *args):
    """The result of fn(*args) and the peak of the memory it traced, in bytes.

    numpy reports its array buffers to tracemalloc, so the peak counts them.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cap_fractions_counts_in_bounded_memory():
    # an (N, 64) float64 dot matrix of 2e5 points is 102 MB
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200_000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    fr, peak = _traced_peak(cap_fractions, pts)
    assert peak < 4 * 2**20
    assert fr.tobytes() == np.mean(pts @ fibonacci_caps().T >= 0.5, axis=0).tobytes()


@pytest.mark.parametrize("n", [1, 4096, 4097, 8193, 10_000])
def test_cap_fractions_blocks_keep_the_bits_of_one_mean(n):
    # block edges, and a one-row tail that the last block takes
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    want = np.mean(pts @ fibonacci_caps().T >= 0.5, axis=0)
    assert cap_fractions(pts).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cap_fractions_of_no_points_are_nans_without_a_warning():
    fr = cap_fractions(np.empty((0, 3)))
    assert fr.shape == (64,) and np.isnan(fr).all()


def test_branch_table_is_the_only_depth_by_n_array(sq):
    # 30 x 1e5 draws: a 3 MB table of bytes, never 24 MB of int64
    from dynamo.measure import _plant

    (_, _, branches), peak = _traced_peak(_plant, [(sq, 100_000, 4)], 30)
    assert branches.nbytes == 3_000_000
    assert peak < branches.nbytes + 2**20


def test_sphere_embed_charts_agree():
    z = 0.3 + 1.7j
    a = sphere_embed(np.array([z]), np.array([False]))[0]
    b = sphere_embed(np.array([1 / z]), np.array([True]))[0]
    assert np.allclose(a, b)


def test_green_vanishes_on_julia_samples(sq):
    m = sample_invariant_measure(sq, 300, 30, seed=21)
    vals = [abs(green(sq, z, 25)) for z in m.affine()[:100]]
    assert max(vals) < 1e-6


def test_lattes_measure_charges_whole_sphere(sq):
    # degree-4 map with poles: exercises the batched quartic preimage path
    # and both charts; its maximal-entropy measure charges every cap, unlike
    # the circle measure of z^2
    from dynamo.exceptional import lattes_doubling

    F = lattes_doubling(0, 1)
    m = sample_invariant_measure(F, 4000, 20, seed=3)
    fr = cap_fractions(m.sphere(0))
    assert fr.min() > 0.02
    assert 0.3 < m.inverted.mean() < 0.95  # plenty of samples in the 1/z chart
    circle = sample_invariant_measure(sq, 4000, 20, seed=3)
    fr_circle = cap_fractions(circle.sphere(0))
    assert fr_circle.min() == 0.0  # polar caps never meet the unit circle


def _lexsort_ranks(values, flags):
    """The column order of each row by a stable np.lexsort on
    (flag, round(re, 9), round(im, 9)), the oracle of `_ranks`."""
    return np.lexsort([values.imag.round(9), values.real.round(9), flags], axis=1)


def test_rank_order_matches_stable_lexsort():
    # keys from small value sets, so rows hold partial and complete ties
    from dynamo.measure import _column_of_rank, _ranks

    rng = np.random.default_rng(41)
    for d in (2, 3, 4, 6):
        n = 3000
        flags = rng.random((n, d)) < 0.5
        values = (rng.integers(-2, 3, size=(n, d)) * 0.25
                  + 1j * np.round(rng.normal(size=(n, d)), 1))
        # the sampler's roots and flags are F-ordered views of (d, N) arrays
        columns = (np.ascontiguousarray(values.T).T, np.ascontiguousarray(flags.T).T)
        assert not columns[0].flags.c_contiguous
        for v, f in ((values, flags), columns):
            want = _lexsort_ranks(v, f)
            ranks = _ranks(v, f)
            assert np.array_equal(ranks.T, np.argsort(want, axis=1))
            for b in range(d):
                assert np.array_equal(_column_of_rank(ranks, np.full(n, b)), want[:, b])
            # a pick per row, and picks at chosen rows
            b = rng.integers(0, d, size=n)
            assert np.array_equal(_column_of_rank(ranks, b), want[np.arange(n), b])
            rows = rng.integers(0, n, size=500)
            assert np.array_equal(_column_of_rank(ranks, b[:500], rows),
                                  want[rows, b[:500]])


def _adversarial_rows(rng, n, d):
    """(values, flags) chart rows whose real parts crowd the 1e-9 grid of round(., 9).

    Per row: a base, then columns at gaps of 0 to 3e-9 from it (in steps
    of 0.5e-9, with and without a jitter below 1e-12), bases on the x.5e-9
    rounding ties, and imaginary parts from a small set, so the rounded
    keys tie on either coordinate.  Real parts stay in [-1, 1], the flags
    are mixed, and w = 0 is flagged as infinity.
    """
    steps = rng.integers(0, 7, size=(n, d)) * 0.5e-9
    jitter = rng.choice([0.0, 1e-13, -1e-13, 7e-13], size=(n, d))
    sign = rng.choice([-1.0, 1.0], size=(n, d))
    base = (rng.integers(-999_999_999, 1_000_000_000, size=(n, 1)) + 0.5) * 1e-9
    base *= rng.choice([1.0, 1e-3, 0.9], size=(n, 1))
    re = np.clip(base + sign * steps + jitter, -1.0, 1.0)
    im = rng.choice([0.0, 0.5e-9, 1e-9, -0.5e-9, 0.3], size=(n, d))
    values = re + 1j * im
    flags = rng.random((n, d)) < 0.3
    values[flags & (rng.random((n, d)) < 0.2)] = 0.0  # infinity, w = 0
    return values, flags


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ranks_at_rounding_near_ties(d):
    # only pairs within the margin are ranked on rounded keys; the rest must
    # still get the ranks of the rounded keys
    from dynamo.measure import _ranks

    rng = np.random.default_rng(500 + 10 * d)
    values, flags = _adversarial_rows(rng, 4000, d)
    gaps = np.abs(np.diff(values.real, axis=1))
    assert ((gaps > 0) & (gaps <= 3e-9)).sum() > 500  # the rows crowd the grid
    want = _lexsort_ranks(values, flags)
    for v, f in ((values, flags), (np.ascontiguousarray(values.T).T,
                                   np.ascontiguousarray(flags.T).T)):
        assert np.array_equal(_ranks(v, f).T, np.argsort(want, axis=1))


# -- the preimage-tree loop against a row-by-row oracle ---------------------------

def _row_by_row(F, n_samples, depth, seed):
    """The backward orbits with one fiber row per sample at every step.

    Draws exactly what `sample_invariant_measure` draws from the same stream,
    the start point z0 from its first two uniform draws, then solves all N
    fibers each step and takes the root of the drawn rank in a stable
    np.lexsort on (inverted, round(re, 9), round(im, 9)).
    """
    from dynamo.projective import float_coefficients
    from dynamo.roots import preimage_fiber

    floats, _ = float_coefficients(F.f0 + F.f1)
    f0, f1 = np.array(floats[:F.degree + 1]), np.array(floats[F.degree + 1:])
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
    z0 = complex(0.4 + rng.random(), 0.3 + rng.random())
    branches = rng.integers(0, F.degree, size=(depth, n_samples))
    vals = np.full(n_samples, z0, dtype=complex)
    invs = np.zeros(n_samples, dtype=bool)
    rows = np.arange(n_samples)
    for step in range(depth):
        pv, pi = preimage_fiber(f0, f1, vals, invs)
        order = np.lexsort((pv.imag.round(9), pv.real.round(9), pi), axis=1)
        cols = order[rows, branches[step]]
        vals, invs = pv[rows, cols], pi[rows, cols]
    return vals, invs


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n_samples, depth", [(3000, 5), (200, 30)])
def test_tree_sampler_matches_row_by_row_oracle(d, n_samples, depth):
    # (3000, 5): more samples than leaves (4^5 = 1024), so nodes are shared.
    # z^2 - 1, z^3 + 1 and the Lattes map, whose poles put roots in both charts
    from dynamo.exceptional import lattes_doubling

    F = {2: poly_lift(-1, 0, 1), 3: poly_lift(1, 0, 0, 1), 4: lattes_doubling(0, 1)}[d]
    for seed in (0, 9):
        m = sample_invariant_measure(F, n_samples, depth, seed=seed)
        vals, invs = _row_by_row(F, n_samples, depth, seed)
        assert m.values[:, 0].tobytes() == vals.tobytes()
        assert np.array_equal(m.inverted[:, 0], invs)


@pytest.mark.parametrize("coeffs, n_samples, depth, bound", [
    ((1, 0, 0, 1), 30_000, 6, 364),     # z^3 + 1: 364 nodes for 180 000 orbit steps
    ((-1, 0, 1), 4_000, 30, 76_095),    # z^2 - 1: from level 12 on, 2^k > N
])
def test_backward_loop_solves_each_tree_node_once(monkeypatch, coeffs, n_samples, depth,
                                                  bound):
    import dynamo.measure as measure
    import dynamo.roots as roots

    F = poly_lift(*coeffs)
    rows = []
    solve = roots.roots_batch

    def counting_solve(coeff_rows, *args, **kwargs):
        rows.append(coeff_rows.shape[0])
        return solve(coeff_rows, *args, **kwargs)

    monkeypatch.setattr(roots, "roots_batch", counting_solve)
    measure.sample_invariant_measure(F, n_samples, depth, seed=3)
    # levels 0 and 1, the start point's fiber and its d preimages' fibers,
    # are walk solves like the others
    assert rows[:2] == [1, F.degree]
    assert bound == sum(min(n_samples, F.degree**k) for k in range(depth))
    assert len(rows) == depth
    assert sum(rows) <= bound


# -- forests: several trees walked level by level together ------------------------

def _forest_maps():
    from dynamo.exceptional import lattes_doubling

    return {"sq": poly_lift(0, 0, 1), "basilica": poly_lift(-1, 0, 1),
            "cubic": poly_lift(1, 0, 0, 1), "cheb3": poly_lift(0, -3, 0, 1),
            "lattes": lattes_doubling(0, 1)}


def _assert_solo_bits(trees, depth, forest):
    for (F, n, seed), got in zip(trees, forest):
        want = sample_invariant_measure(F, n, depth, seed=seed)
        assert got.values.shape == want.values.shape == (n, 1)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.inverted, want.inverted)
        assert (got.seed, got.depth) == (seed, depth)


@pytest.mark.parametrize("trees, depth", [
    ([("sq", 300, 3), ("basilica", 500, 4)], 30),       # degree 2, mixed maps
    ([("cubic", 400, 5), ("cheb3", 300, 6)], 30),       # degree 3
    ([("lattes", 200, 7), ("lattes", 250, 8)], 20),     # degree 4, one map twice
    ([("basilica", 1, 2), ("sq", 64, 2), ("basilica", 9, 5)], 1),
])
def test_forest_columns_have_their_solo_bits(trees, depth, monkeypatch):
    import dynamo.roots as roots
    from dynamo.measure import _walk

    maps = _forest_maps()
    trees = [(maps[name], n, seed) for name, n, seed in trees]
    calls = []
    solve = roots.roots_batch
    monkeypatch.setattr(roots, "roots_batch", lambda rows: calls.append(1) or solve(rows))
    forest = _walk(trees, depth)
    # one solve per level for the whole forest, the start points' levels 0
    # and 1 included
    assert len(calls) == depth
    monkeypatch.setattr(roots, "roots_batch", solve)
    _assert_solo_bits(trees, depth, forest)


@pytest.mark.parametrize("depth", [2, 30])
def test_exceptional_start_fails_before_any_sample(sq, monkeypatch, depth):
    # z^2 from 0: the closed form gives the fiber {0, 0} of 0 exactly, so
    # both walk levels hold one point; the basilica tree beside it is sound
    import dynamo.measure as measure

    plant = measure._plant

    def from_zero(trees, depth):
        forms, starts, branches = plant(trees, depth)
        return forms, [0j] + starts[1:], branches

    monkeypatch.setattr(measure, "_plant", from_zero)
    for trees in ([(sq, 100, 3)], [(sq, 100, 3), (_forest_maps()["basilica"], 50, 4)]):
        with pytest.raises(RootFindingFailure,
                           match=r"^the backward start point 0\+0j is exceptional"):
            measure._walk(trees, depth)
    monkeypatch.setattr(measure, "_plant", plant)
    assert measure._walk([(sq, 100, 3)], depth)[0].size == 100


def test_forest_across_a_roots_batch_block(monkeypatch):
    # z^3 + 1 and T3 with 3000 samples each: from level 8 on the combined
    # level holds more than _BLOCK nodes, so `roots_batch` splits it into
    # two Aberth blocks, the boundary inside the second tree
    import dynamo.roots as roots
    from dynamo.measure import _walk

    maps = _forest_maps()
    trees = [(maps["cubic"], 3000, 1), (maps["cheb3"], 3000, 2)]
    rows = []
    solve = roots.roots_batch

    def counting(coeff_rows):
        rows.append(coeff_rows.shape[0])
        return solve(coeff_rows)

    monkeypatch.setattr(roots, "roots_batch", counting)
    forest = _walk(trees, 12)
    assert max(rows) > roots._BLOCK
    monkeypatch.setattr(roots, "roots_batch", solve)
    _assert_solo_bits(trees, 12, forest)


@pytest.mark.parametrize("names", [("basilica", "sq"), ("lattes", "lattes")])
def test_compact_branch_table_holds_the_int64_draws(names, monkeypatch):
    # the int32 blocks continue one int64 stream whatever their shape: the
    # default, 7-row blocks of the 4001-sample tree, and rows cut into
    # 1000-draw pieces
    import dynamo.measure
    from dynamo.measure import _plant

    maps = _forest_maps()
    trees = [(maps[names[0]], 4001, 3), (maps[names[1]], 200, 9)]
    depth = 25
    d = trees[0][0].degree
    for draws in (dynamo.measure._DRAWS, 7 * 4001, 1000):
        monkeypatch.setattr(dynamo.measure, "_DRAWS", draws)
        _, _, branches = _plant(trees, depth)
        assert branches.dtype == np.uint8 and branches.shape == (depth, 4201)
        lo = 0
        for F, n, seed in trees:
            rng = np.random.default_rng(np.random.SeedSequence([seed]))
            rng.random(2)  # the start point's two draws
            want = rng.integers(0, d, size=(depth, n))
            assert want.dtype == np.int64
            assert np.array_equal(branches[:, lo:lo + n], want)
            lo += n


def test_product_columns_are_solo_walks():
    # degrees 2, 3, 2, 4: the degree-2 columns walk as one forest
    from dynamo.measure import _substream

    maps = _forest_maps()
    maps = [maps["sq"], maps["cubic"], maps["basilica"], maps["lattes"], maps["sq"]]
    m = sample_product_measure(maps, skip=5, n_samples=300, depth=15, seed=4)
    for col, F in enumerate(maps[:4]):
        want = sample_invariant_measure(F, 300, 15, seed=_substream(4, col + 1))
        assert m.values[:, col].tobytes() == want.values[:, 0].tobytes()
        assert np.array_equal(m.inverted[:, col], want.inverted[:, 0])


@pytest.mark.parametrize("n_samples, depth", [(0, 5), (-3, 5), (100, 0)])
def test_product_and_comparison_reject_empty_walks(sq, n_samples, depth):
    # checked in the walk, after the forest size divides the block by n_samples
    with pytest.raises(ValueError, match="^n_samples and depth must be >= 1$"):
        sample_product_measure([sq, sq], 1, n_samples, depth)
    with pytest.raises(ValueError, match="^n_samples and depth must be >= 1$"):
        measure_compare(diagonal_surface(), [sq, sq], 1, 2, n_samples=n_samples, depth=depth)


# -- maps whose coefficients are beyond the float range ------------------------------

_B = 10**400
# ((B+1) z^2 - (B+3)) / (B+2): z^2 - 1 up to float rounding
_NEAR_BASILICA = ([-(_B + 3), 0, _B + 1], [_B + 2, 0, 0])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_samples_beyond_float_range_match_the_rounded_map(basilica, seed):
    from dynamo.projective import RationalMapLift

    near = RationalMapLift.make(*_NEAR_BASILICA)
    got = sample_invariant_measure(near, 500, 20, seed=seed)
    want = sample_invariant_measure(basilica, 500, 20, seed=seed)
    assert np.array_equal(got.inverted, want.inverted)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_green_adds_the_scale_of_the_float_forms_back(basilica):
    from dynamo.projective import RationalMapLift

    near = RationalMapLift.make(*_NEAR_BASILICA)
    assert near.float_forms[2] == _B.bit_length() - 1
    # the lift is about B (z^2 - 1, 1): log B enters with weight 1 - 2^-n
    for z, n in ((0.3 + 0.2j, 12), (2.5, 20)):
        shift = math.log(_B) * (1 - 2.0**-n)
        assert green(near, z, n) == pytest.approx(green(basilica, z, n) + shift, abs=1e-9)


def test_t3_sample_through_a_near_double_root():
    # seed 0 meets the T3 fiber over t ~ 2, whose roots are 2 and -1 +- 9e-8;
    # its batch used to fail after 120 sweeps.  The samples lie on [-2, 2].
    m = sample_invariant_measure(poly_lift(0, -3, 0, 1), 20_000, 30, seed=0)
    z = m.affine()
    assert m.size == 20_000
    assert np.all(np.abs(z.real) <= 2 + 1e-12) and np.all(np.abs(z.imag) <= 1e-12)
