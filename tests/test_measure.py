"""Invariant-measure sampling: escape rates, backward orbits, caps, pullbacks."""

import math

import numpy as np
import pytest

from dynamo.hypersurface import diagonal_surface, graph_surface
from dynamo.measure import (
    cap_discrepancy,
    cap_fractions,
    clt_threshold,
    fibonacci_caps,
    green,
    pullback_to_hypersurface,
    sample_invariant_measure,
    sample_product_measure,
    sphere_embed,
)
from dynamo.heights import height_step_bound
from dynamo.projective import evaluate_cpoint, CPoint

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
    pushed_xyz = np.array([p.sphere() for p in pushed])
    fresh = sample_invariant_measure(sq, 10_000, 30, seed=2)
    d = cap_discrepancy(pushed_xyz, fresh.sphere(0))
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


def test_rank_order_matches_stable_lexsort():
    # keys from small value sets, so rows hold partial and complete ties
    from dynamo.measure import _rank_order

    rng = np.random.default_rng(41)
    for d in (2, 3, 4, 6):
        n = 3000
        keys = (rng.random((n, d)) < 0.5,
                rng.integers(-2, 3, size=(n, d)) * 0.25,
                np.round(rng.normal(size=(n, d)), 1))
        want = np.lexsort(keys[::-1], axis=1)
        assert np.array_equal(_rank_order(keys), want)
        # the sampler's keys are F-ordered views of (d, N) arrays
        columns = tuple(np.ascontiguousarray(key.T).T for key in keys)
        assert not columns[1].flags.c_contiguous
        assert np.array_equal(_rank_order(columns), want)


# -- the preimage-tree loop against a row-by-row oracle ---------------------------

def _row_by_row(F, n_samples, depth, seed):
    """The backward orbits with one fiber row per sample at every step.

    Draws exactly what `sample_invariant_measure` draws from the same stream,
    then solves all N fibers each step and takes the root of the drawn rank
    in a stable np.lexsort on (inverted, round(re, 9), round(im, 9)).
    """
    from dynamo.measure import _complex_forms, _start_point
    from dynamo.roots import preimage_fiber

    f0, f1 = _complex_forms(F)
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
    z0 = _start_point(f0, f1, rng)[0]
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
    start_rows = []
    searching = []
    solve, start = roots.roots_batch, measure._start_point

    def counting_solve(coeff_rows, *args, **kwargs):
        (start_rows if searching else rows).append(coeff_rows.shape[0])
        return solve(coeff_rows, *args, **kwargs)

    def searching_start(*args):
        searching.append(True)
        try:
            return start(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(roots, "roots_batch", counting_solve)
    monkeypatch.setattr(measure, "_start_point", searching_start)
    measure.sample_invariant_measure(F, n_samples, depth, seed=3)
    # the start point's two solves, its fiber and its d preimages' fibers,
    # are tree levels 0 and 1; the walk solves the other depth - 2 levels
    assert start_rows == [1, F.degree]
    rows = start_rows + rows
    assert bound == sum(min(n_samples, F.degree**k) for k in range(depth))
    assert len(rows) == depth
    assert sum(rows) <= bound
