"""Hypersurface type: dominance, exact fibers, JSON round trip."""

import random

import numpy as np
import pytest
from fractions import Fraction

from dynamo.errors import DegenerateFiber, RootFindingFailure
from dynamo.hypersurface import (
    Hypersurface,
    _multiply_out,
    diagonal_surface,
    fiber_solve,
    graph_surface,
    hypersurface_from_json,
)
from dynamo.projective import ProjectivePoint, form_eval, point_from_rational

from json_forms import hypersurface_to_json


def evaluate_exact(H, points):
    """H at one rational point of each axis, exactly."""
    values = {j: (points[j].x, points[j].y) for j in range(1, H.n + 1)}
    return sum(val for _, val in _multiply_out(H.terms, H.multidegree, values))


def linear_sum_surface():
    """x1 + x2 + x3 = 0 homogenized: X1Y2Y3 + Y1X2Y3 + Y1Y2X3."""
    return Hypersurface.make(3, (1, 1, 1),
                             [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])


def test_diagonal_dominance():
    H = diagonal_surface()
    dom = H.dominance()
    assert dom["axis"] == {1: True, 2: True}
    assert dom["pair_form_candidate"]


def test_product_with_line_fails_one_axis():
    # P^1 x {curve}: multidegree[1] = 0
    H = Hypersurface.make(2, (0, 2), [((0, 2), 1), ((0, 0), -1)])  # x2^2 = 1
    dom = H.dominance()
    assert dom["axis"] == {1: False, 2: True}


def test_linear_sum_dominant_everywhere():
    dom = linear_sum_surface().dominance()
    assert all(dom["axis"].values())
    assert not dom["pair_form_candidate"]
    assert dom["active_blocks"] == [1, 2, 3]


def test_fiber_solve_linear_sum():
    H = linear_sum_surface()
    roots = fiber_solve(H, 3, {1: point_from_rational(1), 2: point_from_rational(2)})
    assert len(roots) == 1
    assert str(roots[0][2]) == "-3"


def test_fiber_solve_square_graph_forward():
    H = graph_surface([0, 0, 1])  # x2 = x1^2
    roots = fiber_solve(H, 2, {1: point_from_rational(3)})
    assert len(roots) == 1 and str(roots[0][2]) == "9"


def test_fiber_solve_square_graph_backward():
    H = graph_surface([0, 0, 1])
    roots = fiber_solve(H, 1, {2: point_from_rational(2)})
    vals = sorted(round(cp.affine().real, 6) for cp, _, _ in roots)
    assert vals == [round(-2**0.5, 6), round(2**0.5, 6)]
    assert all(ex is None for _, _, ex in roots)  # sqrt(2) is not rational


def test_fiber_solve_squarefree_fiber_needs_no_gcd(gcd_primes):
    # x1^2 - 4 over x2 = 2 on x2 = x1^2 - 2: the gcd's first prime proves it
    # squarefree, so no image is lifted, and both roots come back exact
    from dynamo.modp import prime

    roots = fiber_solve(graph_surface([-2, 0, 1]), 1, {2: point_from_rational(2)})
    assert sorted(str(ex) for _, _, ex in roots) == ["-2", "2"]
    assert sorted((cp.affine().real, cp.affine().imag, m) for cp, m, _ in roots) == [
        (-2.0, 0.0, 1), (2.0, 0.0, 1)]
    assert gcd_primes == [prime(0)]


def test_fiber_solve_beyond_float_range_is_typed():
    # x1^2 = 10^400: the fiber's constant term is no float
    with pytest.raises(RootFindingFailure, match="float range"):
        fiber_solve(graph_surface([0, 0, 1]), 1, {2: point_from_rational(10**400)})


def test_fiber_solve_at_infinity():
    H = graph_surface([1, 1])  # x2 = x1 + 1
    roots = fiber_solve(H, 2, {1: ProjectivePoint(1, 0)})
    assert len(roots) == 1
    assert roots[0][2] is not None and roots[0][2].is_infinity


def test_degenerate_fiber_raises():
    # x1 * x2 = 0-style form: X1 X2; fiber over x1 = 0 solving for x2 vanishes
    H = Hypersurface.make(2, (1, 1), [((1, 1), 1)])
    with pytest.raises(DegenerateFiber):
        fiber_solve(H, 2, {1: point_from_rational(0)})


def test_content_and_sign_normalization():
    H = Hypersurface.make(2, (1, 1), [((1, 0), -2), ((0, 1), 2)])
    coeffs = dict(H.terms)
    assert sorted(coeffs.values()) == [-1, 1]
    assert coeffs[min(coeffs)] > 0


def test_rational_coefficients_cleared():
    H = Hypersurface.make(2, (1, 1), [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 3))])
    assert sorted(dict(H.terms).values()) == [2, 3]
    # a mixed list clears its denominators too, and repeated exponents add up
    H = Hypersurface.make(2, (1, 1), [((1, 0), 1), ((0, 1), "1/3"), ((1, 0), Fraction(1, 2))])
    assert H.terms == (((0, 1), 2), ((1, 0), 9))


def test_integer_string_and_fraction_input_agree():
    # integer terms skip the Fraction pass; the canonical form is the same,
    # with repeated exponents summed and content and sign taken once
    ints = [((2, 1), -6), ((0, 0), 4), ((1, 1), 10**40 * 6), ((2, 1), -6), ((0, 1), 0)]
    H = Hypersurface.make(2, (2, 1), ints)
    assert H.terms == (((0, 0), 1), ((1, 1), 15 * 10**39), ((2, 1), -3))
    for coerce in (Fraction, str):
        assert Hypersurface.make(2, (2, 1), [(e, coerce(c)) for e, c in ints]) == H
    assert Hypersurface.make(2, (2, 1), {(2, 1): -12, (0, 0): 4, (1, 1): 6 * 10**40}) == H


def test_json_round_trip():
    H = linear_sum_surface()
    js = hypersurface_to_json(H)
    assert hypersurface_from_json(js) == H


def test_evaluate_exact_on_surface_points():
    H = graph_surface([1, 1])
    on = {1: point_from_rational(4), 2: point_from_rational(5)}
    off = {1: point_from_rational(4), 2: point_from_rational(6)}
    assert evaluate_exact(H, on) == 0
    assert evaluate_exact(H, off) != 0


def test_irreducibility_probe_flags_square():
    # (X1 Y2 - X2 Y1)^2 is visibly non-reduced
    D = diagonal_surface()
    sq_terms = {}
    for e1, c1 in D.terms:
        for e2, c2 in D.terms:
            key = tuple(a + b for a, b in zip(e1, e2))
            sq_terms[key] = sq_terms.get(key, 0) + c1 * c2
    H = Hypersurface.make(2, (2, 2), sq_terms)
    assert H.irreducibility_warnings()


def test_irreducibility_probe_quiet_on_diagonal():
    assert diagonal_surface().irreducibility_warnings() == []


def _random_form(rng, n):
    md = tuple(rng.randint(1, 2) for _ in range(n))
    terms = []
    for _ in range(rng.randint(2, 6)):
        exps = tuple(rng.randint(0, m) for m in md)
        terms.append((exps, rng.randint(-9, 9) or 1))
    try:
        return Hypersurface.make(n, md, terms)
    except ValueError:  # the terms cancelled
        return _random_form(rng, n)


def _random_point(rng):
    x, y = rng.randint(-9, 9), rng.randint(0, 9)
    return ProjectivePoint(x, y) if (x, y) != (0, 0) else ProjectivePoint(1, 0)


@pytest.mark.parametrize("n", [2, 3])
def test_fiber_matrix_matches_exact_fiber(n):
    # small integer coordinates keep every float product exact, so the
    # complex and the exact fibers must agree to the bit
    rng = random.Random(20 + n)
    for _ in range(10):
        H = _random_form(rng, n)
        rows = [{j: _random_point(rng) for j in range(1, n + 1)} for _ in range(6)]
        for i in range(1, n + 1):
            pairs = {j: (np.array([r[j].x for r in rows], dtype=complex),
                         np.array([r[j].y for r in rows], dtype=complex))
                     for j in range(1, n + 1) if j != i}
            mat = H.fiber_coeff_matrix(i, pairs, len(rows))
            exact = np.array([H.fiber_form_exact(i, r) for r in rows], dtype=complex)
            assert np.array_equal(mat, exact.T)


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_exact_matches_fiber_form_eval(n):
    rng = random.Random(40 + n)
    for _ in range(10):
        H = _random_form(rng, n)
        pts = {j: _random_point(rng) for j in range(1, n + 1)}
        for i in range(1, n + 1):
            fiber = H.fiber_form_exact(i, pts)
            assert evaluate_exact(H, pts) == form_eval(fiber, pts[i].x, pts[i].y)


def test_fiber_of_steep_line_is_exact():
    # x2 = 10^13 x1 over x2 = 1: the root 1/10^13 was uncertified before
    H = Hypersurface.make(2, (1, 1), [((0, 1), 1), ((1, 0), -(10**13))])
    (_, mult, ex), = fiber_solve(H, 1, {2: point_from_rational(1)})
    assert str(ex) == "1/10000000000000" and mult == 1


@pytest.mark.parametrize("axis, message", [
    (0, "axis 0 is outside 1..2"),
    (3, "axis 3 is outside 1..2"),
])
def test_fiber_solve_axis_outside_the_range_is_a_value_error(axis, message):
    # the dominance lookup raised KeyError for these axes
    with pytest.raises(ValueError, match=f"^{message}$"):
        fiber_solve(diagonal_surface(), axis, {1: point_from_rational(1)})


def test_fiber_solve_on_a_non_dominant_axis_is_a_value_error():
    H = Hypersurface.make(2, (0, 1), [((0, 1), 1), ((0, 0), -3)])  # x2 = 3
    with pytest.raises(ValueError,
                       match="^H does not project dominantly when forgetting axis 1$"):
        fiber_solve(H, 1, {2: point_from_rational(3)})
