"""Chebyshev/power/Lattès constructors and orbifold-signature classification."""

import math
from fractions import Fraction

import pytest

from dynamo.errors import Inconclusive, SingularCurve
from dynamo.exceptional import (
    INF_WEIGHT,
    NotPCF,
    chebyshev,
    chebyshev_coeffs,
    classify,
    lattes_doubling,
    power_map,
    ramification_portrait,
)
from dynamo.projective import (
    ProjectivePoint,
    evaluate,
    point_from_rational,
)

from conftest import affine_value, mobius_conjugate, poly_lift


# -- Chebyshev ---------------------------------------------------------------

def test_chebyshev_two_and_three():
    assert chebyshev_coeffs(2) == [-2, 0, 1]       # w^2 - 2
    assert chebyshev_coeffs(3) == [0, -3, 0, 1]    # w^3 - 3w


def _laurent_identity_defect(d):
    """Oracle: expand T_d(z + 1/z) - (z^d + 1/z^d) exactly as a Laurent polynomial.

    Returns the dict of nonzero coefficients (power -> int); must be empty.
    """
    coeffs = chebyshev_coeffs(d)
    total: dict[int, int] = {}

    def add(power, value):
        if value:
            total[power] = total.get(power, 0) + value
            if total[power] == 0:
                del total[power]

    # (z + 1/z)^k via binomials: sum C(k, j) z^(k - 2j)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        for j in range(k + 1):
            add(k - 2 * j, c * math.comb(k, j))
    add(d, -1)
    add(-d, -1)
    return total


@pytest.mark.parametrize("d", range(1, 13))
def test_chebyshev_defining_identity_exact(d):
    assert _laurent_identity_defect(d) == {}


def test_chebyshev_lift_degree():
    for d in (2, 3, 5, 8):
        assert chebyshev(d).degree == d


# -- power maps ---------------------------------------------------------------

def test_power_map_positive():
    F = power_map(2)
    assert F.f0 == (0, 0, 1) and F.f1 == (1, 0, 0)


def test_power_map_negative():
    F = power_map(-2)
    assert F.f0 == (1, 0, 0) and F.f1 == (0, 0, 1)
    assert F.degree == 2
    # z -> 1/z^2: check on a point
    assert evaluate(F, ProjectivePoint(2, 1)) == ProjectivePoint(1, 4)


def test_power_map_rejects_unit():
    with pytest.raises(ValueError):
        power_map(1)


# -- Lattès -------------------------------------------------------------------

def test_lattes_doubling_formula():
    F = lattes_doubling(0, 1)
    # (x^4 - 8x) / (4x^3 + 4)
    assert F.f0 == (0, -8, 0, 0, 1)
    assert F.f1 == (4, 0, 0, 4, 0)


def test_lattes_doubling_point_check():
    # P = (2, 3) on y^2 = x^3 + 1 has 2P = (0, 1): f(2) = 0
    F = lattes_doubling(0, 1)
    assert evaluate(F, ProjectivePoint(2, 1)) == ProjectivePoint(0, 1)


def test_lattes_rejects_singular():
    with pytest.raises(SingularCurve):
        lattes_doubling(0, 0)
    with pytest.raises(SingularCurve):
        lattes_doubling(-3, 2)  # 4*(-27) + 27*4 = 0


def _x_of_double(a, b, x0):
    """Oracle: x(2P) by tangent-line intersection with exact polynomial division.

    The tangent at P = (x0, y0) has slope s with s*y0 = (3 x0^2 + a)/2 and
    s^2 = (3 x0^2 + a)^2 / (4 (x0^3 + a x0 + b)); substituting the line into
    the curve yields a cubic that (x - x0)^2 must divide exactly, and the
    remaining root is x(2P).
    """
    a, b, x0 = Fraction(a), Fraction(b), Fraction(x0)
    y2 = x0**3 + a * x0 + b
    if y2 == 0:
        return None  # 2-torsion: 2P is the identity, x = infinity
    s2 = (3 * x0**2 + a) ** 2 / (4 * y2)
    sy0 = (3 * x0**2 + a) / 2
    # x^3 + a x + b - (s (x - x0) + y0)^2, with s^2 and s*y0 rational
    #   = x^3 - s2 x^2 + (a + 2 s2 x0 - 2 sy0) x + (b - s2 x0^2 + 2 sy0 x0 - y2)
    c = [b - s2 * x0**2 + 2 * sy0 * x0 - y2,
         a + 2 * s2 * x0 - 2 * sy0,
         -s2,
         Fraction(1)]
    # divide twice by (x - x0); remainders must vanish (tangency certificate)
    for _ in range(2):
        q = [Fraction(0)] * (len(c) - 1)
        acc = Fraction(0)
        for i in range(len(c) - 1, 0, -1):
            acc = c[i] + acc * x0
            q[i - 1] = acc
        rem = c[0] + acc * x0
        assert rem == 0, "tangent line is not tangent: oracle inconsistency"
        c = q
    # c is now linear: x - x(2P) up to sign; root = -c0/c1
    return -c[0] / c[1]


def test_lattes_semiconjugacy_oracle_small():
    F = lattes_doubling(0, 1)
    for x0 in (2, Fraction(1, 2), Fraction(-3, 4), 5, Fraction(7, 3)):
        expect = _x_of_double(0, 1, x0)
        got = evaluate(F, point_from_rational(Fraction(x0)))
        assert affine_value(got) == expect


def test_lattes_semiconjugacy_other_curve():
    F = lattes_doubling(-1, 0)
    for x0 in (2, 3, Fraction(5, 2), Fraction(-1, 3)):
        expect = _x_of_double(-1, 0, x0)
        got = evaluate(F, point_from_rational(Fraction(x0)))
        if expect is None:
            assert got.is_infinity
        else:
            assert affine_value(got) == expect


# -- portraits ----------------------------------------------------------------

def test_portrait_power_map(sq):
    p = ramification_portrait(sq)
    assert p.signature == (INF_WEIGHT, INF_WEIGHT)
    assert p.exact


def test_portrait_cheb2(cheb2):
    p = ramification_portrait(cheb2)
    assert p.signature == (2, 2, INF_WEIGHT)
    assert p.exact
    weights = {str(n.exact): n.weight for n in p.nodes if n.weight > 1}
    assert weights == {"2": 2, "-2": 2, "inf": INF_WEIGHT}


def test_portrait_basilica(basilica):
    p = ramification_portrait(basilica)
    assert p.signature == (INF_WEIGHT, INF_WEIGHT, INF_WEIGHT)


def test_portrait_z2_plus_1_certified_witness(zsq_plus_1):
    p = ramification_portrait(zsq_plus_1)
    assert isinstance(p, NotPCF)
    assert p.reason == "rational critical orbit has certified positive canonical height"
    assert str(p.witness_point) == "0"


def test_portrait_weights_divisibility(cheb2):
    p = ramification_portrait(cheb2)
    for node in p.nodes:
        if node.image is None:
            continue
        img = p.nodes[node.image]
        if node.weight == INF_WEIGHT:
            assert img.weight == INF_WEIGHT
        elif img.weight != INF_WEIGHT:
            assert int(img.weight) % (int(node.weight) * node.local_degree) == 0


# -- classification -----------------------------------------------------------

def test_classify_examples(sq, cheb2, basilica):
    assert classify(sq).verdict == "PowerConjugate"
    assert classify(cheb2).verdict == "ChebyshevConjugate"
    assert classify(basilica).verdict == "NonExceptional"
    assert classify(basilica).pcf


def test_classify_lattes():
    c = classify(lattes_doubling(0, 1))
    assert c.verdict == "Lattes"
    assert c.signature == (2, 2, 2, 2)
    c2 = classify(lattes_doubling(-1, 0))
    assert c2.verdict == "Lattes"
    assert c2.signature == (2, 2, 2, 2)


def test_classify_power_and_chebyshev_families():
    for d in range(2, 7):
        assert classify(power_map(d)).verdict == "PowerConjugate"
        assert classify(chebyshev(d)).verdict == "ChebyshevConjugate"


def test_classify_negative_power():
    assert classify(power_map(-2)).verdict == "PowerConjugate"


def test_classify_negated_chebyshev():
    # -T_2 = 2 - w^2 is also exceptional with signature (2, 2, inf)
    F = poly_lift(2, 0, -1)
    assert classify(F).verdict == "ChebyshevConjugate"


def test_classify_nonpcf_witness(zsq_plus_1):
    c = classify(zsq_plus_1)
    assert c.verdict == "NonExceptional"
    assert not c.pcf
    assert c.exact  # divergence was certified exactly


@pytest.mark.parametrize("F, budget, enough", [
    (chebyshev(2), 1, 2), (lattes_doubling(-1, 0), 1, 2), (chebyshev(3), 0, 1)])
def test_open_critical_orbit_is_inconclusive(F, budget, enough):
    # a budget too small to close an orbit proves nothing: these exceptional
    # maps were labelled NonExceptional (uncertified) at the small budget
    with pytest.raises(Inconclusive, match=f"max_orbit = {budget} steps"):
        classify(F, max_orbit=budget)
    with pytest.raises(Inconclusive):
        ramification_portrait(F, max_orbit=budget)
    assert classify(F, max_orbit=enough).verdict != "NonExceptional"


def test_classify_conjugation_stable(sq, cheb2, basilica):
    mobius = [(1, 1, 0, 1), (2, 1, 1, 1), (0, 1, 1, 0), (1, -2, 1, 3)]
    targets = [(sq, "PowerConjugate"), (cheb2, "ChebyshevConjugate"),
               (basilica, "NonExceptional"), (lattes_doubling(0, 1), "Lattes")]
    for F, want in targets:
        for m in mobius:
            G = mobius_conjugate(F, m)
            assert classify(G).verdict == want, (want, m)


def test_collision_zones():
    from dynamo.errors import Inconclusive
    from dynamo.exceptional import _NodeStore
    from dynamo.projective import CPoint, ProjectivePoint

    store = _NodeStore(tol=1e-9)
    idx0, existed = store.find_or_add(CPoint.from_affine(1.0), None)
    assert not existed
    # inside tol: merges
    idx1, existed = store.find_or_add(CPoint.from_affine(1.0 + 1e-11), None)
    assert existed and idx1 == idx0
    # gray zone [tol, sqrt(tol)): ambiguous for numeric points
    with pytest.raises(Inconclusive):
        store.find_or_add(CPoint.from_affine(1.0 + 1e-6), None)
    # two unequal exact rationals are certifiably distinct even when close
    store2 = _NodeStore(tol=1e-9)
    a = ProjectivePoint(10**6, 1)
    b = ProjectivePoint(10**6 + 1, 1)
    ia, _ = store2.find_or_add(CPoint.from_exact(a), a)
    ib, existed = store2.find_or_add(CPoint.from_exact(b), b)
    assert not existed and ia != ib


def test_collision_labels_an_inexact_node_exact():
    # an exact point merging into a numeric node gives the node its exact
    # value, so a later exact point finds it by equality
    from dynamo.exceptional import _NodeStore
    from dynamo.projective import CPoint, ProjectivePoint

    store = _NodeStore(tol=1e-9)
    half = ProjectivePoint(1, 2)
    idx, existed = store.find_or_add(CPoint.from_affine(0.5 + 1e-12), None)
    assert not existed and store.nodes[idx].exact is None
    assert store.find_or_add(CPoint.from_exact(half), half) == (idx, True)
    assert store.nodes[idx].exact == half
    assert not store.all_collisions_exact
    assert store.find_or_add(CPoint.from_affine(0.25), half) == (idx, True)
    assert len(store.nodes) == 1


def test_classify_ambiguous_portrait_raises_inconclusive():
    # z^3 - 6z: the critical point sqrt(2) lies at chordal distance 0.577 from
    # the exact critical point infinity, inside the ambiguous zone [0.5, 0.707)
    from dynamo.errors import Inconclusive

    F = poly_lift(0, -6, 0, 1)
    with pytest.raises(Inconclusive, match="ambiguous zone") as info:
        classify(F, tol=0.5)
    # raised by the portrait itself, not converted from another error
    assert info.value.__context__ is None
    assert classify(F, tol=0.3).verdict == "NonExceptional"


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, math.nan, math.inf])
def test_classify_rejects_tol_outside_unit_interval(tol):
    # -1 used to fail inside math.sqrt, 0 and nan to run
    with pytest.raises(ValueError, match=r"tol must be .*\(0, 1\)"):
        classify(power_map(2), tol=tol)
