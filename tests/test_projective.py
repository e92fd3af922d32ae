"""Exact projective arithmetic: points, lifts, resultants, critical points."""

import math
import random
import sys
from fractions import Fraction

import pytest

from dynamo.errors import DegenerateMap, ZeroPoint
from dynamo.exceptional import critical_points
from dynamo.projective import (
    BezoutCertificate,
    CPoint,
    ProjectivePoint,
    RationalMapLift,
    _cycles,
    bezout_certificate,
    coefficient_from_json,
    compose,
    evaluate,
    form_eval,
    map_from_json,
    point_from_rational,
    poly_mul,
    sylvester_resultant,
)

from conftest import mobius_conjugate, poly_lift
from json_forms import map_to_json


# ProjectivePoint normalizes the pair it is built from
def test_normalize_divides_by_gcd():
    assert tuple(ProjectivePoint(4, 6)) == (2, 3)


def test_normalize_sign_convention():
    assert tuple(ProjectivePoint(-1, -2)) == (1, 2)
    assert tuple(ProjectivePoint(3, -2)) == (-3, 2)


def test_normalize_point_at_infinity():
    p = ProjectivePoint(5, 0)
    assert tuple(p) == (1, 0)
    assert p.is_infinity


def test_normalize_rejects_zero_pair():
    with pytest.raises(ZeroPoint):
        ProjectivePoint(0, 0)


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(200):
        x = rng.randint(-500, 500)
        y = rng.randint(-500, 500)
        if x == 0 and y == 0:
            continue
        p = ProjectivePoint(x, y)
        assert ProjectivePoint(p.x, p.y) == p
        assert math.gcd(abs(p.x), abs(p.y)) == 1
        assert p.y > 0 or (p.y == 0 and p.x > 0)


def test_point_from_rational_strings():
    assert point_from_rational("3/2") == ProjectivePoint(3, 2)
    assert point_from_rational("-2") == ProjectivePoint(-2, 1)
    assert point_from_rational("inf") == ProjectivePoint(1, 0)
    assert point_from_rational(Fraction(10, 4)) == ProjectivePoint(5, 2)


def test_evaluate_power_map(sq):
    assert evaluate(sq, ProjectivePoint(2, 1)) == ProjectivePoint(4, 1)


def test_evaluate_basilica_at_zero(basilica):
    assert evaluate(basilica, ProjectivePoint(0, 1)) == ProjectivePoint(-1, 1)


def test_evaluate_fixes_infinity(basilica):
    assert evaluate(basilica, ProjectivePoint(1, 0)) == ProjectivePoint(1, 0)


def test_evaluate_reduces_to_coprime(sq):
    # (6/4) -> normalized (3/2) -> 9/4
    assert evaluate(sq, ProjectivePoint(6, 4)) == ProjectivePoint(9, 4)


def test_compose_power_maps(sq):
    s = compose(sq, sq)
    assert s.f0 == (0, 0, 0, 0, 1)
    assert s.f1 == (1, 0, 0, 0, 0)
    assert s.degree == 4


def test_compose_basilica_oracle(basilica):
    # oracle: (z^2-1)^2 - 1 = z^4 - 2 z^2, expanded independently here
    def affine_compose(outer, inner):
        acc = [Fraction(0)]
        for c in reversed(outer):
            # acc*inner + c
            nxt = [Fraction(0)] * (len(acc) + len(inner) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(inner):
                    nxt[i + j] += a * Fraction(b)
            nxt[0] += c
            acc = nxt
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        return acc

    expect = affine_compose([-1, 0, 1], [-1, 0, 1])
    assert expect == [Fraction(0), Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
    s = compose(basilica, basilica)
    assert list(s.f0) == [0, 0, -2, 0, 1]
    assert s.f1 == (1, 0, 0, 0, 0)


def test_compose_with_identity_is_identity(basilica):
    ident = RationalMapLift.make([0, 1], [1, 0])
    assert compose(basilica, ident) == basilica
    assert compose(ident, basilica) == basilica


def test_compose_functoriality_random_points(sq, basilica, cheb2):
    rng = random.Random(3)
    for F in (sq, basilica, cheb2):
        for G in (sq, basilica):
            H = compose(F, G)
            assert H.degree == F.degree * G.degree
            for _ in range(20):
                p = ProjectivePoint(rng.randint(-30, 30), rng.randint(1, 30))
                assert evaluate(H, p) == evaluate(F, evaluate(G, p))


def test_compose_resultant_multiplicativity_matches_sylvester():
    rng = random.Random(11)
    built = 0
    while built < 8:
        f0 = [rng.randint(-3, 3) for _ in range(3)]
        f1 = [rng.randint(-3, 3) for _ in range(3)]
        g0 = [rng.randint(-3, 3) for _ in range(3)]
        g1 = [rng.randint(-3, 3) for _ in range(3)]
        try:
            F = RationalMapLift.make(f0, f1)
            G = RationalMapLift.make(g0, g1)
            H = compose(F, G)
        except DegenerateMap:
            continue
        built += 1
        assert H.res == abs(sylvester_resultant(H.f0, H.f1))


def test_resultant_power_map(sq):
    assert sq.res == 1
    assert isinstance(sq.certificate(), BezoutCertificate)


def test_resultant_basilica(basilica):
    assert basilica.res == 1


def test_resultant_rejects_degenerate():
    with pytest.raises(DegenerateMap):
        RationalMapLift.make([0, 1, 0], [0, 0, 1])  # (X*Y, Y^2) shares [1:0]


def test_bezout_identities_reexpand(sq, basilica, cheb2):
    rng = random.Random(11)
    maps = [sq, basilica, cheb2]
    for d in range(1, 11):
        while len(maps) < 3 + 2 * d:  # two random maps of each degree
            try:
                maps.append(RationalMapLift.make([rng.randint(-9, 9) for _ in range(d + 1)],
                                                 [rng.randint(-9, 9) for _ in range(d + 1)]))
            except DegenerateMap:
                pass
    for F in maps:
        d = F.degree
        cert = F.certificate()
        e = 2 * d - 1
        for gs, target in (((cert.g0x, cert.g1x), e), ((cert.g0y, cert.g1y), 0)):
            total = [0] * (e + 1)
            for g, f in zip(gs, (F.f0, F.f1)):
                for i, c in enumerate(poly_mul(list(g), list(f))):
                    total[i] += c
            expect = [0] * (e + 1)
            expect[target] = F.res
            assert total == expect
        # a wrong resultant is refused, even a multiple with integral cofactors
        with pytest.raises(DegenerateMap):
            bezout_certificate(F.f0, F.f1, 2 * F.res)


def test_sylvester_against_numeric_product():
    # oracle: Res(A, B) = lc(A)^deg(B) * prod B(alpha) over roots alpha of A
    import numpy as np

    rng = random.Random(5)
    for _ in range(10):
        a = [rng.randint(-4, 4) for _ in range(3)]
        b = [rng.randint(-4, 4) for _ in range(3)]
        if a[2] == 0 or b[2] == 0:
            continue
        res = sylvester_resultant(a, b)
        alphas = np.roots(list(reversed(a)))
        prod = a[2] ** 2
        for alpha in alphas:
            prod = prod * (b[2] * alpha**2 + b[1] * alpha + b[0])
        assert abs(res - prod) < 1e-6 * max(1.0, abs(prod))


def test_critical_points_power_map(sq):
    pts, rational = critical_points(sq)
    assert sum(m for _, m, _ in pts) == 2
    exact = {str(ex) for _, _, ex in pts if ex is not None}
    assert exact == {"0", "inf"}
    assert len(rational) == 2


def test_critical_points_basilica(basilica):
    pts, _ = critical_points(basilica)
    exact = {str(ex) for _, _, ex in pts if ex is not None}
    assert exact == {"0", "inf"}


def test_critical_points_rational_quadratic():
    # f = (z^2+1)/(z^2-1): W = -8 X Y, critical points 0 and inf, simple
    F = RationalMapLift.make([1, 0, 1], [-1, 0, 1])
    pts, _ = critical_points(F)
    assert sum(m for _, m, _ in pts) == 2
    exact = {str(ex) for _, _, ex in pts if ex is not None}
    assert exact == {"0", "inf"}
    assert all(m == 1 for _, m, _ in pts)


def test_cpoint_chordal_and_sphere():
    # the chordal distance is half the distance of the stereographic images
    import numpy as np

    from dynamo.measure import sphere_embed
    from dynamo.roots import to_chart

    a = CPoint.from_affine(0.0)
    b = CPoint.at_infinity()
    assert abs(a.chordal(b) - 1.0) < 1e-12
    zs = [0.0, 1.0, -2 + 0.5j, 1e8j, 3e-9, complex("inf")]
    xyz = sphere_embed(*to_chart(np.array(zs, dtype=complex)))
    assert np.allclose(xyz[1], [1.0, 0.0, 0.0]) and np.allclose(xyz[-1], [0.0, 0.0, 1.0])
    pts = [CPoint.from_affine(z) for z in zs[:-1]] + [b]
    for p, u in zip(pts, xyz):
        for q, v in zip(pts, xyz):
            assert p.chordal(q) == pytest.approx(np.linalg.norm(u - v) / 2, abs=1e-12)


def test_mobius_conjugate_match_on_points(basilica):
    # mu(z) = z + 1: conj map g = mu^{-1} o f o mu satisfies mu(g(p)) = f(mu(p))
    m = (1, 1, 0, 1)
    G = mobius_conjugate(basilica, m)
    rng = random.Random(1)
    mu = RationalMapLift.make([1, 1], [1, 0])

    def mu_apply(p):
        return ProjectivePoint(p.x + p.y, p.y)

    for _ in range(25):
        p = ProjectivePoint(rng.randint(-20, 20), rng.randint(1, 20))
        assert mu_apply(evaluate(G, p)) == evaluate(basilica, mu_apply(p))
    assert mu.degree == 1


def test_map_json_round_trip(basilica):
    js = map_to_json(basilica)
    again = map_from_json(js)
    assert again == basilica


def test_map_json_rational_coefficients():
    F = map_from_json({"num": ["1/2", "0", "1"], "den": ["1"]})
    # (z^2 + 1/2) clears to (2 z^2 + 1) / 2
    assert F.f0 == (1, 0, 2)
    assert F.f1 == (2, 0, 0)
    assert F.degree == 2


# (JSON value, the value coefficient_from_json returns, or the ValueError
# message it raises) on Python 3.10 and later; what reads as an integer is
# an int, and the rest are Fractions
_COEFFICIENTS = [
    (5, 5), (-5, -5), (0, 0), (10**40, 10**40),
    (True, "Invalid literal for Fraction: 'True'"),
    (False, "Invalid literal for Fraction: 'False'"),
    (None, "Invalid literal for Fraction: 'None'"),
    ([1], "Invalid literal for Fraction: '[1]'"),
    ({"p": 1}, "Invalid literal for Fraction: \"{'p': 1}\""),
    (0.25, Fraction(1, 4)), (-1.5, Fraction(-3, 2)), (3.0, Fraction(3)),
    (float("inf"), "Invalid literal for Fraction: 'inf'"),
    (float("nan"), "Invalid literal for Fraction: 'nan'"),
    ("-7", -7), ("+7", 7), ("007", 7), ("-0", 0), ("9" * 60, int("9" * 60)),
    ("1/4", Fraction(1, 4)), ("-2/4", Fraction(-1, 2)), ("6/3", Fraction(2)),
    (" 3", Fraction(3)), ("3\n", Fraction(3)), ("1e3", Fraction(1000)),
    ("1.5", Fraction(3, 2)), ("\uff13", Fraction(3)),  # a fullwidth digit
    ("1/0", "coefficient '1/0' has a zero denominator"),
    ("1_000", Fraction(1000) if sys.version_info >= (3, 11)
     else "Invalid literal for Fraction: '1_000'"),
    ("", "Invalid literal for Fraction: ''"),
    ("-", "Invalid literal for Fraction: '-'"),
    ("+-3", "Invalid literal for Fraction: '+-3'"),
    ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),  # a digit to isdigit, not to Fraction
    ("1/-4", "Invalid literal for Fraction: '1/-4'"),
    ("0x10", "Invalid literal for Fraction: '0x10'"),
]


def _fraction_coefficient(c):
    """Reference: the parse by Fraction alone."""
    try:
        return Fraction(str(c))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} has a zero denominator") from None


@pytest.mark.parametrize("c, want", _COEFFICIENTS)
def test_coefficient_from_json_table(c, want):
    if isinstance(want, str):
        for parse in (coefficient_from_json, _fraction_coefficient):
            with pytest.raises(ValueError) as err:
                parse(c)
            assert str(err.value) == want
        return
    got = coefficient_from_json(c)
    assert got == want == _fraction_coefficient(c)
    assert type(got) is type(want)


def test_primitive_int_of_ints_matches_the_fraction_pass():
    from dynamo.projective import primitive_int

    rng = random.Random(8)
    for _ in range(200):
        c = [rng.randint(-50, 50) * rng.choice([1, 6, 10**30]) for _ in range(rng.randint(1, 6))]
        got = primitive_int(c)
        assert got == primitive_int([Fraction(v) for v in c])
        assert got is not c and all(type(v) is int for v in got)


def test_form_eval_matches_affine():
    F = poly_lift(-2, 0, 1)
    assert form_eval(F.f0, 3, 2) == 9 - 2 * 4  # X^2 - 2 Y^2 at (3, 2)


def test_compose_overflow_policy(basilica, monkeypatch):
    import dynamo.projective
    from dynamo.errors import CapExceeded
    from dynamo.projective import iterate_lift

    monkeypatch.setattr(dynamo.projective, "DEFAULT_DIGIT_CAP", 2)
    with pytest.raises(CapExceeded):
        iterate_lift(basilica, 12)


def _prs_gcd(a, b):
    """Reference: the primitive PRS over Z that `poly_gcd` ran before it
    became modular, on integer lists."""
    from dynamo.projective import poly_trim, primitive_int

    def prem(a, b):  # lc(b)^(da-db+1) * a mod b
        da, db = len(a) - 1, len(b) - 1
        r = list(a)
        for k in range(da, db - 1, -1):
            top = r[k]
            r = [b[db] * v for v in r]
            if top:
                for i in range(db + 1):
                    r[k - db + i] -= top * b[i]
            r = r[:k]
            if len(r) <= db:
                break
        return poly_trim(r) if r else [0]

    a, b = primitive_int(poly_trim(a)), primitive_int(poly_trim(b))
    while any(b):
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, primitive_int(prem(a, b))
    if not any(a):
        return [0]
    return a if a[-1] > 0 else [-v for v in a]


def test_poly_gcd_matches_the_prs():
    # g a and g b with a and b coprime by construction: b = a q + c for a
    # nonzero integer c, so gcd(a, b) divides c.  The primes the gcd meets:
    # prime(0) (and prime(1)) dividing lc g, hence gamma, are skipped;
    # prime(0) dividing lc q drops the degree of b's image only; a prime
    # dividing c divides the resultant of a and b, so its image has a
    # degree too high: the first image, a later one (c = prime(1)), or two
    # agreeing images whose lift fails the division (c = prime(0) prime(1)).
    from dynamo.modp import prime
    from dynamo.projective import poly_gcd, poly_trim, primitive_int

    rng = random.Random(25)
    p0, p1 = prime(0), prime(1)

    def rand(degree, bits):
        c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree + 1)]
        c[-1] = c[-1] or 1
        return c

    for trial in range(120):
        bits = rng.choice([3, 7, 60, 300])
        g, a, q = rand(rng.randint(0, 6), bits), rand(rng.randint(1, 6), bits), \
            rand(rng.randint(0, 4), bits)
        kind = trial % 4
        if kind == 1:
            g[-1] *= rng.choice([p0, p0 * p1])
        elif kind == 2:
            q[-1] *= p0
        c = rng.choice([p0, p1, p0 * p1] if kind == 3 else [1, -3, 2**70 + 1])
        b = poly_trim([u + (c if i == 0 else 0)
                       for i, u in enumerate(poly_mul(a, q))])
        ga, gb = poly_mul(g, a), poly_mul(g, b)
        want = primitive_int(g)
        want = want if want[-1] > 0 else [-v for v in want]
        assert poly_gcd(ga, gb) == _prs_gcd(ga, gb) == want, (trial, bits)
        assert poly_gcd(gb, ga) == want
    # zero and constant inputs
    assert poly_gcd([0], [0]) == [0]
    assert poly_gcd([0, 0], [-4, -2]) == [2, 1]
    assert poly_gcd([6, 4], [0]) == [3, 2]
    assert poly_gcd([3], [5, 6]) == [1]


def test_poly_gcd_drops_an_unlucky_image(gcd_primes):
    # (x - 1)(x + 2) and (x - 1 - p)(x + 2), p = prime(1): the image mod p
    # has degree 2 and is dropped, and prime(2) confirms prime(0)'s lift
    from dynamo.modp import prime
    from dynamo.projective import poly_gcd

    p0, p1, p2 = map(prime, range(3))
    assert poly_gcd(poly_mul([-1, 1], [2, 1]), poly_mul([-1 - p1, 1], [2, 1])) == [2, 1]
    assert gcd_primes == [p0, p1, p2, "lift"]


def test_poly_gcd_proves_squarefree():
    # gcd(c, c') = 1 proves c squarefree over Q; the first prime not
    # dividing the leading coefficient proves it unless it divides the
    # discriminant
    from dynamo.modp import prime
    from dynamo.projective import poly_deriv, poly_gcd

    def squarefree(c):
        return poly_gcd(c, poly_deriv(c)) == [1]

    assert squarefree([-2, 0, 1])  # x^2 - 2
    assert poly_gcd([2, -3, 0, 1], [-3, 0, 3]) == [-1, 1]  # (x - 1)^2 (x + 2)
    # a leading coefficient divisible by the first three primes: the
    # three-prime certificate said no, the modular gcd skips all three and
    # the fourth prime proves it squarefree
    assert squarefree([-2, 0, prime(0) * prime(1) * prime(2)])
    assert squarefree([-2, 0, prime(0)])  # the next prime decides
    assert squarefree([7])
    # (x - 1)(x - 1 - p): squarefree over Q, a double root mod p = prime(0)
    p = prime(0)
    assert squarefree(poly_mul([-1, 1], [-1 - p, 1]))


# -- the one exact-to-float conversion ---------------------------------------------

def test_float_coefficients_up_to_500_bits_are_complex_of_each():
    from dynamo.projective import float_coefficients

    coeffs = [0, 1, -3, 2**53 + 1, -(3**315), 2**500 - 1, 10**150 + 7]
    floats, e = float_coefficients(coeffs)
    assert e == 0
    for got, c in zip(floats, coeffs):
        want = complex(c)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_float_coefficients_beyond_500_bits_are_correctly_rounded_over_one_power_of_two():
    from dynamo.projective import float_coefficients

    big = 10**400 + 12345
    coeffs = [-(big + 3), 0, big + 1, 7 * 10**250 + 1, 10**100 + 1]
    floats, e = float_coefficients(coeffs)
    assert e == big.bit_length() - 1 and 1 <= abs(floats[0]) < 2
    assert [z.imag for z in floats] == [0.0] * len(coeffs)
    assert [z.real for z in floats] == [float(Fraction(c, 2**e)) for c in coeffs]


@pytest.mark.parametrize("coeffs", [[10**400, 0, 1], [1, -(2**1100)], [3, 2**1050, 0]])
def test_float_coefficients_past_the_normal_range_raise(coeffs):
    from dynamo.errors import RootFindingFailure
    from dynamo.projective import float_coefficients

    with pytest.raises(RootFindingFailure, match="float range"):
        float_coefficients(coeffs)


def test_float_coefficients_at_the_edge_of_the_normal_range():
    from dynamo.projective import float_coefficients

    # the largest scales to 1 and the smallest to 2^-1022, the least normal float
    floats, e = float_coefficients([1, 0, 2**1022])
    assert e == 1022 and floats == [complex(2.0**-1022), 0j, 1 + 0j]


def test_float_forms_stay_out_of_equality_hash_and_repr():
    F = RationalMapLift.make([-1, 0, 1], [1, 0, 0])
    G = RationalMapLift.make([-1, 0, 1], [1, 0, 0])
    before = repr(F)
    assert F.float_forms == ((-1 + 0j, 0j, 1 + 0j), (1 + 0j, 0j, 0j), 0)
    assert F.float_forms is F.float_forms  # converted once
    assert F == G and hash(F) == hash(G) and repr(F) == before == repr(G)


def test_cpoint_from_exact_beyond_the_float_range():
    big = 10**400 + 1
    p = CPoint.from_exact(ProjectivePoint(-big, 2))  # y / x is below the float range
    assert (p.x, p.y) == (1, 0) and p.is_infinity
    q = CPoint.from_exact(ProjectivePoint(2, big))
    assert (q.x, q.y) == (0, 1)
    r = CPoint.from_exact(ProjectivePoint(3 * big, big + 2))
    assert r.affine() == pytest.approx(3.0, rel=1e-15)


def test_cpoint_is_infinity_means_y_is_zero():
    # 10^16 + 1 has y = 1e-16 after normalization: a finite point, not infinity
    p = CPoint.from_exact(ProjectivePoint(10**16 + 1, 1))
    assert not p.is_infinity and p.affine().real == pytest.approx(1e16)
    assert CPoint.from_exact(ProjectivePoint(1, 0)).is_infinity
    assert not CPoint(1.0, 1e-300).is_infinity


def _permutation_walk(succ):
    """Reference: the cycles of a permutation as `orbits.periodic_points`
    walked them before the shared cycle finder."""
    paths, visited = [], set()
    for start in range(len(succ)):
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        cur = succ[start]
        while cur not in visited:
            path.append(cur)
            visited.add(cur)
            cur = succ[cur]
        paths.append(path)
    return paths


def test_cycles_of_a_permutation_follow_the_periodic_walk():
    rng = random.Random(38)
    for n in (1, 2, 7, 40, 300):
        succ = list(range(n))
        rng.shuffle(succ)
        assert _cycles(succ) == _permutation_walk(succ)
    assert _cycles([1, 2, 0, 4, 3, 5]) == [[0, 1, 2], [3, 4], [5]]


def test_cycles_leave_out_the_tails():
    # 0 -> 1 -> 2 -> 3 -> 1 (tail 0); the self-loop 4 fed by 5 -> 6 -> 4;
    # 7 -> 2 enters the first cycle, found already
    assert _cycles([1, 2, 3, 1, 4, 6, 4, 2]) == [[1, 2, 3], [4]]
    assert _cycles([1, 1, 1]) == [[1]]
    assert _cycles([2, 0, 0]) == [[0, 2]]
    assert _cycles([0]) == [[0]] and _cycles([]) == []
