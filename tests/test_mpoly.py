"""Exact polynomial toolkit: curve eliminants vs a Sylvester oracle, gcd, squarefree."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

import dynamo.mpoly
from dynamo.curves import make_curve
from dynamo.hypersurface import diagonal_surface, graph_surface
from dynamo.modp import det_mod, prime
from dynamo.mpoly import (
    _gcd,
    _kronecker,
    _primitive,
    _shape,
    _specialized_multiplicities,
    _unkronecker,
    bivar_squarefree,
    eliminant_bound_sq,
    int_nth_root,
    resultant_formal,
)
from dynamo.projective import RationalMapLift, _bareiss_det, poly_div_exact, poly_gcd, poly_mul


def _sylvester_det(p, q, m, n):
    """Oracle: integer Sylvester determinant for formal degrees (m, n)."""
    p = list(p) + [0] * (m + 1 - len(p))
    q = list(q) + [0] * (n + 1 - len(q))
    size = m + n
    rows = []
    for s in range(n):
        rows.append([0] * s + list(reversed(p)) + [0] * (size - m - 1 - s))
    for s in range(m):
        rows.append([0] * s + list(reversed(q)) + [0] * (size - n - 1 - s))
    if size == 0:
        return 1
    return _bareiss_det(rows)


# Lifts for the ported resultant tests: with g the identity, s stands in for
# x2 and r2(u, s) = (-1)^(a d2) r1(x2 = s, u); with C free of x2, r2 = r1(u)
IDENTITY = ((0, 1), (1, 0))
SQUARE = ((0, 0, 1), (1, 0, 0))


def _eval2(R, u, s):
    return sum(c * u**k * s**l for k, row in enumerate(R) for l, c in enumerate(row))


def _column(p):
    """The curve p(x1) = 0 as a dense coefficient matrix of bidegree (m, 0)."""
    return [[c] for c in p]


def test_resultant_matches_sylvester_exact_degrees():
    # C = p(x1) under f = (q, Y^n): r2(u, s) = Res_{m,n}(p, q - u), so its
    # value at u = 0 is Res(p, q)
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        p = [rng.randint(-5, 5) for _ in range(m + 1)]
        q = [rng.randint(-5, 5) for _ in range(n + 1)]
        p[m] = p[m] or 1
        q[n] = q[n] or 1
        R = resultant_formal(_column(p), (q, [1] + [0] * n), IDENTITY)
        assert _eval2(R, 0, 0) == _sylvester_det(p, q, m, n), (p, q, m, n)


def test_resultant_matches_sylvester_formal_degrees():
    # vanishing top coefficients exercise the formal-degree correction; f1 =
    # X^n makes the top coefficient of q - u X^n vanish exactly at u = 0
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        p = [rng.randint(-4, 4) for _ in range(m + 1)]
        q = [rng.randint(-4, 4) for _ in range(n + 1)]
        drop_p = rng.random() < 0.5
        if drop_p:
            p[m] = 0
        else:
            q[n] = 0
        if all(c == 0 for c in p) or all(c == 0 for c in q):
            continue
        R = resultant_formal(_column(p), (q, [0] * n + [1]), IDENTITY)
        assert _eval2(R, 0, 0) == _sylvester_det(p, q, m, n), (p, q, m, n)


def test_resultant_with_parameter_specializes():
    # Res_x(c(x,y), x^2 - u) as a polynomial identity in (y, u): check by
    # specializing both sides at integer points (oracle: Sylvester on ints)
    rng = random.Random(5)
    for _ in range(20):
        # c(x, y) = sum over i,j <= 2 of random x^i y^j: coefficients in y
        cmat = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if all(c == 0 for c in cmat[2]):
            cmat[2][0] = 1
        R = resultant_formal(cmat, SQUARE, IDENTITY)
        for _ in range(6):
            yv = rng.randint(-4, 4)
            uv = rng.randint(-4, 4)
            p_spec = [sum(cmat[i][j] * yv**j for j in range(3)) for i in range(3)]
            q_spec = [-uv, 0, 1]
            want = _sylvester_det(p_spec, q_spec, 2, 2)
            assert _eval2(R, uv, yv) == want


def test_diagonal_pushforward_core_identity():
    # Res_x(x - y, x^2 - u) = y^2 - u up to sign: the elimination workhorse
    R = resultant_formal([[0, -1], [1, 0]], SQUARE, IDENTITY)  # x1 - x2
    expect = [[0, 0, 1], [-1, 0, 0]]  # s^2 - u
    assert R == expect or R == [[-c for c in row] for row in expect]


# -- the curve eliminant against an exact two-stage Sylvester oracle ----------

def _interpolate(xs, ys):
    """Integer coefficients of the polynomial through (xs, ys), exactly."""
    out = [Fraction(0)] * len(xs)
    for k, xk in enumerate(xs):
        num, den = [1], 1
        for xj in xs:
            if xj != xk:
                num = poly_mul(num, [-xj, 1])
                den *= xk - xj
        for m, c in enumerate(num):
            out[m] += Fraction(ys[k] * c) / den
    assert all(v.denominator == 1 for v in out)
    return [int(v) for v in out]


def _oracle(C, F, G, u, s):
    """r2(u, s) by two Bareiss-evaluated Sylvester determinants."""
    d1, d2 = len(C) - 1, len(C[0]) - 1
    a, b = len(F[0]) - 1, len(G[0]) - 1
    Fu = [x - u * y for x, y in zip(*F)]
    xs = list(range(a * d2 + 1))
    r1 = _interpolate(xs, [_sylvester_det([sum(c * x**j for j, c in enumerate(row))
                                           for row in C], Fu, d1, a) for x in xs])
    return _sylvester_det(r1, [x - s * y for x, y in zip(*G)], a * d2, b)


def _dense(C):
    d1, d2 = C.multidegree
    out = [[0] * (d2 + 1) for _ in range(d1 + 1)]
    for (i, j), c in C.terms:
        out[i][j] = c
    return out


def _lift(F):
    return (F.f0, F.f1)


MAPS = {
    "sq": RationalMapLift.make([0, 0, 1], [1, 0, 0]),
    "basilica": RationalMapLift.make([-1, 0, 1], [1, 0, 0]),
    "cube": RationalMapLift.make([0, 0, 0, 1], [1, 0, 0, 0]),
    "inv": RationalMapLift.make([1, 0], [0, 1]),  # 1/z: the top of F_u vanishes at u = 0
    "lattes": RationalMapLift.make([1, 0, 2, 0, 1], [0, -4, 0, 4, 0]),
    "half_inv": RationalMapLift.make([1, 0, 1], [0, 0, 2]),  # (z^2 + 1) / (2 z^2)
    "no_supply": RationalMapLift.make([2, 0, 1], [-2, 0, 1]),  # (z^2 + 2) / (z^2 - 2)
}

# every curve of tests/test_curves.py and tests/test_harness.py, plus
# fibers over 0 and infinity and a form whose top coefficients vanish
NAMED_CURVES = [
    diagonal_surface(),
    graph_surface([0, 0, 1]),
    graph_surface([1, 1]),
    graph_surface([-1, 0, 1]),
    make_curve({(1, 0): 1, (0, 0): -2}, (1, 0)),   # x1 = 2
    make_curve({(1, 0): 1}, (1, 0)),               # x1 = 0
    make_curve({(0, 0): 1}, (1, 0)),               # x1 = infinity
    make_curve({(0, 1): 1}, (0, 1)),               # x2 = 0
    make_curve({(0, 0): 1}, (0, 1)),               # x2 = infinity
    make_curve({(1, 1): 1, (0, 0): -1}, (1, 1)),   # x1 x2 = 1
    make_curve({(0, 1): 1, (1, 0): 3}, (2, 2)),    # top coefficients vanish
]


def _random_curve(rng):
    d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
    if d1 + d2 == 0:
        d1 = 1
    terms = {(i, j): rng.randint(-4, 4) for i in range(d1 + 1) for j in range(d2 + 1)
             if rng.random() < 0.6}
    if rng.random() < 0.3:  # vanishing top coefficient in x1
        terms = {e: c for e, c in terms.items() if e[0] != d1}
    terms = {e: c for e, c in terms.items() if c} or {(0, 0): 1}
    return make_curve(terms, (d1, d2))


def _check_against_oracle(C, f, g, rng, points=4):
    F, G = _lift(MAPS[f]), _lift(MAPS[g])
    R = resultant_formal(_dense(C), F, G)
    d1, d2 = C.multidegree
    assert (len(R), len(R[0])) == (MAPS[g].degree * d1 + 1, MAPS[f].degree * d2 + 1)
    for u, s in [(0, 0)] + [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(points)]:
        assert _eval2(R, u, s) == _oracle(_dense(C), F, G, u, s), (C, f, g, u, s)


@pytest.mark.parametrize("pair", [("sq", "sq"), ("sq", "basilica"), ("basilica", "basilica"),
                                  ("cube", "cube"), ("inv", "inv"), ("no_supply", "sq"),
                                  ("sq", "cube")])
def test_eliminant_matches_oracle_on_named_curves(pair):
    rng = random.Random("/".join(pair))
    for C in NAMED_CURVES:
        _check_against_oracle(C, *pair, rng)


def test_eliminant_matches_oracle_on_random_curves():
    rng = random.Random(17)
    names = ["inv", "lattes", "half_inv", "sq"]
    for _ in range(30):
        _check_against_oracle(_random_curve(rng), rng.choice(names), rng.choice(names),
                              rng, points=2)


def test_eliminant_bound_dominates_coefficients():
    rng = random.Random(23)
    names = list(MAPS)
    for _ in range(60):
        C = _dense(_random_curve(rng))
        F, G = _lift(MAPS[rng.choice(names)]), _lift(MAPS[rng.choice(names)])
        bound_sq = eliminant_bound_sq(C, F, G)
        assert all(c * c <= bound_sq for row in resultant_formal(C, F, G) for c in row)


# -- squarefree parts on dense matrices: P[k][l] is the coefficient of u^k s^l --

def _mul2(A, B):
    out = [[0] * (len(A[0]) + len(B[0]) - 1) for _ in range(len(A) + len(B) - 1)]
    for i, row in enumerate(A):
        for j, a in enumerate(row):
            for k, brow in enumerate(B):
                for l, b in enumerate(brow):
                    out[i + k][j + l] += a * b
    return out


def _power2(A, m):
    out = [[1]]
    for _ in range(m):
        out = _mul2(out, A)
    return out


def _up_to_sign(got, want):
    got, want = _shape(got), _shape(want)
    return got == want or got == [[-c for c in row] for row in want]


U_MINUS_S = [[0, -1], [1, 0]]  # u - s
U_PLUS_S = [[0, 1], [1, 0]]   # u + s


def test_gcd_bivariate():
    p = _mul2(_mul2(U_MINUS_S, U_MINUS_S), U_PLUS_S)
    q = _mul2(_mul2(U_MINUS_S, U_PLUS_S), U_PLUS_S)
    assert _up_to_sign(_gcd(p, q), _mul2(U_MINUS_S, U_PLUS_S))


def test_gcd_coprime_is_constant():
    g = _shape(_gcd(U_MINUS_S, U_PLUS_S))
    assert len(g) == 1 and len(g[0]) == 1


def _prem(A, B) -> list:
    """A scalar multiple in Z[s] of A mod B in u (top row of B nonzero)."""
    lb = B[-1]
    R = A
    while len(R) >= len(B):
        top, shift = R[-1], len(R) - len(B)
        R = [poly_mul(lb, row) if k < shift else
             [x - y for x, y in zip_longest(poly_mul(lb, row), poly_mul(top, B[k - shift]),
                                            fillvalue=0)]
             for k, row in enumerate(R[:-1])]
        while R and not any(R[-1]):
            R.pop()
    return R


def _prs_gcd(A, B) -> list:
    """Reference: the primitive PRS over Z[s][u] that `_gcd` ran before it
    became modular, up to a unit."""
    (ca, A), (cb, B) = _primitive(A), _primitive(B)
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        R = _prem(A, B)
        A, B = B, _primitive(R)[1] if R else []
    if B:  # a nonzero remainder free of u: the primitive parts are coprime
        A = [[1]]
    c = poly_gcd(ca, cb)
    return [poly_mul(c, row) for row in A]


def test_gcd_matches_the_prs():
    # g a and g b for random a, b and g, which share a factor in s alone
    # or an integer content in some trials; then the named cases: leading
    # coefficients in u with integer content, (1 + 2u)^3 c(s) against
    # 6 (1 + 2u)^2 c(s), whose primitive parts lead with 8 and 4, so gamma
    # must carry gcd(8, 4) = 4; the point s = 0, where (u - s)^2 (u + s) and
    # (u - s)(u + s)^2 share u^3; a common factor in s alone; and coprime
    # inputs
    rng = random.Random(26)

    def rand(du, ds):
        return [[rng.randint(-3, 3) for _ in range(ds + 1)] for _ in range(du + 1)]

    cases = []
    for trial in range(60):
        g = rand(rng.randint(0, 2), rng.randint(0, 2))
        a = rand(rng.randint(0, 3), rng.randint(0, 2))
        b = rand(rng.randint(0, 3), rng.randint(0, 2))
        if trial % 3 == 1:
            g = _mul2(g, [[rng.randint(-2, 2) for _ in range(3)]])  # a factor in s alone
        elif trial % 3 == 2:
            a, b = [[6 * c for c in row] for row in a], [[4 * c for c in row] for row in b]
        if any(map(any, g)) and any(map(any, a)) and any(map(any, b)):
            cases.append((_mul2(g, a), _mul2(g, b)))
    c, w = [[1, -2, 0, 3]], [[1], [2]]  # 1 - 2s + 3s^3 and 1 + 2u
    cases.append((_mul2(_power2(w, 3), c), _mul2(_power2(w, 2), [[6 * v for v in c[0]]])))
    cases.append((_mul2(_power2(U_MINUS_S, 2), U_PLUS_S), _mul2(U_MINUS_S, _power2(U_PLUS_S, 2))))
    cases.append((_mul2([[1, 1]], U_MINUS_S), _mul2([[1, 1]], U_PLUS_S)))
    cases.append((U_MINUS_S, U_PLUS_S))
    for A, B in cases:
        want = _prs_gcd(A, B)
        assert _up_to_sign(_gcd(A, B), want) and _up_to_sign(_gcd(B, A), want), (A, B)
    assert _up_to_sign(_gcd(*cases[-4]), _mul2(_power2(w, 2), c))
    assert _up_to_sign(_gcd(*cases[-2]), [[1, 1]])
    assert _shape(_gcd(*cases[-1])) in ([[1]], [[-1]])


def test_gcd_drops_an_unlucky_image(gcd_primes, monkeypatch):
    # A = (u - s)(u - s - p) and B = (u - s)(u - s + p), p = prime(0): mod p
    # both are (u - s)^2, an image of u-degree 2 that prime(1)'s u - s
    # replaces, and prime(2) confirms prime(1)'s lift in the one read of the
    # prime loop both modular gcds share (the ints in gcd_primes are the
    # primes of the gcds over Z that take the contents)
    p0, p1, p2 = map(prime, range(3))
    gcd_image = dynamo.mpoly._gcd_image

    def counted_image(A, B, gamma, n, p):
        image = gcd_image(A, B, gamma, n, p)
        gcd_primes.append((p, len(image)))
        return image

    monkeypatch.setattr(dynamo.mpoly, "_gcd_image", counted_image)
    A = [[0, p0, 1], [-p0, -2], [1]]
    B = [[0, -p0, 1], [p0, -2], [1]]
    assert _up_to_sign(_gcd(A, B), U_MINUS_S)
    assert [c for c in gcd_primes if type(c) is not int] == [(p0, 3), (p1, 2), (p2, 2), "lift"]


def test_gcd_points_differ_from_prime_to_prime():
    # with n = 1 one point per prime is interpolated; were it s0 = 0 at
    # every prime, an unlucky s0 = 0 would give the same wrong image at
    # every prime and the loop would never end: u^2 and u^2 + s u share u^2
    # at s = 0, and there u^2 + s^2 - 2s (u^2 at the specialization s = 2,
    # so it reaches the gcd) shares u with its P_u = 2u
    assert _up_to_sign(_gcd([[0], [0], [1]], [[0, 0], [0, 1], [1, 0]]), [[0], [1]])
    P = [[0, -2, 1], [0, 0, 0], [1, 0, 0]]
    assert bivar_squarefree(P) == P


def test_squarefree_part_bivariate():
    a = U_MINUS_S
    b = [[0, 3], [2, 0]]  # 2u + 3s
    p = _mul2(_power2(a, 3), b)
    assert _up_to_sign(bivar_squarefree(p), _mul2(a, b))


def test_exact_div_round_trip():
    # exact bivariate division through the Kronecker map u -> t^D, s -> t
    rng = random.Random(13)
    for _ in range(30):
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if not any(map(any, a)) or not any(map(any, b)):
            continue
        ab = _shape(_mul2(a, b))
        D = len(ab[0])
        q = poly_div_exact(_kronecker(ab, D), _kronecker(_shape(b), D))
        assert _unkronecker(q, D) == _shape(a)


def _primitive_linear_forms(rng, count):
    """Distinct primitive a u + b s + c, some free of u and some free of s."""
    forms = set()
    while len(forms) < count:
        kind = rng.choice(["u", "s", "both"])
        a = 0 if kind == "s" else rng.choice([1, 2, 3, -1, -2])
        b = 0 if kind == "u" else rng.choice([1, 2, 3, -1, -2])
        c = rng.randint(-4, 4)
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        if (a, b, c) < (0, 0, 0):
            a, b, c = -a, -b, -c
        forms.add((a, b, c))
    return [[[c, b], [a, 0]] for a, b, c in sorted(forms)]


def test_bivar_squarefree_of_products_of_linear_forms(monkeypatch):
    # oracle by construction: the squarefree part of c * prod L_i^m_i for
    # distinct primitive linear forms L_i is their product, up to sign
    stages = {"root": 0, "fallback": 0}
    nth_root, by_gcd = dynamo.mpoly._nth_root, dynamo.mpoly._squarefree_by_gcd

    def root(*args):
        out = nth_root(*args)
        stages["root"] += out is not None
        return out

    def fallback(*args):
        stages["fallback"] += 1
        return by_gcd(*args)

    monkeypatch.setattr(dynamo.mpoly, "_nth_root", root)
    monkeypatch.setattr(dynamo.mpoly, "_squarefree_by_gcd", fallback)
    rng = random.Random(2024)
    certified = 0
    for case in range(90):
        forms = _primitive_linear_forms(rng, rng.randint(1, 4))
        pattern = ("one", "uniform", "mixed")[case % 3]
        if pattern == "mixed":
            mults = [rng.randint(1, 3) for _ in forms]
        else:
            mults = [1 if pattern == "one" else rng.randint(2, 3)] * len(forms)
        P, want = [[rng.choice([1, -2, 3, 6])]], [[1]]
        for L, m in zip(forms, mults):
            P = _mul2(P, _power2(L, m))
            want = _mul2(want, L)
        before = stages["fallback"]
        assert _up_to_sign(bivar_squarefree(P), want), (forms, mults)
        certified += stages["fallback"] == before
    assert certified and stages["root"] and stages["fallback"]


def test_graph_orbit_specialization_needs_no_yun(gcd_primes, monkeypatch):
    # The 6th pushforward of x2 = x1^2 + 1 under (z^2, z^2) has bidegree
    # (64, 32).  Its first degree-preserving specialization, of degree 64
    # with 966-bit coefficients, is squarefree over Q but not mod prime(0);
    # Yun over Q took seconds on it.  The probe's Yun mod prime(0) gives the
    # mixed pattern [1, 2], and prime(1) decides; the degree-32
    # specialization in s is decided at prime(0).  No gcd over Z runs,
    # nothing is lifted, and the gcd fallback is never reached.
    from dynamo.curves import _reduce_to_curve

    sq = _lift(MAPS["sq"])
    C = graph_surface([1, 0, 1])
    for _ in range(5):
        d1, d2 = C.multidegree
        C = _reduce_to_curve(resultant_formal(_dense(C), sq, sq), 2 * d1, 2 * d2)
    assert C.multidegree == (32, 16)
    r2 = resultant_formal(_dense(C), sq, sq)
    probes, yun_mod = [], dynamo.mpoly.yun_mod

    def counted_yun(c, p):
        probes.append((len(c) - 1, p, yun_mod(c, p)))
        return probes[-1][-1]

    def no_fallback(P):
        raise AssertionError("the gcd fallback ran")

    monkeypatch.setattr(dynamo.mpoly, "yun_mod", counted_yun)
    monkeypatch.setattr(dynamo.mpoly, "_squarefree_by_gcd", no_fallback)
    del gcd_primes[:]
    assert _reduce_to_curve(r2, 64, 32).multidegree == (64, 32)
    assert probes == [(64, prime(0), [1, 2]), (64, prime(1), [1]), (32, prime(0), [1])]
    assert gcd_primes == []


def test_probe_asks_the_next_prime_about_a_mixed_pattern(monkeypatch):
    # (u - 1)(u - 1 - p)(u - 2), p = prime(0), is squarefree over Q and has
    # the mixed pattern [1, 2] mod p: prime(1) proves it squarefree.  A
    # uniform pattern goes to the root, which certifies it, with no second
    # prime; a prime that divides the leading coefficient is passed over.
    p = prime(0)
    primes, yun_mod = [], dynamo.mpoly.yun_mod

    def counted_yun(c, q):
        primes.append(q)
        return yun_mod(c, q)

    monkeypatch.setattr(dynamo.mpoly, "yun_mod", counted_yun)
    unlucky = poly_mul(poly_mul([-1, 1], [-1 - p, 1]), [-2, 1])
    for c, mults, asked in [(unlucky, [1], [p, prime(1)]),
                            (poly_mul([-3, 1], [-3, 1]), [2], [p]),
                            ([1, p], [1], [prime(1)])]:
        del primes[:]
        assert _specialized_multiplicities([[v] for v in c]) == mults
        assert primes == asked
    assert bivar_squarefree([[v] for v in unlucky]) == [[v] for v in unlucky]


def test_prime_matches_trial_division():
    def is_prime(n):  # n odd and below 2^31 < 46341^2
        return all(n % d for d in range(3, 46342, 2))

    want = [n for n in range((1 << 31) - 1, (1 << 31) - 2000, -2) if is_prime(n)][:30]
    assert len(want) == 30
    assert [prime(k) for k in range(30)] == want


def test_int_nth_root_beyond_float_range():
    # 10^320 overflows a float; the root must come from integer arithmetic
    assert int_nth_root(10**320, 2) == 10**160
    assert int_nth_root(-(10**400), 5) == -(10**80)
    assert int_nth_root(10**320 + 1, 2) is None
    assert int_nth_root(-(10**320), 2) is None
    rng = random.Random(3)
    for _ in range(200):
        e = rng.randint(2, 7)
        r = rng.randint(2, 10 ** rng.randint(1, 120))
        assert int_nth_root(r**e, e) == r
        assert int_nth_root(r**e - 1, e) is None


def test_det_mod_matches_bareiss():
    # zero pivots, row swaps and singular matrices included
    rng = random.Random(41)
    p = 2147483647
    mats = []
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2 and n > 1:
            m[-1] = list(m[0])  # singular
        mats.append(m)
    for n in range(1, 6):
        group = [m for m in mats if len(m) == n]
        got = det_mod(np.array(group, dtype=np.int64) % p, p)
        assert [int(v) for v in got] == [_bareiss_det(m) % p for m in group]


def _record_batches(monkeypatch):
    """Patch `_eliminant_mod` to record (primes in, primes kept) per call."""
    calls = []
    eliminant_mod = dynamo.mpoly._eliminant_mod

    def recording(C, F, G, us, ss, ps):
        kept, vals = eliminant_mod(C, F, G, us, ss, ps)
        calls.append((ps.tolist(), kept.tolist()))
        return kept, vals

    monkeypatch.setattr(dynamo.mpoly, "_eliminant_mod", recording)
    return calls


def test_eliminant_in_blocks_of_grid_rows(monkeypatch):
    # a tiny block size splits the grid of each batch into many row blocks
    C = _dense(make_curve({(2, 1): 1, (0, 2): -3, (1, 0): 2, (0, 0): 1}, (2, 2)))
    F, G = _lift(MAPS["lattes"]), _lift(MAPS["half_inv"])
    whole = resultant_formal(C, F, G)
    rows = []
    norm = dynamo.mpoly._norm

    def recording(v, monic, p):
        rows.append(v.shape[1])  # laid out (prime, u, s, power of x)
        return norm(v, monic, p)

    monkeypatch.setattr(dynamo.mpoly, "_BLOCK", 300)
    monkeypatch.setattr(dynamo.mpoly, "_norm", recording)
    assert resultant_formal(C, F, G) == whole
    # the u grid has b d1 + 1 = 5 points; two norms per row block
    assert len(rows) > 2 and max(rows) < 5


def test_block_splits_the_prime_axis(monkeypatch):
    # the eliminant of the (2, 2) curve under (Lattes, half_inv) needs several
    # primes: one batch takes them all, and _BLOCK = 300 takes one at a time
    C = _dense(make_curve({(2, 1): 1, (0, 2): -3, (1, 0): 2, (0, 0): 1}, (2, 2)))
    F, G = _lift(MAPS["lattes"]), _lift(MAPS["half_inv"])
    calls = _record_batches(monkeypatch)
    whole = resultant_formal(C, F, G)
    assert len(calls) == 1 and len(calls[0][0]) > 1
    primes = calls[0][0]
    del calls[:]
    monkeypatch.setattr(dynamo.mpoly, "_BLOCK", 300)
    assert resultant_formal(C, F, G) == whole
    assert calls == [([p], [p]) for p in primes]


def test_eliminant_skips_a_prime_with_a_bad_grid_point(monkeypatch):
    # the top coefficient of f0 - u f1 is (p + 1) - u, which vanishes mod the
    # first prime p at the grid point u = 1; that prime must be dropped, and
    # so must it when the same form is g0 - s g1, at the grid point s = 1
    p = prime(0)
    bad, sq = ((0, 0, p + 1), (1, 0, 1)), _lift(MAPS["sq"])
    C = _dense(diagonal_surface())
    rng = random.Random(2)
    calls = _record_batches(monkeypatch)
    for F, G in [(bad, sq), (sq, bad)]:
        del calls[:]
        R = resultant_formal(C, F, G)
        (batch, kept), *rest = calls
        assert batch[0] == p and kept == batch[1:]
        assert all(b == k for b, k in rest)
        points = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        for u, s in [(0, 0), (1, 1)] + points:
            assert _eval2(R, u, s) == _oracle(C, F, G, u, s)


def test_a_bad_prime_inside_a_batch_is_made_up_after_it(monkeypatch):
    # the same bad grid point mod q = prime(1), in the middle of the first
    # batch: q is dropped, and the shortfall comes from the primes after
    # the batch, up to the least product whose square exceeds 4 B^2
    q = prime(1)
    F = ((0, 0, q + 1), (1, 0, 1))
    G = _lift(MAPS["sq"])
    C = _dense(diagonal_surface())
    calls = _record_batches(monkeypatch)
    R = resultant_formal(C, F, G)
    (batch, kept), *rest = calls
    assert batch == [prime(k) for k in range(len(batch))] and q in batch[1:-1]
    assert kept == [v for v in batch if v != q]
    assert rest and rest[0][0][0] == prime(len(batch))
    assert all(b == k for b, k in rest)
    used = kept + [v for _, k in rest for v in k]
    need = 4 * eliminant_bound_sq(C, F, G)
    assert math.prod(used) ** 2 > need >= math.prod(used[:-1]) ** 2
    rng = random.Random(3)
    for u, s in [(0, 0), (1, 1)] + [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]:
        assert _eval2(R, u, s) == _oracle(C, F, G, u, s)


def test_equal_grids_share_one_interpolation_matrix(monkeypatch):
    # the (16, 16) image of the diagonal under (z^2, z^2 - 1): both grids are
    # 0..32, so each batch of primes builds one Lagrange matrix per prime for
    # u and s alike, in one call
    from dynamo.curves import curve_pushforward

    f, g = MAPS["sq"], MAPS["basilica"]
    C = diagonal_surface()
    while C.multidegree[0] < 16:
        C = curve_pushforward(C, f, g)
    assert C.multidegree == (16, 16)
    C = _dense(C)
    built = []
    interpolation_matrix = dynamo.mpoly.interpolation_matrix

    def counting_matrix(points, p):
        built.append(np.ravel(p).tolist())
        return interpolation_matrix(points, p)

    monkeypatch.setattr(dynamo.mpoly, "interpolation_matrix", counting_matrix)
    calls = _record_batches(monkeypatch)
    R = resultant_formal(C, _lift(f), _lift(g))
    assert len(calls[0][0]) > 1 and built == [k for _, k in calls]
    for u, s in [(0, 0), (2, -3), (-1, 5)]:
        assert _eval2(R, u, s) == _oracle(C, _lift(f), _lift(g), u, s)


@pytest.mark.parametrize("P, e", [
    ([[1], [1]], 2),  # u + 1: degree 1 is no multiple of 2
    ([[1], [0], [2]], 2),  # 2u^2 + 1: the top coefficient 2 is no square
    ([[1], [1], [1]], 2),  # u^2 + u + 1: the next coefficient of h is 1/2
    ([[2], [2], [1]], 2),  # u^2 + 2u + 2: h = u + 1, whose square is u^2 + 2u + 1
])
def test_nth_root_rejects_non_powers(P, e):
    from dynamo.mpoly import _nth_root

    assert _nth_root(P, e) is None


def test_nth_root_and_quotient_on_exact_and_inexact_inputs():
    from dynamo.mpoly import _nth_root, _quotient

    assert _nth_root([[1], [2], [1]], 2) == [[1], [1]]  # (u + 1)^2
    # (1 + s) u + (1 - s) = (u + 1) + s (u - 1) does not divide (u + 1)^2 (1 + s)
    X = [[1, 1], [2, 2], [1, 1]]
    assert _quotient(X, [[1], [1]]) == [[1, 1], [1, 1]]
    assert _quotient(X, [[1, -1], [1, 1]]) is None


def test_bivar_squarefree_of_a_constant():
    assert bivar_squarefree([[6]]) == [[1]]
    assert bivar_squarefree([[-4]]) == [[-1]]


def test_bivar_squarefree_falls_back_to_the_gcd_after_a_failed_root(monkeypatch):
    # P = A^2 B with A = 2 - 2s + 3u - us and B = -2 - s + us: both
    # specializations report the uniform multiplicity 3, P is no cube, and
    # the modular gcd gives the squarefree part -A B
    P = [[-8, 12, 0, -4], [-24, 24, 0, 0], [-18, 15, -12, 3], [0, 9, -6, 1]]
    assert _specialized_multiplicities(P) == [3]
    assert _specialized_multiplicities([list(col) for col in zip(*P)]) == [3]
    roots = []
    nth_root = dynamo.mpoly._nth_root

    def recorded(Q, e):
        roots.append((e, nth_root(Q, e)))
        return roots[-1][1]

    monkeypatch.setattr(dynamo.mpoly, "_nth_root", recorded)
    assert bivar_squarefree(P) == [[4, -2, -2], [6, -1, 1], [0, -3, 1]]
    assert roots == [(3, None)]


def test_bivar_squarefree_without_a_degree_preserving_specialization():
    # lc_u = prod (s - s0) over the ten s0 that `_specialized_multiplicities`
    # tries, so none keeps the u-degree and the modular gcd decides alone
    lc = [1]
    for s0 in (2, 3, 5, 7, 11, 13, -2, -3, 17, 19):
        lc = poly_mul(lc, [-s0, 1])
    A = _shape([[1], lc])  # u lc(s) + 1
    assert _specialized_multiplicities(A) is None
    assert bivar_squarefree(A) == A
    square = _shape([[1], [2 * c for c in lc], poly_mul(lc, lc)])  # A^2
    assert bivar_squarefree(square) == A
