"""Exact projective arithmetic on P^1 over Q.

Points are coprime integer pairs [x : y] with a fixed sign convention, and
rational self-maps are homogeneous lifts F = (F0, F1): a pair of integer
binary forms of the same degree with nonzero resultant.  Binary forms are
stored as coefficient tuples in ascending X-power, i.e. coeffs[i] is the
coefficient of X^i Y^(d-i).  `float_coefficients` is the one exact-to-float
conversion: the numeric layers read maps (`RationalMapLift.float_forms`),
squarefree factors, hypersurfaces and exact points through it.

Points, Bezout certificates and lifts are NamedTuples; `ProjectivePoint`
normalizes in its `__new__`.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import CapExceeded, DegenerateMap, RootFindingFailure, ZeroPoint
from .modp import brown, gcd_mod

#: cap on exact coefficient/coordinate size in decimal digits: `compose`'s, and every default
DEFAULT_DIGIT_CAP = 10**6

_LOG10_2 = math.log10(2.0)


def check_cap(n: int, cap_digits: int, what: str = "coefficient") -> None:
    """CapExceeded when |n| has more than cap_digits decimal digits (counted
    from its bit length): the one digit-cap check of the exact layer."""
    if int(n.bit_length() * _LOG10_2) + 1 > cap_digits:
        raise CapExceeded(
            f"{what} exceeds {cap_digits} decimal digits; raise the cap or relax the target"
        )


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class _Pair(NamedTuple):
    x: int
    y: int


class ProjectivePoint(_Pair):
    """A point of P^1(Q) as a coprime integer pair [x : y].

    Normalization: gcd(|x|,|y|) = 1 and either y > 0, or y = 0 and x > 0.
    Two points are equal iff their normalized fields are equal.  `_make`
    and `_replace` normalize too.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int):
        if x == 0 and y == 0:
            raise ZeroPoint("(0, 0) is not a projective point")
        g = math.gcd(x, y)
        if g > 1:
            x //= g
            y //= g
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable) -> "ProjectivePoint":
        return cls(*iterable)

    @property
    def is_infinity(self) -> bool:
        return self.y == 0

    def __str__(self) -> str:
        if self.y == 0:
            return "inf"
        if self.y == 1:
            return str(self.x)
        return f"{self.x}/{self.y}"


INFINITY = ProjectivePoint(1, 0)


def normalize(x, y) -> ProjectivePoint:
    """Build the normalized projective point for a raw coordinate pair.

    Accepts integers or Fractions; Fractions are cleared to integers first.
    """
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        fx, fy = Fraction(x), Fraction(y)
        m = fx.denominator * fy.denominator
        x, y = int(fx * m), int(fy * m)
    return ProjectivePoint(int(x), int(y))


def point_from_rational(q) -> ProjectivePoint:
    """Point for an affine rational value (int, Fraction, or 'p/q'/'inf' string)."""
    if isinstance(q, ProjectivePoint):
        return q
    if isinstance(q, str):
        s = q.strip().lower()
        if s in ("inf", "infinity", "oo"):
            return INFINITY
        try:
            q = Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"point {q!r} has a zero denominator; "
                             "write inf for the point at infinity") from None
    q = Fraction(q)
    return ProjectivePoint(q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# numeric projective points (complex, sup-norm normalized)
# ---------------------------------------------------------------------------

class CPoint:
    """Numeric point of P^1(C) as a sup-norm-normalized complex pair."""

    __slots__ = ("x", "y")

    def __init__(self, x: complex, y: complex):
        try:
            m = max(abs(x), abs(y))
        except OverflowError:  # |x| or |y| beyond the float range: halve both, exactly
            x, y = complex(x) / 2, complex(y) / 2
            m = max(abs(x), abs(y))
        if m == 0.0:
            raise ZeroPoint("(0, 0) is not a projective point")
        self.x = complex(x) / m
        self.y = complex(y) / m

    @classmethod
    def from_affine(cls, z: complex) -> "CPoint":
        return cls(complex(z), 1.0)

    @classmethod
    def at_infinity(cls) -> "CPoint":
        return cls(1.0, 0.0)

    @classmethod
    def from_exact(cls, p: ProjectivePoint) -> "CPoint":
        try:
            return cls(*float_coefficients((p.x, p.y))[0])
        except RootFindingFailure:  # the point is within 2^-1022 of infinity or of 0
            return cls.at_infinity() if abs(p.x) > abs(p.y) else cls(0.0, 1.0)

    @property
    def is_infinity(self) -> bool:
        return self.y == 0

    def affine(self) -> complex:
        """Affine value x/y; infinite points map to a huge float, use charts instead."""
        if self.y == 0:
            return complex("inf")
        return self.x / self.y

    def chordal(self, other: "CPoint") -> float:
        """Chordal distance |x1 y2 - x2 y1| / (|p1| |p2|) with 2-norms."""
        num = abs(self.x * other.y - other.x * self.y)
        den = math.hypot(abs(self.x), abs(self.y)) * math.hypot(abs(other.x), abs(other.y))
        return num / den

    def __repr__(self) -> str:
        return f"CPoint({self.x!r}, {self.y!r})"


def float_coefficients(coeffs) -> tuple[list, int]:
    """([complex(c / 2^e), ...], e): the integers coeffs over one power of two.

    Each entry is correctly rounded.  e = 0, so entries are complex(c), while
    every |c| has at most 500 bits; beyond, 2^e brings the largest |c| into
    [1, 2).  That scaling is exact away from underflow and overflow (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2.1), so it
    keeps the roots of a form and the map of a pair.  A nonzero c / 2^e
    below the normal float range raises RootFindingFailure.
    """
    top = max(abs(c) for c in coeffs).bit_length()
    e = top - 1 if top > 500 else 0
    if e and min(abs(c) for c in coeffs if c).bit_length() - e < sys.float_info.min_exp:
        raise RootFindingFailure("the coefficients span more than the float range "
                                 f"({sys.float_info.min:.3g} to {sys.float_info.max:.3g})")
    return [complex(c / (1 << e)) for c in coeffs], e


# ---------------------------------------------------------------------------
# binary forms (coefficient tuples, ascending X-power)
# ---------------------------------------------------------------------------

def form_eval(coeffs, x, y):
    """Evaluate sum coeffs[i] * x^i * y^(d-i); exact for ints/Fractions, numeric for complex."""
    d = len(coeffs) - 1
    acc = 0 * x
    for i in range(d, -1, -1):
        acc = acc * x + coeffs[i] * y ** (d - i)
    return acc


def form_derivative_x(coeffs) -> tuple:
    """d/dX of the form; degree drops by one."""
    return tuple(i * coeffs[i] for i in range(1, len(coeffs)))


def form_derivative_y(coeffs) -> tuple:
    """d/dY of the form; degree drops by one."""
    d = len(coeffs) - 1
    return tuple((d - i) * coeffs[i] for i in range(d))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def form_compose(coeffs, a, b):
    """Substitute the degree-e pair (A, B) for (X, Y) in a degree-d form.

    Returns the coefficient list of the degree d*e form sum c_i A^i B^(d-i).
    """
    d = len(coeffs) - 1
    pow_a = [[1]]
    pow_b = [[1]]
    for _ in range(d):
        pow_a.append(poly_mul(pow_a[-1], a))
        pow_b.append(poly_mul(pow_b[-1], b))
    size = d * (len(a) - 1) + 1
    out = [0] * size
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        term = poly_mul(pow_a[i], pow_b[d - i])
        for k, t in enumerate(term):
            out[k] += c * t
    return out


def content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    return g


def int_root_floor(n: int, e: int) -> int:
    """floor(n^(1/e)) for an int n >= 0 and e >= 1, by integer Newton."""
    if n < 2:
        return n
    # from 2^ceil(bits / e) >= n^(1/e) the iteration descends to the floor
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


# The helpers below read a coefficient list as a univariate polynomial over
# Z, ascending powers; `primitive_int` is where integral Fractions from
# input parsing become integers.  Arithmetic modulo word-size primes,
# the prime loop of `poly_gcd` included, is in `modp`.

def poly_degree(c) -> int:
    d = len(c) - 1
    while d > 0 and not c[d]:
        d -= 1
    return d


def poly_trim(c):
    return list(c[: poly_degree(c) + 1])


def poly_deriv(c):
    return [i * c[i] for i in range(1, len(c))] or [0]


def poly_div_exact(a, b):
    """a / b over Z for integer a and b (ArithmeticError unless b divides a)."""
    a, b = list(a), poly_trim(b)
    q = [0] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        q[k] = a[k + len(b) - 1] // b[-1]
        for i, v in enumerate(b):
            a[k + i] -= q[k] * v
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def primitive_int(c):
    """Clear denominators and divide by content; keeps the leading sign."""
    if all(type(v) is int for v in c):
        ints = list(c)
    else:
        m = math.lcm(*(v.denominator for v in c))
        ints = [int(v * m) for v in c]
    g = content(ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def poly_gcd(a, b):
    """Primitive gcd over Z of integer a and b, with a positive leading
    coefficient, or [0], by Brown's modular algorithm (`modp.brown`).

    By Gauss's lemma it is also the gcd over Q, and it divides a and b
    exactly over Z.  The image at a prime not dividing gamma = gcd(lc a,
    lc b) is `gcd_mod` times gamma; a lift whose primitive part divides a
    and b is taken.
    """
    a, b = poly_trim(a), poly_trim(b)
    if not any(a) or not any(b):
        h = primitive_int(a if any(a) else b)
        return h if h[-1] >= 0 else [-v for v in h]
    gamma = math.gcd(a[-1], b[-1])

    def image(p):
        if gamma % p:
            return [v * gamma % p for v in gcd_mod(a, b, p)]

    def accept(h):
        h = primitive_int(h if h[-1] > 0 else [-v for v in h])
        try:
            poly_div_exact(a, h)
            poly_div_exact(b, h)
            return h
        except ArithmeticError:
            return None

    return brown(image, accept) or [1]


# ---------------------------------------------------------------------------
# Sylvester resultants and Bezout certificates
# ---------------------------------------------------------------------------

def _bareiss(m) -> int:
    """Fraction-free elimination of the n x (n + k) integer rows m, in place.

    Bareiss (Math. Comp. 22, 1968): below the diagonal of the leading n x n
    block everything becomes zero, every division is exact, and m[i][i] is
    the leading (i+1) x (i+1) minor of the row-permuted matrix, so
    m[n-1][n-1] is its determinant.  Returns the sign of the row permutation, or 0 when the
    determinant vanishes.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign if m[n - 1][n - 1] else 0


def _bareiss_det(rows) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [list(r) for r in rows]
    return _bareiss(m) * m[-1][-1]


def _bezout_system(f0, f1, extra: int = 0):
    """The 2d x 2d matrix M of the map (u, v) -> u f0 + v f1, plus `extra` zero columns.

    u and v run over the forms of degree d-1 (ascending, y = 1): column j
    holds x^j f0 and column d + j holds x^j f1.  M is the Sylvester matrix
    of two forms of formal degree d, transposed with the order of its rows
    and columns reversed, so det M = (-1)^d Res(f0, f1).
    """
    d = len(f0) - 1
    m = [[0] * (2 * d + extra) for _ in range(2 * d)]
    for j in range(d):
        for i, c in enumerate(f0):
            m[i + j][j] = c
        for i, c in enumerate(f1):
            m[i + j][d + j] = c
    return m


def sylvester_resultant(f0, f1) -> int:
    return (-1) ** (len(f0) - 1) * _bareiss_det(_bezout_system(f0, f1))


class BezoutCertificate(NamedTuple):
    """Cofactor forms certifying g0x*F0 + g1x*F1 = res*X^(2d-1) and the Y analogue.

    The cofactors have degree d-1; both identities are re-expanded and checked
    exactly at construction time, so holding a certificate is proof.
    """

    g0x: tuple
    g1x: tuple
    g0y: tuple
    g1y: tuple
    res: int


def bezout_certificate(f0, f1, res: int) -> BezoutCertificate:
    """Compute and verify cofactor forms for the two Bezout identities.

    The cofactors solve M (u, v) = res e_t for t = 2d-1 and t = 0 (M from
    `_bezout_system`).  One Bareiss elimination of M with both e_t appended
    gives det M, which must be +-res; back substitution then gives
    res M^-1 e_t = +-adj(M) e_t in exact integer division.
    """
    d = len(f0) - 1
    n = 2 * d
    m = _bezout_system(f0, f1, 2)
    m[n - 1][n] = m[0][n + 1] = 1
    det = _bareiss(m) * m[n - 1][n - 1]
    if det == 0:
        raise DegenerateMap("resultant vanished while solving for Bezout cofactors")
    if abs(det) != res:
        raise DegenerateMap("Bezout determinant differs from the resultant")
    out = []
    for col in (n, n + 1):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            acc = res * m[i][col] - sum(m[i][j] * x[j] for j in range(i + 1, n))
            x[i] = acc // m[i][i]
        out.append((tuple(x[:d]), tuple(x[d:])))
    (g0x, g1x), (g0y, g1y) = out
    cert = BezoutCertificate(g0x, g1x, g0y, g1y, res)
    _verify_certificate(f0, f1, cert)
    return cert


def _verify_certificate(f0, f1, cert: BezoutCertificate) -> None:
    d = len(f0) - 1
    e = 2 * d - 1
    for gs, target_idx in (((cert.g0x, cert.g1x), e), ((cert.g0y, cert.g1y), 0)):
        total = [0] * (e + 1)
        for g, f in zip(gs, (f0, f1)):
            prod = poly_mul(list(g), list(f))
            for i, c in enumerate(prod):
                total[i] += c
        expect = [0] * (e + 1)
        expect[target_idx] = cert.res
        if total != expect:
            raise DegenerateMap("Bezout identity failed exact verification")


# ---------------------------------------------------------------------------
# rational map lifts
# ---------------------------------------------------------------------------

class _Lift(NamedTuple):
    f0: tuple
    f1: tuple
    degree: int
    res: int


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class RationalMapLift(_Lift):
    """Homogeneous lift (F0, F1) of a rational self-map of P^1.

    Coefficient tuples are jointly content-normalized with a canonical joint
    sign (the top nonzero coefficient of F0 positive, falling back to F1).
    res caches the nonzero Sylvester resultant, so every constructed lift is
    a morphism.  The instance dict holds only the cached `float_forms`, and
    is read-only like the fields.
    """

    __setattr__ = __delattr__ = _read_only

    @classmethod
    def make(cls, f0, f1, res: int | None = None) -> "RationalMapLift":
        f0 = tuple(int(c) for c in f0)
        f1 = tuple(int(c) for c in f1)
        if len(f0) != len(f1) or len(f0) < 2:
            raise DegenerateMap("lift components must share a degree >= 1")
        d = len(f0) - 1
        g = math.gcd(content(f0), content(f1))
        if g == 0:
            raise DegenerateMap("zero lift")
        scaled = g > 1
        if scaled:
            f0 = tuple(c // g for c in f0)
            f1 = tuple(c // g for c in f1)
        lead = next((c for c in reversed(f0) if c != 0), 0) or \
            next(c for c in reversed(f1) if c != 0)
        if lead < 0:
            f0 = tuple(-c for c in f0)
            f1 = tuple(-c for c in f1)
        if res is None:
            res = sylvester_resultant(f0, f1)
        elif scaled:
            q, r = divmod(res, g ** (2 * d))
            if r != 0:
                raise DegenerateMap("cached resultant inconsistent with content")
            res = q
        res = abs(res)
        if res == 0:
            raise DegenerateMap("resultant is zero: F0 and F1 share a projective root")
        return cls(f0, f1, d, res)

    def certificate(self) -> BezoutCertificate:
        return _certificate_cached(self.f0, self.f1, self.res)

    @cached_property
    def float_forms(self) -> tuple:
        """(F0, F1, e): the forms over one 2^e (`float_coefficients`), kept after first use."""
        floats, e = float_coefficients(self.f0 + self.f1)
        return tuple(floats[:self.degree + 1]), tuple(floats[self.degree + 1:]), e


@lru_cache(maxsize=256)
def _certificate_cached(f0, f1, res):
    return bezout_certificate(f0, f1, res)


def evaluate(F: RationalMapLift, p: ProjectivePoint) -> ProjectivePoint:
    """Exact image of a rational point; the resultant guarantees a nonzero pair."""
    x0 = form_eval(F.f0, p.x, p.y)
    x1 = form_eval(F.f1, p.x, p.y)
    return ProjectivePoint(x0, x1)


def evaluate_cpoint(F: RationalMapLift, p: CPoint) -> CPoint:
    return CPoint(*(form_eval(f, p.x, p.y) for f in F.float_forms[:2]))


def compose(F: RationalMapLift, G: RationalMapLift) -> RationalMapLift:
    """Lift of f∘g; degree multiplies, content renormalized, resultant by multiplicativity."""
    a = list(G.f0)
    b = list(G.f1)
    h0 = form_compose(F.f0, a, b)
    h1 = form_compose(F.f1, a, b)
    biggest = max(abs(c) for c in h0 + h1)
    check_cap(biggest, DEFAULT_DIGIT_CAP)
    # Res(F∘G) = Res(F)^deg(G) * Res(G)^(deg(F)^2); make() divides out the
    # content power when the composed pair is not primitive.
    res = F.res ** G.degree * G.res ** (F.degree ** 2)
    return RationalMapLift.make(h0, h1, res=res)


def iterate_lift(F: RationalMapLift, n: int) -> RationalMapLift:
    """Lift of the n-th iterate (n >= 1)."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    out = F
    for _ in range(n - 1):
        out = compose(F, out)
    return out


# ---------------------------------------------------------------------------
# JSON interface: {"num": [...], "den": [...]} with rationals as "p/q" strings
# ---------------------------------------------------------------------------

def coefficient_from_json(c) -> int | Fraction:
    """A JSON coefficient (number or "p/q" string) as an int or a Fraction,
    else ValueError.  An int that is not a bool, and a string of an optional
    sign and ASCII digits, are ints; every other input is parsed by Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, str):
        digits = c[1:] if c[:1] in ("+", "-") else c
        if digits.isascii() and digits.isdigit():
            return int(c)
    try:
        return Fraction(str(c))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} has a zero denominator") from None


def map_from_json(obj) -> RationalMapLift:
    """Build a lift from the affine numerator/denominator JSON description."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not (isinstance(obj, dict) and isinstance(obj.get("num"), list)
            and isinstance(obj.get("den", []), list)):
        raise ValueError('a map is a JSON object {"num": [...], "den": [...]} '
                         "of coefficient lists")
    num = [coefficient_from_json(c) for c in obj["num"]]
    den = [coefficient_from_json(c) for c in obj.get("den", [1])]
    coeffs = primitive_int(num + den)
    inum, iden = coeffs[:len(num)], coeffs[len(num):]
    d = max(len(inum), len(iden)) - 1
    f0 = inum + [0] * (d + 1 - len(inum))
    f1 = iden + [0] * (d + 1 - len(iden))
    return RationalMapLift.make(f0, f1)


def load_map(path) -> RationalMapLift:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_json(json.load(fh))
