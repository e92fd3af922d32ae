"""Small exact multivariate polynomial toolkit over the integers.

Polynomials are dicts mapping fixed-arity exponent tuples to nonzero int
coefficients.  This backs the elimination machinery (pseudo-Euclidean
resultants with formal-degree bookkeeping, primitive-PRS gcds, squarefree
reduction); it is deliberately minimal rather than a general CAS layer.
"""

from __future__ import annotations

import math
from itertools import repeat

from .projective import poly_prem, poly_trim
from .roots import yun_squarefree


class MPoly:
    """Integer multivariate polynomial with a fixed number of variables."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict | None = None):
        self.arity = arity
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MPoly":
        return cls(arity)

    @classmethod
    def const(cls, arity: int, c: int) -> "MPoly":
        return cls(arity, {tuple(repeat(0, arity)): int(c)}) if c else cls(arity)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.arity == other.arity \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MPoly({self.arity}, {dict(sorted(self.terms.items()))})"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.arity, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MPoly(self.arity, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, int):
            return MPoly(self.arity, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        out = MPoly.const(self.arity, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------------

    def degree_in(self, idx: int) -> int:
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def coeff_list(self, idx: int, formal: int | None = None):
        """Coefficients of powers of variable idx, as MPolys with that slot zeroed."""
        d = self.degree_in(idx)
        top = d if formal is None else formal
        out = [dict() for _ in range(top + 1)]
        for e, c in self.terms.items():
            k = e[idx]
            e0 = list(e)
            e0[idx] = 0
            out[k][tuple(e0)] = c
        return [MPoly(self.arity, t) for t in out]

    @classmethod
    def from_coeff_list(cls, coeffs, idx: int) -> "MPoly":
        arity = coeffs[0].arity
        out: dict = {}
        for k, p in enumerate(coeffs):
            for e, c in p.terms.items():
                e2 = list(e)
                e2[idx] += k
                key = tuple(e2)
                out[key] = out.get(key, 0) + c
        return cls(arity, out)

    def derivative(self, idx: int) -> "MPoly":
        out: dict = {}
        for e, c in self.terms.items():
            if e[idx]:
                e2 = list(e)
                e2[idx] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[idx]
        return MPoly(self.arity, out)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, abs(c))
        return g

    def primitive(self) -> "MPoly":
        g = self.content()
        if g <= 1:
            return self
        return MPoly(self.arity, {e: c // g for e, c in self.terms.items()})

    def substitute(self, values: dict[int, int]) -> "MPoly":
        """Substitute integers for some variable slots (exact)."""
        out: dict = {}
        for e, c in self.terms.items():
            val = c
            e2 = list(e)
            for idx, v in values.items():
                val *= v ** e[idx]
                e2[idx] = 0
            key = tuple(e2)
            out[key] = out.get(key, 0) + val
        return MPoly(self.arity, out)

    def _lead(self):
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Exact quotient self / other; raises ArithmeticError when not divisible."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return MPoly(self.arity)
        rem = MPoly(self.arity, dict(self.terms))
        out: dict = {}
        le, lc = other._lead()
        while not rem.is_zero:
            re, rc = rem._lead()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(v < 0 for v in qe) or rc % lc != 0:
                raise ArithmeticError("not exactly divisible")
            qc = rc // lc
            out[qe] = out.get(qe, 0) + qc
            rem = rem - MPoly(self.arity, {qe: qc}) * other
        return MPoly(self.arity, out)


# ---------------------------------------------------------------------------
# pseudo-Euclidean resultants with formal degrees
# ---------------------------------------------------------------------------

def resultant_formal(P, Q, m: int, n: int) -> MPoly:
    """Resultant of coefficient lists with formal degrees m and n.

    Zero top coefficients are honored through the formal-degree correction
    Res_{m,n}(P,Q) = (-1)^(n (m - p)) lc(Q)^(m - p) Res_{p,n}(P,Q) for the
    actual degree p; equivalent to the Sylvester determinant on padded lists.
    """
    arity = (P[0] if P else Q[0]).arity
    P = list(P) + [MPoly.zero(arity)] * (m + 1 - len(P))
    Q = list(Q) + [MPoly.zero(arity)] * (n + 1 - len(Q))
    return _res(P[: m + 1], Q[: n + 1], m, n)


def _res(P, Q, m: int, n: int) -> MPoly:
    arity = P[0].arity
    Pt = poly_trim(P)
    Qt = poly_trim(Q)
    p_act = -1 if (len(Pt) == 1 and Pt[0].is_zero) else len(Pt) - 1
    q_act = -1 if (len(Qt) == 1 and Qt[0].is_zero) else len(Qt) - 1
    if p_act < 0 or q_act < 0:
        if m == 0 and n == 0:
            return MPoly.const(arity, 1)
        return MPoly.zero(arity)
    if m == 0:
        return Pt[0] ** n
    if n == 0:
        return Qt[0] ** m
    if p_act < m:
        if q_act < n:
            return MPoly.zero(arity)  # both top coefficients vanish: shared root at infinity
        sign = -1 if (n * (m - p_act)) % 2 else 1
        return sign * (Qt[n] ** (m - p_act)) * _res(Pt, Qt, p_act, n)
    if q_act < n or m < n:
        sign = -1 if (m * n) % 2 else 1
        return sign * _res(Q, P, n, m)
    # actual degrees equal the formal ones and m >= n >= 1
    lq = Qt[n]
    R = poly_prem(Pt, Qt)
    if len(R) == 1 and R[0].is_zero:
        return MPoly.zero(arity)
    r = len(R) - 1
    if r == 0:
        sub = R[0] ** n
    elif r == 1:
        # Res(Q, r1 x + r0) = sum q_k (-r0)^k r1^(n-k)
        acc = MPoly.zero(arity)
        for k in range(n + 1):
            acc = acc + Qt[k] * ((-R[0]) ** k) * (R[1] ** (n - k))
        sub = acc
    else:
        sub = _res(Qt, R, n, r)
    e = m - r - n * (m - n + 1)
    sign = -1 if (m * n) % 2 else 1
    if e >= 0:
        return sign * (lq ** e) * sub
    return sign * sub.exact_div(lq ** (-e))


# ---------------------------------------------------------------------------
# gcds and squarefree parts (primitive PRS)
# ---------------------------------------------------------------------------

def _mp_content_in(P: MPoly, idx: int, other_vars: list[int]) -> MPoly:
    """Content of P viewed as univariate in idx: gcd of its coefficients."""
    unit = MPoly.const(P.arity, 1)
    g = MPoly.zero(P.arity)
    for c in P.coeff_list(idx):
        if c.is_zero:
            continue
        g = c.primitive() if g.is_zero else mp_gcd(g, c, other_vars)
        if g == unit:
            break
    return g


def mp_gcd(A: MPoly, B: MPoly, vars_order: list[int]) -> MPoly:
    """Multivariate gcd by primitive PRS along vars_order; primitive output.

    vars_order lists the variable slots that may occur; gcd of integer
    contents is preserved up to sign only (the result is primitive).
    """
    if A.is_zero:
        return B.primitive()
    if B.is_zero:
        return A.primitive()
    if not vars_order:
        g = math.gcd(A.content(), B.content())
        return MPoly.const(A.arity, g)
    idx = vars_order[0]
    rest = vars_order[1:]
    da, db = A.degree_in(idx), B.degree_in(idx)
    if da == 0 and db == 0:
        return mp_gcd(A, B, rest)
    if da < db:
        A, B = B, A
        da, db = db, da
    cont_a = _mp_content_in(A, idx, rest)
    cont_b = _mp_content_in(B, idx, rest)
    cont = mp_gcd(cont_a, cont_b, rest)
    Ap = _mp_div_all(A, cont_a, idx)
    Bp = _mp_div_all(B, cont_b, idx)
    # primitive PRS on the primitive parts
    P = Ap.coeff_list(idx)
    Q = Bp.coeff_list(idx)
    while True:
        Q = poly_trim(Q)
        if len(Q) == 1 and Q[0].is_zero:
            g_list = poly_trim(P)
            G = MPoly.from_coeff_list(g_list, idx)
            Gc = _mp_content_in(G, idx, rest)
            G = _mp_div_all(G, Gc, idx)
            return (G * cont).primitive()
        P = poly_trim(P)
        if len(P) - 1 < len(Q) - 1:
            P, Q = Q, P
            continue
        R = poly_prem(P, Q)
        R_mp = MPoly.from_coeff_list(R, idx)
        if not R_mp.is_zero:
            rc = _mp_content_in(R_mp, idx, rest)
            R_mp = _mp_div_all(R_mp, rc, idx)
        P, Q = Q, R_mp.coeff_list(idx) if not R_mp.is_zero else [MPoly.zero(A.arity)]


def _mp_div_all(P: MPoly, D: MPoly, idx: int) -> MPoly:
    if D.is_zero or D == MPoly.const(P.arity, 1):
        return P
    try:
        return P.exact_div(D)
    except ArithmeticError:
        # contents computed up to sign; try the negation before giving up
        return P.exact_div(-D)


def squarefree_part(P: MPoly, vars_order: list[int]) -> MPoly:
    """P divided by gcd(P, dP/dx_i over all i): repeated factors reduced to one."""
    if P.is_zero:
        return P
    g = P
    for idx in vars_order:
        d = P.derivative(idx)
        if d.is_zero:
            continue
        g = mp_gcd(g, d, vars_order)
        if all(g.degree_in(i) <= 0 for i in vars_order):
            return P.primitive()
    if g == P:  # every partial vanished: P is constant in vars_order
        return P.primitive()
    try:
        return P.exact_div(g).primitive()
    except ArithmeticError:
        return P.exact_div(-g).primitive()


# ---------------------------------------------------------------------------
# fast certified squarefree for bivariate forms (elimination post-processing)
# ---------------------------------------------------------------------------

def int_nth_root(n: int, e: int) -> int | None:
    """Exact integer e-th root of n, or None; negative n allowed for odd e."""
    if n < 0:
        if e % 2 == 0:
            return None
        r = int_nth_root(-n, e)
        return None if r is None else -r
    if n in (0, 1):
        return n
    r = round(n ** (1.0 / e))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**e == n:
            return cand
    # float guess can be off for big integers; bisect
    lo, hi = 1, 1 << (n.bit_length() // e + 2)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid**e
        if v == n:
            return mid
        if v < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def mp_nth_root(P: MPoly, e: int, vars_order: list[int]) -> MPoly | None:
    """Exact e-th root of P over Z, or None; verified by re-expansion."""
    if e == 1:
        return P
    if P.is_zero:
        return P
    if not vars_order or all(P.degree_in(i) <= 0 for i in vars_order):
        c = P.terms.get(tuple([0] * P.arity), None)
        if c is None:
            return None
        r = int_nth_root(c, e)
        return None if r is None else MPoly.const(P.arity, r)
    idx = next(i for i in vars_order if P.degree_in(i) > 0)
    rest = [i for i in vars_order if i != idx]
    m = P.degree_in(idx)
    if m % e:
        return None
    big_m = m // e
    coeffs = P.coeff_list(idx)
    lead = mp_nth_root(coeffs[m], e, rest)
    if lead is None:
        return None
    root = [MPoly.zero(P.arity) for _ in range(big_m + 1)]
    root[big_m] = lead
    denom = e * lead ** (e - 1)
    R = MPoly.from_coeff_list(root, idx)
    for k in range(1, big_m + 1):
        diff = P - R**e
        if diff.is_zero:
            break
        want = e * big_m - k
        dcoeffs = diff.coeff_list(idx)
        if len(dcoeffs) - 1 > want and any(not c.is_zero for c in dcoeffs[want + 1:]):
            return None
        num = dcoeffs[want] if want < len(dcoeffs) else MPoly.zero(P.arity)
        if num.is_zero:
            continue
        try:
            r_k = num.exact_div(denom)
        except ArithmeticError:
            return None
        root[big_m - k] = r_k
        R = MPoly.from_coeff_list(root, idx)
    if R**e == P:
        return R
    return None


def _specialized_multiplicities(P: MPoly, keep: int, other: int):
    """Yun multiplicities of P specialized at a degree-preserving point.

    Returns the sorted multiplicity set, or None if no good specialization
    was found among small integers.
    """
    d = P.degree_in(keep)
    for s0 in (2, 3, 5, 7, 11, 13, -2, -3, 17, 19):
        spec = P.substitute({other: s0})
        coeffs = [0] * (d + 1)
        for e_, c in spec.terms.items():
            coeffs[e_[keep]] += c
        if coeffs[d] == 0:
            continue
        parts = yun_squarefree(coeffs)
        return sorted({mult for _, mult in parts}) or [1]
    return None


def bivar_squarefree(P: MPoly, vu: int, vs: int) -> MPoly:
    """Squarefree part of a bivariate polynomial, certified cheaply.

    A squarefree degree-preserving specialization in each direction proves
    gcd(P, P_u, P_s) is constant (specialization cannot raise degrees).
    Uniform multiplicity e reduces to a verified exact e-th root.  Mixed
    patterns fall back to the primitive-PRS gcd.
    """
    P = P.primitive()
    if P.degree_in(vu) <= 0 and P.degree_in(vs) <= 0:
        return P
    for _ in range(8):
        mults_u = _specialized_multiplicities(P, vu, vs) if P.degree_in(vu) > 0 else [1]
        mults_s = _specialized_multiplicities(P, vs, vu) if P.degree_in(vs) > 0 else [1]
        if mults_u is None or mults_s is None:
            break
        if mults_u == [1] and mults_s == [1]:
            return P
        e = 0
        for m in mults_u + mults_s:
            e = math.gcd(e, m)
        if e <= 1:
            break
        root = mp_nth_root(P, e, [vu, vs])
        if root is None and e % 2 == 0:
            root = mp_nth_root(-1 * P, e, [vu, vs])
        if root is None:
            break
        P = root.primitive()
        if P.degree_in(vu) <= 0 and P.degree_in(vs) <= 0:
            return P
    return squarefree_part(P, [vu, vs])
