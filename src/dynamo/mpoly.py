"""Exact elimination for curve pushforwards, plus a small multivariate toolkit.

resultant_formal computes the eliminant r2(u, s) of a plane curve under a
split map (f, g) by dense modular elimination (Collins 1971; Monagan 2005).
For each 31-bit prime it evaluates r2 mod p on a grid of (deg g * d1 + 1) x
(deg f * d2 + 1) points, as a product of the curve over pairs of roots
computed by numpy int64 determinants of companion-matrix Kronecker sums, and
interpolates.  Reduction mod p commutes with the Sylvester determinants, so
every prime gives r2 mod p exactly; there are no unlucky primes, only grid
points where a leading coefficient vanishes, and a prime with one of those is
skipped.  eliminant_bound_sq bounds every coefficient of r2 by B from the
input norms (Hadamard's inequality on the torus), so primes are added until
their product M exceeds 2B: the residues then fix each coefficient in
(-M/2, M/2), and the symmetric CRT lift is r2 itself.  The prime count is
about log2(2B) / 31, fixed before any prime is tried; nothing stops early
because results look stable.

Polynomials for the rest are MPoly dicts mapping fixed-arity exponent tuples
to nonzero int coefficients.  bivar_squarefree certifies squarefree images
from one-prime checks of degree-preserving specializations and reduces
uniform multiplicities by exact roots; primitive-PRS gcds are the exact
fallback for images with mixed repeated factors.  It is deliberately
minimal rather than a general CAS layer.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

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

    def coeff_list(self, idx: int):
        """Coefficients of powers of variable idx, as MPolys with that slot zeroed."""
        out = [dict() for _ in range(self.degree_in(idx) + 1)]
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
# curve eliminants by modular evaluation, interpolation and CRT
# ---------------------------------------------------------------------------

# 31-bit primes below 2^31, largest first, found on first use: products of
# two residues stay below 2^62, inside int64
_PRIMES: list[int] = []
# int64 entries per array in one block of grid points (1 MB), which bounds
# the working set of an elimination whatever the bidegree
_BLOCK = 1 << 17


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> int:
    """The (k+1)-th largest prime below 2^31."""
    n = _PRIMES[-1] if _PRIMES else (1 << 31) + 1
    while len(_PRIMES) <= k:
        n -= 2
        if _is_prime(n):
            _PRIMES.append(n)
    return _PRIMES[k]


def _pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _inv_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p of nonzero residues.

    Fermat's x^(p-2) is about 90 numpy calls whatever the size, which is
    the cost of some 60 scalar inverses by Python's pow: short arrays take
    the scalar path.
    """
    if x.size > 64:
        return _pow_mod(x, p - 2, p)
    return np.array([pow(v, -1, p) for v in x.ravel().tolist()],
                    dtype=np.int64).reshape(x.shape)


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for entries in [0, p): A is split into 16-bit halves so
    that no int64 sum overflows (inner dimension below 2^15)."""
    return ((A >> 16) @ B % p * 65536 + (A & 0xFFFF) @ B) % p


def _det_mod(E: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices (entries in [0, p)).

    Division-free elimination with per-matrix row swaps; the row scalings
    are divided out by one inverse at the end.
    """
    n = E.shape[-1]
    E = E.copy()
    rows = np.arange(len(E))
    num = np.ones(len(E), dtype=np.int64)
    den = np.ones(len(E), dtype=np.int64)
    for k in range(n):
        r = k + (E[:, k:, k] != 0).argmax(axis=1)
        swap = r != k
        if swap.any():
            i, j = rows[swap], r[swap]
            top = E[i, k].copy()
            E[i, k] = E[i, j]
            E[i, j] = top
            num[i] = (p - num[i]) % p
        piv = E[:, k, k].copy()
        num[piv == 0] = 0  # no pivot in this column: singular
        piv[piv == 0] = 1
        num = num * piv % p
        if k + 1 < n:
            E[:, k + 1:, k:] = (E[:, k + 1:, k:] * piv[:, None, None]
                                - E[:, k + 1:, k, None] * E[:, None, k, k:]) % p
            den = den * _pow_mod(piv, n - k - 1, p) % p
    return num * _inv_mod(den, p) % p


def _grid(count: int, lift) -> np.ndarray:
    """The first `count` integers t >= 0 at which f0 - t f1 keeps its degree."""
    top0, top1 = lift[0][-1], lift[1][-1]
    if top0 == 0 and top1 == 0:
        raise ValueError("f0 and f1 both drop their formal degree")
    out = []
    t = 0
    while len(out) < count:
        if top0 != t * top1:
            out.append(t)
        t += 1
    return np.array(out, dtype=np.int64)


def _companion_powers(lift, ts: np.ndarray, top: int, p: int):
    """N_t^i (i = 0..top) for the companion matrix N_t of (f0 - t f1) / lc,
    with the leading coefficients lc; None when some lc vanishes mod p."""
    f0 = np.array([c % p for c in lift[0]], dtype=np.int64)
    f1 = np.array([c % p for c in lift[1]], dtype=np.int64)
    a = len(f0) - 1
    forms = (f0[None, :] - ts[:, None] * f1[None, :]) % p
    lc = forms[:, a]
    if not lc.all():
        return None
    monic = forms[:, :a] * _inv_mod(lc, p)[:, None] % p
    N = np.zeros((len(ts), a, a), dtype=np.int64)
    N[:, 1:, :-1] = np.eye(a - 1, dtype=np.int64)
    N[:, :, a - 1] = (p - monic) % p
    powers = np.empty((len(ts), top + 1, a, a), dtype=np.int64)
    powers[:, 0] = np.eye(a, dtype=np.int64)
    for i in range(1, top + 1):
        powers[:, i] = _matmul_mod(powers[:, i - 1], N, p)
    return powers, lc


def _interpolation_matrix(points: np.ndarray, p: int) -> np.ndarray:
    """L with L[k, m] the t^m coefficient of the k-th Lagrange basis mod p.

    With w = prod_j (t - x_j), the k-th basis is (w / (t - x_k)) / w'(x_k).
    """
    n = len(points)
    x = points % p
    w = np.zeros(n + 1, dtype=np.int64)
    w[0] = 1
    for xj in x:
        w = (np.concatenate(([0], w[:-1])) - xj * w) % p
    num = np.empty((n, n), dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for i in range(n, 0, -1):  # synthetic division by t - x_k, all k at once
        acc = (w[i] + acc * x) % p
        num[:, i - 1] = acc
    dw = np.zeros(n, dtype=np.int64)
    for i in range(n, 0, -1):  # w'(x_k) by Horner
        dw = (dw * x + i * w[i]) % p
    return num * _inv_mod(dw, p)[:, None] % p


def eliminant_bound_sq(C, F, G) -> int:
    """B^2 for a bound B on every coefficient of resultant_formal(C, F, G).

    On |u| = |s| = 1 Hadamard's inequality bounds both Sylvester
    determinants by their row norms; the coefficient vectors of C in x1
    (at |x2| = 1), of f0 - u f1 and of g0 - s g1 have squared 2-norms at
    most nc, nf and ng below, and a coefficient of r2 is at most its
    maximum on that torus (Cauchy).
    """
    d1, d2 = len(C) - 1, len(C[0]) - 1
    a, b = len(F[0]) - 1, len(G[0]) - 1
    nc = sum(sum(abs(c) for c in row) ** 2 for row in C)
    nf = sum((abs(x) + abs(y)) ** 2 for x, y in zip(*F))
    ng = sum((abs(x) + abs(y)) ** 2 for x, y in zip(*G))
    return nc ** (a * b) * nf ** (b * d1) * ng ** (a * d2)


def _eliminant_mod(C, F, G, us: np.ndarray, ss: np.ndarray, p: int):
    """Coefficients of r2 mod p, or None when a grid point is bad mod p.

    At each grid point r2(u, s) = (-1)^(ab(d1+d2)) lc(F_u)^(b d1)
    lc(G_s)^(a d2) det C(N_u (x) I, I (x) M_s), N_u and M_s the companion
    matrices of F_u = f0 - u f1 and G_s = g0 - s g1: the determinant is the
    product of C over the pairs of their roots.
    """
    d1, d2 = len(C) - 1, len(C[0]) - 1
    a, b = len(F[0]) - 1, len(G[0]) - 1
    nu = _companion_powers(F, us, d1, p)
    ms = _companion_powers(G, ss, d2, p)
    if nu is None or ms is None:
        return None
    (Npow, lc_f), (Mpow, lc_g) = nu, ms
    U, S = len(us), len(ss)
    cmod = np.array([[c % p for c in row] for row in C], dtype=np.int64)
    # W[i] = sum_j c_ij M_s^j, laid out (i, (s, l, l'))
    W = _matmul_mod(cmod, Mpow.transpose(1, 0, 2, 3).reshape(d2 + 1, S * b * b), p)
    A = Npow.transpose(0, 2, 3, 1).reshape(U * a * a, d1 + 1)
    det = np.empty((U, S), dtype=np.int64)
    step = max(1, _BLOCK // (a * a * S * b * b))
    for u0 in range(0, U, step):
        u1 = min(U, u0 + step)
        # sum_i N_u^i (x) W[i], rows and columns ordered (k, l)
        E = _matmul_mod(A[u0 * a * a:u1 * a * a], W, p)
        E = E.reshape(u1 - u0, a, a, S, b, b).transpose(0, 3, 1, 4, 2, 5)
        det[u0:u1] = _det_mod(E.reshape(-1, a * b, a * b), p).reshape(u1 - u0, S)
    vals = det * _pow_mod(lc_f, b * d1, p)[:, None] % p
    vals = vals * _pow_mod(lc_g, a * d2, p)[None, :] % p
    if a * b * (d1 + d2) % 2:
        vals = (p - vals) % p
    Lu = _interpolation_matrix(us, p)
    Ls = _interpolation_matrix(ss, p)
    return _matmul_mod(_matmul_mod(Lu.T, vals, p), Ls, p)


def resultant_formal(C, F, G) -> list:
    """The eliminant of the curve C(x1, x2) = 0 under (f, g), exactly.

    C[i][j] is the coefficient of x1^i x2^j (formal bidegree (d1, d2)); F =
    (f0, f1) and G = (g0, g1) are lifts of formal degrees a and b.  Returns
    R with R[k][l] the coefficient of u^k s^l in

        r2(u, s) = Res_x2^(a d2, b)(Res_x1^(d1, a)(C, f0 - u f1), g0 - s g1),

    the Sylvester determinants taken at those formal degrees, so r2 has
    bidegree at most (b d1, a d2) and vanishes exactly on the image.
    Each prime p gives r2 mod p from its values on a grid of
    (b d1 + 1) x (a d2 + 1) points, interpolated; primes are added until
    their product exceeds twice the bound of eliminant_bound_sq, and the
    symmetric CRT lift is then r2 itself.
    """
    d1, d2 = len(C) - 1, len(C[0]) - 1
    a, b = len(F[0]) - 1, len(G[0]) - 1
    us = _grid(b * d1 + 1, F)
    ss = _grid(a * d2 + 1, G)
    need = 4 * eliminant_bound_sq(C, F, G)
    residues, primes, modulus = [], [], 1
    k = 0
    while modulus * modulus <= need:
        p = _prime(k)
        k += 1
        vals = _eliminant_mod(C, F, G, us, ss, p)
        if vals is not None:
            residues.append(vals)
            primes.append(p)
            modulus *= p
    acc = 0
    for vals, p in zip(residues, primes):
        rest = modulus // p
        acc = acc + vals.astype(object) * (rest * pow(rest, -1, p))
    acc = acc % modulus
    half = modulus // 2
    return [[v - modulus if v > half else v for v in row] for row in acc.tolist()]


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
    # integer Newton from 2^ceil(bits / e) >= n^(1/e) descends to floor(n^(1/e))
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            break
        x = y
    return x if x**e == n else None


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


def _squarefree_mod(c: list, p: int) -> bool:
    """True when gcd(c, c') is constant mod p (c of degree below p)."""
    a = [v % p for v in c]
    b = [i * v % p for i, v in enumerate(a)][1:]
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a := a mod b
            q = a[-1] * inv % p
            if q:
                shift = len(a) - len(b)
                for i, v in enumerate(b):
                    a[shift + i] = (a[shift + i] - q * v) % p
            a.pop()
        a, b = b, a
    return len(a) == 1


def _specialized_multiplicities(P: MPoly, keep: int, other: int):
    """Yun multiplicities of P specialized at a degree-preserving point.

    Returns the sorted multiplicity set, or None if no good specialization
    was found among small integers.  A specialization that keeps its degree
    and is squarefree mod one prime is squarefree over Q (a square factor
    over Z would survive the reduction), so Yun over Q runs only when that
    check fails.
    """
    d = P.degree_in(keep)
    for s0 in (2, 3, 5, 7, 11, 13, -2, -3, 17, 19):
        spec = P.substitute({other: s0})
        coeffs = [0] * (d + 1)
        for e_, c in spec.terms.items():
            coeffs[e_[keep]] += c
        if coeffs[d] == 0:
            continue
        p = _prime(0)
        if coeffs[d] % p and _squarefree_mod(coeffs, p):
            return [1]
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
