"""Exact elimination and squarefree reduction for curve pushforwards.

resultant_formal computes the eliminant r2(u, s) of a plane curve under a
split map (f, g) by dense modular elimination (Collins 1971; Monagan 2005).
It evaluates r2 mod p on a grid of (deg g * d1 + 1) x (deg f * d2 + 1)
points, as a product of the curve over pairs of roots: norms from
F_p[x] / (f0 - u f1) and then F_p[x] / (g0 - s g1), each the determinant
of a multiplication matrix in numpy int64, and interpolates.  All the
31-bit primes it needs go through one batched pass: every residue array
leads with a prime axis, against which the `modp` helpers broadcast p.
Reduction mod p commutes with the Sylvester determinants, so every prime
gives r2 mod p exactly; there are no unlucky primes, only grid points where
a leading coefficient vanishes, and a prime with one of those is dropped.
eliminant_bound_sq bounds every coefficient of r2 by B from the input norms
(Hadamard's inequality on the torus), so the primes are the first ones
whose product M exceeds 2B: the residues then fix each coefficient in
(-M/2, M/2), and the symmetric CRT lift is r2 itself.  The prime count is
about log2(2B) / 31, fixed before any prime is tried; nothing stops early
because results look stable, so every prime of the batch is needed.

bivar_squarefree reduces the eliminant to its squarefree part on the same
dense integer matrix, in three stages.  The probe runs Yun's algorithm
modulo prime(0) (`modp.yun_mod`, on Python ints) on a degree-preserving
specialization in each direction, and modulo prime(1) too when the image
has mixed multiplicities.  A squarefree image whose leading coefficient is
a unit certifies that nothing is repeated; a repeated pattern is only a
guess, which the next two stages certify or overrule.  A uniform
multiplicity e is removed by an exact e-th root, taken on the univariate
image under u -> t^D, s -> t (D above the s-degree) and verified by
re-expansion.  Mixed multiplicities fall back to P / gcd(P, P_u, P_s), the
gcd over Z[s][u] by Brown's modular algorithm: `gcd_mod`s in u at points
s0, interpolated in s, lifted in the prime loop `modp.brown`.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import count, islice

import numpy as np

from .modp import (CrtLift, brown, det_mod, gcd_mod, interpolation_matrix, inv_mod,
                   matmul_mod, pow_mod, prime, yun_mod)
from .projective import (
    content,
    form_eval,
    int_root_floor,
    poly_deriv,
    poly_div_exact,
    poly_gcd,
    poly_mul,
    poly_trim,
)


# ---------------------------------------------------------------------------
# curve eliminants by modular evaluation, interpolation and CRT
# ---------------------------------------------------------------------------

# int64 entries per array in one block of primes and grid points (1 MB),
# which bounds the working set of an elimination whatever the bidegree and
# the prime count
_BLOCK = 1 << 17


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


def _x_multiples(v: np.ndarray, monic: np.ndarray, count: int, p) -> np.ndarray:
    """v, x v, ..., x^(count-1) v modulo x^a + sum_r monic_r x^r, stacked on a
    new last axis; v holds coefficients of 1, x, ..., x^(a-1) on its last
    axis, and monic and p broadcast against it."""
    out = [v]
    while len(out) < count:
        v = out[-1]
        shifted = np.zeros(v.shape, dtype=np.int64)
        shifted[..., 1:] = v[..., :-1]
        out.append((shifted - v[..., -1:] * monic) % p)
    return np.stack(out, axis=-1)


def _forms(lift, ts: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """The coefficients of f0 - t f1 mod p, laid out (prime, t, power of x)."""
    f = np.array([[[c % p for c in h] for h in lift] for p in ps.tolist()], dtype=np.int64)
    return (f[:, None, 0] - ts[:, None] * f[:, None, 1]) % ps[:, None, None]


def _x_powers(forms: np.ndarray, top: int, p: np.ndarray):
    """x^k (k = 0..top, last axis) modulo each form / lc, with the forms'
    monic low coefficients; p broadcasts against the forms, none of whose
    leading coefficients lc vanishes."""
    a = forms.shape[-1] - 1
    monic = forms[..., :a] * inv_mod(forms[..., a:], p) % p
    one = np.zeros(monic.shape, dtype=np.int64)
    one[..., 0] = 1
    return _x_multiples(one, monic, top + 1, p), monic


def _norm(v: np.ndarray, monic: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The product of v over the roots of the monic form: the determinant of
    multiplication by v, whose columns are the x^j v; p broadcasts against v."""
    return det_mod(_x_multiples(v, monic, v.shape[-1], p), p.reshape(p.shape[:-1]))


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


def _eliminant_mod(C, F, G, us: np.ndarray, ss: np.ndarray, ps: np.ndarray):
    """(kept, R): R[i] holds the coefficients of r2 mod kept[i], for the
    primes of ps at which no grid point is bad, all in one pass.

    At each grid point r2(u, s) = (-1)^(ab(d1+d2)) lc(F_u)^(b d1)
    lc(G_s)^(a d2) N_s(P_u), for F_u = f0 - u f1 and G_s = g0 - s g1, with
    N_u and N_s the norms (`_norm`) from F_p[x] modulo them: P_u(x2) =
    N_u(C(x, x2)) is the product of C(alpha, x2) over the roots alpha of
    F_u, of degree at most a d2, interpolated from its values at x2 in ss,
    and N_s(P_u) the product of C over the pairs of roots.  Every residue
    array leads with the prime axis, and p1, p2, p3 are the primes shaped
    to broadcast against arrays of 2, 3, 4 axes; one prime is a 0-d array,
    the operand that numpy broadcasts fastest.
    """
    d1, d2 = len(C) - 1, len(C[0]) - 1
    a, b = len(F[0]) - 1, len(G[0]) - 1
    ff, gf = _forms(F, us, ps), _forms(G, ss, ps)
    if not (ff[..., a].all() and gf[..., b].all()):  # a leading coefficient vanishes
        good = ff[..., a].all(axis=1) & gf[..., b].all(axis=1)
        ps, ff, gf = ps[good], ff[good], gf[good]
        if not len(ps):
            return ps, []
    p1, p2, p3 = ((ps.reshape((-1,) + (1,) * k) for k in (1, 2, 3)) if len(ps) > 1
                  else [ps.reshape(())] * 3)
    (xu, monic_f), (xs, monic_g) = _x_powers(ff, d1, p2), _x_powers(gf, a * d2, p2)
    U, S = len(us), len(ss)
    Ls = interpolation_matrix(ss, p1)
    Lu = Ls if len(us) == len(ss) and (us == ss).all() else interpolation_matrix(us, p1)
    Cp = (np.array(C, dtype=object) % ps.astype(object)[:, None, None]).astype(np.int64)
    cx = np.zeros((len(ps), d1 + 1, S), dtype=np.int64)  # sum_j c_ij x2^j at x2 in ss
    for j in range(d2, -1, -1):
        cx = (cx * ss + Cp[:, :, j, None]) % p2
    A = xu.reshape(len(ps), U * a, d1 + 1)
    # Ls then x powers mod G_s: from the values of P_u at ss to P_u(x) mod
    # each G_s, laid out (prime, value, s and power of x)
    LB = matmul_mod(Ls, xs.transpose(0, 3, 1, 2).reshape(len(ps), a * d2 + 1, S * b), p2)
    det = np.empty((len(ps), U, S), dtype=np.int64)
    step = max(1, _BLOCK // (len(ps) * S * (a * a + b * b)))
    for u0 in range(0, U, step):
        u1 = min(U, u0 + step)
        # C(x, x2) mod F_u at x2 in ss, laid out (prime, u, x2, power of x)
        P = matmul_mod(A[:, u0 * a:u1 * a], cx, p2).reshape(-1, u1 - u0, a, S)
        P = _norm(P.transpose(0, 1, 3, 2), monic_f[:, u0:u1, None, :], p3)
        # P_u(x) mod G_s, laid out (prime, u, s, power of x)
        Q = matmul_mod(P, LB, p2).reshape(-1, u1 - u0, S, b)
        det[:, u0:u1] = _norm(Q, monic_g[:, None, :, :], p3)
    vals = det * pow_mod(ff[..., a], b * d1, p1)[:, :, None] % p2
    vals = vals * pow_mod(gf[..., b], a * d2, p1)[:, None, :] % p2
    if a * b * (d1 + d2) % 2:
        vals = (p2 - vals) % p2
    return ps, matmul_mod(matmul_mod(Lu.swapaxes(-1, -2), vals, p2), Ls, p2)


def resultant_formal(C, F, G) -> list:
    """The eliminant of the curve C(x1, x2) = 0 under (f, g), exactly.

    C[i][j] is the coefficient of x1^i x2^j (formal bidegree (d1, d2)); F =
    (f0, f1) and G = (g0, g1) are lifts of formal degrees a and b.  Returns
    R with R[k][l] the coefficient of u^k s^l in

        r2(u, s) = Res_x2^(a d2, b)(Res_x1^(d1, a)(C, f0 - u f1), g0 - s g1),

    the Sylvester determinants taken at those formal degrees, so r2 has
    bidegree at most (b d1, a d2) and vanishes exactly on the image.
    The bound of eliminant_bound_sq fixes the primes before any work: the
    next primes whose product, with the lift's, exceeds twice the bound.
    One `_eliminant_mod` pass evaluates them all, on a grid of
    (b d1 + 1) x (a d2 + 1) points, and interpolates; _BLOCK splits the
    primes into chunks only when one grid for each would not fit.  Primes
    with a bad grid point drop out, and a further batch makes up for them.
    The symmetric CRT lift is then r2 itself.
    """
    d1, d2 = len(C) - 1, len(C[0]) - 1
    a, b = len(F[0]) - 1, len(G[0]) - 1
    us = _grid(b * d1 + 1, F)
    ss = _grid(a * d2 + 1, G)
    need = 4 * eliminant_bound_sq(C, F, G)
    # int64 entries per prime in one pass: its largest grid array (x powers
    # or interpolation matrix), or one grid row of norm matrices
    U, S = len(us), len(ss)
    chunk = max(1, _BLOCK // max(U * a * (d1 + 1), S * b * (a * d2 + 1), U * U,
                                 S * (a * a + b * b)))
    lift, primes = CrtLift(), map(prime, count())
    while lift.modulus * lift.modulus <= need:
        batch, modulus = [], lift.modulus
        while modulus * modulus <= need:
            batch.append(next(primes))
            modulus *= batch[-1]
        size = -(-len(batch) // -(-len(batch) // chunk))  # equal chunks of at most chunk
        for k in range(0, len(batch), size):
            ps = np.array(batch[k:k + size], dtype=np.int64)
            kept, vals = _eliminant_mod(C, F, G, us, ss, ps)
            for p, v in zip(kept.tolist(), vals):
                lift.add(v, p)
    return lift.read()


# ---------------------------------------------------------------------------
# certified squarefree part of an eliminant, on its dense integer matrix
# ---------------------------------------------------------------------------

# A bivariate polynomial P is a list of rows: P[k][l] is the coefficient of
# u^k s^l, so each row is the s-polynomial coefficient of u^k.

def _shape(P) -> list:
    """P with zero top rows dropped and every row cut or padded to one
    width, the s-degree + 1: the last row and the last column are nonzero."""
    rows = [poly_trim(row) for row in P]
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    width = max(len(row) for row in rows)
    return [row + [0] * (width - len(row)) for row in rows]


def _int_primitive(P) -> list:
    g = content([c for row in P for c in row])
    return [[c // g for c in row] for row in P] if g > 1 else P


def _kronecker(P, D: int) -> list:
    """P(t^D, t) for rows of length at most D, trimmed."""
    out = []
    for row in P:
        out += row + [0] * (D - len(row))
    return poly_trim(out)


def _unkronecker(c, D: int) -> list:
    """The bivariate polynomial of s-degree below D that maps to c."""
    return _shape([list(c[i:i + D]) for i in range(0, len(c), D)])


def int_nth_root(n: int, e: int) -> int | None:
    """Exact integer e-th root of n, or None; negative n allowed for odd e."""
    if n < 0:
        if e % 2 == 0:
            return None
        r = int_nth_root(-n, e)
        return None if r is None else -r
    x = int_root_floor(n, e)
    return x if x**e == n else None


def _nth_root(P, e: int) -> list | None:
    """An exact e-th root of P over Z (of P or of -P for even e), or None.

    With D = deg_s P + 1, u -> t^D, s -> t maps P to a univariate f.  Its
    root is found from the top coefficient down: with g and h the reversed
    f and root, g = h^e as power series, and e g h' = g' h fixes each next
    coefficient of h by one exact division.  The map is injective on
    s-degrees below D, so a root R with e deg_s R < D and R(t^D, t)^e = f
    has R^e = P; the re-expansion checks both.
    """
    D = len(P[0])
    f = _kronecker(P, D)
    if e % 2 == 0 and f[-1] < 0:
        f = [-c for c in f]
    n = len(f) - 1
    if n % e:
        return None
    g = f[::-1]
    h = [int_nth_root(g[0], e)]
    if h[0] is None:
        return None
    for k in range(1, n // e + 1):
        q, rem = divmod(sum((k - j - e * j) * g[k - j] * h[j] for j in range(k)),
                        e * k * g[0])
        if rem:
            return None
        h.append(q)
    root = h[::-1]
    power = root
    for _ in range(e - 1):
        power = poly_mul(power, root)
    R = _unkronecker(root, D)
    if power != f or e * (len(R[0]) - 1) >= D:
        return None
    return R


def _primitive(P):
    """(content in Z[s], primitive part) of a nonzero P over Z[s][u], shaped."""
    P = _shape(P)
    c = reduce(poly_gcd, P, [0])
    return c, _int_primitive([poly_div_exact(row, c) for row in P])


_STRIDE = 0x5851F42D  # the step between evaluation points mod p, below every prime


def _gcd_image(A, B, gamma, n: int, p: int):
    """gamma gcd(A, B) mod p, rows of s-coefficients by power of u, or None
    when lc_u A or lc_u B vanishes mod p: `gcd_mod` in u times gamma(s0) at n
    points where neither vanishes, interpolated.  Only images of least
    degree count, and degree 0 proves A, B coprime ([[1]]).  The points
    k _STRIDE mod p, k >= 2, vary with p, so no unlucky s0 recurs at every
    prime, and avoid small s0, where products of small forms repeat roots."""
    X = (np.array(_shape(A + B + [gamma]), dtype=object) % p).astype(np.int64)
    a = len(A)
    if not X[a - 1].any() or not X[-2].any():
        return None
    kept = {}
    for start in count(2, n):
        pts = np.arange(start, start + n, dtype=np.int64) * _STRIDE % p
        v = np.zeros((len(X), n), dtype=np.int64)
        for col in X.T[::-1]:  # every row at every point, by Horner
            v = (v * pts + col[:, None]) % p
        for k in np.flatnonzero(v[a - 1] * v[-2] % p):
            vals = v[:, k].tolist()
            g = gcd_mod(vals[:a], vals[a:-1], p)
            if len(g) == 1:
                return [[1]]
            kept.setdefault(len(g), []).append((pts[k], [c * vals[-1] % p for c in g]))
            if len(kept[min(kept)]) == n:
                points, images = zip(*kept[min(kept)])
                L = interpolation_matrix(np.array(points), p)
                return matmul_mod(np.array(images, dtype=np.int64).T, L, p).tolist()


def _quotient(X, G):
    """X / G over Z, or None, by exact division of the images under u -> t^D,
    s -> t, D = deg_s X + 1: injective if G and X / G have s-degrees summing below D."""
    D = len(X[0])
    try:
        Q = _unkronecker(poly_div_exact(_kronecker(X, D), _kronecker(G, D)), D)
    except ArithmeticError:
        return None
    return Q if len(G[0]) + len(Q[0]) - 2 < D else None


def _gcd(A, B) -> list:
    """gcd of nonzero A and B in Z[s][u], up to a unit, by Brown's dense
    modular algorithm (`modp.brown`; Geddes-Czapor-Labahn, Algorithms for
    Computer Algebra, ch. 7) on their primitive parts in u, times the gcd of
    their contents.  gamma, the gcd of the leading coefficients with its
    integer content, is a multiple of lc(gcd), so gamma gcd / lc(gcd) has
    s-degree below n.  A lift is taken when its primitive part divides both.
    """
    (ca, A), (cb, B) = _primitive(A), _primitive(B)
    c = poly_gcd(ca, cb)
    gamma = [math.gcd(content(A[-1]), content(B[-1])) * v for v in poly_gcd(A[-1], B[-1])]
    n = len(gamma) + min(len(A[0]), len(B[0])) - 1

    def accept(H):
        G = _primitive(H)[1]
        return G if _quotient(A, G) and _quotient(B, G) else None

    G = brown(lambda p: _gcd_image(A, B, gamma, n, p), accept) or [[1]]
    return [poly_mul(c, row) for row in G]


def _squarefree_by_gcd(P) -> list:
    """P / gcd(P, P_u, P_s), primitive: the fallback for mixed multiplicities."""
    g = P
    for d in ([[k * c for c in row] for k, row in enumerate(P)][1:],
              [poly_deriv(row) for row in P]):
        if any(map(any, d)):
            g = _gcd(g, d)
    return _int_primitive(_quotient(P, g))


def _specialized_multiplicities(P):
    """Yun multiplicities in u of P(u, s0) at a degree-preserving s0.

    Returns the sorted multiplicity set, or None if no good specialization
    was found among small integers.  `yun_mod` takes them at prime(0)
    (passing over primes that divide the leading coefficient).  [1] proves
    P(u, s0) squarefree over Q, and a uniform multiplicity e > 1 is the
    guess that `_nth_root` certifies.  A mixed pattern, which would send P
    to `_squarefree_by_gcd`, is taken again at the next such prime, since
    an unlucky prime(0) can merge two factors of a squarefree P(u, s0).
    """
    for s0 in (2, 3, 5, 7, 11, 13, -2, -3, 17, 19):
        coeffs = [form_eval(row, s0, 1) for row in P]
        if coeffs[-1] == 0:
            continue
        for p in islice((p for p in map(prime, count()) if coeffs[-1] % p), 2):
            mults = yun_mod(coeffs, p)
            if mults == [1] or math.gcd(*mults) > 1:
                break
        return mults
    return None


def bivar_squarefree(P) -> list:
    """Squarefree part of the integer bivariate P (P[k][l] of u^k s^l).

    Returns it primitive, in the same layout, with a nonzero last row and
    last column.  A squarefree degree-preserving specialization in each
    direction proves gcd(P, P_u, P_s) is constant (specialization cannot
    raise degrees).  Uniform multiplicity e reduces to a verified exact e-th
    root.  Mixed patterns fall back to the modular gcd over Z[s][u].
    """
    P = _int_primitive(_shape(P))
    for _ in range(8):
        if len(P) == 1 and len(P[0]) == 1:
            return P
        mults_u = _specialized_multiplicities(P) if len(P) > 1 else [1]
        mults_s = (_specialized_multiplicities([list(col) for col in zip(*P)])
                   if len(P[0]) > 1 else [1])
        if mults_u is None or mults_s is None:
            break
        if mults_u == [1] and mults_s == [1]:
            return P
        e = math.gcd(*mults_u, *mults_s)
        root = _nth_root(P, e) if e > 1 else None
        if root is None:
            break
        P = _int_primitive(root)
    return _squarefree_by_gcd(P)
