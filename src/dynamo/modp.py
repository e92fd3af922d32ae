"""Arithmetic modulo word-size primes: the prime stream; residue lists, the
one format of a polynomial mod one prime, with remainder, Euclid and Yun
multiplicities; `brown`, the prime loop of the modular gcds over Z and
Z[s][u]; the CRT accumulator it shares with `mpoly.resultant_formal`; and
the residue helpers of elimination and interpolation on numpy int64 arrays
(Brown 1971; Collins 1971; Yun 1976; von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 5-6 and 14).
`prime` finds the primes below 2^31 on first use, largest first; a product
of two residues stays below 2^62, inside int64.  The Euclid runs on Python
ints for rows of at most _SHORT entries, where a list step costs less than
the fixed cost of numpy's calls, and on int64 rows above that.  The residue
helpers take p as an int or as an int64 array that broadcasts against the
residues, so that one call serves a whole batch of primes, one per row of a
leading prime axis.  numpy is imported inside the functions that use it,
so the exact one-shot commands (`height`, `preper`, `orbit`), which need
only `prime` and `is_probable_prime`, never load it.
"""

from __future__ import annotations

import math
from itertools import count, zip_longest

_PRIMES: list[int] = []


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases up to 37, which is exact below 3e23."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def prime(k: int) -> int:
    """The (k+1)-th largest prime below 2^31."""
    n = _PRIMES[-1] if _PRIMES else (1 << 31) + 1
    while len(_PRIMES) <= k:
        n -= 2
        if is_probable_prime(n):
            _PRIMES.append(n)
    return _PRIMES[k]


# The longest row, degree 32, on which `gcd_mod` runs the list Euclid: a
# division step costs one list comprehension against some ten numpy calls,
# and the two take about the same time there
_SHORT = 33


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def reduce_mod(a: list, b: list, p: int) -> list:
    """The quotient, ascending, of a by the trimmed nonzero b mod p; a, a
    list of residues, is reduced in place to the remainder, untrimmed."""
    n, inv, low, q = len(b) - 1, pow(b[-1], -1, p), b[:-1], []
    while len(a) > n:  # top term first
        c = a.pop() * inv % p
        q.append(c)
        if c:
            s = len(a) - n
            a[s:] = [(x - c * y) % p for x, y in zip(a[s:], low)]
    q.reverse()
    return q


def _euclid(a: list, b: list, p: int) -> list:
    """The monic gcd of residue lists a and b, not both zero, mod p."""
    a, b = _trim(a), _trim(b)
    while b:
        if len(b) == 1:  # a nonzero constant remainder
            return [1]
        reduce_mod(a, b, p)
        a, b = b, _trim(a)
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _euclid_rows(a: list, b: list, p: int) -> list:
    """_euclid on int64 rows, one row update per division step."""
    import numpy as np
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    while b.any():
        b = b[:np.flatnonzero(b)[-1] + 1]
        n = len(b)
        if n == 1:  # a nonzero constant remainder
            return [1]
        inv = pow(int(b[-1]), -1, p)
        for top in range(len(a) - 1, n - 2, -1):  # a := a mod b, top term first
            q = int(a[top]) * inv % p
            if q:
                a[top - n + 1:top + 1] = (a[top - n + 1:top + 1] - q * b) % p
        a, b = b, a[:n - 1]
    a = a[:np.flatnonzero(a)[-1] + 1]
    return (a * pow(int(a[-1]), -1, p) % p).tolist()


def gcd_mod(a, b, p: int) -> list:
    """The monic gcd mod p, as a residue list, of the integer polynomials a
    and b (ascending powers, ints or an int64 row, not both zero mod p): on
    Python ints up to _SHORT entries, on int64 rows above."""
    a, b = [int(v) % p for v in a], [int(v) % p for v in b]
    return (_euclid if max(len(a), len(b)) <= _SHORT else _euclid_rows)(a, b, p)


def _deriv(c: list, p: int) -> list:
    return [k * v % p for k, v in enumerate(c)][1:]


def yun_mod(c, p: int) -> list:
    """The multiplicities, increasing, of the squarefree factors mod p of
    the integer polynomial c, whose leading coefficient p does not divide
    and whose degree is below p: Yun's algorithm on lists of residues.

    [1] proves c squarefree over Q: the image keeps c's degree and is
    coprime to its derivative, so p does not divide the discriminant.  Any
    other answer is the pattern over Q unless p divides a subresultant.
    """
    f = [v % p for v in c]
    df = _deriv(f, p)
    g = gcd_mod(f, df, p)
    if len(g) == 1:
        return [1]
    w, y = reduce_mod(f, g, p), reduce_mod(df, g, p)
    mults, k = [], 1
    while len(w) > 1:  # w: the product of the factors of multiplicity >= k
        z = _trim([(u - v) % p for u, v in zip_longest(y, _deriv(w, p), fillvalue=0)])
        h = gcd_mod(w, z, p)
        if len(h) > 1:  # the product of the factors of multiplicity k
            mults.append(k)
            w, z = reduce_mod(w, h, p), reduce_mod(z, h, p)
        y, k = z, k + 1
    return mults


class CrtLift:
    """The symmetric lift, in (-M/2, M/2) with M the product of the primes
    added, of equal-shape residue arrays, one per prime.  `add` queues;
    `read` folds the queue, of product Q, by the one-shot formula and joins
    it to the earlier lift h by one Garner step, h + M ((g - h) M^-1 mod Q),
    so a read after every prime costs one step, not a lift of all primes."""

    def __init__(self):
        self.modulus, self._lifted, self._lift, self._queue = 1, 1, 0, []

    def add(self, vals, p: int) -> None:
        self._queue.append((vals, p))
        self.modulus *= p

    def read(self) -> list:
        """The lift as nested lists of ints."""
        import numpy as np
        if self._queue:
            m, q, g = self._lifted, self.modulus // self._lifted, 0
            for vals, p in self._queue:
                rest = q // p
                g = g + np.asarray(vals).astype(object) * (rest * pow(rest, -1, p))
            g = g % q
            self._lift = g if m == 1 else self._lift + m * ((g - self._lift) * pow(m, -1, q) % q)
            self._lifted, self._queue = self.modulus, []
        h, modulus = self._lift, self.modulus
        return np.where(h > modulus // 2, h - modulus, h).tolist()


def brown(image, accept):
    """The prime loop of Brown's modular gcd (J. ACM 18, 1971) over Z or Z[s][u].

    image(p) is the gcd mod p, times gamma, a multiple of its leading
    coefficient: a residue list, or None to pass p over.  A one-entry image
    proves the inputs coprime (brown returns None); a longer one than the
    shortest so far is unlucky, and a shorter one restarts the `CrtLift`.
    Once a prime leaves it unchanged, accept(lift) gives the gcd or None.
    """
    import numpy as np
    deg, lift = math.inf, None
    for p in map(prime, count()):
        g = image(p)
        if g is None or len(g) > deg:
            continue
        if len(g) == 1:
            return None
        if len(g) < deg:  # every earlier prime was unlucky
            deg, lift = len(g), CrtLift()
        if lift.modulus > 1:
            h = lift.read()
            if (np.array(h, dtype=object) % p).tolist() == g and (got := accept(h)) is not None:
                return got
        lift.add(g, p)


def pow_mod(x: np.ndarray, e, p) -> np.ndarray:
    """x^e mod p elementwise, left to right over the bits of e >= 0.  Here e
    and p are ints or int64 arrays that broadcast against x; e's values lie
    in [lo, hi], so its bits above the highest bit where lo and hi differ
    are those of hi for every entry, and only the lower bits multiply where
    they are set."""
    import numpy as np
    lo, hi = (e, e) if isinstance(e, int) else (int(e.min()), int(e.max()))
    split = (lo ^ hi).bit_length()
    base = x % p
    out = np.ones_like(base)
    for k in reversed(range(hi.bit_length())):
        out = out * out % p
        if k < split:
            out = np.where(e >> k & 1, out * base % p, out)
        elif hi >> k & 1:
            out = out * base % p
    return out


def inv_mod(x: np.ndarray, p) -> np.ndarray:
    """Elementwise inverses mod p of nonzero residues; p is an int or an
    int64 array that broadcasts against x.

    Fermat's x^(p-2) is about 90 numpy calls whatever the size (a few more
    where the low bits of the primes differ), which is the cost of some 60
    scalar inverses by Python's pow: short arrays take the scalar path.
    """
    import numpy as np
    if x.size > 64:
        return pow_mod(x, p - 2, p)
    ps = (x * 0 + p).ravel().tolist()
    return np.array([pow(v, -1, q) for v, q in zip(x.ravel().tolist(), ps)],
                    dtype=np.int64).reshape(x.shape)


def matmul_mod(A: np.ndarray, B: np.ndarray, p) -> np.ndarray:
    """A @ B mod p for entries in [0, p), over any leading stack axes; p is
    an int or an int64 array that broadcasts against the product.  A is
    split into 16-bit halves so that no int64 sum overflows (inner dimension
    below 2^15).  A product of at least 2^13 terms with inner dimension at
    most 128 runs in float64 (BLAS) instead, with B taken in (-p/2, p/2):
    every term is below 2^46 and every sum below 2^53, so the float sums
    are exact."""
    import numpy as np
    if A.shape[-1] <= 128 and A.size * B.shape[-1] >= 1 << 13:
        B = np.where(B > p // 2, B - p, B).astype(np.float64)
    hi = ((A >> 16).astype(B.dtype, copy=False) @ B).astype(np.int64, copy=False)
    lo = ((A & 0xFFFF).astype(B.dtype, copy=False) @ B).astype(np.int64, copy=False)
    return (hi % p * 65536 + lo) % p


def det_mod(E: np.ndarray, p) -> np.ndarray:
    """Determinants mod p of a stack of square matrices (entries in [0, p),
    any leading stack axes); p is an int or an int64 array that broadcasts
    against the determinants.

    Division-free elimination with per-matrix row swaps; the row scalings
    are divided out by one inverse at the end.
    """
    import numpy as np
    n = E.shape[-1]
    if n <= 2:  # products below 2^62: the 2 x 2 formula needs no inverse
        return (E[..., 0, 0] if n == 1 else
                (E[..., 0, 0] * E[..., 1, 1] - E[..., 0, 1] * E[..., 1, 0]) % p)
    shape = E.shape[:-2]
    E = E.reshape(-1, n, n).copy()
    p = (np.zeros(shape, dtype=np.int64) + p).reshape(-1)
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
            num[i] = (p[i] - num[i]) % p[i]
        piv = E[:, k, k].copy()
        num[piv == 0] = 0  # no pivot in this column: singular
        piv[piv == 0] = 1
        num = num * piv % p
        if k + 1 < n:
            E[:, k + 1:, k:] = (E[:, k + 1:, k:] * piv[:, None, None]
                                - E[:, k + 1:, k, None] * E[:, None, k, k:]) % p[:, None, None]
            den = den * pow_mod(piv, n - k - 1, p) % p
    return (num * inv_mod(den, p) % p).reshape(shape)


def interpolation_matrix(points: np.ndarray, p) -> np.ndarray:
    """L with L[..., k, m] the t^m coefficient of the k-th Lagrange basis
    mod p, at integer points; p is an int (or a 0-d array), or an int64
    array of shape (..., 1) for one matrix per prime.

    With w = prod_j (t - x_j), over Z and then mod p, the k-th basis is
    q_k / q_k(x_k) with q_k = w / (t - x_k): synthetic division gives q_k
    from the top down, and Horner evaluates q_k(x_k) = w'(x_k) as it goes.
    """
    import numpy as np
    n, w = len(points), [1]
    for xj in points.tolist():
        w = [u - xj * v for u, v in zip([0] + w, w + [0])]
    w = np.array([[c % q for c in reversed(w)] for q in np.ravel(p).tolist()],
                 dtype=np.int64).reshape(np.shape(p)[:-1] + (n + 1,))
    x = points % p
    num = np.empty(x.shape + (n,), dtype=np.int64)
    acc = dw = np.zeros(x.shape, dtype=np.int64)
    for i in range(n):  # all k at once
        acc = (w[..., i:i + 1] + acc * x) % p
        num[..., n - 1 - i] = acc
        dw = (dw * x + acc) % p
    return num * inv_mod(dw, p)[..., None] % np.asarray(p)[..., None]
