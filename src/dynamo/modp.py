"""Arithmetic modulo word-size primes, on numpy int64 arrays: the prime
stream, the Euclid that the modular gcds over Z (`projective.poly_gcd`)
and Z[s][u] (`mpoly._gcd`) take at each prime, the one CRT accumulator
they share with `mpoly.resultant_formal`, and the residue helpers of
elimination and interpolation (Brown 1971; Collins 1971; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 5-6).
`prime` finds the primes below 2^31 on first use, largest first; a product
of two residues stays below 2^62, inside int64.
"""

from __future__ import annotations

import numpy as np

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


def gcd_mod(a, b, p: int) -> np.ndarray:
    """The monic gcd mod p, as an int64 row, of the integer polynomials a and
    b (ascending powers, not both zero mod p): a Euclid on int64 rows, one
    row update per division step."""
    a, b = (np.array([v % p for v in c], dtype=np.int64) for c in (a, b))
    while b.any():
        b = b[:np.flatnonzero(b)[-1] + 1]
        n = len(b)
        if n == 1:  # a nonzero constant remainder
            return np.ones(1, dtype=np.int64)
        inv = pow(int(b[-1]), -1, p)
        for top in range(len(a) - 1, n - 2, -1):  # a := a mod b, top term first
            q = int(a[top]) * inv % p
            if q:
                a[top - n + 1:top + 1] = (a[top - n + 1:top + 1] - q * b) % p
        a, b = b, a[:n - 1]
    a = a[:np.flatnonzero(a)[-1] + 1]
    return a * pow(int(a[-1]), -1, p) % p


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


def pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def inv_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p of nonzero residues.

    Fermat's x^(p-2) is about 90 numpy calls whatever the size, which is
    the cost of some 60 scalar inverses by Python's pow: short arrays take
    the scalar path.
    """
    if x.size > 64:
        return pow_mod(x, p - 2, p)
    return np.array([pow(v, -1, p) for v in x.ravel().tolist()],
                    dtype=np.int64).reshape(x.shape)


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for entries in [0, p): A is split into 16-bit halves so
    that no int64 sum overflows (inner dimension below 2^15).  A product of
    at least 2^13 terms with inner dimension at most 128 runs in float64
    (BLAS) instead, with B taken in (-p/2, p/2): every term is below 2^46
    and every sum below 2^53, so the float sums are exact."""
    if A.shape[-1] <= 128 and A.size * B.shape[-1] >= 1 << 13:
        B = np.where(B > p // 2, B - p, B).astype(np.float64)
    hi = ((A >> 16).astype(B.dtype, copy=False) @ B).astype(np.int64, copy=False)
    lo = ((A & 0xFFFF).astype(B.dtype, copy=False) @ B).astype(np.int64, copy=False)
    return (hi % p * 65536 + lo) % p


def det_mod(E: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices (entries in [0, p)).

    Division-free elimination with per-matrix row swaps; the row scalings
    are divided out by one inverse at the end.
    """
    n = E.shape[-1]
    if n <= 2:  # products below 2^62: the 2 x 2 formula needs no inverse
        return (E[:, 0, 0] if n == 1 else
                (E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0]) % p)
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
            den = den * pow_mod(piv, n - k - 1, p) % p
    return num * inv_mod(den, p) % p


def interpolation_matrix(points: np.ndarray, p: int) -> np.ndarray:
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
    return num * inv_mod(dw, p)[:, None] % p
