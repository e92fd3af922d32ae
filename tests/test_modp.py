"""Word-size prime arithmetic: both Euclids of gcd_mod against a list
Euclid, Yun mod p against Yun over Q, the CRT accumulator against the
inline lift `mpoly.resultant_formal` had before, the matrix product
against exact integer products, and each residue helper on a vector of
primes against the same helper prime by prime."""

import random

import numpy as np

from dynamo import modp
from dynamo.modp import (CrtLift, det_mod, gcd_mod, interpolation_matrix, inv_mod,
                         matmul_mod, pow_mod, prime, yun_mod)
from dynamo.projective import poly_mul
from dynamo.roots import yun_squarefree


def _list_gcd_mod(a, b, p) -> list:
    """Reference: the monic gcd mod p by a Euclid on Python lists."""
    a, b = list(a), list(b)
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
    while len(a) > 1 and not a[-1]:
        a.pop()
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _random_poly(rng, degree, bits):
    c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree + 1)]
    while not c[-1]:
        c[-1] = rng.randint(-(1 << bits), 1 << bits)
    return c


def _cases():
    """(c, whether c is squarefree over Q, or None when not known)."""
    rng = random.Random(21)
    top3 = prime(0) * prime(1) * prime(2)
    for _ in range(24):  # mostly squarefree, small and several-hundred-bit coefficients
        yield _random_poly(rng, rng.randint(0, 300), rng.choice([3, 40, 500])), None
    for _ in range(16):  # f g^2: a repeated factor of degree >= 1
        g = _random_poly(rng, rng.randint(1, 60), rng.choice([2, 300]))
        f = _random_poly(rng, rng.randint(0, 300 - 2 * (len(g) - 1)), rng.choice([2, 300]))
        yield poly_mul(f, poly_mul(g, g)), False
    for divisor in (prime(0), prime(0) * prime(1), top3):
        for _ in range(5):  # the leading coefficient divisible by one, two or all three primes
            c = _random_poly(rng, rng.randint(0, 300), rng.choice([3, 400]))
            c[-1] = divisor * rng.choice([1, -1, rng.randint(2, 1 << 200)])
            yield c, None
    yield [-2, 0, 1], True  # x^2 - 2
    yield [2, -3, 0, 1], False  # (x - 1)^2 (x + 2)
    yield [7], True
    yield [top3], True


def test_gcd_mod_matches_list_euclid():
    # gcd(c, c') mod prime(0), whose reduction may drop the degree, and mod
    # the first prime that keeps it, where a repeated factor over Q shows
    for c, squarefree in _cases():
        good = next(p for p in map(prime, range(4)) if c[-1] % p)
        for p in {prime(0), good}:
            a = np.array([v % p for v in c], dtype=np.int64)
            b = a[1:] * np.arange(1, len(a), dtype=np.int64) % p
            if not a.any():  # a constant divisible by p: both rows are zero
                continue
            got = gcd_mod(a, b, p)
            assert type(got) is list
            assert got == _list_gcd_mod(a.tolist(), b.tolist(), p), (len(c) - 1, p)
            if p == good and squarefree is not None:
                assert (len(got) == 1) is squarefree, (len(c) - 1, c[-1])


def test_gcd_mod_with_a_zero_row():
    p = prime(0)
    assert gcd_mod([0, p, 0], [4, 2, 0], p) == [2, 1]
    assert gcd_mod([-4, -2 + p], [0], p) == [2, 1]


def test_gcd_mod_on_both_sides_of_the_short_rows():
    # degrees 0-80, so both the list Euclid and the int64 rows run: a common
    # factor of degree 0-4 times random cofactors, from ints of up to 100
    # bits and from int64 rows of residues, in either order
    p = prime(0)
    rng = random.Random(29)
    assert modp._SHORT < 81
    for d in range(81):
        dg = rng.randint(0, min(d, 4))
        g = _random_poly(rng, dg, 30)
        a = poly_mul(g, _random_poly(rng, d - dg, rng.choice([30, 100])))
        b = poly_mul(g, _random_poly(rng, rng.randint(0, d - dg), rng.choice([30, 100])))
        want = _list_gcd_mod([v % p for v in a], [v % p for v in b], p)
        assert len(want) > dg
        rows = [np.array([v % p for v in c], dtype=np.int64) for c in (a, b)]
        for x, y in [(a, b), (b, a), rows, rows[::-1]]:
            assert gcd_mod(x, y, p) == want, d
        for euclid in (modp._euclid, modp._euclid_rows):
            assert euclid([v % p for v in a], [v % p for v in b], p) == want, (d, euclid)


def _yun_multiplicities(c) -> list:
    return sorted({m for _, m in yun_squarefree(c)})


def test_yun_mod_matches_yun_over_q():
    # products prod f_i^m_i of random small factors, degree up to 57, so
    # that the gcds of long forms take the int64 rows
    rng = random.Random(31)
    for _ in range(80):
        c = [rng.choice([1, -2, 3])]
        for _ in range(rng.randint(1, 4)):
            f = _random_poly(rng, rng.randint(1, 6), 6)
            for _ in range(rng.randint(1, 4)):
                c = poly_mul(c, f)
        assert yun_mod(c, prime(0)) == _yun_multiplicities(c), c


def test_yun_mod_at_an_unlucky_prime():
    # (x - 1)(x - 1 - p)(x - 2) is squarefree over Q and (x - 1)^2 (x - 2)
    # mod p; the next prime sees it squarefree
    p = prime(0)
    c = poly_mul(poly_mul([-1, 1], [-1 - p, 1]), [-2, 1])
    assert _yun_multiplicities(c) == [1]
    assert yun_mod(c, p) == [1, 2]
    assert yun_mod(c, prime(1)) == [1]


def _old_lift(residues, primes):
    """Reference: the symmetric lift as `mpoly.resultant_formal` computed it."""
    modulus = 1
    for p in primes:
        modulus *= p
    acc = 0
    for vals, p in zip(residues, primes):
        rest = modulus // p
        acc = acc + vals.astype(object) * (rest * pow(rest, -1, p))
    acc = acc % modulus
    half = modulus // 2
    return [[v - modulus if v > half else v for v in row] for row in acc.tolist()]


def _lifts(residues, primes):
    """The accumulator's lift read once at the end, and read after every prime."""
    once, every = CrtLift(), CrtLift()
    for vals, p in zip(residues, primes):
        once.add(vals, p)
        every.add(vals, p)
        last = every.read()
    return once.read(), last


def test_crt_matches_the_resultant_lift():
    rng = np.random.default_rng(5)
    for count in (1, 2, 5):
        primes = [prime(k) for k in range(count)]
        modulus = int(np.prod(np.array(primes, dtype=object)))
        residues = [rng.integers(0, p, size=(4, 7)) for p in primes]
        # the extreme residues too: every lift at -(M - 1)/2, 0 and (M - 1)/2
        for r, p in zip(residues, primes):
            r[0, :3] = [0, (modulus + 1) // 2 % p, (modulus - 1) // 2 % p]
        once, every = _lifts(residues, primes)
        assert once == every == _old_lift(residues, primes)
        assert all(2 * abs(v) < modulus for row in once for v in row)
        assert once[0][:3] == [0, -(modulus - 1) // 2, (modulus - 1) // 2]
        assert _lifts([r[1] for r in residues], primes) == (once[1], once[1])  # any shape


def test_crt_reads_between_queued_primes():
    # reads after the 2nd and 5th of seven primes: each read joins a queue
    # of one, three and two primes to the lift before it
    rng = np.random.default_rng(6)
    primes = [prime(k) for k in range(7)]
    residues = [rng.integers(0, p, size=5) for p in primes]
    lift = CrtLift()
    for k, (vals, p) in enumerate(zip(residues, primes)):
        lift.add(vals, p)
        if k in (1, 4):
            assert lift.read() == _old_lift([r[None] for r in residues[:k + 1]],
                                            primes[:k + 1])[0]
    assert lift.read() == _old_lift([r[None] for r in residues], primes)[0]
    assert lift.modulus == int(np.prod(np.array(primes, dtype=object)))


def test_matmul_mod_is_exact_on_both_paths():
    # inner dimensions on each side of 128 and outputs on each side of 2^13
    # terms.  Residues near p - 1 make the largest unsigned terms; low
    # halves near 2^16 times residues just below p / 2 make the largest
    # terms of one sign in (-p/2, p/2), whose sums over 128 come closest
    # to 2^53 on the float path
    p = prime(0)
    rng = np.random.default_rng(11)
    near = {"any": lambda n: rng.integers(0, p, size=n),
            "top": lambda n: p - 1 - rng.integers(0, 1 << 20, size=n),
            "low": lambda n: rng.integers(0, (1 << 15) - 1, size=n) << 16 | 0xFF00
            | rng.integers(0, 256, size=n),
            "half": lambda n: p // 2 - rng.integers(0, 1 << 20, size=n)}
    for rows, inner, cols in [(2, 2, 2), (8, 8, 8), (130, 33, 33), (64, 128, 64),
                              (16, 129, 16), (4, 1000, 4)]:
        for a, b in [("any", "any"), ("top", "top"), ("low", "half")]:
            A = near[a](rows * inner).reshape(rows, inner)
            B = near[b](inner * cols).reshape(inner, cols)
            want = (A.astype(object) @ B.astype(object)) % p
            assert (matmul_mod(A, B, p) == want).all()


def test_helpers_on_a_vector_of_primes_match_each_prime():
    # p as an int64 array with a leading prime axis: every helper gives, row
    # by row, what it gives for that row's prime alone.  The primes' low
    # bits differ, so Fermat's exponents p - 2 do too
    primes = np.array([prime(k) for k in (0, 1, 2, 5, 9)], dtype=np.int64)
    P = len(primes)
    col = primes.reshape(-1, 1)
    rng = np.random.default_rng(17)

    def residues(*shape):
        q = primes.reshape((-1,) + (1,) * len(shape))
        return rng.integers(1, 1 << 31, size=(P,) + shape) % q

    for shape in [(3,), (7, 40)]:  # 7 x 40 entries take Fermat's path in inv_mod
        x = residues(*shape)
        x[x == 0] = 1
        p = primes.reshape((-1,) + (1,) * len(shape))
        powers, inverses = pow_mod(x, 1000003, p), inv_mod(x, p)
        for k, q in enumerate(primes.tolist()):
            assert (powers[k] == pow_mod(x[k], 1000003, q)).all()
            assert (inverses[k] == inv_mod(x[k], q)).all()
            assert (inverses[k] * x[k] % q == 1).all()
    for n in range(1, 6):  # zero columns, row swaps and singular matrices
        E = residues(30, n, n) * (rng.random((P, 30, n, n)) < 0.7)
        E[:, :5, -1] = E[:, :5, 0]
        dets = det_mod(E, col)
        for k, q in enumerate(primes.tolist()):
            assert (dets[k] == det_mod(E[k], q)).all()
    points = np.array([0, 1, 2, 4, 7, 8], dtype=np.int64)
    L = interpolation_matrix(points, col)
    for k, q in enumerate(primes.tolist()):
        assert (L[k] == interpolation_matrix(points, q)).all()


def test_matmul_mod_on_a_vector_of_primes_at_the_float_edge():
    # the near-2^53 residues of test_matmul_mod_is_exact_on_both_paths, for
    # each of three primes, through one stacked call on either path
    primes = [prime(k) for k in (0, 4, 9)]
    rng = np.random.default_rng(12)
    near = {"any": lambda n, p: rng.integers(0, p, size=n),
            "top": lambda n, p: p - 1 - rng.integers(0, 1 << 20, size=n),
            "low": lambda n, p: rng.integers(0, (1 << 15) - 1, size=n) << 16 | 0xFF00
            | rng.integers(0, 256, size=n),
            "half": lambda n, p: p // 2 - rng.integers(0, 1 << 20, size=n)}
    col = np.array(primes, dtype=np.int64).reshape(-1, 1, 1)
    for rows, inner, cols in [(2, 2, 2), (8, 8, 8), (130, 33, 33), (64, 128, 64), (16, 129, 16)]:
        for a, b in [("any", "any"), ("top", "top"), ("low", "half")]:
            A = np.stack([near[a](rows * inner, p).reshape(rows, inner) for p in primes])
            B = np.stack([near[b](inner * cols, p).reshape(inner, cols) for p in primes])
            got = matmul_mod(A, B, col)
            for k, p in enumerate(primes):
                want = (A[k].astype(object) @ B[k].astype(object)) % p
                assert (got[k] == want).all() and (matmul_mod(A[k], B[k], p) == want).all()
