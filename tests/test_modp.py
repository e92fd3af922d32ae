"""Word-size prime arithmetic: the int64 squarefree test against a list Euclid."""

import random

from dynamo.modp import prime, squarefree_by_primes
from dynamo.projective import poly_mul


def _list_squarefree_by_primes(c) -> bool:
    """Reference: the same three-prime test, as a Euclid on Python lists."""
    for k in range(3):
        p = prime(k)
        if not c[-1] % p:
            continue
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
        if len(a) == 1:
            return True
    return False


def _random_poly(rng, degree, bits):
    c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree + 1)]
    while not c[-1]:
        c[-1] = rng.randint(-(1 << bits), 1 << bits)
    return c


def _cases():
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
            yield c, False if divisor == top3 else None
    yield [-2, 0, 1], True  # x^2 - 2
    yield [2, -3, 0, 1], False  # (x - 1)^2 (x + 2)
    yield [7], True
    yield [top3], False


def test_squarefree_by_primes_matches_list_euclid():
    for c, want in _cases():
        got = squarefree_by_primes(c)
        assert got == _list_squarefree_by_primes(c), (len(c) - 1, c[-1])
        if want is not None:
            assert got is want, (len(c) - 1, c[-1])

