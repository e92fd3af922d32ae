"""Images and orbits of plane curves under split endomorphisms of P^1 x P^1.

The image of a curve C(x1, x2) of bidegree (d1, d2) under (f, g) is the zero
set of the eliminant Res_x2(Res_x1(C, F0 - u F1), G0 - s G1), taken with
formal degrees so that points at infinity are kept, not lost.  It has
bidegree at most (deg g * d1, deg f * d2) and is computed exactly by
mpoly.resultant_formal (modular evaluation, interpolation and CRT up to a
proven coefficient bound) from the dense coefficient matrix of C.  The only
post-processing is content/monomial bookkeeping and squarefree reduction.
Every pushforward is then checked exactly modulo the prime modp.prime(0):
over CHECK_FIBERS seeded fibers of C in each block where C has positive
degree, the output form must vanish at the images under (f, g) of the
fiber's points, in F_p[x] / (squarefree part of the fiber form) and at a
root at infinity, by the residue-list arithmetic of `modp`.  No float is
involved, so no coefficient size limits it.

`CurveOrbitOutcome` is a NamedTuple.
"""

from __future__ import annotations

import math
import random
from itertools import zip_longest
from typing import NamedTuple

from .errors import EliminationFailure
from .hypersurface import Hypersurface
from .modp import gcd_mod, prime, reduce_mod
from .mpoly import bivar_squarefree, eliminant_bound_sq, resultant_formal
from .projective import (
    DEFAULT_DIGIT_CAP,
    RationalMapLift,
    check_cap,
    form_eval,
    poly_deriv,
    poly_mul,
    poly_trim,
)

#: a curve in P^1 x P^1 is a two-block hypersurface with canonical normalization
Curve2 = Hypersurface
CHECK_FIBERS = 2  # seeded fibers per block on which every pushforward is checked


def make_curve(terms, bidegree) -> Curve2:
    return Hypersurface.make(2, bidegree, terms)


def _dense(C: Curve2) -> list:
    """The coefficients of C: entry [k][l] is that of x1^k x2^l."""
    out = [[0] * (C.multidegree[1] + 1) for _ in range(C.multidegree[0] + 1)]
    for (k, l), c in C.terms:
        out[k][l] = c
    return out


def _reduce_to_curve(r2, formal_u: int, formal_s: int) -> Curve2:
    """Monomial bookkeeping + squarefree reduction + canonical normalization.

    r2[k][l] is the coefficient of u^k s^l of the eliminated form, of formal
    block degrees (formal_u, formal_s); monomial factors (fibers over 0 and
    infinity) are reduced to multiplicity one like every other factor.
    """
    rows = [k for k, row in enumerate(r2) if any(row)]
    if not rows:
        raise EliminationFailure("resultant vanished identically")
    cols = [l for l in range(len(r2[0])) if any(row[l] for row in r2)]
    min_u, min_s = rows[0], cols[0]
    core = [row[min_s:cols[-1] + 1] for row in r2[min_u:rows[-1] + 1]]
    gap_u = formal_u - rows[-1]  # multiplicity of the Y_U factor
    gap_s = formal_s - cols[-1]
    sf = bivar_squarefree(core)
    # reattach one copy of each monomial-type factor: U (fiber u=0), V (u=inf),
    # S, T likewise; affine exponents shift only for U/S, bidegree for all
    du = len(sf) - 1 + (1 if min_u else 0) + (1 if gap_u > 0 else 0)
    ds = len(sf[0]) - 1 + (1 if min_s else 0) + (1 if gap_s > 0 else 0)
    shift_u = 1 if min_u else 0
    shift_s = 1 if min_s else 0
    out = {(k + shift_u, l + shift_s): c
           for k, row in enumerate(sf) for l, c in enumerate(row) if c}
    return Hypersurface.make(2, (du, ds), out)


def curve_pushforward(C: Curve2, f: RationalMapLift, g: RationalMapLift,
                      cap_digits: int = DEFAULT_DIGIT_CAP) -> Curve2:
    """The image curve (f, g)(C), squarefree, canonically normalized and
    checked by _verify_pushforward; CapExceeded before any prime if the
    eliminant's coefficient bound does not fit in cap_digits."""
    d1, d2 = C.multidegree
    dense = _dense(C)
    F, G = (f.f0, f.f1), (g.f0, g.f1)
    check_cap(math.isqrt(eliminant_bound_sq(dense, F, G)), cap_digits, "curve coefficient bound")
    r2 = resultant_formal(dense, F, G)
    # r2 has formal degree g.degree * d1 in u and f.degree * d2 in s
    image = _reduce_to_curve(r2, g.degree * d1, f.degree * d2)
    _verify_pushforward(C, image, f, g)
    return image


def _verify_pushforward(C, image, f, g) -> None:
    """EliminationFailure unless image vanishes on (f, g)(C), checked exactly
    mod p = prime(0): in each block where C has positive degree, on
    CHECK_FIBERS fibers over seeded t mod p in the other coordinate (fibers
    that vanish identically are skipped), image(f(x1), g(x2)) must vanish at
    every point of the fiber, a root at infinity on its own and the others
    through the squarefree part of the fiber form.  A wrong image passes one
    fiber with probability at most deg/p (Schwartz, J. ACM 27, 1980).
    """
    p, rng = prime(0), random.Random(20240808)
    forms = [[[c % p for c in row] for row in _dense(H)] for H in (C, image)]
    for i, (free, fixed) in enumerate(((f, g), (g, f))):
        if not C.multidegree[i]:
            continue
        # rows by the power of the free coordinate, entries by that of the other
        Crows, Irows = (M if i == 0 else list(zip(*M)) for M in forms)
        for _ in range(CHECK_FIBERS):
            while True:  # draw t until the fiber and its image are nonzero mod p
                t = rng.randrange(p)
                fiber = [form_eval(row, t, 1) % p for row in Crows]
                at_t = [form_eval(h, t, 1) % p for h in (fixed.f0, fixed.f1)]
                if any(fiber) and any(at_t):
                    break
            c = [form_eval(row, *at_t) % p for row in Irows]
            affine = poly_trim(fiber)
            if (not fiber[-1] and form_eval(c, free.f0[-1], free.f1[-1]) % p
                    or len(affine) > 1 and any(_ring_form_mod(c, free, affine, p))):
                raise EliminationFailure(f"pushforward check failed mod {p}")


def _ring_form_mod(c, h: RationalMapLift, a, p: int) -> list:
    """E = sum_k c_k h0^k h1^(n-k), n = len(c) - 1, by Horner in F_p[x] / (a),
    a of degree 1 to p - 1, times gcd(a, a'): a = m gcd(a, a') with m the
    squarefree part of a, so the result is 0 exactly when m divides E; c
    and a are residue lists, a trimmed."""

    def rem(x):  # x mod (a, p) by `modp.reduce_mod`
        x = [v % p for v in x]
        reduce_mod(x, a, p)
        return x

    h0, h1, acc, w = rem(h.f0), rem(h.f1), [0], [1]
    for ck in reversed(c):
        acc = rem([u + ck * v for u, v in zip_longest(poly_mul(acc, h0), w, fillvalue=0)])
        w = rem(poly_mul(w, h1))
    return rem(poly_mul(acc, gcd_mod(a, poly_deriv(a), p)))


class CurveOrbitOutcome(NamedTuple):
    """Exact repetition of normalized forms, or the observed bidegree growth.

    Its repr leaves out the curves, which can be large.
    """

    preperiodic: bool
    tail: int | None = None
    period: int | None = None
    bidegrees: tuple = ()
    curves: tuple = ()

    def __repr__(self) -> str:
        return (f"CurveOrbitOutcome(preperiodic={self.preperiodic!r}, tail={self.tail!r}, "
                f"period={self.period!r}, bidegrees={self.bidegrees!r})")


def curve_orbit(C: Curve2, f: RationalMapLift, g: RationalMapLift,
                max_iter: int = 8, cap_digits: int = DEFAULT_DIGIT_CAP,
                max_bidegree: int = 64) -> CurveOrbitOutcome:
    """Iterate curve_pushforward with canonical normalization and detect repeats.

    Preperiodic orbits have bounded bidegree, so growth past max_bidegree ends
    the iteration early with the growth log (the not-detected outcome).
    A max_iter or cap_digits below 1 is a ValueError.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if cap_digits < 1:
        raise ValueError(f"cap_digits must be >= 1, got {cap_digits}")
    seen = {C: 0}
    chain = [C]
    cur = C
    for k in range(1, max_iter + 1):
        worst_next = max(g.degree * cur.multidegree[0], f.degree * cur.multidegree[1])
        if worst_next > max_bidegree and k > 1:
            break
        cur = curve_pushforward(cur, f, g, cap_digits)
        if cur in seen:
            tail = seen[cur]
            return CurveOrbitOutcome(True, tail=tail, period=k - tail,
                                     bidegrees=tuple(c.multidegree for c in chain),
                                     curves=tuple(chain))
        seen[cur] = k
        chain.append(cur)
    return CurveOrbitOutcome(False,
                             bidegrees=tuple(c.multidegree for c in chain),
                             curves=tuple(chain))
