"""Images and orbits of plane curves under split endomorphisms of P^1 x P^1.

The image of a curve C(x1, x2) of bidegree (d1, d2) under (f, g) is the zero
set of the eliminant Res_x2(Res_x1(C, F0 - u F1), G0 - s G1), taken with
formal degrees so that points at infinity are kept, not lost.  It has
bidegree at most (deg g * d1, deg f * d2) and is computed exactly by
mpoly.resultant_formal (modular evaluation, interpolation and CRT up to a
proven coefficient bound) from the dense coefficient matrix of C.  The only
post-processing is content/monomial bookkeeping and squarefree reduction.
Every pushforward is verified by mapping sampled points of C through (f, g)
and checking they annihilate the output form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, EliminationFailure
from .hypersurface import Hypersurface, _multiply_out
from .mpoly import bivar_squarefree, resultant_formal
from .projective import (
    DEFAULT_DIGIT_CAP,
    CPoint,
    RationalMapLift,
    digits_of,
    evaluate_cpoint,
)
from .roots import roots_batch

#: a curve in P^1 x P^1 is a two-block hypersurface with canonical normalization
Curve2 = Hypersurface


def make_curve(terms, bidegree) -> Curve2:
    return Hypersurface.make(2, bidegree, terms)


def _reduce_to_curve(r2, formal_u: int, formal_s: int, cap_digits: int) -> Curve2:
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
    biggest = max(abs(c) for row in core for c in row)
    if digits_of(biggest) > cap_digits:
        raise CapExceeded("curve coefficients exceeded the digit cap")
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


def _sample_curve_points(C: Curve2, count: int, rng: np.random.Generator):
    """Numeric points on C: random x1 values, x2 from the fiber roots.

    When the form does not involve block 2 (a union of vertical lines), x1
    ranges over the roots instead and the random value stands in for x2.
    """
    pts = []
    guard = 0
    d2 = C.multidegree[1]
    free = 2 if d2 else 1
    while len(pts) < count and guard < 40 * count:
        guard += 1
        z = complex(rng.normal(), rng.normal())
        p1 = CPoint.from_affine(z)
        row = C.fiber_coeff_matrix(free, {3 - free: (p1.x, p1.y)}, 1)
        scale = np.max(np.abs(row))
        if d2 and scale < 1e-12:
            continue
        for r in roots_batch(row / scale)[0]:
            if len(pts) < count:
                pts.append((p1, _chartpoint(r)) if d2 else (_chartpoint(r), p1))
    if len(pts) < count:
        raise EliminationFailure("could not sample enough numeric points on the curve")
    return pts


def _chartpoint(r: complex) -> CPoint:
    if not np.isfinite(r):
        return CPoint.at_infinity()
    return CPoint.from_affine(complex(r))


def curve_pushforward(C: Curve2, f: RationalMapLift, g: RationalMapLift,
                      tol: float = 1e-8, samples: int = 20,
                      cap_digits: int = DEFAULT_DIGIT_CAP,
                      rng: np.random.Generator | None = None) -> Curve2:
    """The image curve (f, g)(C), squarefree and canonically normalized.

    Verified on `samples` numeric points of C: their images must annihilate
    the output form to relative tolerance tol (EliminationFailure otherwise).
    """
    d1, d2 = C.multidegree
    dense = [[0] * (d2 + 1) for _ in range(d1 + 1)]
    for (i, j), c in C.terms:
        dense[i][j] = c
    r2 = resultant_formal(dense, (f.f0, f.f1), (g.f0, g.f1))
    # r2 has formal degree g.degree * d1 in u and f.degree * d2 in s
    image = _reduce_to_curve(r2, g.degree * d1, f.degree * d2, cap_digits)
    _verify_pushforward(C, image, f, g, tol, samples, rng)
    return image


def _verify_pushforward(C, image, f, g, tol, samples, rng=None) -> None:
    rng = rng or np.random.default_rng(20240808)
    try:
        pts = _sample_curve_points(C, samples, rng)
    except OverflowError as exc:  # a coefficient of C beyond the double range
        raise EliminationFailure("curve coefficients exceed the float range of "
                                 "the numeric verification") from exc
    scaled = image.scaled_coefficients().items()
    residuals = []
    for p1, p2 in pts:
        u = evaluate_cpoint(f, p1)
        s = evaluate_cpoint(g, p2)
        values = {1: (u.x, u.y), 2: (s.x, s.y)}
        residuals.append(abs(sum(val for _, val in
                                 _multiply_out(scaled, image.multidegree, values))))
    worst = max(residuals)
    if worst > tol:
        raise EliminationFailure(
            f"pushforward verification failed: worst residual {worst:.3e} over "
            f"{len(residuals)} sampled points (tol {tol:.0e})")


@dataclass(frozen=True)
class CurveOrbitOutcome:
    """Exact repetition of normalized forms, or the observed bidegree growth."""

    preperiodic: bool
    tail: int | None = None
    period: int | None = None
    bidegrees: tuple = ()
    curves: tuple = field(default=(), repr=False)


def curve_orbit(C: Curve2, f: RationalMapLift, g: RationalMapLift,
                max_iter: int = 8, tol: float = 1e-8,
                cap_digits: int = DEFAULT_DIGIT_CAP,
                max_bidegree: int = 64) -> CurveOrbitOutcome:
    """Iterate curve_pushforward with canonical normalization and detect repeats.

    Preperiodic orbits have bounded bidegree, so growth past max_bidegree ends
    the iteration early with the growth log (the not-detected outcome).
    """
    seen = {C: 0}
    chain = [C]
    cur = C
    for k in range(1, max_iter + 1):
        worst_next = max(g.degree * cur.multidegree[0], f.degree * cur.multidegree[1])
        if worst_next > max_bidegree and k > 1:
            break
        cur = curve_pushforward(cur, f, g, tol=tol, cap_digits=cap_digits)
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
