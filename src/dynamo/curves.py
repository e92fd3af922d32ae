"""Images and orbits of plane curves under split endomorphisms of P^1 x P^1.

The image of a curve C(x1, x2) of bidegree (d1, d2) under (f, g) is the zero
set of the eliminant Res_x2(Res_x1(C, F0 - u F1), G0 - s G1), taken with
formal degrees so that points at infinity are kept, not lost.  It has
bidegree at most (deg g * d1, deg f * d2) and is computed exactly by
mpoly.resultant_formal (modular evaluation, interpolation and CRT up to a
proven coefficient bound) from the dense coefficient matrix of C.  The only
post-processing is content/monomial bookkeeping and squarefree reduction.
Every pushforward is verified by mapping VERIFY_SAMPLES seeded points of C
through (f, g) and checking they annihilate the output form: the fiber rows
of the sample are solved in one `roots_batch` call, and the form is
evaluated at all the image points in one dense product.  Curve and maps
reach the floats through `projective.float_coefficients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EliminationFailure
from .hypersurface import Hypersurface
from .mpoly import bivar_squarefree, eliminant_bound_sq, resultant_formal
from .projective import (
    DEFAULT_DIGIT_CAP,
    CPoint,
    RationalMapLift,
    check_cap,
    form_eval,
)
from .roots import roots_batch

#: a curve in P^1 x P^1 is a two-block hypersurface with canonical normalization
Curve2 = Hypersurface
VERIFY_SAMPLES = 20  # points of C whose images must annihilate a pushforward
VERIFY_TOL = 1e-8  # largest residual of the scaled image form at those points


def make_curve(terms, bidegree) -> Curve2:
    return Hypersurface.make(2, bidegree, terms)


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


def _sample_curve_points(C: Curve2, count: int, rng: np.random.Generator) -> np.ndarray:
    """Numeric points on C: random x1 values, x2 from the fiber roots.

    When the form does not involve block 2 (a union of vertical lines), x1
    ranges over the roots instead and the random value stands in for x2.
    The k = ceil(count / roots per row) fiber rows are solved by one
    `roots_batch` call.  Their random values come from one normal draw of
    2k numbers, the stream of k scalar pairs; rows of scale below 1e-12 are
    skipped and replaced from the same stream, and no row past the k-th
    usable one is drawn.  Each row is built on Python complex scalars, and
    roots_batch solves each row on its own, so the points are those of
    drawing and solving one row at a time.  Returns the (4, count) complex
    array of sup-normalized pairs x1, y1, x2, y2.
    """
    d2 = C.multidegree[1]
    free = 2 if d2 else 1
    per_row = C.multidegree[free - 1]
    if not per_row:
        raise EliminationFailure("a constant form has no points to sample")
    need = -(-count // per_row)
    budget = 40 * count
    fixed, rows = [], []
    while len(fixed) < need and budget:
        take = min(need - len(fixed), budget)
        budget -= take
        draws = rng.normal(size=2 * take).tolist()
        drawn = [CPoint.from_affine(complex(re, im))
                 for re, im in zip(draws[0::2], draws[1::2])]
        block = np.concatenate([C.fiber_coeff_matrix(free, {3 - free: (p1.x, p1.y)}, 1)
                                for p1 in drawn])
        scale = np.abs(block).max(axis=1)
        keep = ~(scale < 1e-12) if d2 else np.ones(take, dtype=bool)
        fixed += [p1 for p1, k in zip(drawn, keep) if k]
        rows.append(block[keep] / scale[keep, None])
    if len(fixed) < need:
        raise EliminationFailure("could not sample enough numeric points on the curve")
    roots = roots_batch(np.concatenate(rows)).ravel()[:count]
    pts = [(fixed[k // per_row], _chartpoint(r)) for k, r in enumerate(roots)]
    if not d2:
        pts = [(p1, p2) for p2, p1 in pts]
    return np.array([[p1.x, p1.y, p2.x, p2.y] for p1, p2 in pts]).T


def _chartpoint(r: complex) -> CPoint:
    if not np.isfinite(r):
        return CPoint.at_infinity()
    return CPoint.from_affine(complex(r))


def curve_pushforward(C: Curve2, f: RationalMapLift, g: RationalMapLift,
                      cap_digits: int = DEFAULT_DIGIT_CAP) -> Curve2:
    """The image curve (f, g)(C), squarefree and canonically normalized;
    CapExceeded before any prime if the eliminant's coefficient bound does
    not fit in cap_digits.

    Verified on VERIFY_SAMPLES numeric points of C: their images must annihilate
    the output form to relative tolerance VERIFY_TOL (EliminationFailure otherwise).
    """
    d1, d2 = C.multidegree
    dense = [[0] * (d2 + 1) for _ in range(d1 + 1)]
    for (i, j), c in C.terms:
        dense[i][j] = c
    F, G = (f.f0, f.f1), (g.f0, g.f1)
    check_cap(math.isqrt(eliminant_bound_sq(dense, F, G)), cap_digits, "curve coefficient bound")
    r2 = resultant_formal(dense, F, G)
    # r2 has formal degree g.degree * d1 in u and f.degree * d2 in s
    image = _reduce_to_curve(r2, g.degree * d1, f.degree * d2)
    _verify_pushforward(C, image, f, g)
    return image


def _verify_pushforward(C, image, f, g) -> None:
    pts = _sample_curve_points(C, VERIFY_SAMPLES, np.random.default_rng(20240808))
    residuals = _residuals(image, f, g, pts)
    worst = residuals.max()
    if not worst <= VERIFY_TOL:  # a NaN residual verifies nothing: it fails too
        raise EliminationFailure(
            f"pushforward verification failed: worst residual {worst:.3e} over "
            f"{len(residuals)} sampled points (tol {VERIFY_TOL:.0e})")


def _residuals(image, f, g, pts) -> np.ndarray:
    """|image form| at (f, g) of each point, coefficients scaled to max 1."""
    x1, y1, x2, y2 = pts
    du, ds = image.multidegree
    coef = np.zeros((du + 1, ds + 1))
    for (i, j), c in image.scaled_coefficients().items():
        coef[i, j] = c
    return np.abs(np.einsum("ki,ij,kj->k", _image_powers(f, x1, y1, du), coef,
                            _image_powers(g, x2, y2, ds)))


def _image_powers(F: RationalMapLift, x, y, deg: int) -> np.ndarray:
    """Rows (u^k v^(deg-k))_k, (u : v) the sup-normalized image of each (x : y)."""
    u, v = (form_eval(f, x, y) for f in F.float_forms[:2])
    m = np.maximum(np.abs(u), np.abs(v))
    return _powers(u / m, deg) * _powers(v / m, deg)[:, ::-1]


def _powers(z: np.ndarray, deg: int) -> np.ndarray:
    """Rows (z^0, ..., z^deg) by repeated products."""
    out = np.ones((len(z), deg + 1), dtype=complex)
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1)


@dataclass(frozen=True)
class CurveOrbitOutcome:
    """Exact repetition of normalized forms, or the observed bidegree growth."""

    preperiodic: bool
    tail: int | None = None
    period: int | None = None
    bidegrees: tuple = ()
    curves: tuple = field(default=(), repr=False)


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
