"""Periodic points and their multipliers.

The points of period dividing n are the d^n + 1 roots on P^1 of the
fixed-point form Y*F0^(n) - X*F1^(n).  Their affine part is
P(z) = F0^(n)(z, 1) - z*F1^(n)(z, 1), and P is never evaluated from its
coefficients: those grow like a power of the orbit, so double precision
loses the roots from degree ~30 on.  Aberth's iteration, one column of
`roots.aberth_sweeps`, takes the Newton ratio P/P' from the orbit instead
(a non-finite ratio is replaced by 0.5), carrying the jet (F^(m), dF^(m)/dz)
through the n steps and rescaling it by one common factor per step, which
the ratio does not see (Randig-Schleicher-Stoll, J. Comput. Appl. Math.
2024, do this for iterated quadratics).  Evaluated this way a periodic
point is as well conditioned as its multiplier allows, whatever n is.

The sweeps start from the preimage tree of one fixed point a = _TREE_BASE:
its d^n leaves under F^n and the points of period n equidistribute to the
same measure (Lyubich, Ergodic Theory Dynam. Systems 3, 1983;
Freire-Lopes-Mane, Bol. Soc. Brasil. Mat. 14, 1983), so a start lies near
almost every root and a few sweeps suffice, where starts on the circles of
the Newton polygon need about D/3.5.  `_tree_starts` matches the leaves to
the roots still unknown; the polygon fills a shortfall and starts the
factors of low degree and the binomial factors of power maps.  All of them
read the map as its `float_forms`, from `projective`'s one conversion.

The exact form, from `iterate_lift`, is only a certificate, read by
`roots.binary_form_roots`, the exact root path that fibers and critical
points also run:
- its zero coefficients at either end give the multiplicities at infinity
  and at 0;
- gcd(P, P') = 1 modulo the first prime that keeps the degree proves P
  squarefree over Q (`projective.poly_gcd`, Brown's modular gcd).  Only
  when that fails (a parabolic coincidence, or rarely an unlucky prime)
  does Yun's decomposition over Z go on; its repeated factors come first, by
  Horner's rule, and every exactly known factor (z^k for a root at 0
  included) is divided out of the log-derivative of the orbit solve;
- near-real roots are reconstructed as rationals and verified exactly, and
  a verified rational point takes its exact value.

Matching each root to the root nearest its image groups the roots into
cycles with exact periods (Morton-Silverman, IMRN 1994, count them) and
checks that F permutes them; an exact root's image is taken exactly.  The
multiplier is the chain-rule product of local derivatives in charts that
avoid infinity, in integers on a cycle of exact points and in floats on
any other; `Cycle.repelling` reads |lambda| > 1 from it.  Exact orbits of
rational points (tail and period, or certified divergence) are
`heights.decide_preperiodic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NotACycle
from .projective import (
    CPoint,
    RationalMapLift,
    evaluate,
    evaluate_cpoint,
    form_derivative_x,
    form_derivative_y,
    form_eval,
    iterate_lift,
)
from .roots import _SEPARATION, binary_form_roots, polygon_starts, preimage_fiber

DEFAULT_PERIOD_CAP = 4096
DEFAULT_TOL = 1e-9
_MATCH_ROWS = 512  # rows per block of the nearest-root and start distance matrices
_TREE_BASE = complex(0.31, 0.47)  # the point a whose preimages under F^n are the starts
# A simple factor of lower degree starts on its Newton polygon: there the n
# fiber solves of the tree cost more than the sweeps they save (medians of 25
# alternating in-process runs on a 2-core VM: z^2 - 1 at D = 17, 3.58 ms from
# the tree against 3.22 ms; z^3 + 1 at D = 28, 3.42 against 3.78 ms).
_TREE_MIN_DEGREE = 24


@dataclass(frozen=True)
class Cycle:
    """A periodic cycle: points listed in orbit order, with its multiplier."""

    points: tuple
    period: int
    multiplier: complex
    exact_points: tuple = ()
    parabolic_warning: bool = False

    @property
    def repelling(self) -> bool:
        return abs(self.multiplier) > 1.0


def fixed_point_form(F: RationalMapLift) -> tuple:
    """Coefficients of Y*F0 - X*F1, the degree d+1 form vanishing on fixed points."""
    d = F.degree
    out = [0] * (d + 2)
    for i, c in enumerate(F.f0):  # Y * F0: X^i Y^(d+1-i)
        out[i] += c
    for i, c in enumerate(F.f1):  # X * F1: X^(i+1) Y^(d-i)
        out[i + 1] -= c
    return tuple(out)


def fixed_point_roots(F: RationalMapLift, n: int, tol: float = 1e-12) -> list:
    """The d^n + 1 roots of the fixed-point form of F^n, with multiplicity.

    Returns [(CPoint, multiplicity, ProjectivePoint or None), ...] from
    `binary_form_roots`, whose simple factor is solved by the orbit ratio
    from the preimage-tree starts; the exact point is set for verified
    rational roots, 0 and infinity included.  The float forms are converted
    before the exact form is built.
    """
    forms = F.float_forms[:2]
    return binary_form_roots(
        fixed_point_form(iterate_lift(F, n)), tol,
        lambda fac, known: (_orbit_ratio(forms, n, known),
                            _tree_starts(forms, n, fac, known, tol)))


def _tree_starts(forms, n: int, fac, known, tol: float) -> np.ndarray:
    """Aberth starts for the simple factor fac: the preimages of _TREE_BASE under F^n.

    The tree is built level by level by the sampler's fiber step, in chart
    form, from the map's `float_forms`.  Its d^n leaves are matched to
    the D' = deg fac roots of the factor:
    - non-finite leaves are dropped;
    - for each known root (r, m), 0 and the roots of the repeated factors,
      the m leaves nearest r are dropped;
    - a leaf within _SEPARATION * tol * (1 + |z|) of an earlier leaf or of
      a known root is dropped: Aberth's term 1/(z_i - z_j) is not finite
      for coinciding starts, so their correction is 0 and they never move,
      and starts that close off a root pass the tolerance test;
    - beyond D' leaves, those of largest modulus go (infinity took more than
      the one root the form has beyond the d^n leaves);
    - a shortfall is filled from the front of `polygon_starts(fac)`.
    A factor of degree below _TREE_MIN_DEGREE starts on its Newton polygon,
    and so does a binomial c0 + c z^D' (a power map's), whose roots are
    equally spaced on the polygon's one circle, as its starts are.
    """
    fill = polygon_starts(fac)
    if len(fill) < _TREE_MIN_DEGREE or sum(1 for c in fac if c) == 2:
        return fill
    f0, f1 = (np.array(f) for f in forms)
    vals, invs = np.array([_TREE_BASE]), np.array([False])
    for _ in range(n):
        vals, invs = preimage_fiber(f0, f1, vals, invs)
        vals, invs = vals.T.ravel(), invs.T.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(invs, 1.0 / vals, vals)
    z = z[np.isfinite(z)]
    for r, m in known:
        z = np.delete(z, np.argsort(np.abs(z - r), kind="stable")[:m])
    z = z[~_crowded(z, [r for r, _ in known], _SEPARATION * tol)]
    if len(z) > len(fill):
        z = z[np.argsort(np.abs(z), kind="stable")[:len(fill)]]
    return np.concatenate([z, fill[:len(fill) - len(z)]])


def _crowded(z: np.ndarray, known: list, sep: float) -> np.ndarray:
    """Mask of the starts within sep * (1 + |z|) of an earlier start or a known root.

    The distances to earlier starts are taken _MATCH_ROWS starts at a time.
    """
    bound = sep * (1.0 + np.abs(z))
    out = np.zeros(len(z), dtype=bool)
    for r in known:
        out |= np.abs(z - r) <= bound
    for lo in range(0, len(z), _MATCH_ROWS):
        hi = min(lo + _MATCH_ROWS, len(z))
        near = np.abs(z[lo:hi, None] - z[None, :hi]) <= bound[lo:hi, None]
        near &= np.arange(hi)[None, :] < np.arange(lo, hi)[:, None]
        out[lo:hi] |= near.any(axis=1)
    return out


def _orbit_ratio(forms, n: int, known):
    """Newton ratio of P(z) / prod (z - r)^m over the known roots (r, m), by the orbit.

    forms are the map's `float_forms`.  The jet (X, Y, dX/dz, dY/dz) of
    F^m(z, 1) is scaled by 1/max(|X|, |Y|) after each step; F and its
    partial derivatives are homogeneous, so every entry carries the same
    product of factors and the ratio P/P' = (X - zY) / (X' - Y - zY') is
    unchanged.  A step evaluates the four partial derivatives as one
    product of a (4, d) coefficient matrix with the degree-(d-1) monomials,
    and F itself by Euler's identity d*F = X*F_X + Y*F_Y.
    """
    d = len(forms[0]) - 1
    jac = np.array([row for f in forms for row in
                    ([(i + 1) * f[i + 1] for i in range(d)],
                     [(d - i) * f[i] for i in range(d)])])

    def ratio(z, live):  # z: one column of D roots
        z = z[:, 0]
        s = np.maximum(np.abs(z), 1.0)
        x, y, dx, dy = z / s, 1.0 / s, 1.0 / s, np.zeros_like(z)
        for _ in range(n):
            xs, ys = [x], [y]  # powers 1 .. d-1
            for _ in range(d - 2):
                xs.append(xs[-1] * x)
                ys.append(ys[-1] * y)
            mono = [ys[-1]] + [xs[i - 1] * ys[d - 2 - i] for i in range(1, d - 1)] + [xs[-1]]
            f0x, f0y, f1x, f1y = jac @ np.array(mono)
            x, y, dx, dy = ((x * f0x + y * f0y) / d, (x * f1x + y * f1y) / d,
                            f0x * dx + f0y * dy, f1x * dx + f1y * dy)
            s = np.maximum(np.abs(x), np.abs(y))
            x, y, dx, dy = x / s, y / s, dx / s, dy / s
        p = x - z * y
        dp = dx - y - z * dy
        for r, m in known:  # (p / prod) / (p / prod)' = p / (p' - p * sum m / (z - r))
            dp -= p * m / (z - r)
        return (p / dp)[:, None]

    return ratio


def _successors(F: RationalMapLift, x: np.ndarray, y: np.ndarray, exact,
                tol: float) -> np.ndarray:
    """Index of the root nearest, in chordal distance, to the image of each root [x : y].

    exact holds each root's ProjectivePoint or None; an exact root's image is
    taken exactly, then rounded, as its float image can land far off next to
    a pole.  Raises NotACycle when an image is farther than tol from every
    root.  The distance matrix is built _MATCH_ROWS images at a time.
    """
    ix, iy = (form_eval(f, x, y) for f in F.float_forms[:2])
    for k, p in enumerate(exact):
        if p is not None:
            image = CPoint.from_exact(evaluate(F, p))
            ix[k], iy[k] = image.x, image.y
    norm = np.hypot(np.abs(x), np.abs(y))
    inorm = np.hypot(np.abs(ix), np.abs(iy))
    succ = np.empty(len(x), dtype=int)
    for lo in range(0, len(x), _MATCH_ROWS):
        rows = slice(lo, lo + _MATCH_ROWS)
        dist = np.abs(ix[rows, None] * y[None, :] - x[None, :] * iy[rows, None])
        dist /= inorm[rows, None] * norm[None, :]
        succ[rows] = np.argmin(dist, axis=1)
        if np.any(dist[np.arange(len(dist)), succ[rows]] > tol):
            raise NotACycle("periodic root set is not closed under the map within tol")
    return succ


def _max_period(d: int) -> int:
    """The largest n with d^n <= DEFAULT_PERIOD_CAP, for d >= 2; d^n itself is
    never formed, so the check costs nothing however large n is."""
    n, power = 0, d
    while power <= DEFAULT_PERIOD_CAP:
        n, power = n + 1, power * d
    return n


def periodic_points(F: RationalMapLift, n: int, tol: float = DEFAULT_TOL) -> list[Cycle]:
    """All cycles of period dividing n, exact periods attached, with multipliers.

    Root multiplicities above 1 in the fixed-point form (parabolic
    coincidences) are flagged on the affected cycles rather than merged away.
    d^n above DEFAULT_PERIOD_CAP raises CapExceeded; a period n below 1 or a
    tol outside (0, 1) is a ValueError.
    """
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be a number in (0, 1), got {tol}")
    if F.degree < 2:
        raise ValueError("periodic points need degree >= 2")
    if n > _max_period(F.degree):
        raise CapExceeded(f"d^n with d = {F.degree}, n = {n} exceeds the configured cap "
                          f"{DEFAULT_PERIOD_CAP}")
    roots = fixed_point_roots(F, n, tol=max(tol * 1e-3, 1e-14))
    pts = [cp for cp, _, _ in roots]
    exact = [ex for _, _, ex in roots]
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    succ = _successors(F, x, y, exact, max(tol, 1e-7))
    dst_w = (np.abs(x) > np.abs(y))[succ]
    succ = succ.tolist()
    paths, visited = [], set()
    for start in range(len(pts)):
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        cur = succ[start]
        while cur not in visited:
            path.append(cur)
            visited.add(cur)
            cur = succ[cur]
        if cur != path[0]:
            # two roots share a nearest image, so some root has none
            raise NotACycle("nearest-root matching is not a permutation of the "
                            "periodic root set")
        paths.append(path)
    # float derivatives only on the cycles with an inexact point
    rows = [i for path in paths if None in [exact[k] for k in path] for i in path]
    deriv = dict(zip(rows, _chart_derivatives(F, x[rows], y[rows], dst_w[rows]).tolist()))
    cycles: list[Cycle] = []
    for path in paths:
        points = tuple(exact[i] for i in path)
        lam = (math.prod((deriv[i] for i in path), start=1.0 + 0.0j) if None in points
               else _exact_multiplier(F, points))
        warn = any(roots[i][1] > 1 for i in path)
        cycles.append(Cycle(tuple(pts[i] for i in path), len(path), lam, points, warn))
    return cycles


def _exact_multiplier(F: RationalMapLift, points) -> complex:
    """The multiplier of a cycle of exact points, listed in orbit order.

    The charts of `_chart_derivatives` in integers: at [x : y] with image
    chart quotient A/B, the local derivative is s (A' B - A B') / B^2, with
    s = y and ' = d/dX in the z chart, s = x and ' = d/dY in the w chart.
    The product is one ratio of integers, rounded once; beyond the float
    range it is +-inf.  A zero takes the sign the float chain rule gives it.
    """
    factors = []
    for p, q in zip(points, points[1:] + points[:1]):
        s, part = (p.x, form_derivative_y) if abs(p.x) > abs(p.y) else (p.y, form_derivative_x)
        a, b = (F.f1, F.f0) if abs(q.x) > abs(q.y) else (F.f0, F.f1)
        av, bv, da, db = (form_eval(f, p.x, p.y) for f in (a, b, part(a), part(b)))
        factors.append((s * (da * bv - av * db), bv * bv))
    num, den = math.prod(t for t, _ in factors), math.prod(b for _, b in factors)
    if not num:
        return math.prod((complex(t / b) for t, b in factors), start=1.0 + 0.0j)
    try:
        return complex(num / den)
    except OverflowError:
        return complex(math.inf if num > 0 else -math.inf)


def _chart_derivatives(F: RationalMapLift, x: np.ndarray, y: np.ndarray,
                       dst_w: np.ndarray) -> np.ndarray:
    """Derivatives of the map between affine charts at the points [x : y].

    Charts: z = x/y where |x| <= |y| and w = 1/z elsewhere; the source chart
    is chosen from each point, and dst_w picks the chart of its image.  In
    the w chart the point is (1, t) and d/dt picks the Y-derivatives; in the
    z chart it is (t, 1) and d/dt picks the X-derivatives.  All four
    combinations are the derivative of a quotient of F0 and F1.
    """
    src_w = np.abs(x) > np.abs(y)
    t = np.where(src_w, y, x) / np.where(src_w, x, y)
    one = np.ones_like(t)
    X, Y = np.where(src_w, one, t), np.where(src_w, t, one)
    vals, ders = [], []
    for f in F.float_forms[:2]:
        vals.append(form_eval(f, X, Y))
        ders.append(np.where(src_w, form_eval(form_derivative_y(f), X, Y),
                             form_eval(form_derivative_x(f), X, Y)))
    num, dnum = np.where(dst_w, vals[1], vals[0]), np.where(dst_w, ders[1], ders[0])
    den, dden = np.where(dst_w, vals[0], vals[1]), np.where(dst_w, ders[0], ders[1])
    return (dnum * den - num * dden) / (den * den)


def multiplier(F: RationalMapLift, points, tol: float = 1e-7) -> complex:
    """Chain-rule multiplier of a cycle, chart-switching around infinity."""
    pts = [p if isinstance(p, CPoint) else CPoint.from_affine(p) for p in points]
    k = len(pts)
    for i, p in enumerate(pts):
        img = evaluate_cpoint(F, p)
        if img.chordal(pts[(i + 1) % k]) > tol:
            raise NotACycle("points are not cyclically permuted within tolerance")
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    lam = 1.0 + 0.0j
    for v in _chart_derivatives(F, x, y, np.roll(np.abs(x) > np.abs(y), -1)).tolist():
        lam *= v
    return lam

