"""Periodic points, multipliers, and repelling-cycle location.

Periodic points of period dividing n are the projective roots of the
degree-(d^n + 1) fixed-point form Y*F0^(n) - X*F1^(n); grouping the root set
into orbits of the map recovers the exact period of each cycle, and the
multiplier is the chain-rule product of local derivatives computed in charts
that avoid infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NotACycle
from .heights import decide_preperiodic
from .projective import (
    CPoint,
    ProjectivePoint,
    RationalMapLift,
    evaluate_cpoint,
    form_derivative_x,
    form_derivative_y,
    form_eval,
    iterate_lift,
    point_from_rational,
)

DEFAULT_PERIOD_CAP = 4096
DEFAULT_TOL = 1e-9


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


@dataclass(frozen=True)
class OrbitRecord:
    tail: int
    period: int


@dataclass(frozen=True)
class OrbitOutcome:
    """Either an exact (tail, period) record or certified divergence."""

    record: OrbitRecord | None = None
    divergent: bool = False
    height_lower_bound: float | None = None


def fixed_point_form(F: RationalMapLift) -> tuple:
    """Coefficients of Y*F0 - X*F1, the degree d+1 form vanishing on fixed points."""
    d = F.degree
    out = [0] * (d + 2)
    for i, c in enumerate(F.f0):  # Y * F0: X^i Y^(d+1-i)
        out[i] += c
    for i, c in enumerate(F.f1):  # X * F1: X^(i+1) Y^(d-i)
        out[i + 1] -= c
    return tuple(out)


def periodic_points(F: RationalMapLift, n: int, tol: float = DEFAULT_TOL,
                    cap: int = DEFAULT_PERIOD_CAP) -> list[Cycle]:
    """All cycles of period dividing n, exact periods attached, with multipliers.

    Root multiplicities above 1 in the fixed-point form (parabolic
    coincidences) are flagged on the affected cycles rather than merged away.
    """
    from .roots import binary_form_roots

    if F.degree < 2:
        raise ValueError("periodic points need degree >= 2")
    if F.degree ** n > cap:
        raise CapExceeded(f"d^n = {F.degree ** n} exceeds the configured cap {cap}")
    Fn = iterate_lift(F, n)
    roots = binary_form_roots(fixed_point_form(Fn), tol=max(tol * 1e-3, 1e-14))
    pts: list[CPoint] = []
    exacts: list[ProjectivePoint | None] = []
    mults: list[int] = []
    for cp, mult, exact in roots:
        pts.append(cp)
        exacts.append(exact)
        mults.append(mult)
    # nearest-root matching of the map on the root set
    succ = []
    for p in pts:
        img = evaluate_cpoint(F, p)
        dists = [img.chordal(q) for q in pts]
        j = min(range(len(pts)), key=dists.__getitem__)
        if dists[j] > max(tol, 1e-7):
            raise NotACycle("periodic root set is not closed under the map within tol")
        succ.append(j)
    cycles: list[Cycle] = []
    visited = set()
    has_multiple = any(m > 1 for m in mults)
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
        period = len(path)
        cyc_pts = tuple(pts[i] for i in path)
        lam = multiplier(F, cyc_pts, tol=max(tol, 1e-7))
        warn = has_multiple and any(mults[i] > 1 for i in path)
        cycles.append(Cycle(cyc_pts, period, lam,
                            tuple(exacts[i] for i in path), warn))
    return cycles


def repelling_cycles(F: RationalMapLift, n: int, tol: float = DEFAULT_TOL,
                     cap: int = DEFAULT_PERIOD_CAP) -> list[Cycle]:
    """Cycles of period dividing n whose multiplier satisfies |lambda| > 1 + tol."""
    return [c for c in periodic_points(F, n, tol=tol, cap=cap)
            if abs(c.multiplier) > 1.0 + tol]


def _chart_derivative(F: RationalMapLift, src: CPoint, dst_chart_w: bool) -> complex:
    """Derivative of the map between affine charts at src.

    Charts: z (affine coordinate x/y, used when |x/y| <= 1ish) and w = 1/z.
    The source chart is chosen from src itself; dst_chart_w picks the chart
    of the image point.  All four combinations reduce to a rational-derivative
    evaluation of P/Q with (P, Q) in {F0, F1} composed with the chart embedding.
    """
    src_w = abs(src.x) > abs(src.y)  # |z| > 1: use w = 1/z chart
    t = (src.y / src.x) if src_w else (src.x / src.y)

    f0x = form_derivative_x(F.f0)
    f0y = form_derivative_y(F.f0)
    f1x = form_derivative_x(F.f1)
    f1y = form_derivative_y(F.f1)

    if src_w:
        # embedding t -> (1, t): d/dt picks the Y-derivatives
        p0, p1 = form_eval(F.f0, 1.0, t), form_eval(F.f1, 1.0, t)
        dp0, dp1 = form_eval(f0y, 1.0, t), form_eval(f1y, 1.0, t)
    else:
        # embedding t -> (t, 1): d/dt picks the X-derivatives
        p0, p1 = form_eval(F.f0, t, 1.0), form_eval(F.f1, t, 1.0)
        dp0, dp1 = form_eval(f0x, t, 1.0), form_eval(f1x, t, 1.0)

    if dst_chart_w:
        num, dnum, den, dden = p1, dp1, p0, dp0
    else:
        num, dnum, den, dden = p0, dp0, p1, dp1
    return (dnum * den - num * dden) / (den * den)


def multiplier(F: RationalMapLift, points, tol: float = 1e-7) -> complex:
    """Chain-rule multiplier of a cycle, chart-switching around infinity."""
    pts = [p if isinstance(p, CPoint) else CPoint.from_affine(p) for p in points]
    k = len(pts)
    for i, p in enumerate(pts):
        img = evaluate_cpoint(F, p)
        if img.chordal(pts[(i + 1) % k]) > tol:
            raise NotACycle("points are not cyclically permuted within tolerance")
    lam = 1.0 + 0.0j
    for i, p in enumerate(pts):
        nxt = pts[(i + 1) % k]
        dst_w = abs(nxt.x) > abs(nxt.y)
        lam *= _chart_derivative(F, p, dst_w)
    return lam


def orbit_record(F: RationalMapLift, p) -> OrbitOutcome:
    """Exact orbit bookkeeping: minimal (tail, period) or certified divergence."""
    p = point_from_rational(p)
    verdict = decide_preperiodic(F, p)
    if verdict.preperiodic:
        return OrbitOutcome(record=OrbitRecord(verdict.tail, verdict.period))
    return OrbitOutcome(divergent=True, height_lower_bound=verdict.height_lower_bound)
