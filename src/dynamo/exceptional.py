"""Exceptional maps: construction and classification by orbifold signature.

A degree d >= 2 rational map is exceptional when it is conjugate to z^(+-d),
to +-T_d (Chebyshev), or is a Lattès map; equivalently it is post-critically
finite with parabolic orbifold.  Classification computes the ramification
portrait (critical orbits with collision detection, exact where points are
rational) and the minimal orbifold weights, then reads the signature:
(inf, inf) power-like, (2, 2, inf) Chebyshev-like, and the four compact
parabolic signatures for Lattès.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateMap, Inconclusive, SingularCurve
from .heights import decide_preperiodic
from .projective import (
    CPoint,
    ProjectivePoint,
    RationalMapLift,
    evaluate,
    evaluate_cpoint,
    form_derivative_x,
    form_derivative_y,
    poly_mul,
    primitive_int,
)
from .roots import binary_form_roots

INF_WEIGHT = math.inf

PARABOLIC_COMPACT = {(2, 2, 2, 2), (2, 4, 4), (2, 3, 6), (3, 3, 3)}


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def chebyshev_coeffs(d: int) -> list[int]:
    """Affine coefficients (ascending) of T_d, from T_{k+1} = w T_k - T_{k-1}.

    Normalization: T_d(z + 1/z) = z^d + 1/z^d, so T_1 = w and T_2 = w^2 - 2.
    """
    if d < 1:
        raise ValueError("Chebyshev degree must be >= 1")
    prev = [2]      # T_0
    cur = [0, 1]    # T_1
    for _ in range(d - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def chebyshev(d: int) -> RationalMapLift:
    """Lift of the degree-d Chebyshev polynomial T_d."""
    coeffs = chebyshev_coeffs(d)
    return RationalMapLift.make(coeffs, [1] + [0] * d)


def power_map(d: int) -> RationalMapLift:
    """Lift of z^d (d >= 2) or z^-|d| (d <= -2)."""
    if abs(d) < 2:
        raise ValueError("|d| must be >= 2")
    k = abs(d)
    xk = [0] * k + [1]
    yk = [1] + [0] * k
    if d > 0:
        return RationalMapLift.make(xk, yk)
    return RationalMapLift.make(yk, xk)


def lattes_doubling(a, b) -> RationalMapLift:
    """x-coordinate action of multiplication by 2 on y^2 = x^3 + a x + b.

    f(x) = (x^4 - 2 a x^2 - 8 b x + a^2) / (4 (x^3 + a x + b)); SingularCurve
    when 4 a^3 + 27 b^2 = 0.
    """
    a, b = Fraction(a), Fraction(b)
    if 4 * a**3 + 27 * b**2 == 0:
        raise SingularCurve("4a^3 + 27b^2 = 0: the Weierstrass curve is singular")
    f0 = [a * a, -8 * b, -2 * a, Fraction(0), Fraction(1)]
    f1 = [4 * b, 4 * a, Fraction(0), Fraction(4), Fraction(0)]
    coeffs = primitive_int(f0 + f1)
    return RationalMapLift.make(coeffs[:5], coeffs[5:])


# ---------------------------------------------------------------------------
# ramification portraits
# ---------------------------------------------------------------------------

def wronskian(F: RationalMapLift) -> tuple:
    """The degree 2d-2 critical form F0_X F1_Y - F0_Y F1_X."""
    ax = form_derivative_x(F.f0)
    ay = form_derivative_y(F.f0)
    bx = form_derivative_x(F.f1)
    by = form_derivative_y(F.f1)
    w = [0] * (2 * F.degree - 1)
    for i, c in enumerate(poly_mul(list(ax), list(by))):
        w[i] += c
    for i, c in enumerate(poly_mul(list(ay), list(bx))):
        w[i] -= c
    return tuple(w)


def critical_points(F: RationalMapLift):
    """All 2d-2 critical points with multiplicity, plus the exact rational ones.

    Returns (points, rational) where points is a list of (CPoint, multiplicity,
    exact ProjectivePoint or None) and rational collects the exact sublist.
    """
    if F.degree < 2:
        raise DegenerateMap("critical points need degree >= 2")
    pts = binary_form_roots(wronskian(F))
    total = sum(m for _, m, _ in pts)
    assert total == 2 * F.degree - 2, "critical form root count must be 2d-2"
    rational = [ex for _, _, ex in pts if ex is not None]
    return pts, rational


@dataclass
class PortraitNode:
    approx: CPoint
    exact: ProjectivePoint | None = None
    critical_multiplicity: int = 0
    image: int | None = None
    weight: float = 1  # int, or INF_WEIGHT once forced

    @property
    def local_degree(self) -> int:
        return self.critical_multiplicity + 1


@dataclass
class RamificationPortrait:
    """Critical orbits with collision-checked closure and orbifold weights."""

    nodes: list
    exact: bool
    signature: tuple = ()


@dataclass(frozen=True)
class NotPCF:
    """Certified witness that some critical orbit does not close up."""

    witness_point: object
    orbit_length: int
    reason: str


@dataclass(frozen=True)
class Classification:
    verdict: str  # PowerConjugate | ChebyshevConjugate | Lattes | NonExceptional
    signature: tuple | None
    pcf: bool
    exact: bool
    witness: object = None


class _NodeStore:
    """Find-or-add store for portrait points.

    Collision rule: chordal distance < tol merges (certified only when both
    sides are exact and equal); distance in [tol, sqrt(tol)) between points
    that are not certifiably distinct raises Inconclusive; two unequal
    exact rationals are always distinct, however close.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.ambiguous = math.sqrt(tol)
        self.nodes: list[PortraitNode] = []
        self.all_collisions_exact = True

    def find_or_add(self, approx: CPoint, exact: ProjectivePoint | None):
        if exact is not None:
            for i, node in enumerate(self.nodes):
                if node.exact == exact:
                    return i, True
        best, best_d = None, math.inf
        for i, node in enumerate(self.nodes):
            d = node.approx.chordal(approx)
            if d < best_d:
                best, best_d = i, d
        if best is not None and best_d < self.ambiguous:
            node = self.nodes[best]
            certifiably_distinct = exact is not None and node.exact is not None
            if certifiably_distinct:
                pass  # unequal exact rationals: genuinely distinct points
            elif best_d < self.tol:
                if exact is not None and node.exact is None:
                    node.exact = exact
                self.all_collisions_exact = False
                return best, True
            else:
                raise Inconclusive(
                    f"orbit points at chordal distance {best_d:.3e} fall in the "
                    f"ambiguous zone [{self.tol:.0e}, {self.ambiguous:.0e})")
        self.nodes.append(PortraitNode(approx=approx, exact=exact))
        return len(self.nodes) - 1, False


def ramification_portrait(F: RationalMapLift, max_orbit: int = 64,
                          tol: float = 1e-9):
    """Follow every critical orbit to closure; portrait or a NotPCF witness.

    Rational critical points are certified through the exact preperiodicity
    decision (divergence is then a proof, not a budget timeout); other orbits
    accept collisions at chordal distance < tol and mark the portrait inexact.
    A collision in the ambiguous zone, weights that do not stabilize, or a
    critical orbit still open after max_orbit steps (running out of budget
    proves nothing) raises Inconclusive.  A negative max_orbit is a
    ValueError.
    """
    if max_orbit < 0:
        raise ValueError(f"max_orbit must be >= 0, got {max_orbit}")
    crits, _ = critical_points(F)
    store = _NodeStore(tol)
    crit_ids = []
    for cp, mult, exact in crits:
        idx, _ = store.find_or_add(cp, exact)
        store.nodes[idx].critical_multiplicity += mult
        crit_ids.append(idx)

    for start in sorted(set(crit_ids)):
        node = store.nodes[start]
        if node.exact is not None:
            verdict = decide_preperiodic(F, node.exact)
            if not verdict.preperiodic:
                return NotPCF(node.exact, verdict.certificate_index or 0,
                              "rational critical orbit has certified positive canonical height")
        cur = start
        for _ in range(max_orbit + 1):
            cur_node = store.nodes[cur]
            if cur_node.image is not None:
                break  # merged into an already-followed orbit
            if cur_node.exact is not None:
                img_exact = evaluate(F, cur_node.exact)
                img_approx = CPoint.from_exact(img_exact)
            else:
                img_exact = None
                img_approx = evaluate_cpoint(F, cur_node.approx)
            img_idx, existed = store.find_or_add(img_approx, img_exact)
            cur_node.image = img_idx
            if existed and store.nodes[img_idx].image is not None:
                break
            cur = img_idx
        else:
            raise Inconclusive(f"a critical orbit is still open after max_orbit = "
                               f"{max_orbit} steps; a larger budget may close it")

    _assign_weights(store.nodes)
    signature = tuple(sorted(n.weight for n in store.nodes if n.weight > 1))
    all_exact = store.all_collisions_exact and all(n.exact is not None for n in store.nodes)
    return RamificationPortrait(nodes=store.nodes, exact=all_exact, signature=signature)


def _assign_weights(nodes) -> None:
    """Minimal weights with nu(f(y)) divisible by nu(y) * deg_y(f); inf absorbs.

    Cycles whose local-degree product exceeds 1 force weight infinity; the
    rest is the least fixed point of lcm propagation along portrait edges.
    """
    n = len(nodes)
    color = [0] * n
    for s in range(n):
        if color[s]:
            continue
        path = []
        cur = s
        while cur is not None and color[cur] == 0:
            color[cur] = 1
            path.append(cur)
            cur = nodes[cur].image
        if cur is not None and color[cur] == 1:
            cyc = path[path.index(cur):]
            prod = 1
            for i in cyc:
                prod *= nodes[i].local_degree
            if prod > 1:
                for i in cyc:
                    nodes[i].weight = INF_WEIGHT
        for i in path:
            color[i] = 2
    for _ in range(4 * n * n + 8):
        changed = False
        for node in nodes:
            if node.image is None:
                continue
            img = nodes[node.image]
            if node.weight == INF_WEIGHT:
                if img.weight != INF_WEIGHT:
                    img.weight = INF_WEIGHT
                    changed = True
                continue
            if img.weight == INF_WEIGHT:
                continue
            new = math.lcm(int(img.weight), int(node.weight) * node.local_degree)
            if new != img.weight:
                img.weight = new
                changed = True
        if not changed:
            return
    raise Inconclusive("orbifold weights failed to stabilize")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(F: RationalMapLift, max_orbit: int = 64, tol: float = 1e-9) -> Classification:
    """Trichotomy by orbifold signature; non-PCF maps carry their witness.

    tol (the collision distance) must lie in (0, 1), else ValueError.  An
    ambiguous portrait, or a critical orbit that neither closes nor is
    certified wandering within max_orbit steps, raises Inconclusive (from
    `ramification_portrait`), and so does `mm-verify`: a NonExceptional
    verdict from an open critical orbit always rests on a certified witness.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be a number in (0, 1), got {tol}")
    if F.degree < 2:
        raise ValueError("classification needs degree >= 2")
    portrait = ramification_portrait(F, max_orbit=max_orbit, tol=tol)
    if isinstance(portrait, NotPCF):
        return Classification("NonExceptional", None, False, True, portrait)
    sig = portrait.signature
    finite = tuple(int(w) for w in sig if w != INF_WEIGHT)
    n_inf = sum(1 for w in sig if w == INF_WEIGHT)
    if n_inf == 2 and not finite:
        verdict = "PowerConjugate"
    elif n_inf == 1 and finite == (2, 2):
        verdict = "ChebyshevConjugate"
    elif n_inf == 0 and finite in PARABOLIC_COMPACT:
        verdict = "Lattes"
    else:
        verdict = "NonExceptional"
    return Classification(verdict, sig, True, portrait.exact, portrait)
