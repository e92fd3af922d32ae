"""Exceptional maps: construction and classification by orbifold signature.

A degree d >= 2 rational map is exceptional when it is conjugate to z^(+-d),
to +-T_d (Chebyshev), or is a Lattès map; equivalently it is post-critically
finite with parabolic orbifold.  Classification computes the ramification
portrait (critical orbits with collision detection, exact where points are
rational; numeric points merge below MERGE_DISTANCE, 1e-9 chordal, and a
split below AMBIGUOUS_DISTANCE, its square root, is Inconclusive) and the
minimal orbifold weights, then reads the signature:
(inf, inf) power-like, (2, 2, inf) Chebyshev-like, and the four compact
parabolic signatures for Lattès.

`NotPCF` and `Classification` are NamedTuples; the portrait records, which
`ramification_portrait` updates in place, are slotted classes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

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
MERGE_DISTANCE = 1e-9  # chordal distance below which two portrait points merge
AMBIGUOUS_DISTANCE = math.sqrt(MERGE_DISTANCE)  # up to here, an unproven split is Inconclusive

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


class _Mutable:
    """Field-wise repr and equality (unhashable) for the records a portrait
    updates in place; each subclass lists its fields in __slots__."""

    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = attrgetter(*self.__slots__)
        return values(self) == values(other)


class PortraitNode(_Mutable):
    __slots__ = ("approx", "exact", "critical_multiplicity", "image", "weight")

    def __init__(self, approx: CPoint, exact: ProjectivePoint | None = None,
                 critical_multiplicity: int = 0, image: int | None = None,
                 weight: float = 1):  # int, or INF_WEIGHT once forced
        self.approx = approx
        self.exact = exact
        self.critical_multiplicity = critical_multiplicity
        self.image = image
        self.weight = weight

    @property
    def local_degree(self) -> int:
        return self.critical_multiplicity + 1


class RamificationPortrait(_Mutable):
    """Critical orbits with collision-checked closure and orbifold weights."""

    __slots__ = ("nodes", "exact", "signature")

    def __init__(self, nodes: list, exact: bool, signature: tuple = ()):
        self.nodes = nodes
        self.exact = exact
        self.signature = signature


class NotPCF(NamedTuple):
    """Certified witness that some critical orbit does not close up."""

    witness_point: object
    orbit_length: int
    reason: str


class Classification(NamedTuple):
    verdict: str  # PowerConjugate | ChebyshevConjugate | Lattes | NonExceptional
    signature: tuple | None
    pcf: bool
    exact: bool
    witness: object = None


class _NodeStore:
    """Find-or-add store for portrait points.

    Collision rule: chordal distance < MERGE_DISTANCE merges (certified only
    when both sides are exact and equal); distance in [MERGE_DISTANCE,
    AMBIGUOUS_DISTANCE) between points that are not certifiably distinct
    raises Inconclusive; two unequal exact rationals are always distinct,
    however close.
    """

    def __init__(self):
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
        if best is not None and best_d < AMBIGUOUS_DISTANCE:
            node = self.nodes[best]
            certifiably_distinct = exact is not None and node.exact is not None
            if certifiably_distinct:
                pass  # unequal exact rationals: genuinely distinct points
            elif best_d < MERGE_DISTANCE:
                if exact is not None and node.exact is None:
                    node.exact = exact
                self.all_collisions_exact = False
                return best, True
            else:
                raise Inconclusive(
                    f"orbit points at chordal distance {best_d:.3e} fall in the "
                    f"ambiguous zone [{MERGE_DISTANCE:.0e}, {AMBIGUOUS_DISTANCE:.0e})")
        self.nodes.append(PortraitNode(approx=approx, exact=exact))
        return len(self.nodes) - 1, False


def ramification_portrait(F: RationalMapLift, max_orbit: int = 64):
    """Follow every critical orbit to closure; portrait or a NotPCF witness.

    Rational critical points are certified through the exact preperiodicity
    decision (divergence is then a proof, not a budget timeout); other orbits
    accept collisions at chordal distance < MERGE_DISTANCE and mark the
    portrait inexact.  A numeric orbit point of a polynomial beyond
    `_escape_bound` is a NotPCF witness, itself a CPoint.  A collision in the
    ambiguous zone, weights that do not stabilize, or a critical orbit still
    open after max_orbit steps (running out of budget proves nothing) raises
    Inconclusive.  A negative max_orbit is a ValueError.
    """
    if max_orbit < 0:
        raise ValueError(f"max_orbit must be >= 0, got {max_orbit}")
    crits, _ = critical_points(F)
    store = _NodeStore()
    escape = None  # `_escape_bound`, computed at the first numeric image
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
        for step in range(1, max_orbit + 2):
            cur_node = store.nodes[cur]
            if cur_node.image is not None:
                break  # merged into an already-followed orbit
            if cur_node.exact is not None:
                img_exact = evaluate(F, cur_node.exact)
                img_approx = CPoint.from_exact(img_exact)
            else:
                img_exact = None
                img_approx = evaluate_cpoint(F, cur_node.approx)
                if escape is None:
                    escape = _escape_bound(F)
                if abs(img_approx.x) > escape * abs(img_approx.y):
                    return NotPCF(img_approx, step, "a critical orbit of a polynomial "
                                  "passes twice its escape radius")
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


def _escape_bound(F: RationalMapLift) -> float:
    """2R for a polynomial F = (sum a_i z^i) / b, math.inf for any other map.

    R = max(1, (sum_{i<d} |a_i| + 2|b|) / |a_d|): for |z| >= R,
    |f(z)| >= |z|^(d-1) (|a_d| |z| - sum_{i<d} |a_i|) / |b| >= 2|z|, so an
    orbit point beyond R escapes to infinity.  The factor 2 leaves a float
    orbit point room for its rounding.  Computed from the integer
    coefficients; a bound past the float range is math.inf.
    """
    if any(F.f1[1:]):
        return math.inf
    top = abs(F.f0[-1])
    try:
        return 2 * max(top, sum(map(abs, F.f0[:-1])) + 2 * abs(F.f1[0])) / top
    except OverflowError:
        return math.inf


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

def classify(F: RationalMapLift, max_orbit: int = 64) -> Classification:
    """Trichotomy by orbifold signature; non-PCF maps carry their witness.

    An ambiguous portrait, or a critical orbit that neither closes nor is
    certified wandering within max_orbit steps, raises Inconclusive (from
    `ramification_portrait`), and so does `mm-verify`: a NonExceptional
    verdict from an open critical orbit rests on a witness, certified or
    (exact False) a float orbit point past a polynomial's `_escape_bound`.
    """
    if F.degree < 2:
        raise ValueError("classification needs degree >= 2")
    portrait = ramification_portrait(F, max_orbit=max_orbit)
    if isinstance(portrait, NotPCF):  # exact unless the witness is a numeric point
        exact = isinstance(portrait.witness_point, ProjectivePoint)
        return Classification("NonExceptional", None, False, exact, portrait)
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
