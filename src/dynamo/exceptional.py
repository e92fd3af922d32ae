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

Every record is a NamedTuple; `ramification_portrait` builds the portrait's
once its critical orbits close.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateMap, Inconclusive, SingularCurve
from .heights import decide_preperiodic
from .projective import (
    CPoint,
    ProjectivePoint,
    RationalMapLift,
    _cycles,
    evaluate,
    evaluate_cpoint,
    float_coefficients,
    form_eval,
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
    """The degree 2d-2 critical form F0_X F1_Y - F0_Y F1_X.

    With F0 = sum a_i X^i Y^(d-i) and F1 = sum b_j X^j Y^(d-j) it is
    d sum (i - j) a_i b_j X^(i+j-1) Y^(2d-1-i-j), the terms i = j vanishing.
    """
    d = F.degree
    w = [0] * (2 * d - 1)
    for i, a in enumerate(F.f0):
        if a:
            for j, b in enumerate(F.f1):
                if b and i != j:
                    w[i + j - 1] += d * (i - j) * a * b
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


class PortraitNode(NamedTuple):
    """A portrait point with its critical multiplicity, image and weight."""

    approx: CPoint
    exact: ProjectivePoint | None
    critical_multiplicity: int
    image: int  # index of the node f maps this one to
    weight: float  # int, or INF_WEIGHT once forced

    @property
    def local_degree(self) -> int:
        return self.critical_multiplicity + 1


class RamificationPortrait(NamedTuple):
    """Critical orbits with collision-checked closure and orbifold weights."""

    nodes: tuple
    exact: bool
    signature: tuple


class NotPCF(NamedTuple):
    """Witness that a critical orbit does not close up, or that a cycle with
    no critical point attracts."""

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
    """Find-or-add store for portrait points, one list per node field.

    Collision rule: chordal distance < MERGE_DISTANCE merges (certified only
    when both sides are exact and equal); distance in [MERGE_DISTANCE,
    AMBIGUOUS_DISTANCE) between points that are not certifiably distinct
    raises Inconclusive; two unequal exact rationals are always distinct,
    however close.
    """

    def __init__(self):
        self.approx, self.exact, self.multiplicity, self.image = [], [], [], []
        self.all_collisions_exact = True

    def find_or_add(self, approx: CPoint, exact: ProjectivePoint | None):
        if exact is not None and exact in self.exact:
            return self.exact.index(exact), True
        x, y, norm = approx.x, approx.y, math.hypot(abs(approx.x), abs(approx.y))
        best, best_d = None, math.inf
        for i, p in enumerate(self.approx):  # `CPoint.chordal`, inlined
            d = abs(p.x * y - x * p.y) / (math.hypot(abs(p.x), abs(p.y)) * norm)
            if d < best_d:
                best, best_d = i, d
        # unequal exact rationals are genuinely distinct points, however close
        if best_d < AMBIGUOUS_DISTANCE and (exact is None or self.exact[best] is None):
            if best_d >= MERGE_DISTANCE:
                raise Inconclusive(
                    f"orbit points at chordal distance {best_d:.3e} fall in the "
                    f"ambiguous zone [{MERGE_DISTANCE:.0e}, {AMBIGUOUS_DISTANCE:.0e})")
            if exact is not None:
                self.exact[best] = exact
            self.all_collisions_exact = False
            return best, True
        self.approx.append(approx)
        self.exact.append(exact)
        self.multiplicity.append(0)
        self.image.append(None)
        return len(self.approx) - 1, False


def ramification_portrait(F: RationalMapLift, max_orbit: int = 64):
    """Follow every critical orbit to closure; portrait or a NotPCF witness.

    Rational critical points are certified through the exact preperiodicity
    decision (divergence is then a proof, not a budget timeout); other orbits
    accept collisions at chordal distance < MERGE_DISTANCE and mark the
    portrait inexact.  A numeric orbit point of a polynomial beyond
    `_escape_bound` is a NotPCF witness, itself a CPoint, and so is a point
    of an attracting cycle of an inexact portrait (`_attracting_cycle`).  A
    collision in the ambiguous zone, weights that do not stabilize, or a
    critical orbit still open after max_orbit steps (running out of budget
    proves nothing) raises Inconclusive.  A negative max_orbit is a
    ValueError.  The records are built once every critical orbit is closed.
    """
    if max_orbit < 0:
        raise ValueError(f"max_orbit must be >= 0, got {max_orbit}")
    crits, _ = critical_points(F)
    store = _NodeStore()
    escape = None  # `_escape_bound`, computed at the first numeric image
    for cp, mult, exact in crits:
        idx, _ = store.find_or_add(cp, exact)
        store.multiplicity[idx] += mult

    for start in range(len(store.approx)):  # the critical nodes
        if store.exact[start] is not None:
            verdict = decide_preperiodic(F, store.exact[start])
            if not verdict.preperiodic:
                return NotPCF(store.exact[start], verdict.certificate_index or 0,
                              "rational critical orbit has certified positive canonical height")
        cur = start
        for step in range(1, max_orbit + 2):
            if store.image[cur] is not None:
                break  # merged into an already-followed orbit
            if store.exact[cur] is not None:
                img_exact = evaluate(F, store.exact[cur])
                img_approx = CPoint.from_exact(img_exact)
            else:
                img_exact = None
                img_approx = evaluate_cpoint(F, store.approx[cur])
                if escape is None:
                    escape = _escape_bound(F)
                if abs(img_approx.x) > escape * abs(img_approx.y):
                    return NotPCF(img_approx, step, "a critical orbit of a polynomial "
                                  "passes twice its escape radius")
            img_idx, existed = store.find_or_add(img_approx, img_exact)
            store.image[cur] = img_idx
            if existed and store.image[img_idx] is not None:
                break
            cur = img_idx
        else:
            raise Inconclusive(f"a critical orbit is still open after max_orbit = "
                               f"{max_orbit} steps; a larger budget may close it")

    all_exact = store.all_collisions_exact and None not in store.exact
    witness = None if all_exact else _attracting_cycle(F, store)
    if witness is not None:
        return witness
    weights = _assign_weights([m + 1 for m in store.multiplicity], store.image)
    nodes = tuple(map(PortraitNode, store.approx, store.exact, store.multiplicity,
                      store.image, weights))
    return RamificationPortrait(nodes, all_exact, tuple(sorted(w for w in weights if w > 1)))


def _attracting_cycle(F: RationalMapLift, store: _NodeStore) -> NotPCF | None:
    """A NotPCF witness on a cycle of the portrait with no critical point and
    |multiplier| < 1, or None.

    A PCF map has no such cycle: the basin of an attracting cycle with no
    critical point holds a critical point whose orbit is infinite (Fatou;
    Milnor, Dynamics in One Complex Variable, 3rd ed., section 8).  |lambda|
    is the product over the cycle of the spherical derivative
    f#(p) = |J(p)| |p|^2 / (d |F(p)|^2), 2-norms and J = `wronskian(F)`, from
    the `float_forms` over 2^e and the `float_coefficients` of J over 2^ew;
    the scale 2^(ew - 2e) is carried in logs, so no product leaves the float
    range.
    """
    f0, f1, e = F.float_forms
    jac, ew = float_coefficients(wronskian(F))
    shift = (ew - 2 * e) * math.log(2) - math.log(F.degree)
    for cycle in _cycles(store.image):
        if any(store.multiplicity[i] for i in cycle):
            continue
        log_lam = 0.0
        for i in cycle:
            p = store.approx[i]
            j = abs(form_eval(jac, p.x, p.y))
            fp = math.hypot(abs(form_eval(f0, p.x, p.y)), abs(form_eval(f1, p.x, p.y)))
            log_lam += (math.log(j) if j else -math.inf) + shift + 2 * (
                math.log(math.hypot(abs(p.x), abs(p.y))) - math.log(fp))
        if log_lam < 0:
            return NotPCF(store.approx[cycle[0]], len(cycle),
                          "a cycle without a critical point is attracting")
    return None


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


def _assign_weights(degrees, image) -> list:
    """Minimal weights with nu(f(y)) divisible by nu(y) * deg_y(f); inf absorbs.

    degrees[i] is node i's local degree and image[i] its image node.  Cycles
    of local-degree product above 1 take weight infinity, which stays on
    them; the rest is the least fixed point of lcm propagation along edges.
    """
    weights = [1] * len(image)
    for cycle in _cycles(image):
        if math.prod(degrees[i] for i in cycle) > 1:
            for i in cycle:
                weights[i] = INF_WEIGHT
    for _ in range(4 * len(image) ** 2 + 8):
        changed = False
        for i, j in enumerate(image):
            if weights[i] == INF_WEIGHT or weights[j] == INF_WEIGHT:
                continue
            new = math.lcm(weights[j], weights[i] * degrees[i])
            if new != weights[j]:
                weights[j] = new
                changed = True
        if not changed:
            return weights
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
