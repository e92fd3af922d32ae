"""Certified canonical heights over Q and the preperiodicity decision procedure.

The canonical height of x under a degree-d map f is the limit of
h(f^n(x))/d^n, where h is the Weil height log max(|p|,|q|) on coprime
integer representatives.  One orbit step changes the height by at most a
constant C computed from the lift's coefficients and its Bezout certificate,
so V_N = h(P_N)/d^N satisfies |canonical - V_N| <= C/(d^N (d-1)).

`canonical_height` computes V_N without building the giant iterate P_N.
With P_{k+1} = F(P_k)/g_k and g_k = gcd(F0(P_k), F1(P_k)) the sum telescopes:

    V_N = h(P_0) + sum_{k<N} d^-(k+1) (a(P_k) - log g_k),
    a(Q) = log ||F(Q)|| - d log ||Q||,

and the two parts of each term are computed apart.

* a(Q) depends only on the direction of Q, and it is stable because
  Res != 0: a relative perturbation delta of Q moves F(Q) by at most
  kappa ((1+delta)^d - 1) relative, kappa = L B'/|Res|, since
  ||F(X)|| <= L ||X||^d (L the larger coefficient L1 norm) and
  ||F(X)|| >= |Res| ||X||^d / B' (B' from the Bezout certificate).  So the
  direction is carried as an integer pair of B bits: F is evaluated exactly
  on it and the result is truncated back to B bits.  The relative error
  grows by a factor of about d kappa per step, and B is chosen from N and
  these constants so that the whole archimedean sum is off by no more than
  the double rounding of the result.
* g_k divides Res (Bezout), so it is gcd(F0(P_k), F1(P_k), |Res|), which the
  orbit modulo |Res|^(steps left) determines exactly; the modulus loses one
  factor |Res| per step.  No factorization is needed.

The first steps run `_walk`, the exact orbit of `decide_preperiodic`, while
max(|x|,|y|)^(d-1) <= K = exp(C), so an orbit collision still returns the
exact height 0; past that box the point has positive canonical height and no
collision can follow.  The certified radius is C/(d^N (d-1)) plus a bound on
the truncation and float rounding (logs included), and it never exceeds the
target.  N and B both grow linearly in log(1/target), so a run costs N
products of B-bit integers, where the exact orbit's digit count grew like
d^N.  Orbits that decide anything (`decide_preperiodic`) stay exact.

`rational_preperiodic_points` searches a box of rationals with the same
certificate: the orbits of all candidates step together in int64, each
image reduced by its gcd, and a candidate whose iterate leaves the box
max(|x|,|y|)^(d-1) <= K is wandering, as `decide_preperiodic` would find;
only the few candidates left are decided one by one.

The results are NamedTuples.  `CanonicalHeightResult` equality includes its
`local_breakdown` diagnostics, and a result holding that dict does not hash.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from .modp import is_probable_prime
from .projective import (
    DEFAULT_DIGIT_CAP,
    ProjectivePoint,
    RationalMapLift,
    check_cap,
    evaluate,
    form_eval,
    int_root_floor,
    point_from_rational,
)


def log_int(n: int) -> float:
    """log of a positive integer of arbitrary size."""
    if n <= 0:
        raise ValueError("log_int needs a positive integer")
    bits = n.bit_length()
    if bits <= 900:
        return math.log(n)
    top = n >> (bits - 64)
    return math.log(top) + (bits - 64) * math.log(2.0)


def _padic_valuation(q: Fraction, p: int) -> int:
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    m = q.denominator
    while m % p == 0:
        m //= p
        v -= 1
    return v


_SIEVE = bytearray([0, 0]) + bytearray([1]) * 998  # the sieve of Eratosthenes
for _q in range(2, 32):
    _SIEVE[_q * _q::_q] = bytes(len(range(_q * _q, 1000, _q)))
#: primes below 1000, the trial divisors of `factorize`
_SMALL_PRIMES = [q for q, prime in enumerate(_SIEVE) if prime]


def factorize(n: int) -> dict[int, int]:
    """Trial division by the primes below 1000: their exponents in n, and the
    cofactor left, when above 1, as one more factor of exponent 1.

    The cofactor has no prime factor below 1000, so it is prime when below
    10^6; above, it may be a product of large primes, which no step splits.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = 1
    return out


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def weil_height(p: ProjectivePoint) -> float:
    """log max(|x|, |y|) on the coprime representative; 0 at infinity and units."""
    return log_int(max(abs(p.x), abs(p.y)))


def _l1(coeffs) -> int:
    return sum(abs(c) for c in coeffs)


def _step_constants(F: RationalMapLift) -> tuple[int, int, int]:
    """(L, B', K): L || X ||^d >= ||F(X)|| >= |Res| ||X||^d / B' for every
    real X, and the step bound K = max(L, B', 1).

    L is the larger coefficient L1 norm of F0, F1.  The Bezout identities give
    |Res| M^(2d-1) <= B' M^(d-1) ||F(x,y)|| with M = ||(x,y)|| and B' the
    worst identity's summed cofactor L1 norms.  Then |h(f(x)) - d h(x)| <=
    log K for all rational x: the upper side from L, and the lower side
    because gcd(F0,F1)(x,y) divides Res on coprime (x, y), so
    h(f(x)) >= d h(x) - log B'.
    """
    cert = F.certificate()
    upper = max(_l1(F.f0), _l1(F.f1))
    lower = max(_l1(cert.g0x) + _l1(cert.g1x), _l1(cert.g0y) + _l1(cert.g1y))
    return upper, lower, max(upper, lower, 1)


def step_bound_int(F: RationalMapLift) -> int:
    """Integer K with |h(f(x)) - d h(x)| <= log K for all rational x."""
    return _step_constants(F)[2]


def height_step_bound(F: RationalMapLift) -> float:
    """The constant C >= sup |h(f(x)) - d h(x)|, as a float."""
    return log_int(step_bound_int(F))


class CanonicalHeightResult(NamedTuple):
    """A certified height: value within error_radius of the canonical height.

    local_breakdown holds the diagnostics, a dict from `canonical_height`.
    """

    value: float
    error_radius: float
    iterations: int
    height_step_bound: float
    local_breakdown: dict | None = None


class PreperiodicityVerdict(NamedTuple):
    preperiodic: bool
    tail: int | None = None
    period: int | None = None
    height_lower_bound: float | None = None
    certificate_index: int | None = None  # orbit index witnessing h > C/(d-1)


def _walk(F: RationalMapLift, p: ProjectivePoint, bound_k: int, cap_digits: int,
          limit: int | None = None, gcds: list[int] | None = None):
    """The exact orbit of p until it collides, leaves the box or takes `limit`
    steps (None: no limit).

    The one exact-orbit loop of `decide_preperiodic` and `canonical_height`.
    Each step stops at a point outside the box max(|x|,|y|)^(d-1) <= K (its
    canonical height is positive), checks the point against cap_digits,
    applies F and normalizes, and stops when the image revisits the orbit.
    Returns (last point, steps taken, first-visit index of the last point if
    the orbit collided, else None).  When gcds is given, each step appends
    gcd(F0(P), F1(P)), read off the normalization.
    """
    d = F.degree
    seen = {p: 0}
    cur, n = p, 0
    while n != limit:
        m = max(abs(cur.x), abs(cur.y))
        if m ** (d - 1) > bound_k:
            break
        check_cap(m, cap_digits, "orbit coordinate")
        x0, x1 = form_eval(F.f0, cur.x, cur.y), form_eval(F.f1, cur.x, cur.y)
        cur = ProjectivePoint(x0, x1)
        n += 1
        if gcds is not None:
            gcds.append(abs(x0) // abs(cur.x) if cur.x else abs(x1))
        if cur in seen:
            return cur, n, seen[cur]
        seen[cur] = n
    return cur, n, None


#: unit roundoff of a double
_U = 2.0 ** -53
_LN2 = math.log(2.0)


def _rounding_bound(n: int, d: int, h0: float, c_const: float, log_res: float) -> float:
    """Bound on the float error of the value assembled from n steps.

    Every partial sum is at most S = h(P_0) + (2C + log|Res|)/(d-1) + 1 in
    size, so the additions and the first term h(P_k0)/d^k0 cost at most
    (n + 3) u S.  Term k, a(P_k) - log g_k from two 60-bit mantissas, two
    logs and a power of two, divided by d^(k+1), costs at most
    u (9d + 12 + 6C + 5 log|Res|) d^-(k+1).  The factor 2 covers
    second-order terms.
    """
    s = h0 + (2 * c_const + log_res) / (d - 1) + 1
    terms = (9 * d + 12 + 6 * c_const + 5 * log_res) / (d - 1)
    return 2 * _U * ((n + 3) * s + terms)


def _truncation_error(log_kappa: float, d: int, n: int, bits: int) -> float:
    """Bound on the archimedean sum's error when P_k is carried on `bits` bits.

    The pair Q_k approximates t P_k (some t > 0) with relative sup-norm error
    delta_k.  F(Q_k) then approximates F(t P_k) with relative error
    kappa ((1+delta_k)^d - 1), kappa = L B' / |Res|, and truncating back to
    `bits` bits adds (1 + that) 2^(1-bits).  The term a(P_k) is then off by
    at most -log(1 - that) - d log(1 - delta_k); terms weigh d^-(k+1), and the
    first step (from the exact P_k0, itself truncated) is the heaviest.
    kappa enters as its log, since it may pass the float range.  So does
    delta_k when 2^(1-bits) is below the normal float range: a delta_k below
    it gives (1 + delta)^d - 1 and -log(1 - delta) as d delta and delta,
    exact to far below double resolution, and the total is rounded up.
    """
    ulp = 2.0 ** (1 - bits)
    tiny = ulp < sys.float_info.min
    log_ulp = (1 - bits) * _LN2
    delta, log_delta = ulp, log_ulp
    weight = 1.0
    total = 0.0
    for _ in range(n):
        normal = delta >= sys.float_info.min
        if normal:
            growth = math.expm1(d * math.log1p(delta))
            log_grown = log_kappa + math.log(growth) if growth else -math.inf
            loss = d * math.log1p(-delta)
        else:
            log_grown = log_kappa + math.log(d) + log_delta
            loss = -math.exp(log_delta + math.log(d))
        if log_grown >= -_LN2:  # grown >= 1/2
            return math.inf
        grown = math.exp(log_grown)
        weight /= d
        total += weight * (-math.log1p(-grown) - loss)
        if tiny:  # delta = grown + (1 + grown) ulp, by its log
            hi, lo = sorted((log_grown, log_ulp + math.log1p(grown)), reverse=True)
            log_delta = hi + math.log1p(math.exp(lo - hi))
            delta = math.exp(log_delta)
        else:
            delta = grown + (1 + grown) * ulp
    return math.nextafter(total * 1.001, math.inf) if tiny else total * 1.001


def _precision_bits(log_kappa: float, d: int, n: int, budget: float) -> tuple[int, float]:
    """A width B, in bits, whose truncation error over n steps is <= budget,
    and that error; B grows like n log2(kappa) + log2(1/budget).  kappa
    enters as its log, as in `_truncation_error`."""
    bits = 8 + math.ceil((n * log_kappa - math.log(budget)) / _LN2)
    while True:
        err = _truncation_error(log_kappa, d, n, bits)
        if err <= budget:
            return bits, err
        bits += 8 + (math.ceil(math.log2(err / budget)) if err < math.inf
                     else math.ceil(n * (log_kappa + math.log(d)) / _LN2))


def _log_ratio(num: int, den: int, d: int) -> float:
    """log(num / den^d) for positive ints, to a few ulps of its own size."""
    bn, bd = num.bit_length(), den.bit_length()
    return (math.log(_mantissa(num, bn)) - d * math.log(_mantissa(den, bd))
            + (bn - d * bd) * _LN2)


def _mantissa(n: int, bits: int) -> float:
    """n / 2^bits, in [1/2, 1), from the top 60 bits of n."""
    drop = max(0, bits - 60)
    return math.ldexp(n >> drop, drop - bits)


def _orbit_tail(F: RationalMapLift, p: ProjectivePoint, first: int, last: int,
                bits: int, gcds: list[int]) -> float:
    """sum_{first <= k < last} (a(P_k) - log g_k) / d^(k+1), from P_first = p.

    The direction of P_k rides on a `bits`-bit integer pair; g_k comes
    exactly from (x, y) mod |Res|^(last - k).  Appends each g_k to gcds.
    """
    d, res = F.degree, F.res
    shift = max(0, max(abs(p.x), abs(p.y)).bit_length() - bits)
    qx, qy = p.x >> shift, p.y >> shift
    mod = res ** (last - first)
    rx, ry = p.x % mod, p.y % mod
    total = 0.0
    for k in range(first, last):
        fx, fy = form_eval(F.f0, qx, qy), form_eval(F.f1, qx, qy)
        norm = max(abs(fx), abs(fy))
        a = _log_ratio(norm, max(abs(qx), abs(qy)), d)
        shift = max(0, norm.bit_length() - bits)
        qx, qy = fx >> shift, fy >> shift
        g = 1
        if res > 1:
            r0 = form_eval(F.f0, rx, ry) % mod
            r1 = form_eval(F.f1, rx, ry) % mod
            g = math.gcd(r0, r1, res)
            mod //= res
            rx, ry = r0 // g % mod, r1 // g % mod
        gcds.append(g)
        total += (a - log_int(g)) / d ** (k + 1)
    return total


def canonical_height(F: RationalMapLift, p, target_error: float = 1e-6,
                     cap_digits: int = DEFAULT_DIGIT_CAP,
                     diagnostics: bool = False) -> CanonicalHeightResult:
    """Certified canonical height: value within target_error of the true height.

    The point may be a ProjectivePoint, Fraction, int, or 'p/q' string.  An
    exact orbit collision short-circuits to height 0 with radius 0.  N is the
    least n with C/(d^n (d-1)) <= target_error, or one more when the rounding
    bound does not fit beside it; a target below double resolution of the
    result is a ValueError.  cap_digits bounds the working integers (the
    B-bit products and the modulus |Res|^N), checked before the first step,
    and the exact orbit's coordinates; CapExceeded beyond it, and a
    cap_digits below 1 is a ValueError.
    When diagnostics is requested, the result carries a per-place breakdown
    (archimedean escape-rate part plus one entry per prime absorbed by the
    gcd normalization); the parts sum to the value.
    """
    if not target_error > 0:
        raise ValueError("target_error must be positive")
    if cap_digits < 1:
        raise ValueError(f"cap_digits must be >= 1, got {cap_digits}")
    if F.degree < 2:
        raise ValueError("canonical heights need degree >= 2")
    p = point_from_rational(p)
    d = F.degree
    lip, bez, bound_k = _step_constants(F)
    c_const = log_int(bound_k)
    h0, log_res = weil_height(p), log_int(F.res)

    def rounding(n):
        return _rounding_bound(n, d, h0, c_const, log_res)

    def fits(n):
        return c_const / (d ** n * (d - 1)) + rounding(n) + rounding(n) <= target_error

    n_steps = 0
    if target_error >= 2 * rounding(0):  # else no N fits; this keeps the search finite
        while c_const / (d ** n_steps * (d - 1)) > target_error:
            n_steps += 1
        if not fits(n_steps):  # near a tie the rounding bound needs one more step
            n_steps += 1
    if not fits(n_steps):
        raise ValueError(f"target_error {target_error:g} is below the double resolution "
                         f"of this height (rounding bound {2 * rounding(n_steps):.2g})")
    bits, trunc_err = 0, 0.0
    if n_steps:
        log_kappa = log_int(lip * bez) - log_res
        bits, trunc_err = _precision_bits(log_kappa, d, n_steps, rounding(n_steps))
        check_cap(lip << (d * bits), cap_digits, "height working precision")
        check_cap(F.res ** n_steps, cap_digits, "height modulus")
    gcds: list[int] = []
    cur, k, tail = _walk(F, p, bound_k, cap_digits, n_steps, gcds)
    if tail is not None:
        return CanonicalHeightResult(0.0, 0.0, k, c_const,
                                     {"collision": True} if diagnostics else {})
    # past the threshold cur has positive canonical height: no collision follows
    value = weil_height(cur) / d ** k + _orbit_tail(F, cur, k, n_steps, bits, gcds)
    radius = c_const / (d ** n_steps * (d - 1)) + rounding(n_steps) + trunc_err
    breakdown: dict = {}
    if diagnostics:
        breakdown = _place_breakdown(F, value, gcds, d)
    return CanonicalHeightResult(value, radius, n_steps, c_const, breakdown)


def _place_breakdown(F, value, gcds, d):
    """Split value into archimedean and per-prime parts (diagnostics only),
    factoring the recorded g_k > 1, never Res, by `factorize`.

    A prime factor p goes under "p=<p>"; a cofactor that `factorize` leaves
    and `modp.is_probable_prime` rejects, a product of primes above 1000,
    goes under "composite", which sums all of them.
    """
    per_prime: dict[int, float] = {}
    for k, g in enumerate(gcds):
        if g > 1:
            for q, e in sorted(factorize(g).items()):
                key = q if is_probable_prime(q) else 0  # 0: the composite cofactors
                per_prime[key] = per_prime.get(key, 0.0) - e * math.log(q) / d ** (k + 1)
    arch = value - sum(per_prime.values())
    out = {"archimedean": arch}
    out.update({f"p={p}" if p else "composite": v for p, v in sorted(per_prime.items())})
    return out


def canonical_height_functoriality_check(F: RationalMapLift, p) -> bool:
    """Check |h(f(x)) - d h(x)| <= combined certified radii (plus float slack),
    both heights to 1e-3."""
    p = point_from_rational(p)
    h_x = canonical_height(F, p, 1e-3)
    h_fx = canonical_height(F, evaluate(F, p), 1e-3)
    lhs = abs(h_fx.value - F.degree * h_x.value)
    rhs = h_fx.error_radius + F.degree * h_x.error_radius
    slack = 1e-12 * max(1.0, abs(h_fx.value), F.degree * abs(h_x.value))
    return lhs <= rhs + slack


def product_formula_check(q) -> float:
    """Sum of log|q|_v over all places; exactly 0 for every nonzero rational.

    Computed exactly: |q| * prod p^(-v_p(q)) over primes dividing q must be
    the rational 1; the returned float is log of that rational.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("the product formula concerns nonzero rationals")
    residual = abs(q)
    for prime, _ in {**factorize(q.numerator), **factorize(q.denominator)}.items():
        v = _padic_valuation(q, prime)
        residual *= Fraction(prime) ** (-v)
    if residual == 1:
        return 0.0
    return log_int(residual.numerator) - log_int(residual.denominator)


def decide_preperiodic(F: RationalMapLift, p,
                       cap_digits: int = DEFAULT_DIGIT_CAP) -> PreperiodicityVerdict:
    """Terminating preperiodicity decision by exact orbit + height certificate.

    Iterate the exact orbit with cycle detection.  If an iterate's Weil
    height exceeds C/(d-1) (checked as the integer comparison
    max(|p|,|q|)^(d-1) > K), the canonical height is certifiably positive and
    the orbit diverges; otherwise the orbit lives among the finitely many
    rationals of bounded height and must revisit a point.  The exact orbit's
    coordinates are capped at cap_digits digits (CapExceeded beyond), which
    must be >= 1.
    """
    if cap_digits < 1:
        raise ValueError(f"cap_digits must be >= 1, got {cap_digits}")
    if F.degree < 2:
        raise ValueError("preperiodicity needs degree >= 2")
    return _decide(F, point_from_rational(p), step_bound_int(F), cap_digits)


def _decide(F: RationalMapLift, p: ProjectivePoint, bound_k: int,
            cap_digits: int) -> PreperiodicityVerdict:
    """`decide_preperiodic` with the step bound K = step_bound_int(F) given."""
    cur, n, tail = _walk(F, p, bound_k, cap_digits)
    if tail is not None:
        return PreperiodicityVerdict(True, tail=tail, period=n - tail)
    # canonical height of cur exceeds h(cur) - C/(d-1) > 0
    d = F.degree
    lower = (weil_height(cur) - log_int(bound_k) / (d - 1)) / d ** n
    return PreperiodicityVerdict(False, height_lower_bound=lower, certificate_index=n)


#: candidates per int64 block of the preperiodic-point search
_SEARCH_BLOCK = 1 << 16
#: survivors at or below which the search stops stepping them together
_STEP_MIN = 32


def rational_preperiodic_points(F: RationalMapLift, box: int = 100) -> list[ProjectivePoint]:
    """All rational preperiodic points with max(|p|,|q|) <= box, infinity first.

    A preperiodic point has max(|p|,|q|) <= t = floor(K^(1/(d-1))), K from
    `step_bound_int` and t by integer Newton, which prunes the search box.
    One exact step then runs on the whole coprime box at once in int64: a
    candidate whose reduced image leaves the t-box is certified wandering,
    the verdict `_decide` reaches at its first step (the image is larger
    than the start, so it cannot close a cycle).  The survivors' orbits
    then step together (`_step_survivors`), and only the points left when
    a step drops none are decided one by one, in box order.  When
    L m^d >= 2^62 (L the larger coefficient L1 norm, m the pruned box)
    int64 could overflow, so no step runs and every candidate is decided
    one by one.
    """
    import numpy as np  # not at module level: height, preper and orbit never load it
    if F.degree < 2:
        raise ValueError("preperiodicity needs degree >= 2")
    lip, _, bound_k = _step_constants(F)
    d = F.degree
    t = int_root_floor(bound_k, d - 1)
    m_max = min(t, box)
    threshold = min(t, 2 ** 62)  # stepped images are below 2^62

    def preperiodic(pt):
        return _decide(F, pt, bound_k, DEFAULT_DIGIT_CAP).preperiodic

    out = []
    if preperiodic(ProjectivePoint(1, 0)):
        out.append(ProjectivePoint(1, 0))
    side = np.arange(-m_max, m_max + 1, dtype=np.int64)
    per_block = max(1, _SEARCH_BLOCK // (2 * m_max + 1))
    for q0 in range(1, m_max + 1, per_block):
        qs = np.arange(q0, min(q0 + per_block, m_max + 1), dtype=np.int64)
        q, p = np.repeat(qs, side.size), np.tile(side, qs.size)
        coprime = np.gcd(p, q) == 1
        p, q = _step_survivors(F, lip, threshold, p[coprime], q[coprime])
        for pnum, qden in zip(p.tolist(), q.tolist()):
            pt = ProjectivePoint(pnum, qden)
            if preperiodic(pt):
                out.append(pt)
    return out


def _step_survivors(F: RationalMapLift, lip: int, threshold: int, p, q):
    """The candidates (p, q) whose orbits stay in the t-box, stepped together.

    Each round applies F to every candidate's current iterate in int64,
    reduces each image by its gcd, and drops the candidates whose image
    leaves the box max(|x|, |y|) <= threshold = min(t, 2^62): the first
    point of an orbit outside the t-box has positive canonical height, so
    `_decide` would certify the start wandering.  A preperiodic start never
    leaves the box, so the drops remove wandering points only, and box
    order is kept.  The first round is the one-step filter.  Stepping
    stops when a later round drops nothing, when at most _STEP_MIN
    candidates are left (a round's fixed numpy cost then exceeds their
    one-by-one decisions), or before a round whose images could pass
    int64: L h^d >= 2^62, with h the largest current coordinate.  The
    candidates left go to `_decide`.
    """
    import numpy as np
    d = F.degree
    x, y, first = p, q, True
    while x.size and lip * int(max(np.abs(x).max(), np.abs(y).max())) ** d < 2 ** 62:
        fx, fy = form_eval(F.f0, x, y), form_eval(F.f1, x, y)
        g = np.gcd(fx, fy)
        near = np.maximum(np.abs(fx), np.abs(fy)) // g <= threshold
        p, q, x, y = p[near], q[near], fx[near] // g[near], fy[near] // g[near]
        if x.size <= _STEP_MIN or (near.all() and not first):
            break
        first = False
    return p, q


def random_rational(rng: random.Random, box: int = 1000) -> Fraction:
    """A random nonzero-denominator rational with entries up to box."""
    num = rng.randint(-box, box)
    den = rng.randint(1, box)
    return Fraction(num, den)
