"""Canonical heights: certified intervals, step bounds, preperiodicity decisions."""

import math
import random
import time
from fractions import Fraction

import pytest

from dynamo.errors import CapExceeded, DegenerateMap
from dynamo.exceptional import chebyshev, lattes_doubling, power_map
from dynamo.heights import (
    canonical_height,
    canonical_height_functoriality_check,
    decide_preperiodic,
    factorize,
    height_step_bound,
    product_formula_check,
    rational_preperiodic_points,
    step_bound_int,
    weil_height,
)
from dynamo.projective import (
    ProjectivePoint,
    RationalMapLift,
    evaluate,
    form_eval,
    int_root_floor,
    point_from_rational,
)

from conftest import poly_lift


def test_weil_height_basics():
    assert weil_height(ProjectivePoint(1, 1)) == 0.0
    assert weil_height(ProjectivePoint(3, 2)) == pytest.approx(math.log(3))
    assert weil_height(ProjectivePoint(1, 0)) == 0.0


def test_step_bound_power_map_small(sq):
    # h(z^2) = 2 h(z) exactly; any C >= 0 is valid but it must be <= log 3
    c = height_step_bound(sq)
    assert 0.0 <= c <= math.log(3)


def test_step_bound_is_actual_bound_basilica(cheb2, basilica):
    # oracle: enumerate |h(f(x)) - d h(x)| on sample points and compare
    for F in (cheb2, basilica):
        c = height_step_bound(F)
        for q in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5)):
            p = point_from_rational(q)
            fp = evaluate(F, p)
            gap = abs(weil_height(fp) - F.degree * weil_height(p))
            assert gap <= c + 1e-12


def test_step_bound_nonnegative_random():
    rng = random.Random(2)
    from dynamo.errors import DegenerateMap
    from dynamo.projective import RationalMapLift

    n = 0
    while n < 10:
        try:
            F = RationalMapLift.make([rng.randint(-5, 5) for _ in range(3)],
                                     [rng.randint(-5, 5) for _ in range(3)])
        except DegenerateMap:
            continue
        n += 1
        assert height_step_bound(F) >= 0.0


def test_canonical_height_power_map_is_weil(sq):
    # for z^d the limit is stationary: h(x_n)/d^n = h(x) for every n
    p = point_from_rational(2)
    cur = p
    for n in range(1, 6):
        cur = evaluate(sq, cur)
        assert weil_height(cur) / 2**n == pytest.approx(weil_height(p), abs=1e-12)
    r = canonical_height(sq, 2, target_error=1e-9)
    assert r.value == pytest.approx(math.log(2), abs=1e-9)
    assert r.error_radius <= 1e-9


def test_canonical_height_power_map_fraction(sq):
    r = canonical_height(sq, "3/2", target_error=1e-9)
    assert r.value == pytest.approx(math.log(3), abs=1e-9)


def test_canonical_height_finite_orbit_is_zero(basilica):
    r = canonical_height(basilica, 0, target_error=1e-9)
    assert r.value == 0.0
    assert r.error_radius == 0.0


def test_canonical_height_interval_contains_truth(basilica):
    # h(2) under z^2-1: orbit 2,3,8,63,...; oracle value from a deep orbit
    deep = canonical_height(basilica, 2, target_error=1e-5)
    rough = canonical_height(basilica, 2, target_error=1e-2)
    assert abs(rough.value - deep.value) <= rough.error_radius + deep.error_radius


def test_canonical_height_monotone_radius(basilica):
    r1 = canonical_height(basilica, 2, target_error=1e-2)
    r2 = canonical_height(basilica, 2, target_error=1e-4)
    assert r2.iterations >= r1.iterations
    assert r2.error_radius <= r1.error_radius


def test_canonical_height_diagnostics_sum(cheb2):
    r = canonical_height(cheb2, Fraction(3, 5), target_error=1e-3, diagnostics=True)
    parts = sum(v for v in r.local_breakdown.values())
    assert parts == pytest.approx(r.value, abs=1e-9)


def test_place_breakdown_factors_only_the_orbit_gcds(monkeypatch):
    # (z^2 + 1)/(N z) with N = (10^20 + 39)(10^21 + 117): Pollard rho on Res
    # did not end in 60 s, though the orbit of 2 meets no gcd above 1
    import dynamo.heights

    seen = []
    monkeypatch.setattr(dynamo.heights, "factorize",
                        lambda n: seen.append(n) or factorize(n))
    N = (10**20 + 39) * (10**21 + 117)
    F = RationalMapLift.make([1, 0, 1], [0, N, 0])
    r = canonical_height(F, 2, target_error=1e-3, diagnostics=True)
    assert r.local_breakdown == {"archimedean": r.value} and seen == []
    # (z^2 + 2)/(6z): the gcds are products of 2 and 3, and only they are factored
    r = canonical_height(RationalMapLift.make([2, 0, 1], [0, 6, 0]), Fraction(4, 5),
                         target_error=1e-6, diagnostics=True)
    assert seen and all(g > 1 and set(factorize(g)) <= {2, 3} for g in seen)
    assert sorted(r.local_breakdown) == ["archimedean", "p=2", "p=3"]


def test_place_breakdown_keeps_a_semiprime_gcd_whole():
    # (z^2 + N)/z at N = (10^19 + 51)(10^20 + 39): the first gcd is N, and
    # Pollard rho on it did not end in 30 s
    N = (10**19 + 51) * (10**20 + 39)
    F = RationalMapLift.make([N, 0, 1], [0, 1, 0])
    t0 = time.perf_counter()
    r = canonical_height(F, N, target_error=1e-6, diagnostics=True)
    assert time.perf_counter() - t0 < 2.0
    assert sorted(r.local_breakdown) == ["archimedean", "composite"]
    assert r.local_breakdown["composite"] == pytest.approx(-math.log(N) / 2, rel=1e-12)
    assert sum(r.local_breakdown.values()) == pytest.approx(r.value, abs=1e-9)
    # a prime cofactor beyond 1000 keeps its own key: (z^2 + p)/z at p
    p = 10**9 + 7
    r = canonical_height(RationalMapLift.make([p, 0, 1], [0, 1, 0]), p,
                         target_error=1e-6, diagnostics=True)
    assert f"p={p}" in r.local_breakdown and "composite" not in r.local_breakdown
    assert sum(r.local_breakdown.values()) == pytest.approx(r.value, abs=1e-9)


def test_functoriality_examples(sq, basilica):
    assert canonical_height_functoriality_check(sq, 2)
    assert canonical_height_functoriality_check(basilica, 0)
    assert canonical_height_functoriality_check(basilica, 2)


def test_functoriality_random_points(sq, basilica, cheb2):
    rng = random.Random(17)
    maps = [sq, basilica, cheb2]
    for F in maps:
        for _ in range(30):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert canonical_height_functoriality_check(F, q)


def test_product_formula_examples():
    assert product_formula_check(6) == 0.0
    assert product_formula_check(Fraction(-5, 3)) == 0.0
    assert product_formula_check(1) == 0.0


def test_product_formula_random():
    rng = random.Random(23)
    for _ in range(300):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if q == 0:
            continue
        assert product_formula_check(q) == 0.0


def test_decide_preperiodic_basilica_tail_period(basilica):
    v = decide_preperiodic(basilica, 1)
    assert v.preperiodic and (v.tail, v.period) == (1, 2)


def test_decide_preperiodic_power_two(sq):
    v = decide_preperiodic(sq, 2)
    assert not v.preperiodic
    assert v.height_lower_bound >= math.log(2) - 1e-6


def test_decide_preperiodic_minus_one(sq):
    v = decide_preperiodic(sq, -1)
    assert v.preperiodic and (v.tail, v.period) == (1, 1)


def test_decide_preperiodic_infinity(sq, basilica):
    assert decide_preperiodic(sq, "inf").preperiodic
    assert decide_preperiodic(basilica, "inf").preperiodic


def _brute_force_preperiodic(F, pt, bound):
    """Oracle: exhaustive orbit walk; divergence once max(|p|,|q|) > bound."""
    seen = set()
    cur = pt
    while True:
        if max(abs(cur.x), abs(cur.y)) > bound:
            return False
        if cur in seen:
            return True
        seen.add(cur)
        cur = evaluate(F, cur)


def test_decide_agrees_with_brute_force_box(sq, basilica, cheb2):
    for F in (sq, basilica, cheb2):
        k = step_bound_int(F)
        bound = int(math.floor(math.exp(math.log(k) / (F.degree - 1)))) + 1
        for q in range(1, 25):
            for p in range(-25, 26):
                if math.gcd(abs(p), q) != 1:
                    continue
                pt = ProjectivePoint(p, q)
                assert decide_preperiodic(F, pt).preperiodic == \
                    _brute_force_preperiodic(F, pt, bound)


def test_rational_preperiodic_points_basilica(basilica):
    pts = rational_preperiodic_points(basilica, box=50)
    affine = sorted(str(p) for p in pts if not p.is_infinity)
    assert affine == ["-1", "0", "1"]
    assert any(p.is_infinity for p in pts)


def test_rational_preperiodic_points_power(sq):
    pts = rational_preperiodic_points(sq, box=50)
    affine = sorted(str(p) for p in pts if not p.is_infinity)
    assert affine == ["-1", "0", "1"]


def test_rational_preperiodic_points_needs_degree_two():
    # at degree 1 the pruning bound max(|p|, |q|)^(d-1) <= K holds for every
    # point, so the search for the pruned box would never stop
    with pytest.raises(ValueError):
        rational_preperiodic_points(RationalMapLift.make([1, 2], [1, 0]), box=5)


# the eight benchmark maps: z^2, z^2 - 1, z^3 + 1, z^2 + 1/4, T_2, T_3, the
# Lattes doubling on y^2 = x^3 - x and (z^2 + 1) / (2 z^2)
BENCH_MAPS = [{"num": ["0", "0", "1"]}, {"num": ["-1", "0", "1"]},
              {"num": ["1", "0", "0", "1"]}, {"num": ["1/4", "0", "1"]},
              {"num": ["-2", "0", "1"]}, {"num": ["0", "-3", "0", "1"]},
              {"num": ["1", "0", "2", "0", "1"], "den": ["0", "-4", "0", "4"]},
              {"num": ["1", "0", "1"], "den": ["0", "0", "2"]}]


# z^2 + 10^8 takes the int64 first step.  (M z^2 + z - 1) / (z^2 - z + M),
# M = 10^19, fixes 1 and is past the guard L m^d < 2^62: its coefficients do
# not fit in int64, so every candidate is decided one by one
SEARCH_MAPS = BENCH_MAPS + [{"num": [str(10**8), "0", "1"]},
                            {"num": ["-1", "1", str(10**19)], "den": [str(10**19), "-1", "1"]}]


@pytest.mark.parametrize("spec", SEARCH_MAPS)
def test_rational_preperiodic_points_one_decision_per_candidate(spec):
    # the search shares one step bound and one vectorized first step among
    # its candidates; its output is that of deciding every candidate of the
    # pruned box on its own
    from dynamo.projective import map_from_json

    F = map_from_json(spec)
    box = 100
    k = step_bound_int(F)
    m_max = 1
    while m_max < box and (m_max + 1) ** (F.degree - 1) <= k:
        m_max += 1
    candidates = [ProjectivePoint(1, 0)] + [
        ProjectivePoint(p, q) for q in range(1, m_max + 1) for p in range(-m_max, m_max + 1)
        if math.gcd(abs(p), q) == 1]
    want = [pt for pt in candidates if decide_preperiodic(F, pt).preperiodic]
    assert rational_preperiodic_points(F, box=box) == want


def _one_by_one_search(F, box):
    """The preperiodic-point search with every candidate of the pruned box
    decided on its own, in box order."""
    k = step_bound_int(F)
    m_max = min(int_root_floor(k, F.degree - 1), box)
    candidates = [ProjectivePoint(1, 0)] + [
        ProjectivePoint(p, q) for q in range(1, m_max + 1) for p in range(-m_max, m_max + 1)
        if math.gcd(abs(p), q) == 1]
    return [pt for pt in candidates if decide_preperiodic(F, pt).preperiodic]


# (map, int64 rounds at least).  z^2 - 29/16 and z^2 - 21/16 leave about 3 000
# one-step survivors at box 100, and the Lattes map at most 32, which are
# decided one by one.  The orbits of z^2 - 3/1024 and z^3 + 1/1024 stay in the
# t-box for a step but would pass 2^62 in int64 before they leave it: the
# guard stops the first after two rounds and the second after one
STEPPED_MAPS = [({"num": ["-29/16", "0", "1"]}, 2), ({"num": ["-21/16", "0", "1"]}, 2),
                ({"num": ["1/4", "0", "1"]}, 2),
                ({"num": ["1", "0", "2", "0", "1"], "den": ["0", "-4", "0", "4"]}, 1),
                ({"num": ["-3/1024", "0", "1"]}, 2), ({"num": ["1/1024", "0", "0", "1"]}, 1)]


@pytest.mark.parametrize("spec, rounds", STEPPED_MAPS)
def test_rational_preperiodic_points_stepped_survivors(monkeypatch, spec, rounds):
    # the survivors' orbits step together until a step drops nothing or the
    # int64 guard L h^d < 2^62 stops it; the points are those of the
    # one-by-one search
    import numpy as np

    import dynamo.heights
    from dynamo.heights import _step_constants
    from dynamo.projective import form_eval, map_from_json

    F = map_from_json(spec)
    lip, _, k = _step_constants(F)
    t, d = int_root_floor(k, F.degree - 1), F.degree
    assert lip * min(t, 100) ** d < 2 ** 62  # the stepping starts
    if "1024" in spec["num"][0]:
        assert lip * t ** d >= 2 ** 62  # ... and the guard must stop it
    steps = []

    def guarded_eval(coeffs, x, y):
        if isinstance(x, np.ndarray):  # an int64 round: its images fit
            steps.append(x.size)
            assert lip * int(max(np.abs(x).max(), np.abs(y).max())) ** d < 2 ** 62
        return form_eval(coeffs, x, y)

    monkeypatch.setattr(dynamo.heights, "form_eval", guarded_eval)
    assert rational_preperiodic_points(F, box=100) == _one_by_one_search(F, 100)
    assert len(steps) >= 2 * rounds  # each round evaluates F0 and F1


@pytest.mark.parametrize("box", [100, 5])
def test_rational_preperiodic_points_huge_step_bound(box):
    # K is about 10^12 for z^2 + 10^12; a pruning bound counted up one by one
    # to K^(1/(d-1)) did not finish in 60 s
    from dynamo.projective import map_from_json

    F = map_from_json({"num": [str(10**12), "0", "1"]})
    assert rational_preperiodic_points(F, box=box) == [ProjectivePoint(1, 0)]


def test_int_root_floor():
    for e in range(1, 5):
        for n in range(300):
            r = int_root_floor(n, e)
            assert r**e <= n < (r + 1) ** e
    big = 10**40 + 7
    for e in (2, 3, 7):
        r = int_root_floor(big**e, e)
        assert r == big
        assert int_root_floor(big**e - 1, e) == big - 1


def test_canonical_height_overflow_policy(basilica):
    with pytest.raises(CapExceeded):
        canonical_height(basilica, Fraction(3, 5), target_error=1e-9, cap_digits=40)


def test_interval_contains_zero_for_preperiodics_coarse_target(basilica, sq):
    # even when the iteration budget is too small to see the collision, the
    # certified interval of a preperiodic point must contain 0
    for F in (basilica, sq):
        for pt in rational_preperiodic_points(F, box=50):
            r = canonical_height(F, pt, target_error=0.75)
            assert r.value - r.error_radius <= 0.0 <= r.value + r.error_radius


def _exact_telescope(F, p, n):
    """Oracle: V_n = h(P_n)/d^n and the gcds g_k from the exact orbit."""
    cur = point_from_rational(p)
    gcds = []
    for _ in range(n):
        x0, x1 = form_eval(F.f0, cur.x, cur.y), form_eval(F.f1, cur.x, cur.y)
        gcds.append(math.gcd(x0, x1))
        cur = ProjectivePoint(x0, x1)
    return weil_height(cur) / F.degree ** n, gcds


def _prime_parts(gcds, d):
    """Oracle: the per-prime parts -sum v_p(g_k) log p / d^(k+1)."""
    out = {}
    for k, g in enumerate(gcds):
        for prime, e in factorize(g).items():
            out[f"p={prime}"] = out.get(f"p={prime}", 0.0) - e * math.log(prime) / d ** (k + 1)
    return out


def _rational_poly_lift(*coeffs):
    """Lift of the polynomial with ascending rational coefficients."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    d = len(coeffs) - 1
    return RationalMapLift.make([int(Fraction(c) * den) for c in coeffs], [den] + [0] * d)


def _random_maps(rng, count):
    maps = []
    while len(maps) < count:
        d = rng.choice((2, 3))
        f0 = [rng.randint(-6, 6) for _ in range(d + 1)]
        f1 = [rng.randint(-6, 6) for _ in range(d + 1)]
        try:
            maps.append(RationalMapLift.make(f0, f1))
        except DegenerateMap:
            continue
    return maps


# the oracle builds P_N exactly: skip cases whose log ||P_N|| exceeds this
ORACLE_LOG_BUDGET = 1.5e5


def test_canonical_height_matches_exact_orbit():
    # oracle: the exact orbit's V_N; the value must agree within the rounding
    # part of the radius, N must be the least n with C/(d^n (d-1)) <= target
    # (or one more), and the gcds must give the same per-prime parts
    rng = random.Random(41)
    maps = [power_map(2), _rational_poly_lift(-1, 0, 1), _rational_poly_lift(Fraction(1, 4), 0, 1),
            _rational_poly_lift(1, 0, 0, 1), chebyshev(3), lattes_doubling(-1, 0),
            RationalMapLift.make([1, 0, 1], [0, 0, 2])] + _random_maps(rng, 6)
    checked = 0
    for F in maps:
        d = F.degree
        for _ in range(4):
            q = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            target = 10.0 ** -rng.randint(2, 6 if d == 2 else 4)
            r = canonical_height(F, q, target_error=target, diagnostics=True)
            assert r.error_radius <= target
            if r.local_breakdown.get("collision"):
                assert r.value == r.error_radius == 0.0
                continue
            n_min = 0
            while r.height_step_bound / (d ** n_min * (d - 1)) > target:
                n_min += 1
            assert r.iterations in (n_min, n_min + 1)
            if r.value * d ** r.iterations > ORACLE_LOG_BUDGET:
                continue  # the exact orbit would be too long to build here
            exact, gcds = _exact_telescope(F, q, r.iterations)
            rounding = r.error_radius - r.height_step_bound / (d ** r.iterations * (d - 1))
            assert 0.0 < rounding < 1e-12
            assert abs(r.value - exact) <= rounding + 1e-15 * max(1.0, abs(exact))
            parts = {k: v for k, v in r.local_breakdown.items() if k.startswith("p=")}
            want = _prime_parts(gcds, d)
            assert parts.keys() == want.keys()
            for key, v in want.items():
                assert parts[key] == pytest.approx(v, abs=1e-15)
            checked += 1
    assert checked >= 35


@pytest.mark.parametrize("map_coeffs, point, target", [
    ((1, 0, 0, 1), "3/7", 1e-9),
    ((-1, 0, 1), "2", 1e-12),
])
def test_canonical_height_tight_targets(map_coeffs, point, target):
    # their exact orbits would run to 10^8-10^11 digits; the intervals must
    # overlap the coarser ones
    F = _rational_poly_lift(*map_coeffs)
    r = canonical_height(F, point, target_error=target)
    assert r.error_radius <= target
    for coarse in (1e-5, 1e-6):
        c = canonical_height(F, point, target_error=coarse)
        assert abs(r.value - c.value) <= r.error_radius + c.error_radius


def test_canonical_height_rejects_nan_and_keeps_inf(basilica):
    with pytest.raises(ValueError):
        canonical_height(basilica, 2, target_error=float("nan"))
    with pytest.raises(ValueError):
        canonical_height(basilica, 2, target_error=0.0)
    r = canonical_height(basilica, 2, target_error=float("inf"))
    assert r.iterations == 0
    assert r.value == pytest.approx(math.log(2))
    assert r.error_radius >= r.height_step_bound


def test_canonical_height_takes_one_more_step_at_a_tie(basilica):
    # C/(d^20 (d-1)) equals the target: no room for the rounding bound at N = 20
    target = math.log(2) / 2**20
    r = canonical_height(basilica, 2, target_error=target)
    assert r.iterations == 21
    assert r.error_radius <= target


def test_canonical_height_below_double_resolution_is_rejected(sq):
    with pytest.raises(ValueError, match="double resolution"):
        canonical_height(sq, 2, target_error=1e-20)


def test_decide_preperiodic_cap_raises_cap_exceeded():
    # 0 -> 10^12 under z^2 + 10^12 stays inside the box (K > 10^12), so the
    # 13-digit coordinate reaches the digit cap before the next step
    F = poly_lift(10**12, 0, 1)
    with pytest.raises(CapExceeded, match="^orbit coordinate exceeds 5 decimal digits"):
        decide_preperiodic(F, 0, cap_digits=5)
    assert not decide_preperiodic(F, 0).preperiodic


def test_factorize_large_prime_cofactor_is_fast():
    # trial division stops at the primes below 1000 and keeps the cofactor
    # whole, prime or not; trial division to 10^7 took about 0.5 s on each
    big = 10**20 + 39
    t0 = time.perf_counter()
    assert factorize(big) == {big: 1}
    assert factorize((10**9 + 7) * big) == {(10**9 + 7) * big: 1}
    assert factorize(2**10 * 3**5 * 997 * (10**9 + 7) ** 2) == {
        2: 10, 3: 5, 997: 1, (10**9 + 7) ** 2: 1}
    assert factorize(3 * 1009 * 1013) == {3: 1, 1009 * 1013: 1}
    assert time.perf_counter() - t0 < 0.3
    assert factorize(-1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_canonical_height_cap_fails_before_any_orbit_step(basilica, monkeypatch):
    import dynamo.heights as heights

    calls = []

    def counting_form_eval(coeffs, x, y):
        calls.append(1)
        return form_eval(coeffs, x, y)

    monkeypatch.setattr(heights, "form_eval", counting_form_eval)
    with pytest.raises(CapExceeded):
        canonical_height(basilica, Fraction(3, 5), target_error=1e-9, cap_digits=40)
    assert calls == []
    canonical_height(basilica, Fraction(3, 5), target_error=1e-3)
    assert calls


@pytest.mark.parametrize("kappa, d, n, budget", [
    (2.0, 64, 10, 1e-10),  # the first width loses the bound: an infinite error
    (1.0, 2, 100, 1e-100),  # the first width misses the budget by a factor below 2
])
def test_precision_bits_widens_a_short_first_width(kappa, d, n, budget):
    from dynamo.heights import _precision_bits, _truncation_error

    log_kappa = math.log(kappa)  # both take kappa as its log
    first = 8 + math.ceil((n * log_kappa - math.log(budget)) / math.log(2))
    first_err = _truncation_error(log_kappa, d, n, first)
    assert first_err > budget
    assert math.isinf(first_err) == (d == 64)
    bits, err = _precision_bits(log_kappa, d, n, budget)
    assert bits > first
    assert err <= budget and err == _truncation_error(log_kappa, d, n, bits)


def _truncation_reference(log_kappa, d, n, bits):
    """The recurrence of `_truncation_error` in decimal arithmetic, wide
    enough that 2^(1-bits) and (1 + delta)^d - 1 keep their digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = bits * 31 // 100 + 60
        ulp = Decimal(2) ** (1 - bits)
        kappa, delta, weight, total = Decimal(log_kappa).exp(), ulp, Decimal(1), Decimal(0)
        for _ in range(n):
            grown = kappa * ((1 + delta) ** d - 1)
            if grown >= Decimal("0.5"):
                return math.inf
            weight /= d
            total += weight * (-(1 - grown).ln() - d * (1 - delta).ln())
            delta = grown + (1 + grown) * ulp
        return total


@pytest.mark.parametrize("log_kappa, d, n, bits", [
    (401 * math.log(10), 2, 1, 1340),  # 2^(1-bits) underflowed and the bound read 0.0
    (401 * math.log(10), 2, 1, 1400),
    (401 * math.log(10), 2, 3, 1100),  # infinite, as at 1070 bits; it read 0.0
    (401 * math.log(10), 4, 2, 3000),
    (50.0, 2, 20, 2000),
    (math.log(1e6), 2, 5, 200),  # a normal 2^(1-bits): the float recurrence
    (1.0, 2, 4, 1100),  # a bound below the float range: the least positive float
])
def test_truncation_error_bounds_its_recurrence_past_the_float_range(log_kappa, d, n, bits):
    from dynamo.heights import _truncation_error

    got = _truncation_error(log_kappa, d, n, bits)
    want = _truncation_reference(log_kappa, d, n, bits)
    if want == math.inf:
        assert got == math.inf
    elif float(want) == 0.0:
        assert got == 5e-324
    else:
        assert float(want) <= got <= 1.002 * float(want)


def test_truncation_error_is_infinite_once_the_step_error_reaches_one_half():
    from dynamo.heights import _truncation_error

    # delta = 2^-9, so kappa ((1 + delta)^2 - 1) is about 4000 on the first step
    assert _truncation_error(math.log(1e6), 2, 5, 10) == math.inf
    assert _truncation_error(math.log(1e6), 2, 5, 200) < 1e-20
    # kappa = 10^401 is beyond the float range, and 1000 bits are too few
    assert _truncation_error(401 * math.log(10), 2, 1, 1000) == math.inf
    assert _truncation_error(401 * math.log(10), 2, 1, 1400) < 1e-15
