"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dynamo.curves import curve_orbit
from dynamo.errors import EliminationFailure
from dynamo.exceptional import (
    chebyshev,
    chebyshev_coeffs,
    classify,
    lattes_doubling,
    power_map,
)
from dynamo.harness import fiber_preperiodicity_test, measure_compare, mm_verify
from dynamo.heights import (
    canonical_height,
    canonical_height_functoriality_check,
    decide_preperiodic,
    product_formula_check,
    step_bound_int,
)
from dynamo.hypersurface import Hypersurface, diagonal_surface, graph_surface
from dynamo.measure import sample_invariant_measure
from dynamo.projective import RationalMapLift, evaluate, normalize, point_from_rational

from conftest import affine_value, poly_lift
from sample_stats import arc_discrepancy_uniform, segment_distance


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:2d}] {tag} {detail}")
    assert ok, f"criterion {num}: {detail}"


SQ = poly_lift(0, 0, 1)
CUBE = poly_lift(0, 0, 0, 1)
BASILICA = poly_lift(-1, 0, 1)
CHEB2 = poly_lift(-2, 0, 1)
RATIONAL_MAP = RationalMapLift.make([1, 0, 1], [-1, 0, 1])  # (z^2+1)/(z^2-1)


def test_criterion_01_canonical_height_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    worst = 0.0
    for F, d in ((SQ, 2), (CUBE, 3)):
        for _ in range(50):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            if q == 0:
                q = Fraction(1, 3)
            res = canonical_height(F, q, target_error=1e-9)
            oracle = math.log(max(abs(q.numerator), q.denominator))
            worst = max(worst, abs(res.value - oracle))
            assert res.error_radius <= 1e-9
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-9 and elapsed < 5.0,
            f"max |height - log max| = {worst:.2e}, {elapsed:.2f}s")


def _brute_force_preperiodic(F, pt, bound):
    seen = set()
    cur = pt
    while True:
        if max(abs(cur.x), abs(cur.y)) > bound:
            return False
        if cur in seen:
            return True
        seen.add(cur)
        cur = evaluate(F, cur)


def test_criterion_02_preperiodicity_vs_brute_force():
    t0 = time.monotonic()
    disagreements = 0
    basilica_set = set()
    for F in (SQ, BASILICA, CHEB2):
        k = step_bound_int(F)
        bound = int(math.floor(math.exp(math.log(k) / (F.degree - 1)))) + 1
        for q in range(1, 51):
            for p in range(-50, 51):
                if math.gcd(abs(p), q) != 1:
                    continue
                pt = normalize(p, q)
                mine = decide_preperiodic(F, pt).preperiodic
                oracle = _brute_force_preperiodic(F, pt, bound)
                if mine != oracle:
                    disagreements += 1
                if F is BASILICA and oracle:
                    basilica_set.add(str(pt))
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and basilica_set == {"0", "1", "-1"} and elapsed < 60.0
    _report(2, ok, f"0 disagreements on 3 maps, z^2-1 set = {sorted(basilica_set)}, "
                   f"{elapsed:.1f}s")


def test_criterion_03_functoriality():
    rng = random.Random(7)
    maps = [SQ, CUBE, BASILICA, CHEB2, RATIONAL_MAP]
    violations = 0
    for F in maps:
        for _ in range(100):
            q = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            if not canonical_height_functoriality_check(F, q):
                violations += 1
    _report(3, violations == 0, f"0/{100 * len(maps)} violations across 5 maps")


def test_criterion_04_product_formula():
    rng = random.Random(23)
    bad = 0
    n = 0
    while n < 1000:
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if q == 0:
            continue
        n += 1
        if product_formula_check(q) != 0.0:
            bad += 1
    _report(4, bad == 0, "1000/1000 exactly zero")


def test_criterion_05_classification():
    cases = []
    for d in range(2, 6):
        cases.append((power_map(d), "PowerConjugate"))
        cases.append((chebyshev(d), "ChebyshevConjugate"))
    cases.append((lattes_doubling(0, 1), "Lattes"))
    cases.append((lattes_doubling(-1, 0), "Lattes"))
    cases.append((BASILICA, "NonExceptional"))
    cases.append((CHEB2, "ChebyshevConjugate"))
    cases.append((poly_lift(1, 0, 1), "NonExceptional"))  # z^2 + 1, non-PCF witness
    correct = 0
    for F, want in cases:
        c = classify(F)
        if c.verdict == want:
            correct += 1
    lat = classify(lattes_doubling(0, 1))
    nonpcf = classify(poly_lift(1, 0, 1))
    ok = (correct == len(cases) and lat.signature == (2, 2, 2, 2)
          and not nonpcf.pcf and nonpcf.witness is not None)
    _report(5, ok, f"{correct}/{len(cases)} classifications correct, "
                   f"Lattes signature {lat.signature}, non-PCF witness certified")


def test_criterion_06_chebyshev_identity():
    bad = []
    for d in range(1, 13):
        coeffs = chebyshev_coeffs(d)
        defect = {}
        for k, c in enumerate(coeffs):
            if not c:
                continue
            for j in range(k + 1):
                p = k - 2 * j
                defect[p] = defect.get(p, 0) + c * math.comb(k, j)
        defect[d] = defect.get(d, 0) - 1
        defect[-d] = defect.get(-d, 0) - 1
        if any(v != 0 for v in defect.values()):
            bad.append(d)
    _report(6, not bad, "T_d(z + 1/z) = z^d + 1/z^d exactly for d <= 12")


def _x_of_double(a, b, x0):
    """Tangent-line doubling oracle with exact division (see test_exceptional)."""
    a, b, x0 = Fraction(a), Fraction(b), Fraction(x0)
    y2 = x0**3 + a * x0 + b
    if y2 == 0:
        return None
    s2 = (3 * x0**2 + a) ** 2 / (4 * y2)
    sy0 = (3 * x0**2 + a) / 2
    c = [b - s2 * x0**2 + 2 * sy0 * x0 - y2,
         a + 2 * s2 * x0 - 2 * sy0,
         -s2,
         Fraction(1)]
    for _ in range(2):
        q = [Fraction(0)] * (len(c) - 1)
        acc = Fraction(0)
        for i in range(len(c) - 1, 0, -1):
            acc = c[i] + acc * x0
            q[i - 1] = acc
        rem = c[0] + acc * x0
        assert rem == 0
        c = q
    return -c[0] / c[1]


def test_criterion_07_lattes_semiconjugacy():
    F = lattes_doubling(0, 1)
    rng = random.Random(3)
    exact_matches = 0
    n = 0
    while n < 50:
        x0 = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if x0**3 + 1 == 0:
            continue
        n += 1
        want = _x_of_double(0, 1, x0)
        got = evaluate(F, point_from_rational(x0))
        if affine_value(got) == want:
            exact_matches += 1
    _report(7, exact_matches == 50, "f(x(P)) = x(2P) exactly on 50/50 rational points")


def test_criterion_08_measure_sanity():
    t0 = time.monotonic()
    m = sample_invariant_measure(SQ, 10_000, 30, seed=7)
    radii = np.abs(m.affine())
    mean_r = float(np.mean(radii))
    disc = arc_discrepancy_uniform(np.angle(m.affine()))
    m2 = sample_invariant_measure(CHEB2, 10_000, 30, seed=7)
    frac = float(np.mean(segment_distance(m2.affine()) < 1e-6))
    elapsed = time.monotonic() - t0
    ok = 0.999 <= mean_r <= 1.001 and disc < 0.03 and frac >= 0.99 and elapsed < 30.0
    _report(8, ok, f"mean|z| = {mean_r:.5f}, arc discrepancy = {disc:.4f}, "
                   f"segment fraction = {frac:.4f}, {elapsed:.1f}s")


def test_criterion_09_equal_measure_diagnostic():
    D = diagonal_surface()
    same_ok = True
    diff_ok = True
    for seed in range(5):
        same = measure_compare(D, [SQ, SQ], 1, 2, n_samples=10_000, depth=30, seed=seed)
        diff = measure_compare(D, [SQ, BASILICA], 1, 2, n_samples=10_000, depth=30,
                               seed=seed)
        same_ok = same_ok and same.statistic < same.threshold
        diff_ok = diff_ok and diff.statistic > diff.threshold
    _report(9, same_ok and diff_ok,
            "(z^2, z^2): D < tau and (z^2, z^2-1): D > tau across 5 seeds")


def test_criterion_10_fiber_implication():
    invariant = fiber_preperiodicity_test(graph_surface([0, 0, 1]), [SQ, SQ], 2,
                                          trials=100, seed=31)
    shifted = fiber_preperiodicity_test(graph_surface([1, 1]), [SQ, SQ], 2,
                                        trials=100, seed=31)
    ok = invariant.fails == 0 and invariant.passes == 100 and shifted.fails >= 1
    _report(10, ok, f"invariant graph {invariant.passes}/100 pass, "
                    f"shifted graph has {shifted.fails} certified fail witnesses")


def test_criterion_11_curve_orbit():
    results = []
    for C in (diagonal_surface(), graph_surface([0, 0, 1])):
        out = curve_orbit(C, SQ, SQ, max_iter=2)
        results.append(out.preperiodic and (out.tail, out.period) == (0, 1))
    try:
        growth = curve_orbit(graph_surface([1, 1]), SQ, SQ, max_iter=5)
        verified = True
    except EliminationFailure:
        verified = False
        growth = None
    increasing = (growth is not None and not growth.preperiodic
                  and len(growth.bidegrees) == 6
                  and all(b[0] > a[0] and b[1] > a[1]
                          for a, b in zip(growth.bidegrees, growth.bidegrees[1:])))
    ok = all(results) and verified and increasing
    degs = list(growth.bidegrees) if growth else []
    _report(11, ok, f"fixed curves detected (0,1) in <= 2 iterations; shifted graph "
                    f"bidegrees {degs}; all pushforwards checked exactly mod p")


def test_criterion_12_ms_pipeline():
    pulled_back = Hypersurface.make(3, (1, 1, 0),
                                    [((1, 0, 0), 1), ((0, 1, 0), -1)])
    maps = [SQ, SQ, BASILICA]
    cfg = dict(samples=4000, depth=25, trials=50, seed=7)
    rep = mm_verify(pulled_back, maps, **cfg)
    cert = rep.pair_form.certificate
    full_cert = (cert is not None and cert.pair == (1, 2)
                 and cert.exponents == (1, 1) and cert.orbit.preperiodic
                 and (cert.orbit.tail, cert.orbit.period) == (0, 1))

    linear = Hypersurface.make(3, (1, 1, 1),
                               [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
    maps3 = [BASILICA, BASILICA, BASILICA]
    rep3 = mm_verify(linear, maps3, **cfg)
    three_block = (rep3.pair_form.certificate is None
                   and rep3.pair_form.reason == "depends on 3 blocks"
                   and len(rep3.failed_conditions) >= 1)
    _report(12, full_cert and three_block,
            f"pulled-back diagonal certificate {cert.exponents if cert else None}; "
            f"3-block form: '{rep3.pair_form.reason}', "
            f"{len(rep3.failed_conditions)} failed condition(s)")
