"""Periodic points, multipliers, exact orbits."""

import cmath
import math
import time

import numpy as np
import pytest

from conftest import poly_lift
from dynamo.errors import CapExceeded, NotACycle
from dynamo.heights import decide_preperiodic
from dynamo.orbits import multiplier, periodic_points
from dynamo.projective import CPoint, ProjectivePoint, evaluate_cpoint


def _find_cycle(cycles, value, tol=1e-7):
    tgt = CPoint.at_infinity() if value == "inf" else CPoint.from_affine(value)
    for c in cycles:
        for p in c.points:
            if p.chordal(tgt) < tol:
                return c
    raise AssertionError(f"no cycle containing {value}")


def test_fixed_points_power_map(sq):
    cycles = periodic_points(sq, 1)
    assert sorted(c.period for c in cycles) == [1, 1, 1]
    assert abs(_find_cycle(cycles, 0).multiplier) < 1e-9
    assert _find_cycle(cycles, 1).multiplier == pytest.approx(2.0)
    assert abs(_find_cycle(cycles, "inf").multiplier) < 1e-9


def test_period_two_power_map(sq):
    cycles = periodic_points(sq, 2)
    # d^2 + 1 = 5 roots: three fixed points and one exact 2-cycle
    twos = [c for c in cycles if c.period == 2]
    assert len(twos) == 1
    cyc = twos[0]
    # the cycle is the pair of primitive cube roots of unity, multiplier 4
    w = cmath.exp(2j * math.pi / 3)
    pts = {min(abs(p.affine() - w), abs(p.affine() - w.conjugate())) for p in cyc.points}
    assert max(pts) < 1e-8
    assert cyc.multiplier == pytest.approx(4.0 + 0j, abs=1e-7)


def test_fixed_points_cheb2(cheb2):
    cycles = periodic_points(cheb2, 1)
    assert _find_cycle(cycles, 2.0).multiplier == pytest.approx(4.0, abs=1e-8)
    assert _find_cycle(cycles, -1.0).multiplier == pytest.approx(-2.0, abs=1e-8)
    assert abs(_find_cycle(cycles, "inf").multiplier) < 1e-9


def test_exact_rational_periodic_points_attached(cheb2):
    cycles = periodic_points(cheb2, 1)
    tagged = {str(e) for c in cycles for e in c.exact_points if e is not None}
    assert tagged == {"2", "-1", "inf"}


def test_rational_cycles_take_their_exact_values(cheb2):
    # z^2 - 2 at n = 2: the fixed points 2, -1 and infinity and the cycle
    # {(-1 + sqrt 5)/2, (-1 - sqrt 5)/2}; a rational cycle's multiplier is
    # the product of derivatives at exact points, so it is exactly real
    cycles = periodic_points(cheb2, 2)
    labelled = 0
    for c in cycles:
        for p, ex in zip(c.points, c.exact_points):
            if ex is not None:
                want = CPoint.from_exact(ex)
                assert (p.x, p.y) == (want.x, want.y)
                labelled += 1
        if c.exact_points and all(ex is not None for ex in c.exact_points):
            assert c.multiplier.imag == 0.0
    assert labelled == 3


def test_root_count_matches_degree(sq, basilica, cheb2):
    for F in (sq, basilica, cheb2):
        for n in (1, 2, 3):
            cycles = periodic_points(F, n)
            total = sum(c.period for c in cycles)
            # non-parabolic quadratic cases here: every period-k cycle with
            # k | n appears once, sum of k * count = d^n + 1
            assert total == F.degree ** n + 1


def _repelling(F, n):
    return [c for c in periodic_points(F, n) if c.repelling]


def test_repelling_cycles_power(sq):
    rep = _repelling(sq, 1)
    assert len(rep) == 1
    assert rep[0].multiplier == pytest.approx(2.0)
    rep2 = _repelling(sq, 2)
    assert sorted(round(abs(c.multiplier)) for c in rep2) == [2, 4]


def test_repelling_cycles_cheb2(cheb2):
    rep = _repelling(cheb2, 1)
    assert sorted(round(abs(c.multiplier)) for c in rep) == [2, 4]


def test_multiplier_rotation_invariant(sq):
    cycles = periodic_points(sq, 2)
    cyc = next(c for c in cycles if c.period == 2)
    rotated = cyc.points[1:] + cyc.points[:1]
    assert multiplier(sq, rotated) == pytest.approx(cyc.multiplier, abs=1e-7)


def test_multiplier_at_infinity_superattracting(sq):
    # conjugating by w = 1/z turns z^2 into w^2: multiplier 0 at infinity
    lam = multiplier(sq, [CPoint.at_infinity()])
    assert abs(lam) < 1e-12


def test_multiplier_rejects_non_cycle(sq):
    with pytest.raises(NotACycle):
        multiplier(sq, [CPoint.from_affine(0.5)])


def test_cycle_closure_within_tol(sq, basilica):
    for F in (sq, basilica):
        for c in periodic_points(F, 2):
            for i, p in enumerate(c.points):
                img = evaluate_cpoint(F, p)
                assert img.chordal(c.points[(i + 1) % c.period]) < 1e-7


def test_orbit_record_examples(sq, basilica):
    v = decide_preperiodic(basilica, 1)
    assert v.preperiodic and (v.tail, v.period) == (1, 2)
    v = decide_preperiodic(sq, 1)
    assert v.preperiodic and (v.tail, v.period) == (0, 1)
    v = decide_preperiodic(basilica, 2)
    assert not v.preperiodic and v.height_lower_bound > 0


def test_orbit_record_tail_zero_iff_periodic(basilica):
    assert decide_preperiodic(basilica, 0).tail == 0  # 0 -> -1 -> 0 periodic
    assert decide_preperiodic(basilica, 1).tail == 1


def test_period_cap(sq):
    with pytest.raises(CapExceeded):
        periodic_points(sq, 13)  # 2^13 > 4096


def test_period_cap_forms_no_power():
    # z^3 + 1 at n = 10^9: forming 3^n to check the cap took seconds, and its
    # message needed more than 4 300 digits
    F = poly_lift(1, 0, 0, 1)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="^d\\^n with d = 3, n = 1000000000 exceeds "
                                          "the configured cap 4096$"):
        periodic_points(F, 10**9)
    assert time.perf_counter() - t0 < 1.0


def test_multiplier_mixed_chart_cycle():
    from dynamo.exceptional import power_map

    # 1/z^2 swaps 0 and infinity; the 2-cycle is superattracting
    F = power_map(-2)
    lam = multiplier(F, [CPoint.from_affine(0.0), CPoint.at_infinity()])
    assert abs(lam) < 1e-12


def test_parabolic_coincidence_flagged():
    # z^2 - 3/4 has a parabolic fixed point at -1/2 (multiplier -1); the
    # period-2 form has a multiple root there and the cycle carries the flag
    F = poly_lift_q(-3, 0, 4)
    cycles = periodic_points(F, 2)
    para = [c for c in cycles if c.parabolic_warning]
    assert len(para) == 1
    assert para[0].points[0].chordal(CPoint.from_affine(-0.5)) < 1e-7
    assert abs(para[0].multiplier + 1.0) < 1e-7


def test_parabolic_cycle_at_period_9():
    # (z^2 - z - 2)/(2z^2 - 2z - 1) has a parabolic 3-cycle, a repeated
    # factor of every fixed-point form of period 3k: at n = 9, degree 513,
    # Yun's gcds by the primitive PRS over Z did not end in 110 s
    from dynamo.projective import map_from_json

    F = map_from_json({"num": ["-4", "-2", "2"], "den": ["-2", "-4", "4"]})
    cycles = periodic_points(F, 9)
    assert sum(c.period for c in cycles) == 510
    para = [c for c in cycles if c.parabolic_warning]
    assert len(para) == 1 and para[0].period == 3
    assert abs(para[0].multiplier - 1.0) < 1e-7
    for c in cycles:
        for i, p in enumerate(c.points):
            assert evaluate_cpoint(F, p).chordal(c.points[(i + 1) % c.period]) < 1e-9


def poly_lift_q(*coeffs):
    from dynamo.projective import RationalMapLift

    d = len(coeffs) - 1
    return RationalMapLift.make(list(coeffs), [4] + [0] * d)


def test_non_permutation_matching_raises(sq, monkeypatch):
    # -1 maps onto the fixed point 1, so two roots share a nearest image and
    # the walk from -1 merges into 1's cycle instead of closing on itself
    import dynamo.orbits

    real = dynamo.orbits.fixed_point_roots

    def with_extra_root(F, n, tol):
        extra = (CPoint.from_affine(-1.0), 1, ProjectivePoint(-1, 1))
        return [extra] + real(F, n, tol=tol)

    monkeypatch.setattr(dynamo.orbits, "fixed_point_roots", with_extra_root)
    with pytest.raises(NotACycle, match="not a permutation"):
        periodic_points(sq, 1)


def test_root_set_not_closed_raises(sq, monkeypatch):
    # 1/2 maps to 1/4, which is not in the root set
    import dynamo.orbits

    real = dynamo.orbits.fixed_point_roots

    def with_stray_root(F, n, tol):
        return real(F, n, tol=tol) + [(CPoint.from_affine(0.5), 1, None)]

    monkeypatch.setattr(dynamo.orbits, "fixed_point_roots", with_stray_root)
    with pytest.raises(NotACycle, match="not closed"):
        periodic_points(sq, 1)


# ---------------------------------------------------------------------------
# oracles for the orbit-evaluated solve
# ---------------------------------------------------------------------------

def _mobius(k):
    mu, m, p = 1, k, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


def _exact_period_count(d, m):
    """Points of exact period m when every fixed point of every F^k is simple.

    Moebius inversion of #Fix(F^k) = d^k + 1 over k | m: the dynatomic count
    nu_d(m) = sum mu(m/k) d^k, plus the one extra fixed point when m = 1.
    """
    return sum(_mobius(m // k) * (d**k + 1) for k in range(1, m + 1) if m % k == 0)


def _holomorphic_index_sum(cycles, n):
    """Sum of 1/(1 - lambda) over the fixed points of F^n (Milnor, Thm 12.4: 1)."""
    return sum(c.period / (1 - c.multiplier ** (n // c.period)) for c in cycles)


def _map(name):
    from dynamo.projective import map_from_json

    return map_from_json(_RECORDED["maps"][name])


def _load_recorded():
    import json
    from pathlib import Path

    return json.loads((Path(__file__).parent / "data" / "periodic_multipliers.json").read_text())


_RECORDED = _load_recorded()

# no parabolic cycle at any level: every fixed point of every F^n is simple
_NO_PARABOLIC = [("sq", 6), ("basilica", 6), ("cubic", 4), ("cheb2", 6), ("cheb3", 4),
               ("lattes", 4)]


@pytest.mark.parametrize("name,top", _NO_PARABOLIC)
def test_exact_period_counts_and_holomorphic_index(name, top):
    F = _map(name)
    d = F.degree
    for n in range(1, top + 1):
        cycles = periodic_points(F, n)
        assert not any(c.parabolic_warning for c in cycles)
        for m in range(1, n + 1):
            if n % m == 0:
                got = sum(c.period for c in cycles if c.period == m)
                assert got == _exact_period_count(d, m), (name, n, m)
        assert sum(c.period for c in cycles) == d**n + 1
        assert abs(_holomorphic_index_sum(cycles, n) - 1) < 1e-9, (name, n)


@pytest.mark.parametrize("key", sorted(_RECORDED["multipliers"]))
def test_multipliers_match_the_coefficient_form_solver(key):
    # multipliers for n <= 4 recorded with the previous solver, which
    # expanded the fixed-point form and solved it in coefficient form
    name, n = key.split()
    cycles = periodic_points(_map(name), int(n))
    unused = [(p, complex(re_, im)) for p, re_, im in _RECORDED["multipliers"][key]]
    for c in cycles:
        k = min(range(len(unused)),
                key=lambda k: (unused[k][0] != c.period, abs(unused[k][1] - c.multiplier)))
        assert unused[k][0] == c.period
        assert abs(unused[k][1] - c.multiplier) <= 1e-9, (key, c.multiplier, unused[k])
        del unused[k]
    assert unused == []


@pytest.mark.parametrize("name,n", [("basilica", 5), ("basilica", 6), ("basilica", 7),
                                    ("basilica", 8), ("cubic", 4), ("cubic", 5)])
def test_periods_past_the_coefficient_form_limit(name, n):
    # each of these ended in RootFindingFailure when the expanded form was
    # solved in double precision
    F = _map(name)
    cycles = periodic_points(F, n)
    assert sum(c.period for c in cycles) == F.degree**n + 1
    assert all(n % c.period == 0 for c in cycles)
    for m in range(1, n + 1):
        if n % m == 0:
            assert sum(c.period for c in cycles if c.period == m) == \
                _exact_period_count(F.degree, m)
    assert abs(_holomorphic_index_sum(cycles, n) - 1) < 1e-9
    for c in cycles:
        for i, p in enumerate(c.points):
            assert evaluate_cpoint(F, p).chordal(c.points[(i + 1) % c.period]) < 1e-9


def test_squarefree_form_skips_yun(basilica, gcd_primes):
    # the first prime of the modular gcd settles a squarefree fixed-point
    # form: Yun's decomposition stops after one image, with no lift
    from dynamo.modp import prime

    assert sum(c.period for c in periodic_points(basilica, 6)) == 65
    assert gcd_primes == [prime(0)]


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, math.nan, math.inf])
def test_periodic_points_rejects_tol_outside_unit_interval(sq, tol):
    # nan used to end in a root-finding failure and -1 to run silently
    with pytest.raises(ValueError, match=r"tol must be .*\(0, 1\)"):
        periodic_points(sq, 2, tol=tol)


@pytest.mark.parametrize("n", [0, -3])
def test_periodic_points_rejects_period_below_one(sq, n):
    # these used to fail inside iterate_lift, naming neither the period nor
    # periodic_points
    with pytest.raises(ValueError, match=rf"period must be >= 1, got {n}"):
        periodic_points(sq, n)


def test_float_forms_underflow_is_typed(monkeypatch):
    # z^2 + 10^384: scaled by 10^384, F1 = Y^2 underflows to the zero form;
    # it ended in NotACycle after two RuntimeWarnings, and now fails before
    # the exact certificate is built
    import dynamo.orbits
    from dynamo.errors import RootFindingFailure
    from dynamo.projective import RationalMapLift

    def no_certificate(F, n):
        raise AssertionError("the exact form was built")

    monkeypatch.setattr(dynamo.orbits, "iterate_lift", no_certificate)
    F = RationalMapLift.make([10**384, 0, 1], [1, 0, 0])
    with pytest.raises(RootFindingFailure, match="float range"):
        periodic_points(F, 2)


# ---------------------------------------------------------------------------
# preimage-tree starts
# ---------------------------------------------------------------------------

def _counting_ratio(monkeypatch):
    """Count the orbit-ratio evaluations, one per Aberth sweep."""
    import dynamo.orbits

    real = dynamo.orbits._orbit_ratio
    calls = []

    def counted(*args):
        ratio = real(*args)

        def wrapper(z, live):
            calls.append(1)
            return ratio(z, live)

        return wrapper

    monkeypatch.setattr(dynamo.orbits, "_orbit_ratio", counted)
    return calls


@pytest.mark.parametrize("name,n,most", [("basilica", 8, 20), ("cubic", 5, 15)])
def test_tree_starts_take_few_sweeps(monkeypatch, name, n, most):
    # from Newton-polygon circles these took 78 and 43 sweeps
    calls = _counting_ratio(monkeypatch)
    F = _map(name)
    cycles = periodic_points(F, n)
    assert sum(c.period for c in cycles) == F.degree**n + 1
    assert 0 < len(calls) <= most


def _tree_at_every_degree(monkeypatch):
    """Force the tree starts on every simple factor; record (fac, known, starts)."""
    import dynamo.orbits

    monkeypatch.setattr(dynamo.orbits, "_TREE_MIN_DEGREE", 0)
    real = dynamo.orbits._tree_starts
    seen = []

    def recorded(forms, n, fac, known, tol):
        starts = real(forms, n, fac, known, tol)
        seen.append((fac, list(known), starts))
        return starts

    monkeypatch.setattr(dynamo.orbits, "_tree_starts", recorded)
    return seen


@pytest.mark.parametrize("name", ["inv", "lattes"])
def test_tree_starts_fill_to_the_factor_degree(monkeypatch, name):
    # infinity is not periodic under (z^2 + 1)/(2 z^2), so the form has one
    # root more than the d^n leaves and one start comes from the polygon
    # (the fixed point 1 has multiplier -1, so n = 2 is parabolic); the
    # Lattes map fixes infinity and its leaves lie in both charts
    from dynamo.orbits import fixed_point_roots
    from dynamo.roots import polygon_starts

    seen = _tree_at_every_degree(monkeypatch)
    F = _map(name)
    d = F.degree
    for n in (1, 2, 3):
        seen.clear()
        assert sum(m for _, m, _ in fixed_point_roots(F, n)) == d**n + 1
        (fac, _, starts), = seen
        assert len(starts) == len(fac) - 1
        filled = np.isin(starts, polygon_starts(fac)).sum()
        assert filled == (name == "inv"), (name, n)
        cycles = periodic_points(F, n)
        if any(c.parabolic_warning for c in cycles):
            assert (name, n) == ("inv", 2)
            continue
        assert sum(c.period for c in cycles) == d**n + 1
        for m in range(1, n + 1):
            if n % m == 0:
                assert sum(c.period for c in cycles if c.period == m) == \
                    _exact_period_count(d, m), (name, n, m)


def test_power_maps_keep_the_polygon_starts(monkeypatch):
    # the factor z^(2^n - 1) - 1 of z^2 is a binomial: its roots are equally
    # spaced on the polygon's one circle, where the tree starts took 11 sweeps
    # at n = 6 against 3
    from dynamo.roots import polygon_starts

    seen = _tree_at_every_degree(monkeypatch)
    periodic_points(_map("sq"), 6)
    (fac, _, starts), = seen
    assert np.array_equal(starts, polygon_starts(fac))


def test_tree_starts_drop_the_repeated_roots(monkeypatch):
    # z^2 + 1/4: the parabolic fixed point 1/2 is a repeated root of every
    # fixed-point form, and the leaves nearest it are dropped
    seen = _tree_at_every_degree(monkeypatch)
    F = _map("quarter")
    for n in (2, 3, 4):
        seen.clear()
        cycles = periodic_points(F, n)
        (fac, known, starts), = seen
        assert len(starts) == len(fac) - 1
        assert any(abs(r - 0.5) < 1e-6 and m >= 2 for r, m in known)
        para = [c for c in cycles if c.parabolic_warning]
        assert len(para) == 1 and para[0].period == 1
        assert para[0].points[0].chordal(CPoint.from_affine(0.5)) < 1e-6
        assert abs(para[0].multiplier - 1.0) < 1e-6
        for c in cycles:
            for i, p in enumerate(c.points):
                assert evaluate_cpoint(F, p).chordal(c.points[(i + 1) % c.period]) < 1e-9


@pytest.mark.parametrize("name,base,top", [("cubic", 1.0, 4), ("basilica", -1.0, 6)])
def test_tree_starts_from_a_critical_value(monkeypatch, name, base, top):
    # 1 is the critical value of z^3 + 1 and -1 that of z^2 - 1: the leaves
    # coincide in triples or pairs, and Aberth would never separate them
    import dynamo.orbits
    from dynamo.roots import polygon_starts

    seen = _tree_at_every_degree(monkeypatch)
    monkeypatch.setattr(dynamo.orbits, "_TREE_BASE", complex(base))
    F = _map(name)
    d = F.degree
    for n in range(1, top + 1):
        seen.clear()
        cycles = periodic_points(F, n)
        (fac, _, starts), = seen
        assert not np.isin(starts, polygon_starts(fac)).all()
        gaps = np.abs(starts[:, None] - starts[None, :]) + np.eye(len(starts))
        assert gaps.min() > 1e-9
        assert not any(c.parabolic_warning for c in cycles)
        assert sum(c.period for c in cycles) == d**n + 1
        for m in range(1, n + 1):
            if n % m == 0:
                assert sum(c.period for c in cycles if c.period == m) == \
                    _exact_period_count(d, m), (name, n, m)
        assert abs(_holomorphic_index_sum(cycles, n) - 1) < 1e-9


def test_tree_starts_drop_the_surplus_leaves():
    # z + 1/z fixes infinity with multiplicity 3, so at n = 5 the simple
    # factor has degree 30 and the 32 leaves are two too many: the starts
    # are the 30 leaves of least modulus
    from dynamo.orbits import _TREE_BASE, _tree_starts, fixed_point_form
    from dynamo.projective import RationalMapLift, iterate_lift
    from dynamo.roots import preimage_fiber, yun_squarefree

    F = RationalMapLift.make([1, 0, 1], [0, 1, 0])
    n = 5
    form = fixed_point_form(iterate_lift(F, n))
    assert form[0] and form[-3:] == (0, 0, 0) and form[-4]
    (fac, mult), = yun_squarefree(list(form[:-3]))
    assert mult == 1 and len(fac) - 1 == 30
    f0, f1 = (np.array(f) for f in F.float_forms[:2])
    vals, invs = np.array([_TREE_BASE]), np.array([False])
    for _ in range(n):
        vals, invs = preimage_fiber(f0, f1, vals, invs)
        vals, invs = vals.T.ravel(), invs.T.ravel()
    leaves = np.where(invs, 1.0 / vals, vals)
    assert len(leaves) == 32 and np.isfinite(leaves).all()
    starts = _tree_starts(F.float_forms[:2], n, fac, [], 1e-12)
    assert np.array_equal(np.sort_complex(starts),
                          np.sort_complex(leaves[np.argsort(np.abs(leaves))[:30]]))
    cycles = periodic_points(F, n)
    assert sum(c.period for c in cycles) == 31
    (para,) = [c for c in cycles if c.parabolic_warning]
    assert para.points[0].is_infinity and para.multiplier == 1.0


def test_exact_multiplier_next_to_a_pole():
    # z^2 - 10^16 z fixes 10^16 + 1 with multiplier 10^16 + 2; the float
    # chain rule cancelled in F0 there and gave 8.1e15, and matching the
    # exact point by its float image failed at 10^30
    from dynamo.projective import RationalMapLift

    for c in (10**16, 10**30, 10**100):
        F = RationalMapLift.make([0, -c, 1], [1, 0, 0])
        cycles = {c_.exact_points[0]: c_.multiplier for c_ in periodic_points(F, 1)}
        assert set(cycles) == {ProjectivePoint(1, 0), ProjectivePoint(0, 1),
                               ProjectivePoint(c + 1, 1)}
        assert cycles[ProjectivePoint(c + 1, 1)] == pytest.approx(c + 2, rel=1e-12)
        assert cycles[ProjectivePoint(0, 1)] == pytest.approx(-c, rel=1e-12)
        assert cycles[ProjectivePoint(1, 0)] == 0


def test_exact_multiplier_beyond_the_float_range():
    from dynamo.orbits import _exact_multiplier
    from dynamo.projective import RationalMapLift

    F = RationalMapLift.make([0, -10**400, 1], [1, 0, 0])
    assert _exact_multiplier(F, [ProjectivePoint(10**400 + 1, 1)]) == complex(math.inf)
    assert _exact_multiplier(F, [ProjectivePoint(0, 1)]) == complex(-math.inf)
    # {0, -1} under z^2 - 1 has multiplier 0, with the sign of zero of the
    # float chain rule, which `periodic` prints as -0+0j
    G = RationalMapLift.make([-1, 0, 1], [1, 0, 0])
    lam = _exact_multiplier(G, [ProjectivePoint(0, 1), ProjectivePoint(-1, 1)])
    assert lam == 0 and math.copysign(1.0, lam.real) == -1.0
