"""Periodic points, multipliers, orbit records."""

import cmath
import math

import pytest

from dynamo.errors import CapExceeded, NotACycle
from dynamo.orbits import (
    Cycle,
    multiplier,
    orbit_record,
    periodic_points,
    repelling_cycles,
)
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


def test_root_count_matches_degree(sq, basilica, cheb2):
    for F in (sq, basilica, cheb2):
        for n in (1, 2, 3):
            cycles = periodic_points(F, n)
            total = sum(c.period for c in cycles)
            # non-parabolic quadratic cases here: every period-k cycle with
            # k | n appears once, sum of k * count = d^n + 1
            assert total == F.degree ** n + 1


def test_repelling_cycles_power(sq):
    rep = repelling_cycles(sq, 1)
    assert len(rep) == 1
    assert rep[0].multiplier == pytest.approx(2.0)
    rep2 = repelling_cycles(sq, 2)
    assert sorted(round(abs(c.multiplier)) for c in rep2) == [2, 4]


def test_repelling_cycles_cheb2(cheb2):
    rep = repelling_cycles(cheb2, 1)
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
    r = orbit_record(basilica, 1)
    assert r.record == (r.record.__class__(1, 2))
    r = orbit_record(sq, 1)
    assert (r.record.tail, r.record.period) == (0, 1)
    r = orbit_record(basilica, 2)
    assert r.divergent and r.height_lower_bound > 0


def test_orbit_record_tail_zero_iff_periodic(basilica):
    assert orbit_record(basilica, 0).record.tail == 0  # 0 -> -1 -> 0 periodic
    assert orbit_record(basilica, 1).record.tail == 1


def test_period_cap(sq):
    with pytest.raises(CapExceeded):
        periodic_points(sq, 13)  # 2^13 > 4096


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


def poly_lift_q(*coeffs):
    from dynamo.projective import RationalMapLift

    d = len(coeffs) - 1
    return RationalMapLift.make(list(coeffs), [4] + [0] * d)


def test_non_permutation_matching_raises(sq, monkeypatch):
    # -1 maps onto the fixed point 1, so two roots share a nearest image and
    # the walk from -1 merges into 1's cycle instead of closing on itself
    import dynamo.roots

    real = dynamo.roots.binary_form_roots

    def with_extra_root(coeffs, tol):
        extra = (CPoint.from_affine(-1.0), 1, ProjectivePoint(-1, 1))
        return [extra] + real(coeffs, tol=tol)

    monkeypatch.setattr(dynamo.roots, "binary_form_roots", with_extra_root)
    with pytest.raises(NotACycle, match="not a permutation"):
        periodic_points(sq, 1)
