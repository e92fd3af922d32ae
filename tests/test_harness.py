"""Verifier pipeline: fiber tests, measure comparison, pair-form certificates."""

import time

import pytest

import dynamo.harness
import dynamo.measure
from dynamo.harness import (
    _matching_exponents,
    fiber_preperiodicity_test,
    mm_verify,
    ms_form_check,
)
from dynamo.hypersurface import Hypersurface, diagonal_surface, graph_surface
from dynamo.measure import MeasureCompareResult, measure_compare


def linear_sum_surface():
    return Hypersurface.make(3, (1, 1, 1),
                             [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])


def pulled_back_diagonal():
    """pi_12^{-1}(diagonal) in (P^1)^3."""
    return Hypersurface.make(3, (1, 1, 0), [((1, 0, 0), 1), ((0, 1, 0), -1)])


# -- fiber tests ----------------------------------------------------------------

def test_fiber_diagonal_passes(basilica):
    res = fiber_preperiodicity_test(diagonal_surface(), [basilica, basilica], 2,
                                    trials=50, seed=1)
    assert res.fails == 0
    assert res.passes == 50


def test_fiber_square_graph_passes(sq):
    H = graph_surface([0, 0, 1])
    res = fiber_preperiodicity_test(H, [sq, sq], 2, trials=100, seed=2)
    assert res.fails == 0 and res.passes == 100


def test_fiber_shift_graph_fails(sq):
    H = graph_surface([1, 1])
    res = fiber_preperiodicity_test(H, [sq, sq], 2, trials=100, seed=3)
    assert res.fails > 0
    w = next(w for w in res.witnesses if w.preperiodic is False)
    assert "canonical height" in w.detail


def test_fiber_invariant_graph_never_fails(basilica):
    # the graph {x2 = f(x1)} with both maps equal: preperiodic inputs map to
    # preperiodic outputs, so every certified trial passes
    H = graph_surface([-1, 0, 1])
    res = fiber_preperiodicity_test(H, [basilica, basilica], 2, trials=100, seed=4)
    assert res.fails == 0


def test_fiber_irrational_roots_are_uncertified(sq):
    # on x2 = x1^2, solving for x1 over x2 = -1 gives +-i: numeric roots,
    # counted apart from the exact decisions, each with an escape-rate witness
    res = fiber_preperiodicity_test(graph_surface([0, 0, 1]), [sq, sq], 1, trials=20, seed=0)
    assert (res.passes, res.fails, res.uncertified, res.degenerate) == (21, 0, 8, 0)
    assert len(res.witnesses) == 8
    for w in res.witnesses:
        assert w.assignment == {2: "-1"} and w.preperiodic is None
        assert complex(w.root) in (1j, -1j)
        assert w.detail.startswith("numeric root; uncertified escape-rate estimate")


def _per_trial_reference(H, maps, i, trials, seed):
    """The fiber test with a fresh solve and decision at every trial, and the
    set of distinct assignments it drew."""
    import random

    from dynamo.errors import DegenerateFiber
    from dynamo.harness import SUPPLY_BOX, FiberTestResult, FiberWitness
    from dynamo.heights import decide_preperiodic, rational_preperiodic_points
    from dynamo.hypersurface import fiber_solve
    from dynamo.measure import green

    supplies = {j: rational_preperiodic_points(F, box=SUPPLY_BOX)
                for j, F in enumerate(maps, start=1) if j != i}
    rng = random.Random(seed)
    passes = fails = uncertified = degenerate = 0
    witnesses, drawn = [], set()
    for _ in range(trials):
        assignment = {j: rng.choice(pts) for j, pts in supplies.items()}
        drawn.add(tuple(assignment.values()))
        where = {k: str(v) for k, v in assignment.items()}
        try:
            roots = fiber_solve(H, i, assignment)
        except DegenerateFiber:
            degenerate += 1
            continue
        for cp, _mult, exact in roots:
            if exact is not None:
                verdict = decide_preperiodic(maps[i - 1], exact)
                if verdict.preperiodic:
                    passes += 1
                else:
                    fails += 1
                    witnesses.append(FiberWitness(
                        where, str(exact), False,
                        f"certified canonical height >= {verdict.height_lower_bound:.6g}"))
            else:
                uncertified += 1
                est = green(maps[i - 1], cp.affine(), 30) if not cp.is_infinity else 0.0
                witnesses.append(FiberWitness(
                    where, repr(cp.affine()), None,
                    f"numeric root; uncertified escape-rate estimate {est:.6g}"))
    return FiberTestResult(passes, fails, uncertified, degenerate, tuple(witnesses)), drawn


@pytest.mark.parametrize("case", ["diagonal", "shift", "square", "three", "degenerate"])
def test_fiber_test_solves_each_distinct_fiber_once(case, sq, basilica, monkeypatch):
    # the trials redraw a few preperiodic tuples: each distinct one is solved
    # and each distinct exact root decided once, and the result (counts and
    # witnesses in order) is that of solving every trial
    H, maps, i = {
        "diagonal": (diagonal_surface(), [basilica, basilica], 2),
        "shift": (graph_surface([1, 1]), [sq, sq], 2),            # fail witnesses
        "square": (graph_surface([0, 0, 1]), [sq, sq], 1),        # uncertified +-i
        "three": (linear_sum_surface(), [basilica] * 3, 1),
        # x2 (x1 - 1) = 0: the fiber over x2 = 0 vanishes identically
        "degenerate": (Hypersurface.make(2, (1, 1), [((1, 1), 1), ((0, 1), -1)]), [sq, sq], 1),
    }[case]
    want, drawn = _per_trial_reference(H, maps, i, trials=60, seed=5)
    solves, decisions = [], []
    solve, decide = dynamo.harness.fiber_solve, dynamo.harness.decide_preperiodic

    def counting_solve(H, i, assignment):
        solves.append(tuple(assignment.values()))
        return solve(H, i, assignment)

    def counting_decide(F, p):
        decisions.append(p)
        return decide(F, p)

    monkeypatch.setattr(dynamo.harness, "fiber_solve", counting_solve)
    monkeypatch.setattr(dynamo.harness, "decide_preperiodic", counting_decide)
    res = fiber_preperiodicity_test(H, maps, i, trials=60, seed=5)
    assert res == want
    assert len(solves) == len(set(solves)) and set(solves) == drawn and len(solves) < 60
    assert len(decisions) == len(set(decisions))
    if case == "shift":
        assert res.fails and res.witnesses
    if case == "square":
        assert res.uncertified
    if case == "degenerate":
        assert res.degenerate and res.passes


# -- measure comparison ----------------------------------------------------------

def test_measure_compare_diagonal_same_maps(sq):
    res = measure_compare(diagonal_surface(), [sq, sq], 1, 2,
                          n_samples=4000, depth=25, seed=5)
    assert res.equal_within_noise, (res.statistic, res.threshold)


def test_measure_compare_diagonal_different_maps(sq, basilica):
    res = measure_compare(diagonal_surface(), [sq, basilica], 1, 2,
                          n_samples=10_000, depth=30, seed=5)
    assert not res.equal_within_noise
    assert res.statistic > 2 * res.threshold  # macroscopic, not borderline


def test_measure_compare_symmetric(sq, basilica):
    a = measure_compare(diagonal_surface(), [sq, basilica], 1, 2,
                        n_samples=2000, depth=20, seed=9)
    b = measure_compare(diagonal_surface(), [sq, basilica], 2, 1,
                        n_samples=2000, depth=20, seed=9)
    assert a.statistic == b.statistic


def test_measure_compare_invariant_graph(sq):
    # {x2 = x1^2} is invariant under (z^2, z^2): both pullbacks agree
    res = measure_compare(graph_surface([0, 0, 1]), [sq, sq], 1, 2,
                          n_samples=6000, depth=25, seed=11)
    assert res.equal_within_noise, (res.statistic, res.threshold)


def test_measure_compare_same_axis_raises_before_sampling(sq, monkeypatch):
    # i == j sampled one pullback twice and reported D = 0
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(dynamo.measure, "pullback_to_hypersurface", no_sampling)
    with pytest.raises(ValueError, match="^compare two distinct axes, got i = j = 1$"):
        measure_compare(diagonal_surface(), [sq, sq], 1, 1, n_samples=100, depth=5)


@pytest.mark.parametrize("H, maps, i, j, message", [
    (diagonal_surface(), 2, 1, 3, "axis 3 is outside 1..2"),
    (diagonal_surface(), 1, 1, 2, "one map per coordinate axis is required: 2 axes, 1 maps"),
    (diagonal_surface(), 2, 2, 2, "compare two distinct axes, got i = j = 2"),
    # pi_12^{-1}(diagonal) does not depend on x3
    (pulled_back_diagonal(), 3, 1, 3, "H does not project dominantly when forgetting axis 3"),
    (pulled_back_diagonal(), 3, 3, 2, "H does not project dominantly when forgetting axis 3"),
])
def test_measure_compare_raises_before_any_walk(sq, monkeypatch, H, maps, i, j, message):
    # the columns of every axis are drawn up front, so each check comes first
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(dynamo.measure, "_walk", no_walk)
    with pytest.raises(ValueError, match=f"^{message}$"):
        measure_compare(H, [sq] * maps, i, j, n_samples=100, depth=5)


@pytest.mark.parametrize("H, maps, kwargs, message", [
    (diagonal_surface(), 1, {}, "one map per coordinate axis is required: 2 axes, 1 maps"),
    (diagonal_surface(), 2, {"samples": 0}, "samples must be >= 1, got 0"),
    (Hypersurface.make(2, (0, 0), [((0, 0), 1)]), 2, {},
     r"no projection is dominant: a form of multidegree \(0, 0\) is a constant and "
     "defines the empty set"),
])
def test_mm_verify_raises_before_any_walk(sq, monkeypatch, H, maps, kwargs, message):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(dynamo.measure, "_walk", no_walk)
    with pytest.raises(ValueError, match=f"^{message}$"):
        mm_verify(H, [sq] * maps, **{"samples": 100, "depth": 5, "trials": 5, **kwargs})


# -- pair-form check --------------------------------------------------------------

def _least_exponents_by_search(di, dj, bound):
    for li in range(1, bound + 1):
        for lj in range(1, bound + 1):
            if di**li == dj**lj:
                return (li, lj)
    return None


def test_matching_exponents_match_the_search():
    for di in range(2, 65):
        for dj in range(2, 65):
            for bound in range(1, 9):
                assert (_matching_exponents(di, dj, bound)
                        == _least_exponents_by_search(di, dj, bound)), (di, dj, bound)


def test_matching_exponents_of_a_degree_below_two():
    # no power of 1 is a power of 2: the search for a root base of 1 would not end
    assert _matching_exponents(1, 2, 6) is None
    assert _matching_exponents(3, 1, 6) is None
    assert _matching_exponents(1, 1, 6) == (1, 1)


def test_matching_exponents_under_a_large_bound():
    # the search formed O(bound^2) big-integer powers: bound 10^5 did not end in 60 s
    t0 = time.perf_counter()
    assert _matching_exponents(2, 3, 10**5) is None
    assert _matching_exponents(8, 32, 10**5) == (5, 3)
    assert _matching_exponents(2**40, 2**60, 10**5) == (3, 2)
    assert _matching_exponents(2**40, 2**60, 2) is None
    assert time.perf_counter() - t0 < 1.0


def test_ms_form_pulled_back_diagonal(sq, basilica):
    rep = ms_form_check(pulled_back_diagonal(), [sq, sq, basilica])
    assert rep.certificate is not None
    cert = rep.certificate
    assert cert.pair == (1, 2)
    assert cert.exponents == (1, 1)
    assert cert.orbit.preperiodic and (cert.orbit.tail, cert.orbit.period) == (0, 1)


def test_ms_form_three_blocks_none(sq):
    rep = ms_form_check(linear_sum_surface(), [sq, sq, sq])
    assert rep.certificate is None
    assert rep.reason == "depends on 3 blocks"


def test_ms_form_exponent_search():
    from dynamo.exceptional import power_map

    # d1 = 2, d2 = 4: minimal exponents (2, 1)
    H = diagonal_surface()
    rep = ms_form_check(H, [power_map(2), power_map(4)])
    assert rep.certificate is not None
    assert rep.certificate.exponents == (2, 1)


def test_ms_form_no_matching_degrees(sq):
    from dynamo.exceptional import power_map

    rep = ms_form_check(diagonal_surface(), [power_map(2), power_map(3)], exponent_bound=4)
    assert rep.certificate is None
    assert "no iterate degrees match" in rep.reason


# -- the full pipeline -------------------------------------------------------------

def test_mm_verify_diagonal_same_maps(sq):
    rep = mm_verify(diagonal_surface(), [sq, sq], samples=4000, depth=25, trials=40, seed=7)
    assert rep.failed_conditions == ()
    assert rep.pair_form.certificate is not None
    assert rep.pair_form.certificate.orbit.preperiodic
    assert "certified preperiodic" in rep.verdict


def test_mm_verify_diagonal_different_maps(sq, basilica):
    rep = mm_verify(diagonal_surface(), [sq, basilica], samples=10_000, depth=30, trials=30,
                    seed=7)
    assert any("measure comparison" in f for f in rep.failed_conditions)


def test_mm_verify_shift_graph(sq):
    rep = mm_verify(graph_surface([1, 1]), [sq, sq], samples=3000, depth=20, trials=60,
                    seed=7)
    assert any("fiber test" in f for f in rep.failed_conditions)


def test_mm_verify_linear_sum_nonexceptional(basilica):
    rep = mm_verify(linear_sum_surface(), [basilica, basilica, basilica], samples=3000,
                    depth=20, trials=60, seed=7)
    assert rep.pair_form.certificate is None
    assert rep.pair_form.reason == "depends on 3 blocks"
    assert rep.failed_conditions  # fiber witnesses force at least one failure


def test_mm_verify_requires_matching_maps(sq):
    with pytest.raises(ValueError):
        mm_verify(diagonal_surface(), [sq])


@pytest.mark.parametrize("bad", [{"samples": 0}, {"depth": -4}, {"trials": 0},
                                 {"exponent_bound": -1}, {"max_curve_iter": 0}])
def test_mm_verify_budget_below_one_raises_before_any_work(sq, bad):
    # checked before the axes, whose fault (one map for two axes) would raise another message
    name, value = next(iter(bad.items()))
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        mm_verify(diagonal_surface(), [sq], **bad)


def test_mm_verify_constant_form_raises_before_any_work(sq, monkeypatch):
    # a constant defines the empty set: no axis is dominant, no fiber or
    # measure test ran, and the verdict said that none failed
    def no_work(*args, **kwargs):
        raise AssertionError("classified")

    monkeypatch.setattr(dynamo.harness, "classify", no_work)
    one = Hypersurface.make(2, (0, 0), [((0, 0), 1)])
    with pytest.raises(ValueError, match=r"^no projection is dominant: a form of "
                       r"multidegree \(0, 0\) is a constant and defines the empty set$"):
        mm_verify(one, [sq, sq], samples=100, depth=5, trials=5)


@pytest.mark.parametrize("trials", [0, -4])
def test_fiber_test_budget_below_one_raises(sq, trials):
    # an all-zero result would be a silent empty run
    with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
        fiber_preperiodicity_test(diagonal_surface(), [sq, sq], 2, trials=trials)


@pytest.mark.parametrize("axis, nmaps, message", [
    (3, 2, "axis 3 is outside 1..2"),
    (0, 2, "axis 0 is outside 1..2"),
    (2, 1, "one map per coordinate axis is required: 2 axes, 1 maps"),
])
def test_fiber_test_bad_axis_or_map_count_raises(sq, axis, nmaps, message):
    # checked before the dominance lookup, which would raise KeyError
    with pytest.raises(ValueError, match=f"^{message}$"):
        fiber_preperiodicity_test(diagonal_surface(), [sq] * nmaps, axis, trials=5)


def test_insufficient_preperiodic_supply():
    from dynamo.errors import InsufficientPreperiodicSupply
    from dynamo.projective import RationalMapLift

    # (z^2+2)/(z^2-2) has no rational preperiodic points at all (even the
    # orbit of infinity diverges), so fiber trials cannot be seeded
    F = RationalMapLift.make([2, 0, 1], [-2, 0, 1])
    with pytest.raises(InsufficientPreperiodicSupply):
        fiber_preperiodicity_test(diagonal_surface(), [F, F], 2, trials=5, seed=1)


def test_mm_verify_names_certificate_contradiction(sq, monkeypatch):
    # the diagonal is invariant under (z^2, z^2), so the pair curve is
    # certified; a (forced) measure failure must not be hidden behind it
    def failing_compare(H, maps, i, j, n_samples, depth, seed, columns=None):
        return MeasureCompareResult(0.5, 0.1, (0.5, 0.5), n_samples, (0, 0))

    monkeypatch.setattr(dynamo.harness, "measure_compare", failing_compare)
    rep = mm_verify(diagonal_surface(), [sq, sq], samples=100, depth=5, trials=5, seed=7)
    assert rep.pair_form.certificate.orbit.preperiodic
    assert rep.failed_conditions == ("measure comparison (1,2): D = 0.5000 "
                                     "exceeds tau = 0.1000",)
    assert rep.verdict.startswith("contradictory evidence")
    assert "pair-curve certificate" in rep.verdict
    assert rep.failed_conditions[0] in rep.verdict


def test_mm_verify_searches_each_map_once(basilica, monkeypatch):
    # x1 + x2 + x3 = 0 under (z^2 - 1)^3: three axes need the same map's
    # preperiodic points, found once; each axis's fiber test is the one it
    # runs alone
    calls = []
    search = dynamo.harness.rational_preperiodic_points

    def counting(F, box):
        calls.append(F)
        return search(F, box=box)

    monkeypatch.setattr(dynamo.harness, "rational_preperiodic_points", counting)
    cfg = dict(samples=500, depth=10, trials=10, seed=7)
    maps = [basilica] * 3
    rep = mm_verify(linear_sum_surface(), maps, **cfg)
    assert calls == [basilica]
    for i in (1, 2, 3):
        alone = fiber_preperiodicity_test(linear_sum_surface(), maps, i, trials=cfg["trials"],
                                          seed=cfg["seed"] + i)
        assert rep.fiber_tests[i] == alone


def test_mm_verify_pulls_back_through_each_axis_once(basilica, monkeypatch):
    # x1 + x2 + x3 = 0: three pairs, two pullbacks each, of three distinct
    # axes; each axis's pullback cap fractions are memoized in the columns
    cfg = dict(samples=500, depth=10, trials=5, seed=7)
    maps = [basilica] * 3
    axes = []
    pullback = dynamo.measure.pullback_to_hypersurface

    def counting(H, maps, i, *args, **kwargs):
        axes.append(i)
        return pullback(H, maps, i, *args, **kwargs)

    monkeypatch.setattr(dynamo.measure, "pullback_to_hypersurface", counting)
    rep = mm_verify(linear_sum_surface(), maps, **cfg)
    assert sorted(axes) == [1, 2, 3]
    monkeypatch.setattr(dynamo.measure, "pullback_to_hypersurface", pullback)
    assert len(rep.measure_tests) == 3
    for (i, j), res in rep.measure_tests.items():
        alone = measure_compare(linear_sum_surface(), maps, i, j, n_samples=cfg["samples"],
                                depth=cfg["depth"], seed=cfg["seed"])
        assert res == alone


def test_mm_verify_samples_each_axis_once(basilica, monkeypatch):
    # x1 + x2 + x3 = 0: three pairs, two pullbacks each, two product columns
    # per pullback; the columns depend on the axis alone, so three are drawn
    cfg = dict(samples=500, depth=10, trials=5, seed=7)
    maps = [basilica] * 3
    pullback = dynamo.measure.pullback_to_hypersurface

    def unshared(*args, **kwargs):
        return pullback(*args, **{**kwargs, "columns": None})

    monkeypatch.setattr(dynamo.measure, "pullback_to_hypersurface", unshared)
    alone = mm_verify(linear_sum_surface(), maps, **cfg)
    monkeypatch.setattr(dynamo.measure, "pullback_to_hypersurface", pullback)

    # every column is drawn by the backward walk, several trees per walk
    seeds = []
    walk = dynamo.measure._walk

    def counting(trees, depth):
        seeds.extend(seed for _, _, seed in trees)
        return walk(trees, depth)

    monkeypatch.setattr(dynamo.measure, "_walk", counting)
    rep = mm_verify(linear_sum_surface(), maps, **cfg)
    assert len(seeds) == len(set(seeds)) == 3
    # classifications hold numeric points without value equality
    assert rep.measure_tests == alone.measure_tests
    assert rep.fiber_tests == alone.fiber_tests
    assert rep.failed_conditions == alone.failed_conditions
    assert rep.verdict == alone.verdict
