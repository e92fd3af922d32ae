"""Joint-preperiodicity evidence on hypersurfaces of (P^1)^n.

For a hypersurface carrying a dense set of jointly preperiodic points under
split non-exceptional maps, several necessary conditions must hold: fibers
over preperiodic tuples consist of preperiodic points, the pulled-back
measures through every coordinate projection agree, and two-block forms come
from a preperiodic plane curve under iterates of matching degree.  mm_verify
runs all of these and reports which (if any) fail, with concrete witnesses.

No settled work is redone: the fiber test solves and judges the fiber of
each distinct preperiodic tuple once, however often the trials redraw it,
and mm_verify searches and classifies each distinct map once.

The measure condition is `measure.measure_compare`, which lives with the
sampler, so `compare-measures` runs without this module.  mm_verify calls it
through this module's own binding, so a patch of `harness.measure_compare`
(a test double, or the benchmark's tracer) reaches it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .curves import Curve2, CurveOrbitOutcome, curve_orbit
from .errors import DegenerateFiber, InsufficientPreperiodicSupply
from .exceptional import classify
from .heights import decide_preperiodic, rational_preperiodic_points
from .hypersurface import Hypersurface, fiber_solve
from .measure import green, measure_compare
from .projective import int_root_floor, iterate_lift

#: search box of each map's rational preperiodic points (the fiber-test supply)
SUPPLY_BOX = 100
#: curve bidegree that ends mm-verify's pair-curve orbit; below ms_form_check's
#: default of 64, so the check inside the full report stays cheaper
MM_MAX_BIDEGREE = 40


# ---------------------------------------------------------------------------
# fiberwise preperiodicity test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberWitness:
    assignment: dict
    root: object
    preperiodic: bool | None  # None marks uncertified numeric roots
    detail: str


@dataclass(frozen=True)
class FiberTestResult:
    passes: int
    fails: int
    uncertified: int
    degenerate: int
    witnesses: tuple


def fiber_preperiodicity_test(H: Hypersurface, maps, i: int, trials: int = 100,
                              seed: int = 0,
                              supply: dict | None = None) -> FiberTestResult:
    """Solve fibers over random preperiodic tuples; decide each rational root.

    Constrained coordinates j != i draw uniformly from the rational
    preperiodic set of map j, searched in the box max(|p|, |q|) <= SUPPLY_BOX;
    exact rational roots of the fiber get the exact preperiodicity decision
    (`decide_preperiodic`), numeric roots an uncertified escape-rate
    estimate.  A certified non-preperiodic rational root is a fail witness.
    A map over Q has few rational preperiodic points, so the trials keep
    drawing the same tuples: each distinct tuple's fiber is solved and
    judged once (`_fiber_outcome`), each distinct exact root decided once,
    and a repeated draw adds that outcome again, witnesses included.  The
    draws, counts and witness order are those of judging every trial.
    supply memoizes each map's rational preperiodic set; callers testing
    several axes pass one dict to all of them.  trials below 1, a map count
    other than n, or an axis i outside 1..n or one H does not project
    dominantly when forgetting is a ValueError (`Hypersurface.check_axes`).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    H.check_axes(maps, i)
    supply = {} if supply is None else supply
    supplies = {}
    for j, F in enumerate(maps, start=1):
        if j == i:
            continue
        if F not in supply:
            supply[F] = rational_preperiodic_points(F, box=SUPPLY_BOX)
        pts = supply[F]
        if not pts:
            raise InsufficientPreperiodicSupply(
                f"map {j} has no rational preperiodic points in the search box")
        supplies[j] = pts
    rng = random.Random(seed)
    passes = fails = uncertified = degenerate = 0
    witnesses = []
    outcomes = {}  # assignment -> its fiber's (passes, fails, uncertified, witnesses)
    verdicts = {}  # exact root -> its preperiodicity verdict
    for _ in range(trials):
        assignment = {j: rng.choice(pts) for j, pts in supplies.items()}
        key = tuple(assignment.values())
        if key not in outcomes:
            outcomes[key] = _fiber_outcome(H, maps[i - 1], i, assignment, verdicts)
        outcome = outcomes[key]
        if outcome is None:
            degenerate += 1
            continue
        passes += outcome[0]
        fails += outcome[1]
        uncertified += outcome[2]
        witnesses.extend(outcome[3])
    return FiberTestResult(passes, fails, uncertified, degenerate, tuple(witnesses))


def _fiber_outcome(H: Hypersurface, F, i: int, assignment: dict, verdicts: dict):
    """One fiber's (passes, fails, uncertified, witnesses), or None if degenerate.

    Solves the fiber of axis i over assignment and judges each root under
    F: an exact root by its preperiodicity verdict, memoized in verdicts,
    a numeric one by its escape-rate estimate.
    """
    try:
        roots = fiber_solve(H, i, assignment)
    except DegenerateFiber:
        return None
    where = {k: str(v) for k, v in assignment.items()}
    passes = fails = uncertified = 0
    witnesses = []
    for cp, _mult, exact in roots:
        if exact is not None:
            if exact not in verdicts:
                verdicts[exact] = decide_preperiodic(F, exact)
            verdict = verdicts[exact]
            if verdict.preperiodic:
                passes += 1
            else:
                fails += 1
                witnesses.append(FiberWitness(
                    where, str(exact), False,
                    f"certified canonical height >= {verdict.height_lower_bound:.6g}"))
        else:
            uncertified += 1
            est = green(F, cp.affine(), 30) if not cp.is_infinity else 0.0
            witnesses.append(FiberWitness(
                where, repr(cp.affine()), None,
                f"numeric root; uncertified escape-rate estimate {est:.6g}"))
    return passes, fails, uncertified, witnesses


# ---------------------------------------------------------------------------
# two-block (pair-curve) form check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFormCertificate:
    pair: tuple
    exponents: tuple
    curve: Curve2
    orbit: CurveOrbitOutcome


@dataclass(frozen=True)
class PairFormReport:
    certificate: PairFormCertificate | None
    reason: str


def ms_form_check(H: Hypersurface, maps, exponent_bound: int = 6,
                  max_iter: int = 8, max_bidegree: int = 64) -> PairFormReport:
    """If H depends on exactly two blocks, certify the pair-curve structure.

    Takes the least (l_i, l_j) with deg(f_i)^l_i = deg(f_j)^l_j within the
    bound (`_matching_exponents`), extracts the plane curve,
    and runs its orbit under the matching iterates.  maps holds one map per
    axis and the bounds are >= 1, else ValueError.
    """
    H.check_axes(maps)
    for name, bound in (("exponent_bound", exponent_bound), ("max_iter", max_iter)):
        if bound < 1:
            raise ValueError(f"{name} must be >= 1, got {bound}")
    dom = H.dominance()
    active = dom["active_blocks"]
    if len(active) != 2:
        return PairFormReport(None, f"depends on {len(active)} blocks")
    i, j = active
    found = _matching_exponents(maps[i - 1].degree, maps[j - 1].degree, exponent_bound)
    if found is None:
        return PairFormReport(None,
                              f"no iterate degrees match up to exponent bound {exponent_bound}")
    li, lj = found
    curve = _restrict_to_pair(H, i, j)
    fi = iterate_lift(maps[i - 1], li)
    fj = iterate_lift(maps[j - 1], lj)
    orbit = curve_orbit(curve, fi, fj, max_iter=max_iter, max_bidegree=max_bidegree)
    cert = PairFormCertificate((i, j), (li, lj), curve, orbit)
    if orbit.preperiodic:
        return PairFormReport(cert, "pair curve is preperiodic under the matched iterates")
    return PairFormReport(cert, "pair curve not detected preperiodic within the budget")


def _matching_exponents(di: int, dj: int, bound: int) -> tuple | None:
    """The least (l_i, l_j) with di^l_i = dj^l_j and both within bound, or None.

    For di, dj >= 2 the equation holds iff di = c^p and dj = c^q for one
    integer c, with p, q >= 1.  Taking for c the root of di that is no
    perfect power, every solution is a multiple of (q, p) / gcd(p, q), so
    the least one is that pair.  No power of di or dj is formed.
    """
    if di == dj:
        return (1, 1)
    if min(di, dj) < 2:
        return None
    b, p = di, 1
    for e in range(di.bit_length(), 1, -1):
        r = int_root_floor(di, e)
        if r**e == di:
            b, p = r, e
            break
    q, rest = 0, dj
    while rest % b == 0:
        q, rest = q + 1, rest // b
    if rest != 1:
        return None
    g = math.gcd(p, q)
    li, lj = q // g, p // g
    return (li, lj) if max(li, lj) <= bound else None


def _restrict_to_pair(H: Hypersurface, i: int, j: int) -> Curve2:
    terms = {}
    for exps, c in H.terms:
        terms[(exps[i - 1], exps[j - 1])] = c
    return Hypersurface.make(2, (H.multidegree[i - 1], H.multidegree[j - 1]), terms)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MMReport:
    dominance: dict
    classifications: tuple
    fiber_tests: dict
    measure_tests: dict
    pair_form: PairFormReport
    failed_conditions: tuple
    verdict: str
    warnings: tuple = ()


def mm_verify(H: Hypersurface, maps, *, samples: int = 10_000, depth: int = 30,
              trials: int = 100, seed: int = 7, exponent_bound: int = 6,
              max_curve_iter: int = 6) -> MMReport:
    """Run every necessary-condition test and assemble the evidence report.

    For a hypersurface genuinely carrying dense joint preperiodicity under
    non-exceptional maps, all sub-tests would pass and (for n > 2 dominant
    forms) contradict the classification theory, so some failure is expected
    on any other input; the report names the failures with witnesses.
    samples, depth, trials, exponent_bound or max_curve_iter below 1 is a
    ValueError, and so is a form with no dominant axis: a constant, which
    defines the empty set and leaves no test to run.  Both are raised before
    any work.
    """
    for name, value in (("samples", samples), ("depth", depth), ("trials", trials),
                        ("exponent_bound", exponent_bound),
                        ("max_curve_iter", max_curve_iter)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    H.check_axes(maps)
    dom = H.dominance()
    if not dom["active_blocks"]:
        raise ValueError("no projection is dominant: a form of multidegree "
                         f"{H.multidegree} is a constant and defines the empty set")
    warnings = tuple(H.irreducibility_warnings())
    classified = {F: classify(F) for F in dict.fromkeys(maps)}  # each distinct map once
    classifications = tuple(classified[F] for F in maps)
    failed = []
    fiber_tests = {}
    supply = {}  # each distinct map's preperiodic points, searched once
    for i in range(1, H.n + 1):
        if not dom["axis"][i]:
            continue
        res = fiber_preperiodicity_test(H, maps, i, trials=trials, seed=seed + i,
                                        supply=supply)
        fiber_tests[i] = res
        if res.fails:
            failed.append(f"fiber test on axis {i}: {res.fails} certified "
                          f"non-preperiodic witnesses")
    measure_tests = {}
    columns = {}  # each axis's invariant-measure sample, drawn once
    axes = [i for i in range(1, H.n + 1) if dom["axis"][i]]
    for a in range(len(axes)):
        for b in range(a + 1, len(axes)):
            i, j = axes[a], axes[b]
            res = measure_compare(H, maps, i, j, n_samples=samples, depth=depth,
                                  seed=seed, columns=columns)
            measure_tests[(i, j)] = res
            if not res.equal_within_noise:
                failed.append(
                    f"measure comparison ({i},{j}): D = {res.statistic:.4f} "
                    f"exceeds tau = {res.threshold:.4f}")
    pair = ms_form_check(H, maps, exponent_bound=exponent_bound, max_iter=max_curve_iter,
                         max_bidegree=MM_MAX_BIDEGREE)
    all_non_exceptional = all(c.verdict == "NonExceptional" for c in classifications)
    certified = pair.certificate is not None and pair.certificate.orbit.preperiodic
    if certified and failed:
        verdict = ("contradictory evidence: the exact pair-curve certificate says the "
                   "two-block form is preperiodic, but " + "; ".join(failed))
    elif certified:
        verdict = ("two-block form certified preperiodic: consistent with the "
                   "pair-curve shape of joint preperiodicity")
    elif failed:
        verdict = ("evidence against dense joint preperiodicity: " + failed[0])
    elif all_non_exceptional and all(dom["axis"].values()) and H.n > 2:
        verdict = ("all necessary conditions passed with non-exceptional maps on a "
                   "dominant hypersurface: dense joint preperiodicity here would "
                   "contradict the classification of such hypersurfaces; expect a "
                   "failed sub-test at higher sample sizes")
    else:
        verdict = "no necessary condition failed at the tested resolution"
    return MMReport(dominance=dom, classifications=classifications,
                    fiber_tests=fiber_tests, measure_tests=measure_tests,
                    pair_form=pair, failed_conditions=tuple(failed), verdict=verdict,
                    warnings=warnings)
