"""The result records: value equality and hashing, repr text, keyword
construction with defaults, and read-only fields.

Every immutable record is a NamedTuple; the two portrait records that
`exceptional.ramification_portrait` updates in place are slotted classes.
"""

import math

import numpy as np
import pytest

from dynamo.curves import CurveOrbitOutcome
from dynamo.exceptional import (
    Classification,
    NotPCF,
    PortraitNode,
    RamificationPortrait,
)
from dynamo.harness import (
    FiberTestResult,
    FiberWitness,
    MMReport,
    PairFormCertificate,
    PairFormReport,
)
from dynamo.heights import CanonicalHeightResult, PreperiodicityVerdict
from dynamo.hypersurface import Hypersurface, diagonal_surface
from dynamo.measure import EmpiricalMeasure, MeasureCompareResult, PullbackSample
from dynamo.orbits import Cycle
from dynamo.projective import (
    BezoutCertificate,
    CPoint,
    ProjectivePoint,
    RationalMapLift,
)

_LIFT = RationalMapLift.make([-1, 0, 1], [1, 0, 0])
_OUTCOME = CurveOrbitOutcome(True, tail=0, period=1, bidegrees=((1, 1),), curves=("C",))
_MEASURE = EmpiricalMeasure(np.zeros((2, 1)), np.zeros((2, 1), dtype=bool), seed=1, depth=2)
_REPORT = PairFormReport(None, "no pair")

# one instance of every immutable record, built by keyword: its fields
IMMUTABLE = [
    ProjectivePoint(x=2, y=3),
    BezoutCertificate(g0x=(1,), g1x=(0,), g0y=(0,), g1y=(1,), res=1),
    _LIFT,
    CanonicalHeightResult(value=0.5, error_radius=1e-6, iterations=3, height_step_bound=0.7),
    PreperiodicityVerdict(preperiodic=False, height_lower_bound=0.1, certificate_index=2),
    Cycle(points=(), period=1, multiplier=0j),
    NotPCF(witness_point=ProjectivePoint(1, 0), orbit_length=3, reason="wanders"),
    Classification(verdict="Lattes", signature=(2, 2, 2, 2), pcf=True, exact=True),
    FiberWitness(assignment={}, root=None, preperiodic=None, detail=""),
    FiberTestResult(passes=1, fails=0, uncertified=0, degenerate=0, witnesses=()),
    PairFormCertificate(pair=(1, 2), exponents=(1, 1), curve=None, orbit=_OUTCOME),
    _REPORT,
    MMReport(dominance={}, classifications=(), fiber_tests={}, measure_tests={},
             pair_form=_REPORT, failed_conditions=(), verdict="consistent"),
    _OUTCOME,
    diagonal_surface(),
    _MEASURE,
    PullbackSample(measure=_MEASURE, discarded=0),
    MeasureCompareResult(statistic=0.1, threshold=0.2, per_chart=(0.1,), n_samples=10,
                         discarded=(0, 0)),
]
FIELDS = {
    ProjectivePoint: "x y", BezoutCertificate: "g0x g1x g0y g1y res",
    RationalMapLift: "f0 f1 degree res",
    CanonicalHeightResult: "value error_radius iterations height_step_bound local_breakdown",
    PreperiodicityVerdict: "preperiodic tail period height_lower_bound certificate_index",
    Cycle: "points period multiplier exact_points parabolic_warning",
    NotPCF: "witness_point orbit_length reason",
    Classification: "verdict signature pcf exact witness",
    FiberWitness: "assignment root preperiodic detail",
    FiberTestResult: "passes fails uncertified degenerate witnesses",
    PairFormCertificate: "pair exponents curve orbit", PairFormReport: "certificate reason",
    MMReport: "dominance classifications fiber_tests measure_tests pair_form "
              "failed_conditions verdict warnings",
    CurveOrbitOutcome: "preperiodic tail period bidegrees curves",
    Hypersurface: "n multidegree terms", EmpiricalMeasure: "values inverted seed depth",
    PullbackSample: "measure discarded",
    MeasureCompareResult: "statistic threshold per_chart n_samples discarded",
}


@pytest.mark.parametrize("record", IMMUTABLE, ids=lambda r: type(r).__name__)
def test_every_field_of_an_immutable_record_is_read_only(record):
    for name in FIELDS[type(record)].split():
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


def test_cached_float_forms_are_read_only_too():
    H = diagonal_surface()
    for record, cached in ((_LIFT, "float_forms"), (H, "_float_terms")):
        value = getattr(record, cached)
        with pytest.raises(AttributeError):
            setattr(record, cached, None)
        with pytest.raises(AttributeError):
            record.other = 1
        assert getattr(record, cached) is value


def test_projective_point_normalizes_its_fields():
    p = ProjectivePoint(6, -4)
    assert p == ProjectivePoint(-3, 2) and hash(p) == hash(ProjectivePoint(-3, 2))
    assert (p.x, p.y) == (-3, 2)
    assert repr(p) == "ProjectivePoint(x=-3, y=2)" and str(p) == "-3/2"
    assert ProjectivePoint(-5, 0) == ProjectivePoint(1, 0)
    assert p != ProjectivePoint(3, 2)


def test_height_equality_leaves_out_the_local_breakdown():
    a = CanonicalHeightResult(0.5, 1e-6, 3, 0.7, {"archimedean": 0.5})
    b = CanonicalHeightResult(0.5, 1e-6, 3, 0.7)
    assert a == b and not a != b and hash(a) == hash(b)
    assert b.local_breakdown == {}
    assert a != CanonicalHeightResult(0.25, 1e-6, 3, 0.7, {"archimedean": 0.5})
    # each result gets its own empty breakdown
    b.local_breakdown["p=2"] = 1.0
    assert CanonicalHeightResult(0.5, 1e-6, 3, 0.7).local_breakdown == {}


def test_keyword_construction_takes_the_defaults():
    v = PreperiodicityVerdict(True, tail=1, period=2)
    assert (v.preperiodic, v.tail, v.period) == (True, 1, 2)
    assert v.height_lower_bound is None and v.certificate_index is None
    assert v == PreperiodicityVerdict(True, 1, 2, None, None)
    c = Cycle((), 1, 0j)
    assert c.exact_points == () and c.parabolic_warning is False
    assert Classification("PowerConjugate", None, True, True).witness is None
    assert MMReport({}, (), {}, {}, _REPORT, (), "consistent").warnings == ()
    assert CurveOrbitOutcome(False) == CurveOrbitOutcome(False, None, None, (), ())


def test_reprs_name_the_fields():
    assert repr(PreperiodicityVerdict(True, tail=1, period=2)) == (
        "PreperiodicityVerdict(preperiodic=True, tail=1, period=2, "
        "height_lower_bound=None, certificate_index=None)")
    assert repr(_LIFT) == "RationalMapLift(f0=(-1, 0, 1), f1=(1, 0, 0), degree=2, res=1)"
    assert repr(diagonal_surface()) == (
        "Hypersurface(n=2, multidegree=(1, 1), terms=(((0, 1), 1), ((1, 0), -1)))")
    # the curves are left out of the repr, not of equality
    assert repr(_OUTCOME) == (
        "CurveOrbitOutcome(preperiodic=True, tail=0, period=1, bidegrees=((1, 1),))")
    assert _OUTCOME != CurveOrbitOutcome(True, 0, 1, ((1, 1),), ())


def test_portrait_records_update_in_place_and_compare_by_value():
    approx = CPoint(0.0, 1.0)
    node = PortraitNode(approx, exact=ProjectivePoint(0, 1))
    assert (node.critical_multiplicity, node.image, node.weight) == (0, None, 1)
    node.critical_multiplicity += 1
    node.weight = math.inf
    assert node.local_degree == 2
    assert node == PortraitNode(approx, ProjectivePoint(0, 1), 1, None, math.inf)
    assert node != PortraitNode(approx, ProjectivePoint(0, 1), 1, 0, math.inf)
    assert repr(node) == (f"PortraitNode(approx={approx!r}, exact=ProjectivePoint(x=0, y=1), "
                          "critical_multiplicity=1, image=None, weight=inf)")
    portrait = RamificationPortrait(nodes=[node], exact=True)
    assert portrait.signature == ()
    assert portrait == RamificationPortrait([node], True, ())
    with pytest.raises(TypeError):
        hash(portrait)


def test_records_unpack_and_replace_as_tuples():
    x, y = ProjectivePoint(6, -4)
    assert (x, y) == (-3, 2)
    # _replace builds through the normalizing constructor
    assert ProjectivePoint(2, 3)._replace(y=-6) == ProjectivePoint(-1, 3)
    assert PreperiodicityVerdict(True, 1, 2)._replace(period=3).period == 3
