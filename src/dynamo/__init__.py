"""Exact and numerical dynamics of rational self-maps of P^1 over Q.

Certified canonical heights and preperiodicity decisions, periodic points
and multipliers, exceptional-map classification by orbifold signature,
backward-iteration sampling of maximal-entropy measures, curve pushforwards
by resultant elimination, and the joint-preperiodicity evidence harness on
hypersurfaces of (P^1)^n.
"""

__version__ = "0.1.0"

from .curves import curve_orbit, curve_pushforward, make_curve
from .errors import DynamoError
from .exceptional import (
    Classification,
    chebyshev,
    classify,
    critical_points,
    lattes_doubling,
    power_map,
    ramification_portrait,
)
from .harness import (
    MMReport,
    fiber_preperiodicity_test,
    measure_compare,
    mm_verify,
    ms_form_check,
)
from .heights import (
    CanonicalHeightResult,
    PreperiodicityVerdict,
    canonical_height,
    canonical_height_functoriality_check,
    decide_preperiodic,
    height_step_bound,
    product_formula_check,
    rational_preperiodic_points,
    weil_height,
)
from .hypersurface import (
    Hypersurface,
    diagonal_surface,
    fiber_solve,
    graph_surface,
    hypersurface_from_json,
    load_hypersurface,
)
from .measure import (
    EmpiricalMeasure,
    green,
    pullback_to_hypersurface,
    sample_invariant_measure,
    sample_product_measure,
)
from .orbits import Cycle, multiplier, periodic_points
from .projective import (
    INFINITY,
    CPoint,
    ProjectivePoint,
    RationalMapLift,
    compose,
    evaluate,
    iterate_lift,
    map_from_json,
    normalize,
    point_from_rational,
)
