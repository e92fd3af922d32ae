"""Exact and numerical dynamics of rational self-maps of P^1 over Q.

Certified canonical heights and preperiodicity decisions, periodic points
and multipliers, exceptional-map classification by orbifold signature,
backward-iteration sampling of maximal-entropy measures, curve pushforwards
by resultant elimination, and the joint-preperiodicity evidence harness on
hypersurfaces of (P^1)^n.

The layers execute on first use.  Importing the package registers each
library module in `sys.modules` through `importlib.util.LazyLoader` and binds
it as a package attribute, so `dynamo.harness` is a module whose code runs
at its first attribute access.  The names in `__all__` resolve through the
module `__getattr__` to their defining layer: `from dynamo import classify`
executes `exceptional` and the layers it imports, and no others.  `dynamo.cli`
is not registered: `python -m dynamo.cli` runs it as `__main__`, and runpy
warns when the module it runs is already in `sys.modules`.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# layer -> the names re-exported from it
_EXPORTS = {
    "curves": ("curve_orbit", "curve_pushforward", "make_curve"),
    "errors": ("DynamoError",),
    "exceptional": ("Classification", "chebyshev", "classify", "critical_points",
                    "lattes_doubling", "power_map", "ramification_portrait"),
    "harness": ("MMReport", "fiber_preperiodicity_test", "mm_verify", "ms_form_check"),
    "heights": ("CanonicalHeightResult", "PreperiodicityVerdict", "canonical_height",
                "canonical_height_functoriality_check", "decide_preperiodic",
                "height_step_bound", "product_formula_check", "rational_preperiodic_points",
                "weil_height"),
    "hypersurface": ("Hypersurface", "diagonal_surface", "fiber_solve", "graph_surface",
                     "hypersurface_from_json", "load_hypersurface"),
    "measure": ("EmpiricalMeasure", "green", "measure_compare", "pullback_to_hypersurface",
                "sample_invariant_measure", "sample_product_measure"),
    "orbits": ("Cycle", "multiplier", "periodic_points"),
    "projective": ("INFINITY", "CPoint", "ProjectivePoint", "RationalMapLift", "compose",
                   "evaluate", "iterate_lift", "map_from_json", "normalize",
                   "point_from_rational"),
}
_LAYERS = ("errors", "modp", "projective", "roots", "heights", "orbits", "exceptional",
           "hypersurface", "mpoly", "measure", "curves", "harness")
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy(layer: str):
    """The layer's module, registered in `sys.modules` and not yet executed."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
