"""Outside-in tracing of the dynamo layers.

The tracer replaces each listed public function with a timing wrapper in
every `dynamo` module that binds it (a module that did `from .roots import
roots_batch` holds its own reference), and on the class for methods.  Each
wrapper records calls, failures (an exception leaving the function) and self
time: its span minus the spans of wrapped functions it called.  Extractors
derive work counts from arguments and return values.  `uninstall` puts every
original back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


# ---- extractors: (tracer, args, kwargs, result) -> None ---------------------

def _cli_run(t, args, kwargs, rc):
    out = _arg(args, kwargs, 1, "out")
    if out is not None:
        t.add("cli.output_bytes", len(out.getvalue().encode()))
    if rc in (1, 2):
        t.add(f"cli.exit{rc}", 1)


def _canonical_height(t, args, kwargs, res):
    t.add("heights.orbit_steps", res.iterations)
    if res.value > 0:
        d = args[0].degree
        t.max("heights.orbit_digits_max", res.value * d**res.iterations / math.log(10))


def _decide_preperiodic(t, args, kwargs, verdict):
    steps = verdict.tail + verdict.period if verdict.preperiodic else verdict.certificate_index
    t.add("heights.orbit_steps", steps)


def _roots_batch(t, args, kwargs, res):
    t.add("roots.roots_batch.rows", res.shape[0])


def _aberth(t, args, kwargs, res):
    t.add("roots.aberth.degree_sum", len(res))


def _sample_invariant_measure(t, args, kwargs, res):
    t.add("measure.backward_steps", res.size * res.depth)


def _pullback(t, args, kwargs, res):
    t.add("measure.pullback.requested", res.measure.size + res.discarded)
    t.add("measure.pullback.kept", res.measure.size)


def _curve_pushforward(t, args, kwargs, curve):
    t.max("curves.bidegree_max", max(curve.multidegree))


def _fiber_test(t, args, kwargs, res):
    t.add("harness.fiber.certified", res.passes + res.fails)
    t.add("harness.fiber.roots", res.passes + res.fails + res.uncertified)


def _measure_compare(t, args, kwargs, res):
    H, maps = args[0], _arg(args, kwargs, 1, "maps")
    i, j = _arg(args, kwargs, 2, "i"), _arg(args, kwargs, 3, "j")
    # known-equal case: the diagonal x_i = x_j under the same map on both axes
    if maps[i - 1] != maps[j - 1] or H != t.diagonal_surface(H.n, i, j):
        return
    t.add("harness.measure_compare.equal_cases", 1)
    t.add("harness.measure_compare.false_alarms", int(not res.equal_within_noise))
    t.max("harness.measure_compare.d_over_tau_max", res.statistic / res.threshold)
    t.min("harness.measure_compare.n_eff_min", res.n_samples - max(res.discarded))


# (module, qualified name, extractor); the module is also the layer
TARGETS = [
    ("cli", "run", _cli_run),
    ("projective", "RationalMapLift.make", None),
    ("projective", "iterate_lift", None),
    ("heights", "canonical_height", _canonical_height),
    ("heights", "decide_preperiodic", _decide_preperiodic),
    ("heights", "rational_preperiodic_points", None),
    ("roots", "binary_form_roots", None),
    ("roots", "yun_squarefree", None),
    ("roots", "aberth", _aberth),
    ("roots", "roots_batch", _roots_batch),
    ("orbits", "periodic_points", None),
    ("exceptional", "classify", None),
    ("hypersurface", "fiber_solve", None),
    ("hypersurface", "Hypersurface.fiber_coeff_matrix", None),
    ("measure", "sample_invariant_measure", _sample_invariant_measure),
    ("measure", "pullback_to_hypersurface", _pullback),
    ("measure", "cap_fractions", None),
    ("mpoly", "resultant_formal", None),
    ("mpoly", "bivar_squarefree", None),
    ("curves", "curve_pushforward", _curve_pushforward),
    ("harness", "fiber_preperiodicity_test", _fiber_test),
    ("harness", "measure_compare", _measure_compare),
    ("harness", "ms_form_check", None),
    ("harness", "mm_verify", None),
]
LABELS = [f"{mod}.{name}" for mod, name, _ in TARGETS]

# The traced job whose time is broken down by layer: the mm-verify of the
# diagonal under (z^2, z^2 - 1)
BREAKDOWN = "mm_verify.sq_basilica"


class Tracer:
    """Spans and counters for one traced pass; `reset` starts the next."""

    def __init__(self, names):
        self.names = names  # the per-layer metrics BENCHMARK.json asks for
        self.diagonal_surface = sys.modules["dynamo.hypersurface"].diagonal_surface
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.fails = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.extrema = {}
        self.job_layers = None  # layer -> self time, while the broken-down job runs
        self._stack = []

    def begin_job(self) -> None:
        """Start a per-layer breakdown of the next job."""
        self.job_layers = defaultdict(float)

    def end_job(self, seconds: float) -> None:
        for layer, own in self.job_layers.items():
            self.extrema[f"{BREAKDOWN}.{layer}.self_s"] = own
        self.extrema[f"{BREAKDOWN}.wall_s"] = seconds
        self.job_layers = None

    def add(self, name, value):
        self.counts[name] += value

    def max(self, name, value):
        self.extrema[name] = max(self.extrema.get(name, value), value)

    def min(self, name, value):
        self.extrema[name] = min(self.extrema.get(name, value), value)

    def _wrap(self, label, fn, extract):
        layer = label.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.fails[label] += 1
                raise
            finally:
                span = perf_counter() - t0
                own = span - stack.pop()
                if stack:
                    stack[-1] += span
                self.calls[label] += 1
                self.self_s[label] += own
                if self.job_layers is not None:
                    self.job_layers[layer] += own
            if extract is not None:
                extract(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "dynamo" or name.startswith("dynamo."))]
        for mod_name, qual, extract in TARGETS:
            label = f"{mod_name}.{qual}"
            home = sys.modules[f"dynamo.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(label, raw.__func__, extract))
                else:
                    wrapped = self._wrap(label, raw, extract)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(home, qual)
            wrapped = self._wrap(label, original, extract)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """This pass's per-layer metrics; a layer the pass never reached reads 0."""
        out = dict.fromkeys(self.names, 0.0)
        for label in LABELS:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = self.self_s[label]
            out[f"{label}.fail"] = self.fails[label]
            layer = f"layer.{label.split('.', 1)[0]}.self_s"
            out[layer] = out.get(layer, 0.0) + self.self_s[label]
        c = self.counts
        out.update(c)
        out.update(self.extrema)
        out["cli.crash"] = self.fails["cli.run"]
        if c["measure.pullback.requested"]:
            out["measure.pullback.kept_frac"] = (c["measure.pullback.kept"]
                                                 / c["measure.pullback.requested"])
        if c["harness.fiber.roots"]:
            out["harness.fiber.certified_frac"] = (c["harness.fiber.certified"]
                                                   / c["harness.fiber.roots"])
        return out
