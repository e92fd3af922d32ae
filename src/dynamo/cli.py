"""Command-line front end: every library operation behind one dispatcher.

Each subcommand takes only the options its handler reads: `_COMMANDS` names
them, and `_OPTIONS` declares each option (flags, type, default) once for
every subcommand that takes it.  Output is CSV by default (plot-friendly) or
JSON with --json.  Its header (`# key=value` lines, or the JSON "config"
object) holds the library version and every parsed option of the run,
defaults included, so the header alone reproduces the result.  Exit codes:
0 success, 1 usage error (an unknown option included), 2 computation error.

A run builds only the parser of its subcommand (`command_parser`, kept
per process); the full parser, with all eleven, serves --help, --version
and unknown commands.  One helper builds both from the two tables, so a
subcommand's namespace is the same from either.

The library layers are bound as modules and their functions looked up at
call time (`harness.mm_verify(...)`): a layer executes on first use, so a
process runs only the layers of the subcommands it calls (`height` never
executes `harness`, `curves`, `hypersurface`, `mpoly` or `measure`, and
`compare-measures` runs `measure.measure_compare` without executing
`harness`, `curves`, `mpoly`, `exceptional`, `heights` or `orbits`).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from functools import cache

from . import (
    __version__,
    curves,
    exceptional,
    harness,
    heights,
    hypersurface,
    measure,
    orbits,
    projective,
)
from .errors import DynamoError


def _emit(payload: dict, args, out) -> None:
    # every parsed option; `command` and `func` only pick the handler
    meta = {"version": __version__}
    meta.update((k, v) for k, v in vars(args).items() if k not in ("command", "func"))
    if args.json:
        json.dump({"config": meta, "result": payload}, out, indent=2, default=str)
        out.write("\n")
        return
    for k, v in meta.items():
        out.write(f"# {k}={v}\n")
    rows = payload.get("rows")
    if rows is not None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(payload["columns"])
        writer.writerows(rows)
    else:
        writer = csv.writer(out, lineterminator="\n")
        keys = [k for k in payload if k != "rows"]
        writer.writerow(keys)
        writer.writerow([_csv_cell(payload[k]) for k in keys])


def _csv_cell(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, default=str)
    return v


def _load_maps(paths) -> list:
    """The map of each path, in order; a path named twice is loaded once."""
    loaded = {p: projective.load_map(p) for p in dict.fromkeys(paths)}
    return [loaded[p] for p in paths]


def _sig_str(sig) -> list:
    return ["inf" if w == exceptional.INF_WEIGHT else int(w) for w in (sig or ())]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_height(args, out):
    F = projective.load_map(args.map)
    res = heights.canonical_height(F, projective.point_from_rational(args.point),
                                   target_error=args.err, cap_digits=args.cap_digits,
                                   diagnostics=args.diagnostics)
    payload = {
        "value": res.value,
        "error_radius": res.error_radius,
        "iterations": res.iterations,
        "height_step_bound": res.height_step_bound,
    }
    if args.diagnostics:
        payload["local_breakdown"] = {k: f"{v:.12g}" for k, v in res.local_breakdown.items()}
    _emit(payload, args, out)


def _cmd_preper(args, out):
    """`preper` and `orbit`: the same decision, reported in their own words."""
    F = projective.load_map(args.map)
    v = heights.decide_preperiodic(F, projective.point_from_rational(args.point),
                                   cap_digits=args.cap_digits)
    if v.preperiodic:
        payload = {"status": "preperiodic", "tail": v.tail, "period": v.period}
    elif args.command == "orbit":
        payload = {"status": "divergent", "height_lower_bound": v.height_lower_bound}
    else:
        payload = {"status": "not_preperiodic",
                   "height_lower_bound": v.height_lower_bound,
                   "certificate_index": v.certificate_index}
    _emit(payload, args, out)


def _cmd_periodic(args, out):
    F = projective.load_map(args.map)
    cycles = orbits.periodic_points(F, args.period, tol=args.tol)
    if args.repelling_only:
        cycles = [c for c in cycles if c.repelling]
    rows = []
    for c in sorted(cycles, key=lambda c: (c.period, abs(c.multiplier))):
        for p in c.points:
            z = "inf" if p.is_infinity else f"{p.affine().real:.12g}{p.affine().imag:+.12g}j"
            rows.append([c.period, z, f"{c.multiplier.real:.12g}{c.multiplier.imag:+.12g}j",
                         f"{abs(c.multiplier):.12g}"])
    _emit({"columns": ["period", "point", "multiplier", "abs_multiplier"], "rows": rows},
          args, out)


def _cmd_classify(args, out):
    F = projective.load_map(args.map)
    c = exceptional.classify(F, max_orbit=args.max_orbit, tol=args.tol)
    _emit({"verdict": c.verdict, "signature": _sig_str(c.signature),
           "pcf": c.pcf, "exact": c.exact}, args, out)


def _cmd_sample_measure(args, out):
    F = projective.load_map(args.map)
    m = measure.sample_invariant_measure(F, args.samples, args.depth, seed=args.seed)
    if args.chart == "sphere":
        xyz = m.sphere(0)
        _emit_floats(["x", "y", "z"], [c.tolist() for c in xyz.T], args, out)
    else:
        z = m.affine(0)
        _emit_floats(["re", "im"], [z.real.tolist(), z.imag.tolist()], args, out)


def _emit_floats(columns: list, data: list, args, out) -> None:
    """Emit a table of floats, one list per column, each value formatted %.12g.

    A CSV row is written by one format string: these cells hold no comma,
    quote or newline, so the bytes are those csv.writer would write.
    """
    if args.json:
        rows = [[f"{v:.12g}" for v in row] for row in zip(*data)]
        _emit({"columns": columns, "rows": rows}, args, out)
        return
    _emit({"columns": columns, "rows": []}, args, out)
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    out.writelines(map(fmt.__mod__, zip(*data)))


def _cmd_compare_measures(args, out):
    H = hypersurface.load_hypersurface(args.hyp)
    maps = _load_maps(args.map)
    res = measure.measure_compare(H, maps, args.i, args.j, n_samples=args.samples,
                                  depth=args.depth, seed=args.seed)
    _emit({"statistic": res.statistic, "threshold": res.threshold,
           "equal_within_noise": res.equal_within_noise,
           "per_chart": list(res.per_chart), "discarded": list(res.discarded)},
          args, out)


def _cmd_curve_orbit(args, out):
    if len(args.map) > 2:
        raise ValueError("curve-orbit takes one map, used on both axes, or two; "
                         f"got {len(args.map)}")
    C = hypersurface.load_hypersurface(args.hyp)
    if C.n != 2:
        raise ValueError("curve-orbit expects a two-block form (n = 2)")
    f, g = _load_maps(args.map * 2)[:2]  # one map is used on both axes
    res = curves.curve_orbit(C, f, g, max_iter=args.max_iter, cap_digits=args.cap_digits)
    payload = {"preperiodic": res.preperiodic,
               "bidegrees": [list(b) for b in res.bidegrees]}
    if res.preperiodic:
        payload.update({"tail": res.tail, "period": res.period})
    _emit(payload, args, out)


def _cmd_ms_check(args, out):
    H = hypersurface.load_hypersurface(args.hyp)
    maps = _load_maps(args.map)
    rep = harness.ms_form_check(H, maps, exponent_bound=args.exponent_bound,
                                max_iter=args.max_iter)
    payload = {"reason": rep.reason, "certified": False}
    if rep.certificate is not None:
        cert = rep.certificate
        payload.update({
            "pair": list(cert.pair),
            "exponents": list(cert.exponents),
            "curve_bidegree": list(cert.curve.multidegree),
            "orbit_preperiodic": cert.orbit.preperiodic,
            "orbit_tail": cert.orbit.tail,
            "orbit_period": cert.orbit.period,
            "certified": bool(cert.orbit.preperiodic),
        })
    _emit(payload, args, out)


def _cmd_mm_verify(args, out):
    H = hypersurface.load_hypersurface(args.hyp)
    maps = _load_maps(args.map)
    rep = harness.mm_verify(H, maps, samples=args.samples, depth=args.depth,
                            trials=args.trials, seed=args.seed,
                            exponent_bound=args.exponent_bound, max_curve_iter=args.max_iter)
    payload = {
        "dominance": {str(k): v for k, v in rep.dominance["axis"].items()},
        "pair_form_candidate": rep.dominance["pair_form_candidate"],
        "classifications": [
            {"verdict": c.verdict, "signature": _sig_str(c.signature), "pcf": c.pcf}
            for c in rep.classifications],
        "fiber_tests": {str(i): {"passes": r.passes, "fails": r.fails,
                                 "uncertified": r.uncertified, "degenerate": r.degenerate}
                        for i, r in rep.fiber_tests.items()},
        "measure_tests": {f"{i},{j}": {"statistic": r.statistic, "threshold": r.threshold}
                          for (i, j), r in rep.measure_tests.items()},
        "ms_form": rep.pair_form.reason,
        "failed_conditions": list(rep.failed_conditions),
        "verdict": rep.verdict,
        "warnings": list(rep.warnings),
    }
    if rep.pair_form.certificate is not None and rep.pair_form.certificate.orbit.preperiodic:
        cert = rep.pair_form.certificate
        payload["ms_certificate"] = {"pair": list(cert.pair),
                                     "exponents": list(cert.exponents),
                                     "tail": cert.orbit.tail,
                                     "period": cert.orbit.period}
    _emit(payload, args, out)


def _cmd_self_test(args, out):
    rng = random.Random(args.seed)
    checks = []
    ok = True
    for _ in range(1000):
        q = heights.random_rational(rng, 10**6)
        if q == 0:
            continue
        if heights.product_formula_check(q) != 0.0:
            ok = False
            break
    checks.append(("product_formula_1000_rationals", ok))
    maps = [projective.RationalMapLift.make([0, 0, 1], [1, 0, 0]),
            projective.RationalMapLift.make([-1, 0, 1], [1, 0, 0]),
            projective.RationalMapLift.make([-2, 0, 1], [1, 0, 0])]
    func_ok = True
    for F in maps:
        for _ in range(20):
            q = heights.random_rational(rng, 50)
            if not heights.canonical_height_functoriality_check(F, q):
                func_ok = False
    checks.append(("height_functoriality", func_ok))
    cheb_ok = True
    for d in range(1, 13):
        coeffs = exceptional.chebyshev_coeffs(d)
        defect: dict[int, int] = {}
        for k, c in enumerate(coeffs):
            if not c:
                continue
            for j in range(k + 1):
                p = k - 2 * j
                defect[p] = defect.get(p, 0) + c * math.comb(k, j)
        defect[d] = defect.get(d, 0) - 1
        defect[-d] = defect.get(-d, 0) - 1
        if any(v != 0 for v in defect.values()):
            cheb_ok = False
    checks.append(("chebyshev_identity_d_le_12", cheb_ok))
    all_ok = all(flag for _, flag in checks)
    _emit({"columns": ["check", "ok"], "rows": [[n, f] for n, f in checks]}, args, out)
    if not all_ok:
        raise DynamoError("self-test failed")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Every option of every subcommand: its flags, then its add_argument keywords.
_OPTIONS = {
    "map": (["--map"], dict(required=True, help="rational map JSON file")),
    "maps": (["--map", "--maps"], dict(
        required=True, nargs="+", action="extend",
        help="rational map JSON files, one per axis (repeatable or space-separated)")),
    "hyp": (["--hyp"], dict(required=True, help="hypersurface JSON file")),
    "point": (["--point"], dict(required=True, help='rational point: "p/q" or "inf"')),
    "period": (["--period"], dict(type=int, required=True)),
    "seed": (["--seed"], dict(type=int, default=7)),
    "samples": (["--samples", "--n"], dict(type=int, default=10_000)),
    "depth": (["--depth"], dict(type=int, default=30)),
    "err": (["--err"], dict(type=float, default=1e-6)),
    "tol": (["--tol"], dict(type=float, default=1e-9)),
    "max_iter": (["--max-iter"], dict(type=int, default=6)),
    "cap_digits": (["--cap-digits"], dict(type=int, default=projective.DEFAULT_DIGIT_CAP)),
    "max_orbit": (["--max-orbit"], dict(type=int, default=64)),
    "trials": (["--trials"], dict(type=int, default=100)),
    "exponent_bound": (["--exponent-bound"], dict(type=int, default=6)),
    "chart": (["--chart"], dict(choices=["affine", "sphere"], default="affine")),
    "i": (["--i"], dict(type=int, default=1)),
    "j": (["--j"], dict(type=int, default=2)),
    "diagnostics": (["--diagnostics"], dict(action="store_true")),
    "repelling_only": (["--repelling-only"], dict(action="store_true")),
    "json": (["--json"], dict(action="store_true", help="emit JSON instead of CSV")),
}

# subcommand: (handler, help, the _OPTIONS it takes besides --json)
_COMMANDS = {
    "height": (_cmd_height, "certified canonical height",
               ("map", "point", "err", "cap_digits", "diagnostics")),
    "preper": (_cmd_preper, "decide preperiodicity exactly", ("map", "point", "cap_digits")),
    "orbit": (_cmd_preper, "exact orbit record (tail, period) or divergence",
              ("map", "point", "cap_digits")),
    "periodic": (_cmd_periodic, "periodic points and multipliers",
                 ("map", "period", "tol", "repelling_only")),
    "classify": (_cmd_classify, "exceptional-map classification", ("map", "tol", "max_orbit")),
    "sample-measure": (_cmd_sample_measure, "backward-orbit invariant measure sample",
                       ("map", "samples", "depth", "seed", "chart")),
    "compare-measures": (_cmd_compare_measures, "pullback-measure cap discrepancy",
                         ("hyp", "maps", "samples", "depth", "seed", "i", "j")),
    "curve-orbit": (_cmd_curve_orbit, "pushforward orbit of a plane curve",
                    ("hyp", "maps", "max_iter", "cap_digits")),
    "ms-check": (_cmd_ms_check, "two-block pair-curve certificate",
                 ("hyp", "maps", "max_iter", "exponent_bound")),
    "mm-verify": (_cmd_mm_verify, "full joint-preperiodicity evidence report",
                  ("hyp", "maps", "samples", "depth", "seed", "trials", "exponent_bound",
                   "max_iter")),
    "self-test": (_cmd_self_test, "product formula, functoriality, Chebyshev identity",
                  ("seed",)),
}


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give p the options of subcommand name, from `_COMMANDS` and `_OPTIONS`."""
    func, _, options = _COMMANDS[name]
    for key in (*options, "json"):
        flags, kwargs = _OPTIONS[key]
        p.add_argument(*flags, **kwargs)
    p.set_defaults(command=name, func=func)
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every subcommand: for --help, --version and
    command lines that name no known subcommand.  Built once per process."""
    p = argparse.ArgumentParser(
        prog="dynamo",
        description="Exact and numerical dynamics of rational self-maps of P^1 over Q")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return p


@cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built on its first use and kept.

    A run parses one subcommand, and building all eleven cost more than a
    small job.  Its namespace equals the full parser's, with the options in
    the same order, and its usage and errors name `dynamo name`.
    """
    return _add_command(argparse.ArgumentParser(prog=f"dynamo {name}"), name)


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args = command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.func(args, out)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DynamoError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
