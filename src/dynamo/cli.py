"""Command-line front end: every library operation behind one dispatcher.

Output is CSV by default (plot-friendly) or JSON with --json; every output
embeds the run configuration and library version so results are
reproducible from the header alone.  Exit codes: 0 success, 1 usage error,
2 computation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from dataclasses import asdict, dataclass
from functools import cache

from . import __version__
from .errors import DynamoError
from .exceptional import INF_WEIGHT, chebyshev_coeffs, classify
from .harness import MMConfig, measure_compare, mm_verify, ms_form_check
from .heights import (
    canonical_height,
    canonical_height_functoriality_check,
    decide_preperiodic,
    product_formula_check,
    random_rational,
)
from .hypersurface import load_hypersurface
from .curves import curve_orbit
from .measure import sample_invariant_measure, sphere_embed
from .orbits import periodic_points
from .projective import load_map, point_from_rational


@dataclass(frozen=True)
class RunConfig:
    """Everything that influences a run; echoed verbatim into each output."""

    seed: int = 7
    samples: int = 10_000
    depth: int = 30
    err: float = 1e-6
    tol: float = 1e-9
    max_iter: int = 6
    cap_digits: int = 10**6
    output: str = "csv"


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        samples=args.samples,
        depth=args.depth,
        err=args.err,
        tol=args.tol,
        max_iter=args.max_iter,
        cap_digits=args.cap_digits,
        output="json" if args.json else "csv",
    )


def _emit(payload: dict, config: RunConfig, out) -> None:
    meta = {"version": __version__, **asdict(config)}
    if config.output == "json":
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


def _sig_str(sig) -> list:
    return ["inf" if w == INF_WEIGHT else int(w) for w in (sig or ())]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_height(args, config, out):
    F = load_map(args.map)
    res = canonical_height(F, point_from_rational(args.point), target_error=args.err,
                           cap_digits=config.cap_digits, diagnostics=args.diagnostics)
    payload = {
        "value": res.value,
        "error_radius": res.error_radius,
        "iterations": res.iterations,
        "height_step_bound": res.height_step_bound,
    }
    if args.diagnostics:
        payload["local_breakdown"] = {k: f"{v:.12g}" for k, v in res.local_breakdown.items()}
    _emit(payload, config, out)


def _cmd_preper(args, config, out):
    F = load_map(args.map)
    v = decide_preperiodic(F, point_from_rational(args.point), cap_digits=config.cap_digits)
    if v.preperiodic:
        payload = {"status": "preperiodic", "tail": v.tail, "period": v.period}
    else:
        payload = {"status": "not_preperiodic",
                   "height_lower_bound": v.height_lower_bound,
                   "certificate_index": v.certificate_index}
    _emit(payload, config, out)


def _cmd_orbit(args, config, out):
    F = load_map(args.map)
    v = decide_preperiodic(F, point_from_rational(args.point), cap_digits=config.cap_digits)
    if v.preperiodic:
        payload = {"status": "preperiodic", "tail": v.tail, "period": v.period}
    else:
        payload = {"status": "divergent", "height_lower_bound": v.height_lower_bound}
    _emit(payload, config, out)


def _cmd_periodic(args, config, out):
    F = load_map(args.map)
    cycles = periodic_points(F, args.period, tol=config.tol)
    if args.repelling_only:
        cycles = [c for c in cycles if c.repelling]
    rows = []
    for c in sorted(cycles, key=lambda c: (c.period, abs(c.multiplier))):
        for p in c.points:
            z = "inf" if p.is_infinity else f"{p.affine().real:.12g}{p.affine().imag:+.12g}j"
            rows.append([c.period, z, f"{c.multiplier.real:.12g}{c.multiplier.imag:+.12g}j",
                         f"{abs(c.multiplier):.12g}"])
    _emit({"columns": ["period", "point", "multiplier", "abs_multiplier"], "rows": rows},
          config, out)


def _cmd_classify(args, config, out):
    F = load_map(args.map)
    c = classify(F, max_orbit=args.max_orbit, tol=config.tol)
    _emit({"verdict": c.verdict, "signature": _sig_str(c.signature),
           "pcf": c.pcf, "exact": c.exact}, config, out)


def _cmd_sample_measure(args, config, out):
    F = load_map(args.map)
    m = sample_invariant_measure(F, config.samples, config.depth, seed=config.seed)
    if args.chart == "sphere":
        xyz = sphere_embed(m.values[:, 0], m.inverted[:, 0])
        _emit_floats(["x", "y", "z"], [c.tolist() for c in xyz.T], config, out)
    else:
        z = m.affine(0)
        _emit_floats(["re", "im"], [z.real.tolist(), z.imag.tolist()], config, out)


def _emit_floats(columns: list, data: list, config: RunConfig, out) -> None:
    """Emit a table of floats, one list per column, each value formatted %.12g.

    A CSV row is written by one format string: these cells hold no comma,
    quote or newline, so the bytes are those csv.writer would write.
    """
    if config.output != "csv":
        rows = [[f"{v:.12g}" for v in row] for row in zip(*data)]
        _emit({"columns": columns, "rows": rows}, config, out)
        return
    _emit({"columns": columns, "rows": []}, config, out)
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    out.writelines(map(fmt.__mod__, zip(*data)))


def _cmd_compare_measures(args, config, out):
    H = load_hypersurface(args.hyp)
    maps = [load_map(p) for p in args.map]
    res = measure_compare(H, maps, args.i, args.j, n_samples=config.samples,
                          depth=config.depth, seed=config.seed)
    _emit({"statistic": res.statistic, "threshold": res.threshold,
           "equal_within_noise": res.equal_within_noise,
           "per_chart": list(res.per_chart), "discarded": list(res.discarded)},
          config, out)


def _cmd_curve_orbit(args, config, out):
    C = load_hypersurface(args.hyp)
    if C.n != 2:
        raise DynamoError("curve-orbit expects a two-block form (n = 2)")
    f = load_map(args.map[0])
    g = load_map(args.map[1] if len(args.map) > 1 else args.map[0])
    res = curve_orbit(C, f, g, max_iter=config.max_iter, cap_digits=config.cap_digits)
    payload = {"preperiodic": res.preperiodic,
               "bidegrees": [list(b) for b in res.bidegrees]}
    if res.preperiodic:
        payload.update({"tail": res.tail, "period": res.period})
    _emit(payload, config, out)


def _cmd_ms_check(args, config, out):
    H = load_hypersurface(args.hyp)
    maps = [load_map(p) for p in args.map]
    rep = ms_form_check(H, maps, exponent_bound=args.exponent_bound,
                        max_iter=config.max_iter)
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
    _emit(payload, config, out)


def _cmd_mm_verify(args, config, out):
    H = load_hypersurface(args.hyp)
    maps = [load_map(p) for p in args.map]
    cfg = MMConfig(samples=config.samples, depth=config.depth, trials=args.trials,
                   seed=config.seed, exponent_bound=args.exponent_bound,
                   max_curve_iter=config.max_iter)
    rep = mm_verify(H, maps, cfg)
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
    _emit(payload, config, out)


def _cmd_self_test(args, config, out):
    rng = random.Random(config.seed)
    checks = []
    ok = True
    for _ in range(1000):
        q = random_rational(rng, 10**6)
        if q == 0:
            continue
        if product_formula_check(q) != 0.0:
            ok = False
            break
    checks.append(("product_formula_1000_rationals", ok))
    from .projective import RationalMapLift

    maps = [RationalMapLift.make([0, 0, 1], [1, 0, 0]),
            RationalMapLift.make([-1, 0, 1], [1, 0, 0]),
            RationalMapLift.make([-2, 0, 1], [1, 0, 0])]
    func_ok = True
    for F in maps:
        for _ in range(20):
            q = random_rational(rng, 50)
            if not canonical_height_functoriality_check(F, q):
                func_ok = False
    checks.append(("height_functoriality", func_ok))
    cheb_ok = True
    for d in range(1, 13):
        coeffs = chebyshev_coeffs(d)
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
    _emit({"columns": ["check", "ok"], "rows": [[n, f] for n, f in checks]}, config, out)
    if not all_ok:
        raise DynamoError("self-test failed")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building it costs more than a small job (about a hundred add_argument
    calls, each formatting help text); parsing leaves it unchanged, so every
    `run` shares it.
    """
    p = argparse.ArgumentParser(
        prog="dynamo",
        description="Exact and numerical dynamics of rational self-maps of P^1 over Q")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    defaults = RunConfig()

    def common(sp, maps=0, hyp=False, point=False):
        sp.add_argument("--seed", type=int, default=defaults.seed)
        sp.add_argument("--samples", "--n", dest="samples", type=int, default=defaults.samples)
        sp.add_argument("--depth", type=int, default=defaults.depth)
        sp.add_argument("--err", type=float, default=defaults.err)
        sp.add_argument("--tol", type=float, default=defaults.tol)
        sp.add_argument("--max-iter", dest="max_iter", type=int, default=defaults.max_iter)
        sp.add_argument("--cap-digits", dest="cap_digits", type=int,
                        default=defaults.cap_digits)
        sp.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        if maps == 1:
            sp.add_argument("--map", required=True, help="rational map JSON file")
        elif maps > 1:
            sp.add_argument("--map", "--maps", dest="map", required=True, nargs="+",
                            action="extend", help="rational map JSON files, one per axis "
                            "(repeatable or space-separated)")
        if hyp:
            sp.add_argument("--hyp", required=True, help="hypersurface JSON file")
        if point:
            sp.add_argument("--point", required=True, help='rational point: "p/q" or "inf"')

    sp = sub.add_parser("height", help="certified canonical height")
    common(sp, maps=1, point=True)
    sp.add_argument("--diagnostics", action="store_true")
    sp.set_defaults(func=_cmd_height)

    sp = sub.add_parser("preper", help="decide preperiodicity exactly")
    common(sp, maps=1, point=True)
    sp.set_defaults(func=_cmd_preper)

    sp = sub.add_parser("orbit", help="exact orbit record (tail, period) or divergence")
    common(sp, maps=1, point=True)
    sp.set_defaults(func=_cmd_orbit)

    sp = sub.add_parser("periodic", help="periodic points and multipliers")
    common(sp, maps=1)
    sp.add_argument("--period", type=int, required=True)
    sp.add_argument("--repelling-only", action="store_true")
    sp.set_defaults(func=_cmd_periodic)

    sp = sub.add_parser("classify", help="exceptional-map classification")
    common(sp, maps=1)
    sp.add_argument("--max-orbit", dest="max_orbit", type=int, default=64)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("sample-measure", help="backward-orbit invariant measure sample")
    common(sp, maps=1)
    sp.add_argument("--chart", choices=["affine", "sphere"], default="affine")
    sp.set_defaults(func=_cmd_sample_measure)

    sp = sub.add_parser("compare-measures", help="pullback-measure cap discrepancy")
    common(sp, maps=2, hyp=True)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--j", type=int, default=2)
    sp.set_defaults(func=_cmd_compare_measures)

    sp = sub.add_parser("curve-orbit", help="pushforward orbit of a plane curve")
    common(sp, maps=2, hyp=True)
    sp.set_defaults(func=_cmd_curve_orbit)

    sp = sub.add_parser("ms-check", help="two-block pair-curve certificate")
    common(sp, maps=2, hyp=True)
    sp.add_argument("--exponent-bound", dest="exponent_bound", type=int, default=6)
    sp.set_defaults(func=_cmd_ms_check)

    sp = sub.add_parser("mm-verify", help="full joint-preperiodicity evidence report")
    common(sp, maps=2, hyp=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--exponent-bound", dest="exponent_bound", type=int, default=6)
    sp.set_defaults(func=_cmd_mm_verify)

    sp = sub.add_parser("self-test", help="product formula, functoriality, Chebyshev identity")
    common(sp)
    sp.set_defaults(func=_cmd_self_test)

    return p


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    config = _config_from_args(args)
    try:
        args.func(args, config, out)
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
