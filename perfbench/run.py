"""The dynamo benchmark: seeded CLI jobs run in-process, closed loop, one job
at a time.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory.  Set-up (importing dynamo, writing the JSON inputs, one
warm-up job per subcommand) is timed in fresh child processes, since a CLI
user pays it once per process.  The job list then runs as many whole passes
as fit in `--seconds` (at least MIN_PASSES).  Every job's output is checked.
A short calibration loop that does not use dynamo runs after every job; the
end-to-end times are scaled by it to a reference host speed.  With
`--trace 1`, traced and untraced passes alternate and the per-layer metrics
come from the traced ones.  The last line of standard output is the JSON
result; the lines before it are the same figures for a reader.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the machine has two cores and cap_fractions does a
# matmul.  This must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import HYPS, MAPS, build_jobs, warmup_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_PROBES = 7
# Calibration runs taken after a set-up probe
SETUP_CALIBRATIONS = 31
# What calibrate() takes at the reference speed: a 2-core Xeon VM, Python
# 3.11.7, numpy 2.4.6, in its usual state.  Times are reported at that speed.
CAL_REF_S = 5e-4
_CAL_VECTOR = np.arange(1.0, 513.0)


def calibrate() -> float:
    """Seconds taken by a fixed mix of big-integer, interpreter and numpy work.

    The machine is shared.  Its speed drifts by up to 1.8x over spells of
    seconds to minutes, and the drift slows this loop and the dynamo jobs by
    similar factors.  Each pass's times are scaled by CAL_REF_S over the pass's median
    calibration time, so that runs made in slow and fast spells agree.  The
    loop does not use dynamo, so a change to the package cannot move it.
    """
    t0 = perf_counter()
    x = 3
    for _ in range(60):
        x = x * x % (10**200 + 7)
    s = 0
    for i in range(1500):
        s += i * i % 7
    a = _CAL_VECTOR
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


class SetupError(Exception):
    pass


def import_dynamo():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dynamo.cli
    except ImportError as exc:
        raise SetupError(f"cannot import dynamo from {src}: {exc}") from exc
    if Path(dynamo.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"dynamo was imported from {dynamo.__file__}, not {src}")
    return dynamo.cli


def write_inputs(workdir: Path) -> dict:
    """Write every catalog map and hypersurface; return key -> path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, table in (("map", MAPS), ("hyp", HYPS)):
        for name, spec in table.items():
            path = workdir / f"{kind}_{name}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            paths[f"@{kind}:{name}"] = str(path)
    return paths


def resolve(job, paths) -> list[str]:
    return [paths.get(a, a) for a in job.argv]


@dataclass
class Outcome:
    rc: int | None  # None when an exception escaped cli.run
    out: str
    err: str
    seconds: float
    warnings: int


def run_job(cli, argv) -> Outcome:
    """One CLI invocation, timed; stdout, stderr and warnings are captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("default")  # what a fresh CLI process would print
        t0 = perf_counter()
        try:
            rc = cli.run(argv, out=out)
        except Exception as exc:  # the benchmark must go on: count it as a crash
            rc = None
            err.write(f"crash: {exc!r}")
        seconds = perf_counter() - t0
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, n_warn)


def setup(workload: str, seed: int, workdir: Path):
    """Import, write inputs, warm up; returns (seconds, cli, jobs, argvs)."""
    t0 = perf_counter()
    cli = import_dynamo()
    jobs = build_jobs(workload, seed)
    paths = write_inputs(workdir)
    for job in warmup_jobs(workload, jobs):
        o = run_job(cli, resolve(job, paths))
        if o.rc != 0:
            raise SetupError(f"warm-up job failed: {job.key}: {o.err.strip()}")
    return perf_counter() - t0, cli, jobs, [resolve(j, paths) for j in jobs]


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes, each a CLI user's first job, scaled to
    the reference speed by calibration runs made right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

@dataclass
class PassResult:
    latencies: list
    calibrations: list  # calibrate() after each job
    failed: int
    problems: list  # jobs that ran wrong: the run is not correct
    defects: list  # known defects that failed as recorded

    def scaled(self) -> list[float]:
        """The job latencies at the reference speed."""
        speed = CAL_REF_S / statistics.median(self.calibrations)
        return [t * speed for t in self.latencies]


def run_pass(cli, jobs, argvs, checker, tracer=None) -> PassResult:
    result = PassResult([], [], 0, [], [])
    for job, argv in zip(jobs, argvs):
        if tracer is not None and job.breakdown:
            tracer.begin_job()
        o = run_job(cli, argv)
        result.latencies.append(o.seconds)
        result.calibrations.append(calibrate())
        if tracer is not None:
            tracer.add("cli.numpy_warnings", o.warnings)
            if job.breakdown:
                tracer.end_job(o.seconds)
        if o.rc == 0:
            problem = checker.check(job, o.out)
        elif o.rc == 2 and job.known_defect:
            # fails as recorded: counted as failed, not as wrong
            problem = checker.check_failure(job, o.err)
            if problem is None:
                result.defects.append(f"{job.key}: {job.known_defect}")
        else:
            problem = f"exit {o.rc}: {o.err.strip()[:200]}"
        result.failed += o.rc != 0 or problem is not None
        if problem is not None:
            result.problems.append(f"{job.key}: {problem}")
    return result


def job_latencies(passes) -> list[float]:
    """Each job's latency at the reference speed: the median of its runs, one
    per pass."""
    return [statistics.median(runs) for runs in zip(*(p.scaled() for p in passes))]


def pass_wall(passes) -> float:
    """The time to run the whole job list once, at the reference speed: the
    median over passes."""
    return statistics.median(sum(p.scaled()) for p in passes)


def measure(cli, jobs, argvs, checker, seconds: float) -> list[PassResult]:
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(cli, jobs, argvs, checker))
        took = perf_counter() - t0
        if len(passes) >= MIN_PASSES and perf_counter() - start + took > seconds:
            return passes


def measure_traced(cli, jobs, argvs, checker, seconds: float, names):
    from spans import Tracer

    tracer = Tracer(names)
    plain, traced, snaps = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(run_pass(cli, jobs, argvs, checker))
        tracer.reset()
        tracer.install()
        try:
            p = run_pass(cli, jobs, argvs, checker, tracer)
        finally:
            tracer.uninstall()
        traced.append(p)
        snap = tracer.snapshot()
        snap["trace.attributed_frac"] = sum(
            v for k, v in snap.items() if k.startswith("layer.")) / sum(p.latencies)
        snaps.append(snap)
        took = perf_counter() - t0
        if len(traced) >= 2 and perf_counter() - start + took > seconds:
            return plain, traced, snaps


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(passes, setup_times) -> tuple[dict, list]:
    per_job = job_latencies(passes)
    # the highest whole percentile with at least ten jobs beyond it
    p_tail = math.floor(100 * (1 - 10 / len(per_job)))
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_wall(passes),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": statistics.quantiles(per_job, n=100, method="inclusive")[p_tail - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} jobs)",
        f"job_tail_s is the p{p_tail} of {len(per_job)} job latencies, "
        f"each the median of {len(passes)} runs",
        f"unscaled: wall_s {statistics.median(sum(p.latencies) for p in passes):.4f} s, "
        f"calibration {statistics.median(c for p in passes for c in p.calibrations) * 1e3:.4f} ms "
        f"(reference {CAL_REF_S * 1e3:g} ms)",
        f"setup_s is the median of {len(setup_times)} fresh processes: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return metrics, notes


def per_layer(plain, traced, snaps) -> tuple[dict, list]:
    metrics = {key: statistics.median(s[key] for s in snaps) for key in snaps[0]}
    untraced = pass_wall(plain)
    traced_wall = pass_wall(traced)
    # unscaled, like the layer self times it is set against
    metrics["trace.wall_s"] = statistics.median(sum(p.latencies) for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1
    notes = [f"at the reference speed: traced wall {traced_wall:.4f} s, untraced "
             f"{untraced:.4f} s ({len(traced)} traced and {len(plain)} untraced passes)"]
    if metrics["harness.measure_compare.equal_cases"]:
        notes.append(f"measure false alarms: {metrics['harness.measure_compare.false_alarms']:g}"
                     f" of {metrics['harness.measure_compare.equal_cases']:g} known-equal cases"
                     f" per pass, smallest effective N {metrics['harness.measure_compare.n_eff_min']:g}")
    return metrics, notes


def report(spec_metrics, values, correct, attempted, failed, notes) -> None:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    out = {}
    for m in spec_metrics:
        v = float(values[m["name"]])
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:<58} {v:>16.6g} {m['unit']}")
    for line in notes:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["exact", "sample", "harness"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.setup_probe:
            seconds, *_ = setup(args.workload, args.seed, workdir)
            cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
            print(json.dumps({"setup_s": seconds * CAL_REF_S / cal}))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        setup_times = None if args.trace else probe_setup(args)
        _, cli, jobs, argvs = setup(args.workload, args.seed, workdir)
        from checks import Checker

        checker = Checker(json.loads((HERE / "reference.json").read_text(encoding="utf-8")))
        print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass")
        if args.trace:
            plain, traced, snaps = measure_traced(
                cli, jobs, argvs, checker, args.seconds,
                [m["name"] for m in spec["per_layer"]])
            passes = plain + traced
            values, notes = per_layer(plain, traced, snaps)
            spec_metrics = spec["per_layer"]
        else:
            passes = measure(cli, jobs, argvs, checker, args.seconds)
            values, notes = end_to_end(passes, setup_times)
            spec_metrics = spec["end_to_end"]
        for msg in dict.fromkeys(msg for p in passes for msg in p.defects):
            print(f"known defect, fails as recorded: {msg}")
        problems = [msg for p in passes for msg in p.problems]
        for msg in dict.fromkeys(problems):
            print(f"CHECK FAILED {msg}")
        attempted = sum(len(p.latencies) for p in passes)
        report(spec_metrics, values, not problems, attempted,
               sum(p.failed for p in passes), notes)
        return 0
    except (SetupError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
