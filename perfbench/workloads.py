"""Inputs and job lists of the three benchmark workloads.

A job is one CLI invocation, `dynamo.cli.run(argv, out=...)`.  Its argv names
input files by catalog key (`@map:basilica`, `@hyp:diag`); the runner swaps in
the paths of the JSON files it writes at set-up.  The job key, the argv with
catalog keys in place of paths, is how the reference table finds a job.

Every workload keeps the same jobs and sizes for every seed.  The seed draws
the random rational points, the CLI `--seed` values and the job order, so the
work a pass does is nearly the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MAPS = {
    "sq": {"num": ["0", "0", "1"]},                                  # z^2
    "basilica": {"num": ["-1", "0", "1"]},                           # z^2 - 1
    "cubic": {"num": ["1", "0", "0", "1"]},                          # z^3 + 1
    "quarter": {"num": ["1/4", "0", "1"]},                           # z^2 + 1/4
    "cheb2": {"num": ["-2", "0", "1"]},                              # T_2 = z^2 - 2
    "cheb3": {"num": ["0", "-3", "0", "1"]},                         # T_3 = z^3 - 3z
    "lattes": {"num": ["1", "0", "2", "0", "1"],                     # Lattes(-1, 0):
               "den": ["0", "-4", "0", "4"]},                        # doubling on y^2 = x^3 - x
    "inv": {"num": ["1", "0", "1"], "den": ["0", "0", "2"]},         # (z^2 + 1) / (2 z^2)
}


def map_degree(name: str) -> int:
    spec = MAPS[name]
    return max(len(spec["num"]), len(spec.get("den", ["1"]))) - 1


def _terms(*pairs):
    return [{"exps": list(e), "coeff": c} for e, c in pairs]


HYPS = {
    # x1 = x2
    "diag": {"n": 2, "multidegree": [1, 1], "terms": _terms(((1, 0), "1"), ((0, 1), "-1"))},
    # x1 x2 = 1
    "hyper": {"n": 2, "multidegree": [1, 1], "terms": _terms(((1, 1), "1"), ((0, 0), "-1"))},
    # x2 = x1^2 + 1
    "graph": {"n": 2, "multidegree": [2, 1],
              "terms": _terms(((0, 1), "1"), ((2, 0), "-1"), ((0, 0), "-1"))},
    # x2 = x1^2
    "square": {"n": 2, "multidegree": [2, 1], "terms": _terms(((0, 1), "1"), ((2, 0), "-1"))},
    # x1 + x2 + x3 = 0: three blocks, so there is no pair curve
    "three": {"n": 3, "multidegree": [1, 1, 1],
              "terms": _terms(((1, 0, 0), "1"), ((0, 1, 0), "1"), ((0, 0, 1), "1"))},
}

# Random rational points come from this finite box so that the reference
# table can hold every point a seed may draw.
POINT_BOX = 9
# mm-verify output depends on its --seed; the seed draws from this pool,
# whose every member has a reference entry.
MM_SEEDS = tuple(range(1, 17))


def point_pool() -> list[str]:
    """Every p/q with |p| <= POINT_BOX, 1 <= q <= POINT_BOX, in lowest terms."""
    out = []
    for q in range(1, POINT_BOX + 1):
        for p in range(-POINT_BOX, POINT_BOX + 1):
            if math.gcd(p, q) == 1:
                out.append(str(p) if q == 1 else f"{p}/{q}")
    return out


@dataclass(frozen=True)
class Job:
    argv: tuple
    # why the job fails at the seed commit; such a job still runs and counts
    known_defect: str | None = None
    # the traced run breaks this job down by layer (spans.BREAKDOWN)
    breakdown: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def maps(self) -> tuple:
        return tuple(a.split(":", 1)[1] for a in self.argv if a.startswith("@map:"))

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def job(*argv, known_defect=None, breakdown=False) -> Job:
    return Job(tuple(str(a) for a in argv), known_defect, breakdown)


def m(name):
    return f"@map:{name}"


def h(name):
    return f"@hyp:{name}"


# --------------------------------------------------------------------------
# exact: many short scalar jobs (big-integer orbits, single-polynomial roots)
# --------------------------------------------------------------------------

# (map, point, err): fixed points whose orbits run from short to long
FIXED_HEIGHTS = [
    ("basilica", "2", "1e-4"), ("basilica", "2", "1e-6"),
    ("cubic", "3/7", "1e-4"), ("cubic", "3/7", "1e-5"),
    ("quarter", "5/3", "1e-3"), ("quarter", "5/3", "1e-4"),
    ("lattes", "3", "1e-3"), ("lattes", "3", "1e-4"),
]
# (map, err) for seeded random points: short orbits, so that the points drawn
# barely move a job's time and no random job reaches the slowest tenth
RANDOM_HEIGHTS = [("basilica", "1e-3"), ("cubic", "1e-3"), ("quarter", "1e-2"),
                  ("lattes", "1e-2")]
PREPER_MAPS = ["basilica", "cubic", "quarter", "lattes", "cheb2"]
PERIODIC = [("basilica", 1), ("basilica", 2), ("basilica", 3), ("basilica", 4),
            ("cubic", 1), ("cubic", 2), ("cubic", 3),
            ("sq", 1), ("sq", 2), ("sq", 3), ("sq", 4),
            ("lattes", 1), ("lattes", 2),
            ("cheb2", 1), ("cheb2", 2), ("cheb2", 3),
            ("inv", 1), ("inv", 2)]
CLASSIFY_MAPS = ["sq", "basilica", "cheb2", "cheb3", "lattes", "inv", "cubic"]
EXACT_DEFECTS = [
    job("periodic", "--map", m("basilica"), "--period", 5,
        known_defect="RootFindingFailure: aberth starts on radius 1+max|c|, "
                     "root tolerance 1e-12 at the default --tol 1e-9"),
    job("periodic", "--map", m("basilica"), "--period", 6,
        known_defect="RootFindingFailure: polyval overflow in aberth"),
    job("periodic", "--map", m("cubic"), "--period", 4,
        known_defect="RootFindingFailure in aberth"),
    job("height", "--map", m("basilica"), "--point=2", "--err", "1e-9", "--json",
        known_defect="OverflowPolicy: cap_digits is checked after the next "
                     "iterate is built"),
]
RANDOM_HEIGHT_POINTS = 4
PREPER_POINTS = 6


def _draw(rng, pool, k) -> list:
    """k draws from the pool; all of it when rng is None (the reference table)."""
    return list(pool) if rng is None else rng.sample(pool, k)


def exact_jobs(rng: random.Random | None) -> list[Job]:
    pool = point_pool()
    jobs = [job("height", "--map", m(f), f"--point={p}", "--err", e, "--json")
            for f, p, e in FIXED_HEIGHTS]
    for f, e in RANDOM_HEIGHTS:
        for p in _draw(rng, pool, RANDOM_HEIGHT_POINTS):
            jobs.append(job("height", "--map", m(f), f"--point={p}", "--err", e, "--json"))
    for f in PREPER_MAPS:
        for p in _draw(rng, pool, PREPER_POINTS):
            jobs.append(job("preper", "--map", m(f), f"--point={p}", "--json"))
            jobs.append(job("orbit", "--map", m(f), f"--point={p}", "--json"))
    jobs += [job("periodic", "--map", m(f), "--period", n) for f, n in PERIODIC]
    jobs += [job("classify", "--map", m(f), "--json") for f in CLASSIFY_MAPS]
    jobs += EXACT_DEFECTS
    return jobs


# --------------------------------------------------------------------------
# sample: backward-orbit sampling and measure comparison (batched roots)
# --------------------------------------------------------------------------

# (map, N per job); each runs in both charts with three CLI seeds
SAMPLE_MEASURE = [("basilica", 4_000), ("sq", 4_000), ("cheb2", 4_000),
                  ("cubic", 1_000), ("lattes", 200)]
SAMPLE_SEEDS = 3
# (map, N, depth) of one large batch: its N x d x d Aberth temporaries, tens
# of MB at d = 3, set the workload's peak memory.  Depth 6 is enough for the
# invariance check at this N.
LARGE_SAMPLE = ("cubic", 30_000, 6)
# (map i, map j, N) for compare-measures on the diagonal; equal maps repeat
# with other seeds, for the false-alarm count
COMPARE = [("basilica", "basilica", 3_000), ("basilica", "basilica", 3_000),
           ("sq", "sq", 3_000), ("sq", "sq", 3_000), ("quarter", "quarter", 3_000),
           ("cubic", "cubic", 1_000), ("cubic", "cubic", 1_000),
           ("lattes", "lattes", 300), ("sq", "basilica", 3_000),
           ("basilica", "cubic", 1_000)]


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 30)


def sample_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for f, n in SAMPLE_MEASURE:
        for chart in ("affine", "sphere"):
            for _ in range(SAMPLE_SEEDS):
                jobs.append(job("sample-measure", "--map", m(f), "--chart", chart,
                                "--samples", n, "--depth", 30, "--seed", _cli_seed(rng)))
    f, n, depth = LARGE_SAMPLE
    jobs.append(job("sample-measure", "--map", m(f), "--chart", "affine", "--samples", n,
                    "--depth", depth, "--seed", _cli_seed(rng)))
    for f, g, n in COMPARE:
        jobs.append(job("compare-measures", "--hyp", h("diag"), "--map", m(f), m(g),
                        "--samples", n, "--depth", 30, "--seed", _cli_seed(rng), "--json"))
    return jobs


# --------------------------------------------------------------------------
# harness: mm-verify, ms-check and curve-orbit (elimination, fibers, measures)
# --------------------------------------------------------------------------

def _mm_verify(hyp, maps, samples, trials, seed) -> Job:
    args = ["mm-verify", "--hyp", h(hyp), "--map", *(m(f) for f in maps)]
    if samples is not None:
        args += ["--samples", samples, "--trials", trials]
    # the heavy case at the CLI defaults is the one broken down by layer
    return job(*args, "--seed", seed, "--json", breakdown=samples is None)


# (hyp, maps, samples, trials); None keeps the CLI defaults (N = 10^4, 100 trials)
MM_VERIFY = [
    ("diag", ("sq", "basilica"), None, None),
    ("diag", ("basilica", "basilica"), 5_000, 30),
    ("diag", ("basilica", "basilica"), 5_000, 30),
    ("diag", ("sq", "sq"), 5_000, 30),
    ("diag", ("sq", "sq"), 5_000, 30),
    ("diag", ("quarter", "quarter"), 2_000, 20),
    ("diag", ("cubic", "cubic"), 1_000, 20),
    ("diag", ("cheb2", "cheb2"), 5_000, 30),
    ("hyper", ("sq", "sq"), 5_000, 30),
    ("three", ("basilica", "basilica", "basilica"), 2_000, 20),
]
# (hyp, maps, --max-iter); None keeps the CLI default of 6.  Most of these are
# short, so that the median job lies inside a dense group of short jobs.
MS_CHECK = [("diag", ("sq", "basilica"), 3), ("diag", ("sq", "basilica"), 4),
            ("diag", ("sq", "sq"), None), ("diag", ("basilica", "basilica"), None),
            ("diag", ("cubic", "cubic"), None), ("diag", ("quarter", "quarter"), None),
            ("diag", ("lattes", "lattes"), None), ("diag", ("cheb2", "cheb2"), None),
            ("diag", ("cheb3", "cheb3"), None), ("diag", ("inv", "inv"), None),
            ("diag", ("sq", "cubic"), None), ("diag", ("sq", "cheb3"), None),
            ("hyper", ("sq", "sq"), None), ("square", ("sq", "sq"), None),
            ("three", ("basilica", "basilica", "basilica"), None)]
CURVE_ORBIT = [("diag", ("sq", "basilica"), 2), ("diag", ("sq", "basilica"), 3),
               ("diag", ("sq", "basilica"), 4), ("diag", ("sq", "basilica"), 5),
               ("diag", ("sq", "sq"), None), ("diag", ("basilica", "basilica"), None),
               ("diag", ("cubic", "cubic"), None), ("diag", ("lattes", "lattes"), None),
               ("diag", ("quarter", "quarter"), None), ("diag", ("cheb2", "cheb2"), None),
               ("diag", ("cheb3", "cheb3"), None), ("diag", ("inv", "inv"), None),
               ("hyper", ("sq", "sq"), None), ("hyper", ("basilica", "basilica"), 3),
               ("square", ("sq", "sq"), None)]
HARNESS_DEFECTS = [
    job("curve-orbit", "--hyp", h("graph"), "--map", m("sq"), m("sq"), "--json",
        known_defect="RootFindingFailure: one unconverged row fails the whole "
                     "roots_batch in the verification sampler"),
]


def _pair_job(cmd, hyp, maps, max_iter) -> Job:
    args = [cmd, "--hyp", h(hyp), "--map", *(m(f) for f in maps)]
    if max_iter is not None:
        args += ["--max-iter", max_iter]
    return job(*args, "--json")


def harness_jobs(rng: random.Random | None) -> list[Job]:
    jobs = []
    for hyp, maps, samples, trials in MM_VERIFY:
        seeds = MM_SEEDS if rng is None else [rng.choice(MM_SEEDS)]
        jobs += [_mm_verify(hyp, maps, samples, trials, seed) for seed in seeds]
    jobs += [_pair_job("ms-check", *spec) for spec in MS_CHECK]
    jobs += [_pair_job("curve-orbit", *spec) for spec in CURVE_ORBIT]
    return jobs + HARNESS_DEFECTS


def reference_jobs() -> list[Job]:
    """Every exact and harness job any seed can draw, each once."""
    jobs = exact_jobs(None) + harness_jobs(None)
    return list({j.key: j for j in jobs}.values())


# --------------------------------------------------------------------------

WORKLOADS = {"exact": exact_jobs, "sample": sample_jobs, "harness": harness_jobs}

# One cheap job per subcommand a workload uses, plus a preper on every map so
# that each map's Bezout certificate is cached, as in a warm CLI process.
WARMUP = {
    "exact": [job("height", "--map", m("basilica"), "--point=2", "--err", "1e-3", "--json"),
              job("orbit", "--map", m("basilica"), "--point=0", "--json"),
              job("periodic", "--map", m("sq"), "--period", 1),
              job("classify", "--map", m("basilica"), "--json")],
    "sample": [job("sample-measure", "--map", m("basilica"), "--samples", 200, "--seed", 1),
               job("compare-measures", "--hyp", h("diag"), "--map", m("sq"), m("sq"),
                   "--samples", 200, "--seed", 1, "--json")],
    "harness": [job("mm-verify", "--hyp", h("diag"), "--map", m("sq"), m("sq"),
                    "--samples", 200, "--trials", 3, "--seed", 1, "--json"),
                job("ms-check", "--hyp", h("diag"), "--map", m("basilica"), m("basilica"),
                    "--json"),
                job("curve-orbit", "--hyp", h("diag"), "--map", m("sq"), m("sq"), "--json")],
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(workload: str, jobs: list[Job]) -> list[Job]:
    maps = sorted({f for j in jobs for f in j.maps})
    return WARMUP[workload] + [job("preper", "--map", m(f), "--point=0", "--json")
                               for f in maps]
