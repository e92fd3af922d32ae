"""Output checks: every job's output is parsed and compared with the reference
table (generated by make_reference.py at the commit that defined the
benchmark) or with what theory requires of it.

The checks use only numpy and the standard library, never the package under
test, so a defect cannot hide by also breaking the check.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction

import numpy as np

from workloads import HYPS, MAPS, map_degree

CAP_COUNT = 64
CAP_COS = 0.5  # the documented 64-cap family: points within 60 degrees of a center

# Classification theory: (inf, inf) for power maps, (2, 2, inf) for Chebyshev,
# (2, 2, 2, 2) for Lattes; z^2 - 1 is non-exceptional.
THEORY = {
    "sq": ("PowerConjugate", ["inf", "inf"]),
    "cheb2": ("ChebyshevConjugate", [2, 2, "inf"]),
    "cheb3": ("ChebyshevConjugate", [2, 2, "inf"]),
    "lattes": ("Lattes", [2, 2, 2, 2]),
    "basilica": ("NonExceptional", None),
}

_NUMBER = re.compile(r"-?\d+(\.\d+)?(e[-+]?\d+)?")


def mask_numbers(text: str) -> str:
    """Drop the statistics from a message, keeping which condition it names."""
    return _NUMBER.sub("#", text)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def parse_json(text: str) -> dict:
    return json.loads(text)["result"]


def digest(command: str, text: str):
    """The part of a successful output that the reference table records."""
    if command == "height":
        r = parse_json(text)
        return [r["value"], r["error_radius"]]
    if command in ("preper", "orbit"):
        r = parse_json(text)
        return [r["status"], r.get("tail"), r.get("period")]
    if command == "periodic":
        _, rows = parse_csv(text)
        return [[int(p), *_complex_pair(mult)] for p, _pt, mult, _abs in rows]
    if command == "classify":
        r = parse_json(text)
        return [r["verdict"], r["signature"]]
    if command == "mm-verify":
        r = parse_json(text)
        return {
            "classifications": r["classifications"],
            "fiber_tests": r["fiber_tests"],
            "measure_tests": sorted(r["measure_tests"]),
            "ms_form": r["ms_form"],
            "ms_certificate": r.get("ms_certificate"),
            "failed_conditions": [mask_numbers(c) for c in r["failed_conditions"]],
            "verdict": mask_numbers(r["verdict"]),
        }
    if command in ("ms-check", "curve-orbit"):
        return parse_json(text)
    raise ValueError(f"no reference digest for {command}")


def _complex_pair(text: str) -> list[float]:
    z = complex(text.replace("+-", "-"))
    return [z.real, z.imag]


# --------------------------------------------------------------------------
# numeric helpers for the sampling checks
# --------------------------------------------------------------------------

def fibonacci_caps(count: int = CAP_COUNT) -> np.ndarray:
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


CAPS = fibonacci_caps()


def tau(n: int) -> float:
    return 3.0 * math.sqrt(math.log(CAP_COUNT) / n)


def sphere_of(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Points [x : y] of P^1 on the unit sphere (stereographic, z = x/y)."""
    s = np.maximum(np.abs(x), np.abs(y))
    x, y = x / s, y / s
    n = np.abs(x) ** 2 + np.abs(y) ** 2
    w = 2.0 * x * np.conj(y) / n
    return np.stack([w.real, w.imag, (np.abs(x) ** 2 - np.abs(y) ** 2) / n], axis=1)


def apply_map(name: str, x: np.ndarray, y: np.ndarray):
    """Homogeneous image [F0(x, y) : F1(x, y)] of the catalog map."""
    spec = MAPS[name]
    d = map_degree(name)
    num = [float(Fraction(c)) for c in spec["num"]] + [0.0] * (d + 1 - len(spec["num"]))
    den_spec = spec.get("den", ["1"])
    den = [float(Fraction(c)) for c in den_spec] + [0.0] * (d + 1 - len(den_spec))
    f0 = sum(c * x**k * y ** (d - k) for k, c in enumerate(num))
    f1 = sum(c * x**k * y ** (d - k) for k, c in enumerate(den))
    return f0, f1


def cap_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    fa = np.mean(a @ CAPS.T >= CAP_COS, axis=0)
    fb = np.mean(b @ CAPS.T >= CAP_COS, axis=0)
    return float(np.max(np.abs(fa - fb)))


def _sample_points(chart: str, rows: list[list[str]]):
    """Homogeneous coordinates (x, y) of the printed sample."""
    vals = np.array(rows, dtype=float)
    if chart == "sphere":
        xyz = vals
        # [x + iy : 1 - z] away from the north pole, [1 + z : x - iy] near it
        north = xyz[:, 2] > 0
        x = np.where(north, 1.0 + xyz[:, 2], xyz[:, 0] + 1j * xyz[:, 1])
        y = np.where(north, xyz[:, 0] - 1j * xyz[:, 1], 1.0 - xyz[:, 2])
        return x, y, xyz
    z = vals[:, 0] + 1j * vals[:, 1]
    finite = np.isfinite(z)
    x = np.where(finite, z, 1.0)
    y = np.where(finite, 1.0, 0.0).astype(complex)
    return x, y, sphere_of(x, y)


# --------------------------------------------------------------------------

def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Checker:
    """Checks the output of one successful job against its reference or theory."""

    def __init__(self, reference: dict):
        self.ref = reference["jobs"]

    def check(self, job, text: str) -> str | None:
        """None when the output of a successful run is right, else why not."""
        try:
            return getattr(self, "_" + job.command.replace("-", "_"))(job, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def check_failure(self, job, err: str) -> str | None:
        """None when a known defect failed with its recorded error, else why not."""
        want = self.ref[job.key].get("error")
        if want is None:
            return "failed, but succeeded when the reference was recorded"
        if mask_numbers(err.strip()) != mask_numbers(want):
            return f"failed with {err.strip()[:200]!r}, not as recorded: {want!r}"
        return None

    def _reference(self, job):
        """The recorded digest; None for a job that failed when it was recorded."""
        return self.ref[job.key].get("result")

    def _height(self, job, text):
        v, r = digest("height", text)
        ref = self._reference(job)
        if ref is None:
            # failed when recorded: compare with the tightest recorded
            # interval of the same map and point
            prefix = " ".join(job.argv[:4]) + " "
            ref = min((e["result"] for k, e in self.ref.items()
                       if k.startswith(prefix) and e.get("result")), key=lambda vr: vr[1])
        vr, rr = ref
        slack = 1e-12 * max(1.0, abs(v))
        if abs(v - vr) > r + rr + slack:
            return f"height interval {v}±{r} misses reference {vr}±{rr}"
        return None

    def _match(self, job, text):
        got = digest(job.command, text)
        ref = self._reference(job)
        return None if got == ref else f"{got} != reference {ref}"

    _preper = _orbit = _mm_verify = _ms_check = _match

    def _periodic(self, job, text):
        rows = digest("periodic", text)
        n = int(_opt(job.argv, "--period"))
        d = map_degree(job.maps[0])
        # The roots count d^n + 1 with multiplicity, and the output lists each
        # point once; only a cycle whose multiplier is a root of unity at
        # level n (parabolic) makes a multiple root.
        parabolic = any(abs(complex(re_, im) ** (n // p) - 1) < 1e-6 for p, re_, im in rows)
        if len(rows) > d**n + 1 or (len(rows) < d**n + 1 and not parabolic):
            return f"{len(rows)} periodic points, expected d^n + 1 = {d**n + 1}"
        if any(n % p for p, _, _ in rows):
            return "a reported period does not divide n"
        ref = self._reference(job)
        if ref is None:
            return None
        unused = list(ref)
        for p, re_, im in rows:
            for k, (rp, rre, rim) in enumerate(unused):
                if rp == p and abs(complex(re_, im) - complex(rre, rim)) <= \
                        1e-6 * max(1.0, abs(complex(rre, rim))):
                    del unused[k]
                    break
            else:
                return f"multiplier {complex(re_, im)} (period {p}) not in the reference"
        return None

    def _classify(self, job, text):
        verdict, sig = digest("classify", text)
        name = job.maps[0]
        want_v, want_sig = THEORY.get(name, (None, None))
        ref_v, ref_sig = self._reference(job)
        want_v = want_v or ref_v
        want_sig = want_sig if want_sig is not None else ref_sig
        if (verdict, sig) != (want_v, want_sig):
            return f"classify {name}: {verdict} {sig}, expected {want_v} {want_sig}"
        return None

    def _sample_measure(self, job, text):
        name = job.maps[0]
        chart = _opt(job.argv, "--chart", "affine")
        n = int(_opt(job.argv, "--samples"))
        _, rows = parse_csv(text)
        if len(rows) != n:
            return f"{len(rows)} samples, expected {n}"
        x, y, xyz = _sample_points(chart, rows)
        if name == "sq":
            # the measure of z^2 lives on |z| = 1, the sphere's equator
            worst = float(np.max(np.abs(xyz[:, 2])))
            return None if worst < 1e-8 else f"z^2 sample off |z| = 1 by {worst:.3g}"
        if name == "cheb2":
            # the measure of z^2 - 2 lives on [-2, 2]: y = 0 on the sphere, and
            # height at most that of the points +-2
            off_real = float(np.max(np.abs(xyz[:, 1])))
            over = float(np.max(xyz[:, 2])) - 0.6
            if off_real > 1e-8 or over > 1e-8:
                return f"z^2 - 2 sample off [-2, 2] ({off_real:.3g}, {over:.3g})"
            return None
        fx, fy = apply_map(name, x, y)
        dist = cap_discrepancy(xyz, sphere_of(fx, fy))
        if not dist < tau(n):
            return f"sample not invariant: D(sample, f(sample)) = {dist:.4f} >= tau {tau(n):.4f}"
        return None

    def _compare_measures(self, job, text):
        r = parse_json(text)
        n = int(_opt(job.argv, "--samples"))
        stat, thr, per_chart = r["statistic"], r["threshold"], r["per_chart"]
        if len(per_chart) != 2 or stat != max(per_chart) or abs(thr - tau(n)) > 1e-12:
            return f"inconsistent statistic {stat}, per chart {per_chart}, tau {thr}"
        if r["equal_within_noise"] != (stat < thr) or min(r["discarded"]) < 0:
            return "inconsistent equal_within_noise or discarded counts"
        f, g = job.maps
        if f != g:
            # different Julia sets: the comparison must tell them apart
            return None if stat >= thr else f"missed unequal measures: D {stat:.4f} < tau {thr:.4f}"
        # Equal maps on the diagonal: D >= tau is a false alarm.  The traced run
        # counts those; it is no check failure, since tau is a documented
        # heuristic, not a guarantee.
        return None

    def _curve_orbit(self, job, text):
        if self._reference(job) is not None:
            return self._match(job, text)
        # failed when recorded: the orbit must start at the input's bidegree
        got = digest("curve-orbit", text)["bidegrees"][:1]
        want = [HYPS[_opt(job.argv, "--hyp").split(":", 1)[1]]["multidegree"]]
        return None if got == want else f"bidegrees start at {got}, not at {want}"
