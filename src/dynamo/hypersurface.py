"""Multihomogeneous hypersurfaces in (P^1)^n: dominance and fiber solving.

A hypersurface is a primitive integer form, separately homogeneous of degree
multidegree[k] in each coordinate pair (X_k : Y_k).  Terms are stored by
affine exponent tuple: exps[k] is the X_k power, the Y_k power being implied
by the multidegree.  The projection forgetting axis i is dominant exactly
when multidegree[i] > 0, and its generic fiber has that many points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DegenerateFiber
from .projective import (ProjectivePoint, coefficient_from_json, content, float_coefficients,
                         primitive_int)
from .roots import binary_form_roots, yun_squarefree


def _multiply_out(terms, multidegree, values):
    """Yield (exps, c * prod_j x_j^e_j y_j^(m_j - e_j)) for each term (exps, c).

    values maps a 1-based block j to its pair (x_j, y_j): ints, complex
    scalars or numpy arrays.  Blocks absent from values stay free; callers
    file each product under the free block's exponent.  Factors are applied
    block by block, x before y, skipping zero powers: this order fixes the
    float rounding of the sampled measures.
    """
    blocks = sorted(values)
    for exps, coeff in terms:
        val = coeff
        for j in blocks:
            x, y = values[j]
            e = exps[j - 1]
            if e:
                val = val * x**e
            rest = multidegree[j - 1] - e
            if rest:
                val = val * y**rest
        yield exps, val


@dataclass(frozen=True)
class Hypersurface:
    """Primitive multihomogeneous integer form on (P^1)^n."""

    n: int
    multidegree: tuple
    terms: tuple  # sorted tuple of (exps, int coefficient)

    @classmethod
    def make(cls, n: int, multidegree, terms) -> "Hypersurface":
        multidegree = tuple(int(m) for m in multidegree)
        if len(multidegree) != n:
            raise ValueError("multidegree length must match n")
        items = terms.items() if isinstance(terms, dict) else terms
        keys, coeffs = [], []
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError("exponent tuple length must match n")
            for k, e in enumerate(exps):
                if e < 0 or e > multidegree[k]:
                    raise ValueError(f"exponent {e} outside multidegree {multidegree[k]}")
            keys.append(exps)
            coeffs.append(coeff)
        if not all(type(c) is int for c in coeffs):  # clear denominators first
            coeffs = primitive_int([Fraction(c) for c in coeffs])
        collected: dict = {}
        for exps, c in zip(keys, coeffs):
            collected[exps] = collected.get(exps, 0) + c
        collected = {e: c for e, c in collected.items() if c}
        if not collected:
            raise ValueError("the zero form is not a hypersurface")
        g = content(collected.values())
        if g > 1:
            collected = {e: c // g for e, c in collected.items()}
        first = min(collected)
        if collected[first] < 0:
            collected = {e: -c for e, c in collected.items()}
        return cls(n, multidegree, tuple(sorted(collected.items())))

    # -- dominance -----------------------------------------------------------

    def dominance(self) -> dict:
        """Per-axis dominance of the projection forgetting that axis.

        Forgetting axis i is dominant iff the form has positive degree in
        block i; also reports whether the form depends on exactly two blocks
        (the two-block pair-curve shape).
        """
        per_axis = {i: self.multidegree[i - 1] > 0 for i in range(1, self.n + 1)}
        active = [i for i in range(1, self.n + 1) if self.multidegree[i - 1] > 0]
        return {
            "axis": per_axis,
            "active_blocks": active,
            "pair_form_candidate": len(active) == 2,
        }

    def check_axes(self, maps, *axes: int) -> None:
        """ValueError unless there is one map per axis, then `check_dominant(*axes)`."""
        if len(maps) != self.n:
            raise ValueError(f"one map per coordinate axis is required: {self.n} axes, "
                             f"{len(maps)} maps")
        self.check_dominant(*axes)

    def check_dominant(self, *axes: int) -> None:
        """ValueError unless every axis is in 1..n, and then unless H projects
        dominantly when forgetting each of them."""
        for a in axes:
            if not 1 <= a <= self.n:
                raise ValueError(f"axis {a} is outside 1..{self.n}")
        for a in axes:
            if self.multidegree[a - 1] <= 0:
                raise ValueError(f"H does not project dominantly when forgetting axis {a}")

    # -- fibers ---------------------------------------------------------------

    def fiber_form_exact(self, i: int, values: dict[int, ProjectivePoint]) -> list:
        """Binary form in block i after exact substitution of the other blocks.

        values maps axis index (1-based, != i) to a projective point; returns
        integer coefficients [c_0..c_m] of sum c_k X_i^k Y_i^(m-k).
        """
        others = {j: (values[j].x, values[j].y) for j in range(1, self.n + 1) if j != i}
        out = [0] * (self.multidegree[i - 1] + 1)
        for exps, val in _multiply_out(self.terms, self.multidegree, others):
            out[exps[i - 1]] += val
        return out

    def fiber_coeff_matrix(self, i: int, pairs: dict[int, tuple], n_rows: int) -> np.ndarray:
        """Vectorized complex fiber coefficients for many samples at once.

        pairs maps axis j != i to (x_j, y_j) arrays of length n_rows (complex
        scalars broadcast); returns the (multidegree[i]+1, n_rows) complex
        matrix of coefficient columns, from the cached `float_coefficients`.
        """
        others = {j: pairs[j] for j in range(1, self.n + 1) if j != i}
        out = np.zeros((self.multidegree[i - 1] + 1, n_rows), dtype=complex)
        for exps, val in _multiply_out(self._float_terms, self.multidegree, others):
            out[exps[i - 1]] += val
        return out

    @cached_property
    def _float_terms(self) -> tuple:
        floats, _ = float_coefficients([c for _, c in self.terms])
        return tuple((exps, c) for (exps, _), c in zip(self.terms, floats))

    # -- heuristic irreducibility probes --------------------------------------

    def irreducibility_warnings(self) -> list[str]:
        """Cheap soundness probes: repeated factors in 3 random specializations per block.

        These cannot prove irreducibility (the caller asserts it); they catch
        obvious squares and content issues and return human-readable warnings.
        """
        import random

        warnings = []
        rng = random.Random(2024)
        for i in range(1, self.n + 1):
            if self.multidegree[i - 1] < 2:
                continue
            for _ in range(3):
                values = {}
                for j in range(1, self.n + 1):
                    if j != i:
                        values[j] = ProjectivePoint(rng.randint(-20, 20), rng.randint(1, 20))
                coeffs = self.fiber_form_exact(i, values)
                if any(m > 1 for _, m in yun_squarefree(coeffs)):
                    warnings.append(
                        f"specialized fiber in block {i} has a repeated factor; "
                        "the form may be non-reduced or non-irreducible")
                    break
        return warnings


def fiber_solve(H: Hypersurface, i: int, values: dict[int, ProjectivePoint]):
    """All projective roots of the fiber through exact constrained values.

    Returns [(CPoint, mult, exact-or-None), ...]; DegenerateFiber if the
    substituted form vanishes identically, ValueError if `check_dominant(i)` does.
    """
    H.check_dominant(i)
    coeffs = H.fiber_form_exact(i, values)
    if all(c == 0 for c in coeffs):
        raise DegenerateFiber(f"fiber over {values} vanishes identically")
    return binary_form_roots(coeffs)


# ---------------------------------------------------------------------------
# JSON interface: {"n":3, "multidegree":[...], "terms":[{"exps":[...],"coeff":"p/q"}]}
# ---------------------------------------------------------------------------

def _json_ints(v, message: str) -> list:
    """The JSON list v of integers as ints; ValueError(message) for any other shape."""
    if not (isinstance(v, list) and all(isinstance(x, (int, str)) for x in v)):
        raise ValueError(message)
    return [int(x) for x in v]


def hypersurface_from_json(obj) -> Hypersurface:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not (isinstance(obj, dict) and isinstance(obj.get("terms"), list)
            and all(isinstance(t, dict) for t in obj["terms"])):
        raise ValueError('a hypersurface is a JSON object {"n": ..., "multidegree": [...], '
                         '"terms": [{"exps": [...], "coeff": ...}, ...]}')
    n, = _json_ints([obj["n"]], "n must be an integer")
    multidegree = _json_ints(obj["multidegree"], "multidegree must be a list of integers")
    terms = [(_json_ints(t["exps"], "exps must be a list of integers"),
              coefficient_from_json(t["coeff"])) for t in obj["terms"]]
    return Hypersurface.make(n, multidegree, terms)


def load_hypersurface(path) -> Hypersurface:
    with open(path, "r", encoding="utf-8") as fh:
        return hypersurface_from_json(json.load(fh))


# -- convenient builders used across tests and the CLI -----------------------

def diagonal_surface(n: int = 2, i: int = 1, j: int = 2) -> Hypersurface:
    """x_i = x_j pulled back to (P^1)^n: X_i Y_j - X_j Y_i."""
    md = [0] * n
    md[i - 1] = md[j - 1] = 1
    e1 = [0] * n
    e1[i - 1] = 1
    e2 = [0] * n
    e2[j - 1] = 1
    return Hypersurface.make(n, md, [(tuple(e1), 1), (tuple(e2), -1)])


def graph_surface(coeffs_num, coeffs_den=None) -> Hypersurface:
    """The graph {x_2 = p(x_1)/q(x_1)} in (P^1)^2 as a bihomogeneous form.

    coeffs ascending; e.g. graph_surface([0, 0, 1]) is x_2 = x_1^2, i.e.
    X_2 Y_1^2 - X_1^2 Y_2 after homogenization.
    """
    num = [Fraction(str(c)) for c in coeffs_num]
    den = [Fraction(str(c)) for c in (coeffs_den or [1])]
    d = max(len(num), len(den)) - 1
    num += [Fraction(0)] * (d + 1 - len(num))
    den += [Fraction(0)] * (d + 1 - len(den))
    terms = []
    for k in range(d + 1):
        if den[k]:
            terms.append(((k, 1), den[k]))   # X1^k Y1^(d-k) X2
        if num[k]:
            terms.append(((k, 0), -num[k]))  # X1^k Y1^(d-k) Y2
    return Hypersurface.make(2, (d, 1), terms)
