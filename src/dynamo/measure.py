"""Archimedean escape-rate potentials and Monte-Carlo invariant measures.

The maximal-entropy measure of a degree-d rational map is approximated by
backward iteration: repeatedly pull a start point back through uniformly
chosen preimage branches and keep the endpoints.  The orbits walk the
preimage tree of the start point, so a step solves each distinct node's
fiber once, not one fiber per sample.  A step keeps its M nodes in one
contiguous (d, M) layout, the one `roots_batch` solves in: the fiber
coefficients are built as (d+1, M), and the roots, chart flags and rank
keys are (M, d) views of (d, M) arrays, whose column k, the k-th root of
every node, is contiguous; the next level is gathered by flat index.  The
first two levels, the start's fiber and its preimages' fibers, are the
ones the start-point search has already solved.  A branch index is a
rank: branch k of a fiber is its root of rank k in a canonical order of
the roots, so the index does not depend on the order in which the solver
returns them.  Product measures sample factors independently;
hypersurface pullbacks solve the fiber equation per sample and pick one
of the deg roots uniformly, realizing the normalized pullback measure.

Points live in one of two charts (z, or w = 1/z when |z| > 1) so nothing
degrades near infinity.  The fixed comparison family for discrepancy tests
is 64 spherical caps of aperture cos(rho) = 0.5 centered on a Fibonacci
sphere net.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, RootFindingFailure
from .projective import RationalMapLift, form_eval
from .roots import preimage_fiber, roots_batch, to_chart

CAP_COUNT = 64
CAP_COS = 0.5  # aperture: points within 60 degrees of the center


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal-weight point cloud; column k is the k-th coordinate of each sample.

    values[i, k] is the chart coordinate and inverted[i, k] says whether it is
    w = 1/z.  Reproducible from (seed, depth, sample count).
    """

    values: np.ndarray
    inverted: np.ndarray
    seed: int
    depth: int

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def affine(self, col: int = 0) -> np.ndarray:
        """Affine complex values of one column; inverted entries become 1/w."""
        v = self.values[:, col]
        inv = self.inverted[:, col]
        out = v.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            out[inv] = np.where(v[inv] != 0, 1.0 / v[inv], np.inf)
        return out

    def sphere(self, col: int = 0) -> np.ndarray:
        return sphere_embed(self.values[:, col], self.inverted[:, col])


def green(F: RationalMapLift, z: complex, n: int) -> float:
    """The truncated escape-rate potential log max(|F0^n(z,1)|, |F1^n(z,1)|) / d^n,
    with per-step renormalization.

    The discarded scale factor is carried exactly in the accumulator:
    acc_(k+1) = d * acc_k + log||F(x_k, y_k)|| with (x_k, y_k) renormalized
    to sup-norm 1 after every step.
    """
    if n < 1:
        raise ValueError("green needs n >= 1")
    d = F.degree
    x, y = complex(z), 1.0 + 0j
    m = max(abs(x), abs(y))
    x, y = x / m, y / m
    acc = math.log(m)
    for _ in range(n):
        x, y = form_eval(F.f0, x, y), form_eval(F.f1, x, y)
        m = max(abs(x), abs(y))
        if m == 0.0:
            raise RootFindingFailure("lift evaluated to the zero pair numerically")
        x, y = x / m, y / m
        acc = d * acc + math.log(m)
    return acc / d**n


# ---------------------------------------------------------------------------
# backward-orbit sampling
# ---------------------------------------------------------------------------

def _complex_forms(F: RationalMapLift):
    """(F0, F1) as complex coefficient arrays, or RootFindingFailure beyond the float range."""
    try:
        return np.array(F.f0, dtype=complex), np.array(F.f1, dtype=complex)
    except OverflowError:
        raise RootFindingFailure("a map coefficient is beyond the float range "
                                 f"(|c| > {sys.float_info.max:.3g})") from None


def _rank_order(keys) -> np.ndarray:
    """Per row, the column of each rank: out[r, k] is row r's column of rank k.

    keys are (N, d) arrays, most significant first, holding no NaN; the
    canonical order of a row sorts its d columns by them with ties kept in
    column order, as a stable np.lexsort would.  The rank of column i counts
    the columns j before it: key_j < key_i, or key_j == key_i with j < i.  It
    comes from d(d-1)/2 vectorized key comparisons, with no sort.
    """
    n, d = keys[0].shape
    ranks = [np.zeros(n, dtype=np.intp) for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            # first: column i sorts before column j
            first = keys[-1][:, i] <= keys[-1][:, j]
            for key in keys[-2::-1]:
                a, b = key[:, i], key[:, j]
                first = (a < b) | ((a == b) & first)
            ranks[i] += ~first
            ranks[j] += first
    order = np.empty(n * d, dtype=np.intp)
    row_start = np.arange(0, n * d, d)
    for i in range(d):
        order[row_start + ranks[i]] = i
    return order.reshape(n, d)


def _start_point(f0: np.ndarray, f1: np.ndarray, rng: np.random.Generator):
    """A start point whose two-step preimage set is provably non-degenerate.

    f0 and f1 are the map's forms as `preimage_fiber` takes them.  Returns
    (z0, level0, level1): the chart-form fiber (vals, invs) of z0, shape
    (1, d), and the fibers of its d preimages, shape (d, d), whose row k is
    the fiber of column k of level0, as `preimage_fiber` returns them.
    """
    for _ in range(16):
        z0 = complex(0.4 + rng.random(), 0.3 + rng.random())
        v1, i1 = preimage_fiber(f0, f1, np.array([z0]), np.array([False]))
        v2, i2 = preimage_fiber(f0, f1, v1[0], i1[0])
        distinct = {(round(v.real, 6), round(v.imag, 6), inv)
                    for v, inv in zip(v2.ravel().tolist(), i2.ravel().tolist())}
        if len(distinct) >= 2:
            return z0, (v1, i1), (v2, i2)
    raise RootFindingFailure("could not find a non-exceptional backward start point")


def sample_invariant_measure(F: RationalMapLift, n_samples: int, depth: int,
                             seed: int = 0) -> EmpiricalMeasure:
    """Endpoints of n_samples independent uniform backward orbits of length depth.

    Each step draws a branch index uniformly from 0..d-1 per sample and
    moves to the preimage of that rank in the order
    (inverted, round(re, 9), round(im, 9)) of the chart-form fiber.

    The orbits walk the preimage tree of the start point, whose level k has
    at most d^k nodes, so the loop keeps the distinct nodes of a level and
    each sample's node index.  A step solves and ranks each node's fiber
    once; the children some sample draws become the next level's nodes.
    Levels 0 and 1 are the fibers `_start_point` solved: the start's fiber,
    and the rows of its preimages' fibers that belong to the drawn children.
    Fiber rows are solved independently, so every sample has the bits it
    would get from solving its own fiber at each step.  The map's
    coefficients are converted to complex once per walk; one beyond the
    float range raises RootFindingFailure.  A (depth, n_samples) branch
    table that cannot be allocated raises CapExceeded.
    """
    if F.degree < 2:
        raise ValueError("invariant measures need degree >= 2")
    if n_samples < 1 or depth < 1:
        raise ValueError("n_samples and depth must be >= 1")
    d = F.degree
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
    f0, f1 = _complex_forms(F)
    _, (pv, pi), level1 = _start_point(f0, f1, rng)
    try:
        branches = rng.integers(0, d, size=(depth, n_samples))
    except MemoryError:
        raise CapExceeded(f"the branch table of depth x samples = {depth} x {n_samples} "
                          "draws does not fit in memory") from None
    node = np.zeros(n_samples, dtype=np.intp)  # each sample's index into the level
    for step in range(depth):
        if step == 1:
            pv, pi = level1[0][at], level1[1][at]  # the fibers of the drawn preimages
        elif step:
            pv, pi = preimage_fiber(f0, f1, vals, invs)
        pt, it = pv.T, pi.T  # (d, M): root k of every node is contiguous
        order = _rank_order((pi, pt.real.round(9).T, pt.imag.round(9).T))
        # child (node, branch), renumbered densely among the drawn children
        child = node * d + branches[step]
        drawn = np.zeros(pv.size, dtype=bool)
        drawn[child] = True
        kids = np.flatnonzero(drawn)
        dense = np.empty(pv.size, dtype=np.intp)
        dense[kids] = np.arange(kids.size)
        node = dense[child]
        # the kid (node, branch) is the node's root in the column of that
        # rank, at column * M + node of the (d, M) arrays
        at = order.ravel()[kids] * pt.shape[1] + kids // d
        vals, invs = pt.ravel()[at], it.ravel()[at]
    return EmpiricalMeasure(vals[node, None], invs[node, None], seed, depth)


def sample_product_measure(maps, skip: int, n_samples: int, depth: int,
                           seed: int = 0, columns: dict | None = None) -> EmpiricalMeasure:
    """Independent coordinatewise samples of the product measure skipping index `skip`.

    `skip` is 1-based to match coordinate-axis numbering; columns keep the
    order of the remaining maps.  Column j depends on (map j, n_samples,
    depth, seed, j) alone; columns memoizes each column's sample under that
    key, so callers sampling several products pass one dict to all of them.
    """
    columns = {} if columns is None else columns
    cols_v = []
    cols_i = []
    for j, F in enumerate(maps, start=1):
        if j == skip:
            continue
        key = (F, n_samples, depth, _substream(seed, j))
        if key not in columns:
            columns[key] = sample_invariant_measure(F, n_samples, depth, seed=key[-1])
        sub = columns[key]
        cols_v.append(sub.values[:, 0])
        cols_i.append(sub.inverted[:, 0])
    if not cols_v:
        raise ValueError("product over an empty index set")
    return EmpiricalMeasure(np.stack(cols_v, axis=1), np.stack(cols_i, axis=1),
                            seed, depth)


def _substream(seed: int, tag: int) -> int:
    return (seed * 1_000_003 + tag * 7919 + 17) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# hypersurface pullback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackSample:
    measure: EmpiricalMeasure
    discarded: int


def pullback_to_hypersurface(H, maps, i: int, n_samples: int, depth: int,
                             seed: int = 0, columns: dict | None = None) -> PullbackSample:
    """Sample the normalized pullback of the product measure through axis i.

    For each product-measure sample of the coordinates != i, the fiber binary
    form in block i is solved and one of its multidegree[i] roots is chosen
    uniformly, as the root of a uniform rank in the order
    (round(re, 9), round(im, 9)) of the affine roots; identically-vanishing
    fibers are discarded and counted.  columns is passed to
    `sample_product_measure`.  An axis i outside 1..n is a ValueError.
    """
    if not 1 <= i <= H.n:
        raise ValueError(f"axis {i} is outside 1..{H.n}")
    if H.multidegree[i - 1] <= 0:
        raise ValueError(f"H does not project dominantly when forgetting axis {i}")
    base = sample_product_measure(maps, i, n_samples, depth, seed=seed, columns=columns)
    others = [j for j in range(1, H.n + 1) if j != i]
    deg = H.multidegree[i - 1]
    n = base.size
    pairs = {}
    for col, j in enumerate(others):
        v = base.values[:, col]
        inv = base.inverted[:, col]
        pairs[j] = (np.where(inv, 1.0 + 0j, v), np.where(inv, v, 1.0 + 0j))
    cols = H.fiber_coeff_matrix(i, pairs, n).T
    scale = np.max(np.abs(cols), axis=0)
    good = scale > 1e-13
    discarded = int(np.sum(~good))
    cols = cols.compress(good, axis=1)
    cols /= scale[good]
    rng = np.random.default_rng(np.random.SeedSequence([_substream(seed, 971 + i)]))
    picks = rng.integers(0, deg, size=cols.shape[1])
    roots = roots_batch(cols.T)
    # branch k: the root of rank k in the order (round(re, 9), round(im, 9))
    rt = roots.T
    order = _rank_order((rt.real.round(9).T, rt.imag.round(9).T))
    rows = np.arange(roots.shape[0])
    chosen = roots[rows, order[rows, picks]]
    vals_i, invs_i = to_chart(chosen)
    width = H.n
    out_v = np.empty((len(rows), width), dtype=complex)
    out_i = np.empty((len(rows), width), dtype=bool)
    for col, j in enumerate(others):
        out_v[:, j - 1] = base.values[good, col]
        out_i[:, j - 1] = base.inverted[good, col]
    out_v[:, i - 1] = vals_i
    out_i[:, i - 1] = invs_i
    return PullbackSample(EmpiricalMeasure(out_v, out_i, seed, depth), discarded)


# ---------------------------------------------------------------------------
# spherical caps and discrepancy statistics
# ---------------------------------------------------------------------------

def sphere_embed(values: np.ndarray, inverted: np.ndarray) -> np.ndarray:
    """Stereographic embedding into S^2; works in both charts without overflow."""
    v = np.asarray(values)
    inv = np.asarray(inverted, dtype=bool)
    n2 = np.abs(v) ** 2
    denom = 1.0 + n2
    x = 2.0 * v.real / denom
    y = 2.0 * v.imag / denom
    z = (n2 - 1.0) / denom
    out = np.stack([x, y, z], axis=-1)
    # w-chart: z = 1/w maps to (2 Re w, -2 Im w, 1 - |w|^2) / (1 + |w|^2)
    out[inv, 1] *= -1.0
    out[inv, 2] *= -1.0
    return out


def fibonacci_caps() -> np.ndarray:
    """The CAP_COUNT cap centers: the Fibonacci sphere net (documented comparison family)."""
    k = np.arange(CAP_COUNT)
    z = 1.0 - (2.0 * k + 1.0) / CAP_COUNT
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_CAP_CENTERS_T = fibonacci_caps().T  # (3, CAP_COUNT), built once


def cap_fractions(points_xyz: np.ndarray) -> np.ndarray:
    """Fraction of points inside each fixed cap {p : <p, c> >= CAP_COS}."""
    dots = points_xyz @ _CAP_CENTERS_T
    return np.mean(dots >= CAP_COS, axis=0)


def cap_discrepancy(a_xyz: np.ndarray, b_xyz: np.ndarray) -> float:
    """Max over the fixed cap family of the empirical mass difference."""
    return float(np.max(np.abs(cap_fractions(a_xyz) - cap_fractions(b_xyz))))


def clt_threshold(n_samples: int) -> float:
    """The documented heuristic threshold tau = 3 sqrt(ln(CAP_COUNT) / N)."""
    return 3.0 * math.sqrt(math.log(CAP_COUNT) / n_samples)
