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
returns them.  The canonical order sorts by (flag, round(re, 9),
round(im, 9)), yet no level rounds its roots: the comparisons read the
unrounded real parts, and only pairs whose real parts lie within 2e-9 of
each other fall back to the rounded keys (`_ranks`).  A drawn child takes
the column whose rank, counted by the rank comparisons, equals its branch
(at d = 2 one xor), and branch tables hold np.min_scalar_type(d - 1)
entries.  Product measures sample factors
independently, each column from its own stream; the columns a product or
a comparison needs are drawn up front, and those of one degree walk as a
forest (`_walk`): one loop over the levels of several trees, one fiber
solve per level for all of them, so a level's fixed numpy cost is paid
once per forest.  A forest takes trees only while their samples fit one
`roots._BLOCK`, since sharing a large level gains nothing.  Hypersurface
pullbacks solve the fiber equation per sample and pick one of the deg
roots uniformly, by rank in the same order, realizing the normalized
pullback measure.

Maps and hypersurfaces reach the floats through `projective.float_coefficients`.
Points live in one of two charts (z, or w = 1/z when |z| > 1) so nothing
degrades near infinity.  The fixed comparison family for discrepancy tests
is 64 spherical caps of aperture cos(rho) = 0.5 centered on a Fibonacci
sphere net.  `measure_compare` owns the comparison of two pullbacks: their
cap discrepancy D against the CLT threshold tau.

A sampling job holds O(N) arrays for N samples (the samples and the walk's
levels of at most N nodes) plus the (depth, N) branch table, whose entries
are bytes; the branch draws (`_plant`) and the cap counts (`cap_fractions`)
run in blocks whose temporaries `roots._BLOCK` bounds, so neither a
depth x N int64 table nor an N x 64 float64 matrix is ever built.
Hypersurfaces arrive as arguments and are never imported, so sampling a
map executes only `errors`, `modp`, `projective`, `roots` and this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, RootFindingFailure
from .projective import RationalMapLift, form_eval
from .roots import _BLOCK, preimage_fiber, preimage_fibers, roots_batch, to_chart

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
    to sup-norm 1 after every step.  F enters as `float_forms`, F / 2^e, plus e log 2.
    """
    if n < 1:
        raise ValueError("green needs n >= 1")
    d = F.degree
    f0, f1, e = F.float_forms
    x, y = complex(z), 1.0 + 0j
    m = max(abs(x), abs(y))
    x, y = x / m, y / m
    acc = math.log(m)
    for _ in range(n):
        x, y = form_eval(f0, x, y), form_eval(f1, x, y)
        m = max(abs(x), abs(y))
        if m == 0.0:
            raise RootFindingFailure("lift evaluated to the zero pair numerically")
        x, y = x / m, y / m
        acc = d * acc + math.log(m) + e * math.log(2.0)
    return acc / d**n


# ---------------------------------------------------------------------------
# backward-orbit sampling
# ---------------------------------------------------------------------------

#: a gap between real parts that `round(., 9)` cannot close (see `_ranks`)
_TIE = 2e-9
#: branch draws per `rng.integers` call in `_plant`: a 256 KiB int32 temporary
_DRAWS = 16 * _BLOCK


def _ranks(values, flags) -> np.ndarray:
    """Per row, the rank of each root: out[i, r] is the rank of row r's column i.

    values holds (N, d) chart values and flags their (N, d) chart flags
    (`roots.to_chart`).  The canonical order of a row sorts its d columns
    by the keys (flag, round(re, 9), round(im, 9)), with ties kept in
    column order, as a stable np.lexsort would.  The rank of column i
    counts the columns j before it.  It comes from d(d-1)/2 vectorized
    comparisons, with no sort, and is stored as a (d, N) array of
    np.min_scalar_type(d - 1).

    Rounding is skipped where it cannot matter.  np.round(x, 9) is
    fl(k / s) with k = rint(fl(x s)) and s = 1e9.  Each of the three steps
    is monotone, so x < y gives round(x) <= round(y): the rounded keys order
    a pair of real parts as the real parts do, unless both round to one
    value r.  Then, with u = 2^-53 the unit roundoff, k_x / s and k_y / s
    both lie within u (1 + u) |r| of r, fl(x s) within 1/2 of k_x and within
    u s |x| of x s, and likewise for y, so

        |x - y| <= 1/s + u (|x| + |y|) + 2 u (1 + u) |r|,
        |r| <= (1 + 3u) max(|x|, |y|) + 1/s,

    that is |x - y| < 1e-9 (1 + 3u) + 3.01 u (|x| + |y|).  The computed gap
    fl(y - x) is within u |y - x| of y - x.  Chart values are finite with
    |re| <= 1, so |fl(y - x)| > _TIE = 2e-9 proves that the real parts
    round apart.  Only the pairs whose gap is at most _TIE are compared on
    the rounded keys of both coordinates, so the ranks are those of the
    rounded keys.
    """
    n, d = values.shape
    re = values.real
    ranks = np.zeros((d, n), dtype=np.min_scalar_type(d - 1))
    for i in range(d):
        for j in range(i + 1, d):
            # first: column i sorts before column j
            gap = re[:, j] - re[:, i]
            near = np.flatnonzero(np.abs(gap) <= _TIE)
            first = gap > 0
            if near.size:
                x, y = values[near, i], values[near, j]
                rx, ry = x.real.round(9), y.real.round(9)
                first[near] = (rx < ry) | ((rx == ry) & (x.imag.round(9) <= y.imag.round(9)))
            fa, fb = flags[:, i], flags[:, j]
            first = (fa < fb) | ((fa == fb) & first)
            ranks[i] += ~first
            ranks[j] += first
    return ranks


def _column_of_rank(ranks: np.ndarray, b: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The column of rank b[k] in row rows[k], from the `_ranks` table ranks.

    At d = 2 the column of rank b is the rank of column 0 xor b; at larger
    d it is the sum of i * (rank of column i == b), whose one nonzero term
    is the column of rank b.
    """
    if len(ranks) == 2:
        return ranks[0][rows] ^ b
    col = np.zeros(len(b), dtype=np.intp)
    for i in range(1, len(ranks)):
        col += (ranks[i][rows] == b) * i
    return col


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


def _plant(trees, depth: int):
    """The setup of `_walk`: each tree's forms and start fibers, and the branch table.

    trees holds (F, n_samples, seed) triples of one degree d.  Each tree
    draws from its own stream: its start point (`_start_point`), then its
    (depth, n_samples) branches, into its columns of one (depth, N) table
    of np.min_scalar_type(d - 1) for all N samples, the one array of the
    walk that grows with depth.  The branches are drawn in C order as int32
    blocks of at most _DRAWS entries, whole rows while a row fits one
    block.  numpy serves int32 and int64 draws below 2^32 from one 32-bit
    Lemire stream, and consecutive calls continue it, so the table holds
    the values of one int64 (depth, n_samples) draw, while no temporary
    outgrows _DRAWS.  Returns (forms, fibers, branches), with forms[t] =
    (f0, f1) and fibers[t] = (level0, level1) of tree t.
    """
    d = trees[0][0].degree
    if d < 2:
        raise ValueError("invariant measures need degree >= 2")
    sizes = [n for _, n, _ in trees]
    if min(sizes) < 1 or depth < 1:
        raise ValueError("n_samples and depth must be >= 1")
    forms, fibers = [], []
    try:
        branches = np.empty((depth, sum(sizes)), dtype=np.min_scalar_type(d - 1))
        lo = 0
        for F, n, seed in trees:
            rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
            forms.append(tuple(np.array(f) for f in F.float_forms[:2]))
            fibers.append(_start_point(*forms[-1], rng)[1:])
            # the tree's (depth, n) draws in C order, _DRAWS or fewer per call
            rows, cols = max(1, _DRAWS // n), min(n, _DRAWS)
            for r in range(0, depth, rows):
                for c in range(lo, lo + n, cols):
                    block = branches[r:r + rows, c:min(c + cols, lo + n)]
                    block[...] = rng.integers(0, d, size=block.shape, dtype=np.int32)
            lo += n
    except MemoryError:
        raise CapExceeded(f"the branch table of depth x samples = {depth} x {sum(sizes)} "
                          "draws does not fit in memory") from None
    return forms, fibers, branches


def _walk(trees, depth: int) -> list:
    """Backward orbits of several preimage trees of one degree, walked level by level together.

    trees holds (F, n_samples, seed) triples; returns, per tree, the
    `EmpiricalMeasure` that `sample_invariant_measure(F, n_samples, depth,
    seed)` documents, from the streams `_plant` draws.  A level holds the
    nodes of every tree, each tree's in one contiguous block, so one
    `preimage_fibers` call solves them all, each block from its own map's
    forms, and a tree gets the bits of its walk alone.
    """
    forms, fibers, branches = _plant(trees, depth)
    d = trees[0][0].degree
    sizes = [n for _, n, _ in trees]
    # level 0 holds each tree's start fiber; rows t * d + k of level 1 the
    # fibers of the preimages of tree t
    pv, pi = (np.concatenate([level0[c] for level0, _ in fibers]) for c in (0, 1))
    level1 = [np.concatenate([level1[c] for _, level1 in fibers]) for c in (0, 1)]
    bounds = list(range(len(trees) + 1))  # tree t owns nodes bounds[t]:bounds[t + 1]
    node = np.repeat(np.arange(len(trees)), sizes)  # each sample's index into the level
    for step in range(depth):
        if step == 1:
            pv, pi = level1[0][at], level1[1][at]
        elif step:
            pv, pi = preimage_fibers(forms, bounds, vals, invs)
        pt, it = pv.T, pi.T  # (d, M): root k of every node is contiguous
        ranks = _ranks(pv, pi)
        # child (node, branch), renumbered densely among the drawn children
        child = node * d + branches[step]
        drawn = np.zeros(pv.size, dtype=bool)
        drawn[child] = True
        kids = np.flatnonzero(drawn)
        dense = np.empty(pv.size, dtype=np.intp)
        dense[kids] = np.arange(kids.size)
        node = dense[child]
        # tree t's kids are the children c with d * bounds[t] <= c < d * bounds[t + 1]
        bounds = ([0, kids.size] if len(trees) == 1
                  else np.searchsorted(kids, np.multiply(bounds, d)).tolist())
        # the kid (node, branch) is the node's root in the column of that
        # rank, at column * M + node of the (d, M) arrays
        parent = kids // d
        col = _column_of_rank(ranks, kids - parent * d, parent)
        at = col * pt.shape[1] + parent
        vals, invs = pt.ravel()[at], it.ravel()[at]
        if step == 0:
            at = parent * d + col  # the level-1 rows of the drawn preimages
    vals, invs = vals[node, None], invs[node, None]
    ends = np.cumsum(sizes)
    return [EmpiricalMeasure(vals[end - n:end], invs[end - n:end], seed, depth)
            for (_, n, seed), end in zip(trees, ends)]


def sample_invariant_measure(F: RationalMapLift, n_samples: int, depth: int,
                             seed: int = 0) -> EmpiricalMeasure:
    """Endpoints of n_samples independent uniform backward orbits of length depth.

    Each step draws a branch index uniformly from 0..d-1 per sample and
    moves to the preimage of that rank in the order
    (inverted, round(re, 9), round(im, 9)) of the chart-form fiber.

    The orbits walk the preimage tree of the start point, whose level k has
    at most d^k nodes, so the loop keeps the distinct nodes of a level and
    each sample's node index.  A step solves and ranks each node's fiber
    once; the children some sample draws become the next level's nodes,
    and each drawn child takes the column whose rank is its branch.  Levels
    0 and 1 are the fibers `_start_point` solved: the start's fiber, and
    the rows of its preimages' fibers that belong to the drawn children.
    Fiber rows are solved independently, so every sample has the bits it
    would get from solving its own fiber at each step.  The map's
    coefficients are its `float_forms`; coefficients spanning more than the
    float range raise RootFindingFailure.  A (depth, n_samples) branch
    table that cannot be allocated raises CapExceeded.  This is `_walk` on
    a forest of one tree.
    """
    return _walk([(F, n_samples, seed)], depth)[0]


def _draw_columns(maps, axes, n_samples: int, depth: int, seed: int, columns: dict) -> None:
    """Sample into columns the missing product-measure columns of the given axes.

    Column j is keyed (map j, n_samples, depth, _substream(seed, j)).  The
    missing columns of one degree walk together (`_walk`), as many per walk
    as fit one `roots._BLOCK` of samples: sharing a level pays its fixed
    numpy cost once, which pays only while the combined level is small.
    """
    missing = {}
    for j in axes:
        key = (maps[j - 1], n_samples, depth, _substream(seed, j))
        if key not in columns:
            missing.setdefault(key[0].degree, []).append(key)
    per_walk = max(1, _BLOCK // max(n_samples, 1))  # _walk rejects n_samples < 1
    for keys in missing.values():
        for lo in range(0, len(keys), per_walk):
            forest = keys[lo:lo + per_walk]
            drawn = _walk([(F, n, s) for F, n, _, s in forest], depth)
            columns.update(zip(forest, drawn))


def sample_product_measure(maps, skip: int, n_samples: int, depth: int,
                           seed: int = 0, columns: dict | None = None) -> EmpiricalMeasure:
    """Independent coordinatewise samples of the product measure skipping index `skip`.

    `skip` is 1-based to match coordinate-axis numbering; columns keep the
    order of the remaining maps.  Column j depends on (map j, n_samples,
    depth, seed, j) alone: it is `sample_invariant_measure(map j,
    n_samples, depth, _substream(seed, j))`, bit for bit.  The missing
    columns are drawn up front, those of one degree as forests of as many
    trees as fit one `roots._BLOCK` of samples (`_draw_columns`).  columns
    memoizes each column's sample under its key, so callers sampling
    several products pass one dict to all of them.
    """
    columns = {} if columns is None else columns
    axes = [j for j in range(1, len(maps) + 1) if j != skip]
    if not axes:
        raise ValueError("product over an empty index set")
    _draw_columns(maps, axes, n_samples, depth, seed, columns)
    subs = [columns[(maps[j - 1], n_samples, depth, _substream(seed, j))] for j in axes]
    return EmpiricalMeasure(np.stack([sub.values[:, 0] for sub in subs], axis=1),
                            np.stack([sub.inverted[:, 0] for sub in subs], axis=1),
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
    uniformly: branch k is the root of rank k in the walk's order
    (inverted, round(re, 9), round(im, 9)) of the chart-form fiber
    (`_ranks`); identically-vanishing fibers are discarded and counted.
    columns is passed to `sample_product_measure`.  A map count other than
    n, an axis i outside 1..n or one H does not project dominantly when
    forgetting is a ValueError (`Hypersurface.check_axes`).
    """
    H.check_axes(maps, i)
    base = sample_product_measure(maps, i, n_samples, depth, seed=seed, columns=columns)
    others = [j for j in range(1, H.n + 1) if j != i]
    pairs = {j: (np.where(inv, 1.0 + 0j, v), np.where(inv, v, 1.0 + 0j))
             for j, v, inv in zip(others, base.values.T, base.inverted.T)}
    cols = H.fiber_coeff_matrix(i, pairs, base.size)
    scale = np.max(np.abs(cols), axis=0)
    good = scale > 1e-13
    discarded = int(np.sum(~good))
    cols = cols.compress(good, axis=1)
    cols /= scale[good]
    rng = np.random.default_rng(np.random.SeedSequence([_substream(seed, 971 + i)]))
    picks = rng.integers(0, H.multidegree[i - 1], size=cols.shape[1])
    vals, invs = to_chart(roots_batch(cols.T))
    # branch k: the root of rank k in the sampler's chart order
    rows = np.arange(vals.shape[0])
    chosen = _column_of_rank(_ranks(vals, invs), picks)
    # the base columns are the axes other than i, in order: column i goes in between
    out_v = np.insert(base.values[good], i - 1, vals[rows, chosen], axis=1)
    out_i = np.insert(base.inverted[good], i - 1, invs[rows, chosen], axis=1)
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
    """Fraction of points inside each fixed cap {p : <p, c> >= CAP_COS}.

    The points are counted in row blocks of `roots._BLOCK`, so the dot
    products never exceed a (_BLOCK + 1, CAP_COUNT) temporary, and the
    int64 counts are divided by N once: a float sum of 0/1 values is
    exact, so these are the bits of np.mean over the whole (N, CAP_COUNT)
    indicator matrix.  The last block takes a one-row tail, since numpy
    multiplies a lone row by gemv, whose dots may differ in the last bit
    from the gemm rows of a block.
    """
    n = len(points_xyz)
    counts = np.zeros(CAP_COUNT, dtype=np.int64)
    for lo in range(0, max(n - 1, 1), _BLOCK):
        hi = n if n - lo <= _BLOCK + 1 else lo + _BLOCK
        counts += np.count_nonzero(points_xyz[lo:hi] @ _CAP_CENTERS_T >= CAP_COS, axis=0)
    return counts / n


def clt_threshold(n_samples: int) -> float:
    """The documented heuristic threshold tau = 3 sqrt(ln(CAP_COUNT) / N)."""
    return 3.0 * math.sqrt(math.log(CAP_COUNT) / n_samples)


# ---------------------------------------------------------------------------
# equal-measure diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureCompareResult:
    statistic: float
    threshold: float
    per_chart: tuple
    n_samples: int
    discarded: tuple

    @property
    def equal_within_noise(self) -> bool:
        return self.statistic < self.threshold


def measure_compare(H, maps, i: int, j: int, n_samples: int = 10_000, depth: int = 30,
                    seed: int = 0, columns: dict | None = None) -> MeasureCompareResult:
    """Cap discrepancy between the pullback measures through axes i and j.

    D is the maximum over coordinate charts and the fixed 64-cap family of
    the empirical mass difference; tau = 3 sqrt(ln 64 / N) is the documented
    CLT heuristic.  D and tau are reported, never upgraded to a proof.
    Sampling seeds depend on (seed, axis) only, so D_ij = D_ji exactly.
    maps holds one map per axis, i, j are two distinct axes in 1..n and H
    projects dominantly when forgetting either, else ValueError, raised
    before any sampling.

    The two pullbacks need the product-measure column of every axis, so all
    n are drawn up front, in forests (`sample_product_measure`).  columns
    memoizes them, and each axis's pullback cap fractions (`_pullback_caps`);
    callers comparing several pairs pass one dict to all of them, and the
    first comparison draws every column.
    """
    H.check_axes(maps, i, j)
    if i == j:
        raise ValueError(f"compare two distinct axes, got i = j = {i}")
    columns = {} if columns is None else columns
    # the two pullbacks need every axis's column: draw them in one walk
    _draw_columns(maps, range(1, H.n + 1), n_samples, depth, seed, columns)
    (lost_i, caps_i), (lost_j, caps_j) = (
        _pullback_caps(H, maps, a, n_samples, depth, seed, columns) for a in (i, j))
    per_chart = tuple(float(np.max(np.abs(a - b))) for a, b in zip(caps_i, caps_j))
    return MeasureCompareResult(max(per_chart), clt_threshold(n_samples), per_chart,
                                n_samples, (lost_i, lost_j))


def _pullback_caps(H, maps, i: int, n_samples: int, depth: int, seed: int, columns: dict):
    """The discarded count and per-chart cap fractions of the pullback through axis i.

    Both depend on (H, maps, i, n_samples, depth, seed) alone, the pick
    stream `_substream(seed, 971 + i)` included, so columns memoizes them
    under that key: comparing every pair of k axes pulls back k times, not
    k(k - 1), and keeps 64 fractions per chart, not the pullback's samples.
    """
    key = ("pullback caps", H, tuple(maps), i, n_samples, depth, seed)
    if key not in columns:
        out = pullback_to_hypersurface(H, maps, i, n_samples, depth, seed=seed,
                                       columns=columns)
        columns[key] = (out.discarded,
                        [cap_fractions(out.measure.sphere(a)) for a in range(H.n)])
    return columns[key]
