"""Complex and exact root finding for integer polynomials and binary forms.

Strategy: exact squarefree decomposition over Z first (multiplicities
become exact; the modular `projective.poly_gcd` proves most inputs
squarefree at one prime), rational roots recovered by continued-fraction
reconstruction from numeric approximations plus exact verification (no
coefficient factoring, so huge iterate coefficients are fine).
`binary_form_roots` is the one exact root path: fibers, critical points and
periodic points all run it, and it solves each squarefree factor once, from
`projective.float_coefficients`, or exactly when the factor is linear.
Every numeric solve runs one sweep loop, `aberth_sweeps`, on a (d, m)
layout with one polynomial per column and the Newton ratio as a function:
`aberth` (one column) and `roots_batch` (many) evaluate it by Horner's
rule, and the periodic points of `orbits` along the orbit.  A single
polynomial starts on its Newton polygon, so its evaluation does not
overflow far outside its roots; the periodic points start from a preimage
tree, and batched rows from closed forms or a circle.  A cubic or quartic
row whose closed-form starts pass the sweep's tolerance test on one Newton
correction is accepted without a sweep; only the others run the loop.  A
batched row the loop leaves moving is accepted when its roots pass a
backward-error test; a single polynomial left moving is a failure.
`preimage_fibers` solves the fibers of many points, under one map or
under several maps of one degree, in one `roots_batch`: it is the backward
step of the measure sampler's forests, and its one-map case
`preimage_fiber` that of the periodic-point starts.  Its roots, like the
pullbacks' of `measure`, reach chart form through `to_chart`, which tests
the finiteness of a whole batch by one sum and looks at single entries
only when that sum is not finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .errors import RootFindingFailure
from .projective import (
    INFINITY,
    CPoint,
    ProjectivePoint,
    float_coefficients,
    form_eval,
    poly_deriv,
    poly_degree,
    poly_div_exact,
    poly_gcd,
    poly_trim,
    primitive_int,
)

DEFAULT_TOL = 1e-12
_BATCH_TOL = 1e-10  # relative correction at which a `roots_batch` row retires
_BATCH_MAX_ITER = 120  # Aberth sweeps before `roots_batch` gives up
_BACKWARD = 4  # the c of the backward-error test |p(z)| <= c d eps sum |c_k| |z|^k
_BLOCK = 4096  # rows per batched Aberth block; bounds the (d, d, rows) temporary
_SUM_ROWS = 256  # roots per block of the Aberth sum; bounds its (d, rows, m) temporary
_SEPARATION = 1e3  # closed-form starts closer than this many tolerances fall back
_OMEGA = complex(-0.5, math.sqrt(3) / 2)  # primitive cube root of unity


# ---------------------------------------------------------------------------
# exact squarefree decomposition and rational roots (coefficients ascending)
# ---------------------------------------------------------------------------

def yun_squarefree(c):
    """Yun decomposition [(factor, multiplicity), ...] with primitive integer factors.

    c has integer or integral Fraction coefficients.  Its primitive part is
    the whole answer when linear or coprime to its derivative, which the
    modular `poly_gcd` proves at its first prime for most inputs.  Each gcd
    is primitive with a positive leading coefficient, so by Gauss's lemma
    every quotient by it is exact.  Factors come in increasing multiplicity.
    """
    c = poly_trim(c)
    if poly_degree(c) == 0:
        return []
    prim = primitive_int(c)
    if len(prim) == 2:
        return [(prim, 1)]
    dc = poly_deriv(prim)
    g = poly_gcd(prim, dc)
    if poly_degree(g) == 0:
        return [(prim, 1)]
    out = []
    w, y = poly_div_exact(prim, g), poly_div_exact(dc, g)
    k = 1
    while poly_degree(w) > 0:
        z = poly_trim([a - b for a, b in zip_longest(y, poly_deriv(w), fillvalue=0)])
        h = poly_gcd(w, z)
        if poly_degree(h) > 0:
            out.append((h, k))
        w, y = poly_div_exact(w, h), poly_div_exact(z, h)
        k += 1
    return out


def rational_root(c, z: complex) -> Fraction | None:
    """The rational root of the integer polynomial c near z, verified exactly.

    The candidate is the rational of denominator <= 10^12 nearest a near-real
    z.  A root a/b in lowest terms has b | c[-1] and a | c[0], so most wrong
    candidates fail on two integer remainders before the exact evaluation.
    """
    if abs(z.imag) > 1e-7 * (1 + abs(z.real)):
        return None
    try:
        q = Fraction(z.real).limit_denominator(10**12)
    except (OverflowError, ValueError):
        return None
    a, b = q.numerator, q.denominator
    if c[-1] % b or (a and c[0] % a):
        return None
    return q if form_eval(c, a, b) == 0 else None


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration
# ---------------------------------------------------------------------------

def aberth_sweeps(ratio, z, tol: float = DEFAULT_TOL, max_iter: int = 400) -> tuple:
    """Aberth-Ehrlich sweeps from the starts z, shape (d, m): one polynomial per column.

    ratio(z, live) returns the Newton ratios p/p' at the live columns z,
    whose indices among the m columns are live.  A non-finite ratio becomes
    0.5 and a non-finite correction 0, with numpy's warnings off.  A column
    retires once all d corrections pass |c| <= tol * (1 + |z|) in a sweep
    whose ratios were all finite: a 0.5 step far out, where the evaluation
    overflowed, passes the relative test without nearing a root.  The sum
    s_i = sum_j 1/(z_i - z_j) runs over the outer axis of R[j, i], which
    numpy adds in index order for any number of columns, so a column's bits
    do not depend on the columns sharing its sweep.  It is taken in equal
    blocks of at most _SUM_ROWS roots i, which bounds the temporary and
    leaves at least two roots per block.  Returns the roots (d, m) and the
    indices of the columns still moving after max_iter sweeps, which hold
    their last iterates; `_converged` makes any of them a RootFindingFailure.
    """
    z = np.array(z, dtype=complex)
    d, m = z.shape
    step = math.ceil(d / math.ceil(d / _SUM_ROWS))
    out = np.empty_like(z)
    live = np.arange(m)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            newton = ratio(z, live)
            overflow = ~np.isfinite(newton)
            np.copyto(newton, 0.5, where=overflow)
            s = np.empty_like(z)
            for lo in range(0, d, step):
                # R[j, i] = 1/(z_i - z_j); the diagonal 1/0 is overwritten by zero
                r = z[None, lo:lo + step] - z[:, None]
                np.reciprocal(r, out=r)
                w = r.shape[1]
                r.reshape(d * w, -1)[lo * w:(lo + w) * w:w + 1] = 0.0
                r.sum(axis=0, out=s[lo:lo + step])
            s *= newton
            np.subtract(1.0, s, out=s)
            corr = np.divide(newton, s, out=newton)
            np.copyto(corr, 0.0, where=~np.isfinite(corr))
            z -= corr
            done = np.all(np.abs(corr) <= tol * (1.0 + np.abs(z)), axis=0)
            done &= ~overflow.any(axis=0)
            if done.all():
                out[:, live] = z
                return out, live[:0]
            if done.any():
                out[:, live[done]] = z[:, done]
                keep = ~done
                live, z = live[keep], z[:, keep]
    out[:, live] = z
    return out, live


def _converged(sweeps) -> np.ndarray:
    """The roots of `aberth_sweeps`; RootFindingFailure if a column is still moving."""
    z, stuck = sweeps
    if stuck.size:
        raise RootFindingFailure("batched Aberth did not converge")
    return z


def _horner_ratio(cn: np.ndarray):
    """ratio(z, live) for the coefficient columns cn (d+1, m), by Horner's rule.

    A zero derivative becomes 1e-300; cn is re-gathered only after a retirement.
    """
    d = cn.shape[0] - 1
    dc = cn[1:] * np.arange(1, d + 1)[:, None]
    cols = [cn, dc]

    def ratio(z, live):
        c, dcl = cols
        if c.shape[1] != len(live):
            cols[:] = c, dcl = cn[:, live], dc[:, live]
        pz = c[d] * z
        for k in range(d - 1, 0, -1):
            pz += c[k]
            pz *= z
        pz += c[0]
        dpz = dcl[d - 1] * z
        for k in range(d - 2, 0, -1):
            dpz += dcl[k]
            dpz *= z
        dpz += dcl[0]
        np.copyto(dpz, 1e-300, where=dpz == 0)
        return np.divide(pz, dpz, out=pz)

    return ratio


def aberth(coeffs, tol: float = DEFAULT_TOL):
    """All roots of a squarefree complex polynomial (ascending coefficients).

    One column of `aberth_sweeps`, with the monic polynomial evaluated by
    Horner's rule, so it suits small degrees and moderate coefficients.  The
    sweeps start on the circles of the Newton polygon, near the roots.  A
    root at 0 is divided out.
    """
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    if d < 1:
        return []
    if d == 1:
        return [complex(-c[0] / c[1])]
    if c[0] == 0:
        return [0j] + aberth(c[1:], tol)
    z = polygon_starts(c)[:, None]
    roots = _converged(aberth_sweeps(_horner_ratio((c / c[-1])[:, None]), z, tol))
    return roots[:, 0].tolist()


def polygon_starts(c) -> np.ndarray:
    """Aberth starts on the circles of the Newton polygon of c (Bini 1996).

    c is an integer or complex polynomial (ascending) with c[0] and c[-1]
    nonzero.  An edge of the upper convex hull of the points (i, log|c_i|)
    from i to j puts j - i starts on the circle of radius
    (|c_i| / |c_j|)^(1/(j - i)), where that many roots lie when the polygon
    has sharp corners.  Logs of exact integers keep coefficients beyond the
    float range usable.
    """
    d = len(c) - 1
    hull: list[tuple[int, float]] = []
    for i, v in enumerate(c):
        if not v:
            continue
        x, y = i, math.log(abs(v))
        # drop the last corner while it lies on or below the chord to (x, y)
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
    starts = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        k = j - i
        angles = 2 * np.pi * (np.arange(k) / k + i / d) + 0.7
        starts.append(math.exp((li - lj) / k) * np.exp(1j * angles))
    return np.concatenate(starts)


def binary_form_roots(coeffs, tol: float = DEFAULT_TOL, ratio_of=None):
    """Projective roots of an integer binary form, with multiplicity.

    coeffs[i] multiplies X^i Y^(d-i); the formal degree is len(coeffs)-1.
    Returns [(CPoint, mult, ProjectivePoint|None), ...]: infinity and 0
    first, from the zero coefficients at either end, then the roots of each
    `yun_squarefree` factor, each factor solved once.  The repeated factors
    are solved by `aberth`, and their roots join `known`, the (root,
    multiplicity) pairs already found, with the root at 0.  The simple
    factor comes last: by `aberth` too, or, when ratio_of is given, by
    `aberth_sweeps` from the (ratio, starts) that ratio_of(fac, known)
    returns: the Newton ratio of the whole form with the known roots
    divided out, without which it can converge onto a repeated root, and
    deg fac starts (the orbit ratio and preimage-tree starts of `orbits`).
    A linear factor c0 + c1 z gives its exact root -c0/c1, with no solve,
    and a numeric root that `rational_root` verifies carries its exact point
    and that point's CPoint; only the first root near each rational is
    labelled.
    """
    c = list(coeffs)
    nonzero = [i for i, v in enumerate(c) if v]
    if not nonzero:
        raise ValueError("zero form has no well-defined roots")
    low, top = nonzero[0], nonzero[-1]
    out = []
    if top < len(c) - 1:
        out.append((CPoint.at_infinity(), len(c) - 1 - top, INFINITY))
    known = []
    if low:
        out.append((CPoint.from_affine(0.0), low, ProjectivePoint(0, 1)))
        known.append((0.0, low))
    labelled = set()
    for fac, mult in reversed(yun_squarefree(c[low:top + 1])):
        if len(fac) == 2:
            ex = ProjectivePoint(-fac[0], fac[1])
            out.append((CPoint.from_exact(ex), mult, ex))
            known.append((out[-1][0].affine(), mult))
            continue
        if mult == 1 and ratio_of is not None:
            ratio, starts = ratio_of(fac, known)
            roots = _converged(aberth_sweeps(ratio, starts[:, None], tol))[:, 0].tolist()
        else:
            roots = aberth(float_coefficients(fac)[0], tol=tol)
        for z in roots:
            q = rational_root(fac, z)
            if q is None or q in labelled:
                out.append((CPoint.from_affine(z), mult, None))
                continue
            labelled.add(q)
            ex = ProjectivePoint(q.numerator, q.denominator)
            out.append((CPoint.from_exact(ex), mult, ex))
        known += [(z, mult) for z in roots]
    return out


# ---------------------------------------------------------------------------
# batched solving for Monte-Carlo fibers (shape (N, d+1) -> (N, d))
# ---------------------------------------------------------------------------

def roots_batch(coeff_rows: np.ndarray) -> np.ndarray:
    """Roots of many polynomials of one degree; huge values stand in for infinity.

    coeff_rows has shape (N, d+1), ascending coefficients per row; the result
    has shape (N, d).  The work runs on columns: coefficient k of every row
    is coeff_rows.T[k], which is contiguous when the caller builds a
    (d+1, N) array and passes its transposed view, and the result is the
    transposed view of a (d, N) array, so result.T[k] holds the k-th root of
    every row.  Either input order gives the same bits, and result.ravel()
    is in row order.  Degree-1 and degree-2 rows use closed forms
    (`_quadratic_roots`).  Higher degrees run `aberth_sweeps` (Bini, Numer.
    Algorithms 13 (1996)) on blocks of at most _BLOCK columns, which bounds
    the (d, d, rows) temporary of the Aberth sum.  Degree-3 and degree-4 rows
    start from their Cardano and Ferrari roots, so a well-conditioned row
    is accepted on one Newton correction, without a sweep (`_aberth_block`);
    the others start on the circle of radius 1 + max|c_i| (`_block_starts`).
    A row whose evaluation overflows there takes 0.5 steps but does not
    retire on them, so a row that never comes into range fails below.
    Each row retires on its own, at relative corrections of _BATCH_TOL, so
    solving rows one at a time gives the same bits as one batch.  A row
    still moving after _BATCH_MAX_ITER sweeps, as near a double root, where
    the corrections stay above the tolerance at double resolution, is
    accepted when its roots pass a backward-error test (`_backward_stable`);
    RootFindingFailure is raised when any such row fails it.  Root order
    within a row is unspecified; callers needing a deterministic order must
    sort by value.
    """
    cols = np.asarray(coeff_rows, dtype=complex).T
    d, n = cols.shape[0] - 1, cols.shape[1]
    out = np.empty((d, n), dtype=complex)
    if d == 1:
        out[0] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(-cols[0], cols[1], out=out[0], where=cols[1] != 0)
    elif d == 2:
        _quadratic_roots(*cols, out)
    else:
        for lo in range(0, n, _BLOCK):
            out[:, lo:lo + _BLOCK] = _aberth_block(cols[:, lo:lo + _BLOCK], _BATCH_TOL,
                                                   _BATCH_MAX_ITER)
    return out.T


def preimage_fiber(f0: np.ndarray, f1: np.ndarray, values: np.ndarray,
                   inverted: np.ndarray):
    """All d preimages (with multiplicity) of each point, in no particular order.

    f0 and f1 are the complex coefficient arrays of the map's forms F0 and
    F1, X^i Y^(d-i) at index i.  values and inverted are points in chart
    form (`to_chart`).  Returns (vals, invs) of shape (N, d) in chart form;
    a non-finite root is the point at infinity, w = 0 in the inverted
    chart.  The fiber form is F0(X, Y) * ty - F1(X, Y) * tx with (tx, ty)
    the target pair.  Its coefficients are built as a (d+1, N) array and
    solved through its transposed view, so vals and invs are transposed
    views of (d, N) arrays: column k of the fiber is contiguous.
    """
    return preimage_fibers([(f0, f1)], [0, len(values)], values, inverted)


def preimage_fibers(forms, bounds, values: np.ndarray, inverted: np.ndarray):
    """`preimage_fiber` for several maps of one degree in one `roots_batch`.

    The points come in consecutive blocks: points bounds[t] to bounds[t+1]
    belong to the map whose (f0, f1) is forms[t], and each block's
    coefficient columns are built from its own forms.  `roots_batch` solves
    every row on its own, so a block gets the bits `preimage_fiber` gives
    it alone.
    """
    tx = np.where(inverted, 1.0 + 0j, values)
    ty = np.where(inverted, values, 1.0 + 0j)
    coeffs = np.empty((len(forms[0][0]), len(values)), dtype=complex)
    for (f0, f1), lo, hi in zip(forms, bounds, bounds[1:]):
        block = coeffs[:, lo:hi]
        np.multiply(f0[:, None], ty[lo:hi], out=block)
        block -= f1[:, None] * tx[lo:hi]
    return to_chart(roots_batch(coeffs.T))


def to_chart(z: np.ndarray):
    """Chart form of affine values: w = 1/z where |z| > 1, and w = 0 for infinity.

    z, C- or F-contiguous, is overwritten with w and returned with the
    chart flags, which keep the memory order of z: both flatten in that
    order without a copy, and the reciprocals are taken on the gathered
    entries where the flag is set.  A non-finite entry makes the sum of z
    non-finite, so one sum clears the common batch of finite roots; only
    when it is not finite (some entry is inf or nan, or finite entries
    overflow the sum) are the entries tested one by one.
    """
    flat = z.ravel(order="K")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or an overflow
        infinite = None if np.isfinite(flat.sum()) else ~np.isfinite(z)
    invs = np.abs(z) > 1.0
    at = np.flatnonzero(invs.ravel(order="K"))
    with np.errstate(divide="ignore", invalid="ignore"):
        flat[at] = 1.0 / flat[at]
    if infinite is not None:
        np.copyto(z, 0.0, where=infinite)
        invs |= infinite
    return z, invs


def _quadratic_roots(c0, c1, c2, out) -> None:
    """Roots of the columns c0 + c1 z + c2 z^2 into out, shape (2, m).

    t = -(c1 + s)/2, with s the square root of the discriminant whose sign
    keeps t large, is c2 times a root: out[0] = t/c2 and out[1] = c0/t,
    without cancellation, by plain divisions.  A row with c2 = 0 or t = 0
    gets a non-finite root that way, so only the rows with a non-finite
    root, found when the sum of all roots is not finite, are solved again
    by `_degenerate_quadratics`, which gives the other rows the same bits.
    """
    r1, r2 = out
    s = c1 * c1
    t = 4 * c2
    t *= c0
    s -= t
    np.sqrt(s, out=s)
    np.conjugate(c1, out=t)
    t *= s
    np.negative(s, out=s, where=t.real < 0)
    np.add(c1, s, out=t)
    np.negative(t, out=t)
    t /= 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(t, c2, out=r1)
        np.divide(c0, t, out=r2)
        if np.isfinite(out.sum()):
            return
    k = np.flatnonzero(~np.all(np.isfinite(out), axis=0))
    if k.size:
        sub = np.empty((2, k.size), dtype=complex)
        _degenerate_quadratics(c0[k], c1[k], c2[k], t[k], sub)
        out[:, k] = sub


def _degenerate_quadratics(c0, c1, c2, t, out) -> None:
    """`_quadratic_roots` by masked divisions, for the rows given a non-finite root.

    A row with c2 != 0 and t != 0 gets the bits of the plain divisions.  A
    row with c2 = 0 has the root at infinity in out[0] and its finite
    root -c0/c1 in out[1], or infinity again when c1 is zero too; t = 0
    leaves out[1] at 0 (or infinity when c2 = 0).
    """
    r1, r2 = out
    quad = c2 != 0
    r1.fill(np.inf)
    r2.fill(np.inf)
    np.copyto(r2, 0.0, where=quad)
    lin = c1 != 0
    lin &= ~quad
    s = np.empty_like(c0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(t, c2, out=r1, where=quad)
        np.divide(c0, t, out=r2, where=t != 0)
        np.negative(c0, out=s, where=lin)
        np.divide(s, c1, out=r2, where=lin)


def _cbrt(x: np.ndarray) -> np.ndarray:
    """Principal cube root of complex x, in polar form: faster than x ** (1/3)."""
    r = np.cbrt(np.abs(x))
    theta = np.angle(x) / 3
    out = np.empty_like(x)
    out.real = r * np.cos(theta)
    out.imag = r * np.sin(theta)
    return out


def _cubic_roots(a, b, c):
    """Roots (3, m) of the monic cubics z^3 + a z^2 + b z + c, by Cardano.

    With z = t - a/3 the cubic is t^3 + p t + q, whose roots are u + v over
    the three cube roots u of -q/2 + sqrt(q^2/4 + p^3/27), with v = -p/(3u).
    The sign of the square root is the one that keeps |u^3| large.  A triple
    root gives u = 0 and non-finite roots.
    """
    s = a * (1 / 3)
    p = b - a * s
    q = c - s * (b - 2 * s * s)
    h = q * -0.5
    disc = np.sqrt(h * h + p * p * p * (1 / 27))
    u = _cbrt(np.where((np.conj(h) * disc).real >= 0, h + disc, h - disc))
    v = p / u * (-1 / 3)
    wu, wv = _OMEGA * u, _OMEGA * v
    return np.stack([u + v - s, wu + _OMEGA * wv - s, _OMEGA * wu + wv - s])


def _quartic_roots(a, b, c, e):
    """Roots (4, m) of the monic quartics z^4 + a z^3 + b z^2 + c z + e, by Ferrari.

    With z = y - a/4 the quartic is y^4 + p y^2 + q y + r.  For a root m of
    the resolvent cubic m^3 + p m^2 + (p^2/4 - r) m - q^2/8, the one of
    largest modulus, it splits into y^2 -+ sqrt(2m) y + p/2 + m +- q/(2 sqrt(2m)),
    two monic quadratics that `_quadratic_roots` solves, as `roots_batch` does.
    """
    s = a * 0.25
    ss = s * s
    p = b - 6 * ss
    q = c - 2 * s * (b - 4 * ss)
    r = e - s * (c - s * (b - 3 * ss))
    m0, m1, m2 = _cubic_roots(p, p * p * 0.25 - r, q * q * -0.125)
    m = np.where(np.abs(m1) > np.abs(m0), m1, m0)
    m = np.where(np.abs(m2) > np.abs(m), m2, m)
    k = np.sqrt(2 * m)
    half = p * 0.5 + m
    shift = q / (2 * k)
    out = np.empty((4, len(k)), dtype=complex)
    one = np.ones_like(k)
    _quadratic_roots(half + shift, -k, one, out[:2])
    _quadratic_roots(half - shift, k, one, out[2:])
    out -= s
    return out


def _block_starts(cn: np.ndarray, tiny: np.ndarray, tol: float):
    """Aberth starts (d, m) for the monic coefficient columns cn (d+1, m), and
    the mask (m,) of the columns that start from closed-form roots.

    Cubic and quartic columns start from their Cardano and Ferrari roots,
    which are accurate enough that most columns pass the tolerance test on
    one Newton correction (`_aberth_block`).  Every other degree starts on
    the circle of radius 1 + max|c_i|, and so does any column whose
    closed-form starts are not finite, or not farther apart than
    _SEPARATION * tol * (1 + |z|): a pair of starts that close and off a
    root gets a correction of about their distance, which the tolerance
    test could accept.  Columns whose leading coefficient was too small to
    divide by (tiny) are not monic and also take the circle.
    """
    d, m = cn.shape[0] - 1, cn.shape[1]
    if d not in (3, 4):
        return _circle_starts(cn), np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        z = _cubic_roots(*cn[2::-1]) if d == 3 else _quartic_roots(*cn[3::-1])
        bad = tiny | ~np.all(np.isfinite(z), axis=0)
        bound = _SEPARATION * tol * (1.0 + np.abs(z))
        for i in range(d):
            for j in range(i + 1, d):
                bad |= np.abs(z[i] - z[j]) <= bound[i]
    if bad.any():
        z[:, bad] = _circle_starts(cn[:, bad])
    return z, ~bad


def _circle_starts(cn: np.ndarray) -> np.ndarray:
    """d starts per column on the circle of radius 1 + max|c_i|, which holds every root."""
    d = cn.shape[0] - 1
    radius = 1.0 + np.max(np.abs(cn[:-1]), axis=0)
    angles = 2j * np.pi * (np.arange(d) / d + 0.3 / d)
    return np.exp(angles)[:, None] * radius[None, :]


def _aberth_block(cols: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Roots (d, m) of at most _BLOCK coefficient columns (d+1, m) of degree d >= 3.

    The columns are made monic, except those whose leading coefficient is
    too small to divide by, into a C-ordered array whatever the input order,
    and evaluated by Horner's rule from `_block_starts`.  A column with
    closed-form starts z is accepted as z - c when every Newton correction
    c = p(z)/p'(z) is finite and passes the sweep's test
    |c| <= tol * (1 + |z - c|).  Its starts are more than _SEPARATION
    tolerances apart, so the Aberth term c * sum_j 1/(z_i - z_j) is at most
    about (d - 1) / _SEPARATION, and one sweep would move the column by c to
    within that factor.  The other columns run `aberth_sweeps` from the
    same starts.
    """
    lead = cols[-1].copy()
    tiny = np.abs(lead) < 1e-300
    lead[tiny] = 1.0
    cn = np.divide(cols, lead, order="C")
    ratio = _horner_ratio(cn)
    z, closed = _block_starts(cn, tiny, tol)
    if not closed.any():
        return _backward_stable(cn, *aberth_sweeps(ratio, z, tol, max_iter))
    with np.errstate(all="ignore"):
        newton = ratio(z, np.arange(z.shape[1]))
        out = z - newton
        passed = np.abs(newton) <= tol * (1.0 + np.abs(out))
        passed &= np.isfinite(newton)
        closed &= passed.all(axis=0)
    if not closed.all():
        redo = np.flatnonzero(~closed)
        out[:, redo] = _backward_stable(cn[:, redo], *aberth_sweeps(
            lambda w, live: ratio(w, redo[live]), z[:, redo], tol, max_iter))
    return out


def _backward_stable(cn: np.ndarray, z: np.ndarray, stuck: np.ndarray) -> np.ndarray:
    """The roots z (d, m) of the columns cn (d+1, m), its stuck columns checked.

    A stuck column, one `aberth_sweeps` left moving, is accepted when every
    root passes |p(z)| <= _BACKWARD * d * eps * sum |c_k| |z|^k, both sides
    by Horner's rule: z is then an exact root of a polynomial whose
    coefficients are within a few roundings of the column's, which is all
    double precision can tell (MPSolve's stop; Bini and Robol, J. Comput.
    Appl. Math. 272, 2014).  Any column that fails the test, or whose sums
    are not finite, is a RootFindingFailure.
    """
    if stuck.size:
        c, w = cn[:, stuck], z[:, stuck]
        d = c.shape[0] - 1
        ac, aw = np.abs(c), np.abs(w)
        p, bound = np.zeros_like(w), np.zeros_like(aw)
        with np.errstate(all="ignore"):
            for k in range(d, -1, -1):
                p = p * w + c[k]
                bound = bound * aw + ac[k]
            ok = np.abs(p) <= _BACKWARD * d * np.finfo(float).eps * bound
        if not (ok.all() and np.isfinite(bound).all()):
            raise RootFindingFailure("batched Aberth did not converge")
    return z
