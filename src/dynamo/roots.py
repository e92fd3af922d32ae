"""Complex and exact root finding for integer polynomials and binary forms.

Strategy: exact Yun squarefree decomposition first (multiplicities become
exact), rational roots recovered by continued-fraction reconstruction from
numeric approximations plus exact verification (no coefficient factoring,
so huge iterate coefficients are fine), Aberth-Ehrlich simultaneous
iteration with deflation for the remaining simple complex roots.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import RootFindingFailure
from .projective import (
    CPoint,
    ProjectivePoint,
    poly_deriv,
    poly_degree,
    poly_divmod_q,
    poly_gcd_q,
    poly_trim,
    primitive_int,
)

DEFAULT_TOL = 1e-12


# ---------------------------------------------------------------------------
# exact squarefree decomposition and rational roots (coefficients ascending)
# ---------------------------------------------------------------------------

def yun_squarefree(c):
    """Yun decomposition [(factor, multiplicity), ...] with primitive integer factors."""
    c = poly_trim(c)
    if poly_degree(c) == 0:
        return []
    g = poly_gcd_q(c, poly_deriv(c))
    if poly_degree(g) == 0:
        return [(primitive_int(c), 1)]
    out = []
    w, _ = poly_divmod_q(c, g)
    y, _ = poly_divmod_q(poly_deriv(c), g)
    k = 1
    while poly_degree(w) > 0:
        z = [yv - dv for yv, dv in
             zip(y + [Fraction(0)] * len(w), poly_deriv(w) + [Fraction(0)] * len(y))]
        z = poly_trim(z)
        h = poly_gcd_q(w, z)
        if poly_degree(h) > 0:
            out.append((primitive_int(h), k))
        w, _ = poly_divmod_q(w, h)
        y, _ = poly_divmod_q(z, h)
        k += 1
    return out


def poly_eval_fraction(c, q: Fraction) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * q + v
    return acc


def _rational_reconstruct(z: complex, max_den: int = 10**12) -> Fraction | None:
    """Nearest small-denominator rational to a (near-real) numeric root."""
    if abs(z.imag) > 1e-7 * (1 + abs(z.real)):
        return None
    x = z.real
    try:
        return Fraction(x).limit_denominator(max_den)
    except (OverflowError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration
# ---------------------------------------------------------------------------

def aberth(coeffs, tol: float = DEFAULT_TOL, max_iter: int = 400):
    """All roots of a squarefree complex polynomial (ascending coefficients)."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    if d < 1:
        return []
    if d == 1:
        return [complex(-c[0] / c[1])]
    # scale to unit leading coefficient for conditioning
    c = c / c[-1]
    dc = c[1:] * np.arange(1, d + 1)
    radius = 1.0 + float(np.max(np.abs(c[:-1])))
    k = np.arange(d)
    z = radius * np.exp(2j * np.pi * (k / d + 0.25 / d))
    for _ in range(max_iter):
        pz = np.polyval(c[::-1], z)
        dpz = np.polyval(dc[::-1], z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dpz != 0, pz / np.where(dpz == 0, 1, dpz), 0.1 + 0j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            corr = newton / (1.0 - newton * s)
        bad = ~np.isfinite(corr)
        if bad.any():
            corr = np.where(bad, 0.05 * (1 + np.abs(z)) * np.exp(1j), corr)
        z = z - corr
        if np.all(np.abs(corr) <= tol * (1.0 + np.abs(z))):
            return [complex(v) for v in z]
    raise RootFindingFailure(f"Aberth iteration did not reach tol={tol} in {max_iter} steps")


def poly_roots_exact(coeffs, tol: float = DEFAULT_TOL):
    """Roots with exact multiplicities: list of (complex, mult, Fraction|None).

    The Fraction is set when the root was verified exactly rational.
    """
    c = poly_trim(coeffs)
    d = poly_degree(c)
    if d == 0:
        return []
    out = []
    for factor, mult in yun_squarefree(c):
        fac = list(factor)
        # peel off exactly-verified rational roots before the numeric solve
        rational_roots = []
        approx = aberth([complex(v) for v in fac], tol=tol)
        for z in approx:
            cand = _rational_reconstruct(z)
            if cand is not None and poly_eval_fraction(fac, cand) == 0:
                rational_roots.append(cand)
        seen = set()
        for q in rational_roots:
            if q in seen:
                continue
            seen.add(q)
            out.append((complex(q), mult, q))
            den = [-q.numerator, q.denominator]
            qq, rr = poly_divmod_q(fac, den)
            assert all(v == 0 for v in rr)
            fac = primitive_int(qq)
        if poly_degree(fac) > 0:
            for z in aberth([complex(v) for v in fac], tol=tol):
                out.append((z, mult, None))
    return out


def binary_form_roots(coeffs, tol: float = DEFAULT_TOL):
    """Projective roots of an integer binary form, with multiplicity.

    coeffs[i] multiplies X^i Y^(d-i); the formal degree is len(coeffs)-1.
    Returns [(CPoint, mult, ProjectivePoint|None), ...]; the exact point is
    present for verified rational roots (including 0 and infinity).
    """
    d = len(coeffs) - 1
    c = list(coeffs)
    out = []
    top = d
    while top >= 0 and c[top] == 0:
        top -= 1
    if top < 0:
        raise ValueError("zero form has no well-defined roots")
    inf_mult = d - top
    if inf_mult:
        out.append((CPoint.at_infinity(), inf_mult, ProjectivePoint(1, 0)))
    low = 0
    while c[low] == 0:
        low += 1
    if low:
        out.append((CPoint.from_affine(0.0), low, ProjectivePoint(0, 1)))
    affine = c[low: top + 1]
    for z, mult, exact in poly_roots_exact(affine, tol=tol):
        ex = ProjectivePoint(exact.numerator, exact.denominator) if exact is not None else None
        out.append((CPoint.from_affine(z), mult, ex))
    return out


# ---------------------------------------------------------------------------
# batched solving for Monte-Carlo fibers (shape (N, d+1) -> (N, d))
# ---------------------------------------------------------------------------

def roots_batch(coeff_rows: np.ndarray, tol: float = 1e-10, max_iter: int = 120) -> np.ndarray:
    """Roots of many polynomials of one degree; huge values stand in for infinity.

    Degree-1 and degree-2 rows use closed forms; higher degrees run a
    vectorized Aberth sweep.  Root order within a row is unspecified here;
    callers needing determinism must sort.
    """
    rows = np.asarray(coeff_rows, dtype=complex)
    n, w = rows.shape
    d = w - 1
    if d == 1:
        a, b = rows[:, 0], rows[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(b != 0, -a / np.where(b == 0, 1, b), np.inf)
        return r[:, None]
    if d == 2:
        c0, c1, c2 = rows[:, 0], rows[:, 1], rows[:, 2]
        disc = c1 * c1 - 4 * c2 * c0
        s = np.sqrt(disc)
        flip = (np.conj(c1) * s).real < 0
        s = np.where(flip, -s, s)
        t = -(c1 + s) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(c2 != 0, t / np.where(c2 == 0, 1, c2), np.inf)
            r2 = np.where(t != 0, c0 / np.where(t == 0, 1, t),
                          np.where(c2 != 0, 0.0, np.inf))
        # degenerate linear rows: c2 == 0 leaves one finite root -c0/c1
        lin = c2 == 0
        if lin.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                r2 = np.where(lin & (c1 != 0), -c0 / np.where(c1 == 0, 1, c1), r2)
        return np.stack([r1, r2], axis=1)
    # vectorized Aberth across rows
    lead = rows[:, -1].copy()
    small = np.abs(lead) < 1e-300
    lead[small] = 1.0
    cn = rows / lead[:, None]
    radius = 1.0 + np.max(np.abs(cn[:, :-1]), axis=1)
    angles = 2j * np.pi * (np.arange(d) / d + 0.3 / d)
    z = radius[:, None] * np.exp(angles)[None, :]
    dc = cn[:, 1:] * np.arange(1, d + 1)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            pz = np.zeros_like(z)
            for k in range(d, -1, -1):
                pz = pz * z + cn[:, k][:, None]
            dpz = np.zeros_like(z)
            for k in range(d - 1, -1, -1):
                dpz = dpz * z + dc[:, k][:, None]
            newton = pz / np.where(dpz == 0, 1e-300, dpz)
            newton = np.where(np.isfinite(newton), newton, 0.5)
            diff = z[:, :, None] - z[:, None, :]
            idx = np.arange(d)
            diff[:, idx, idx] = np.inf
            s = np.sum(1.0 / diff, axis=2)
            corr = newton / (1.0 - newton * s)
            corr = np.where(np.isfinite(corr), corr, 0.0)
            z = z - corr
            if np.all(np.abs(corr) <= tol * (1.0 + np.abs(z))):
                break
        else:
            raise RootFindingFailure("batched Aberth did not converge")
    return z
