"""Root finding: squarefree structure, rational extraction, Aberth iteration."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dynamo.errors import RootFindingFailure
from dynamo.projective import poly_mul
from dynamo.roots import (
    _BLOCK,
    _aberth_block,
    aberth,
    binary_form_roots,
    roots_batch,
    yun_squarefree,
)


def _expand(root_list):
    """Oracle: expand prod (x - r)^m from (root, mult) pairs over Q."""
    coeffs = [Fraction(1)]
    for r, m in root_list:
        for _ in range(m):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * r
            coeffs = nxt
    return coeffs


def test_yun_squarefree_structure():
    # (x-1)^2 (x+2)^3, expanded by the oracle
    coeffs = _expand([(Fraction(1), 2), (Fraction(-2), 3)])
    parts = dict()
    for fac, mult in yun_squarefree(coeffs):
        parts[mult] = fac
    assert set(parts) == {2, 3}
    assert parts[2] in ([-1, 1], [1, -1]) or parts[2] == [-1, 1]
    assert parts[3] in ([2, 1],)
    # random products with mixed multiplicities, as ints and integral Fractions
    rng = random.Random(4)
    for trial in range(60):
        facs = [([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
                 + [rng.choice([-3, -1, 1, 2])], rng.randint(1, 4)) for _ in range(3)]
        facs.append(([rng.randint(-6, 6), rng.choice([-2, 1, 3])], 2))
        c = [1]
        for f, m in facs:
            for _ in range(m):
                c = poly_mul(c, f)
        scale = rng.choice([-6, 1, 5])
        c = [scale * v for v in c]
        if trial % 2:
            c = [Fraction(v) for v in c]
        out = yun_squarefree(c)
        mults = [m for _, m in out]
        assert mults == sorted(set(mults))
        assert all(type(v) is int for fac, _ in out for v in fac)
        assert all(fac[-1] > 0 and math.gcd(*fac) == 1 for fac, _ in out)
        prod = [1]
        for fac, m in out:
            for _ in range(m):
                prod = poly_mul(prod, fac)
        prim = [int(v) // math.gcd(*map(int, c)) for v in c]
        assert prod in (prim, [-v for v in prim])


def test_binary_form_roots_rational_and_multiplicity():
    # (2x - 3)^2 (x + 1) = expand
    coeffs = _expand([(Fraction(3, 2), 2), (Fraction(-1), 1)])
    found = binary_form_roots([int(c * 4) for c in coeffs])
    as_set = {(str(ex), m) for _, m, ex in found if ex is not None}
    assert as_set == {("3/2", 2), ("-1", 1)}


def test_aberth_agrees_with_numpy():
    rng = random.Random(9)
    for _ in range(10):
        coeffs = [rng.randint(-9, 9) for _ in range(6)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        mine = sorted(aberth(coeffs), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        ref = sorted(np.roots(list(reversed(coeffs))),
                     key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-7


def test_aberth_high_degree_cyclotomic_like():
    # x^32 - 1: all roots on the unit circle
    coeffs = [-1] + [0] * 31 + [1]
    roots = aberth(coeffs)
    assert len(roots) == 32
    for z in roots:
        assert abs(abs(z) - 1.0) < 1e-9
        assert abs(z**32 - 1.0) < 1e-7


def test_aberth_overflowing_evaluation_is_silent():
    # the quintic row starts on the circle of radius 1e200, where z^5
    # overflows on the first sweep; only the silence is pinned here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            roots_batch([[1e200, 0, 0, 0, 0, 1]])
        except RootFindingFailure:
            pass


def test_overflowing_rows_do_not_retire_on_half_steps():
    # 1e-5 + 1e160 z + z^3 starts on the circle of radius 1 + 1e160, where
    # z^3 overflows: its 0.5 steps passed the relative test, and the three
    # starts came back as roots.  The true roots are +-1e80 i and -1e-165.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RootFindingFailure):
            roots_batch([[1e-5, 1e160, 0, 1]])


def test_binary_form_roots_counts_infinity():
    # X Y (X - Y)^2: formal degree 4, roots 0, inf, and 1 (double)
    # expand (x)(x-1)^2 -> affine part; coefficient of X^4 is 0 so inf once
    affine = _expand([(Fraction(0), 1), (Fraction(1), 2)])
    coeffs = [int(c) for c in affine] + [0]
    out = binary_form_roots(coeffs)
    assert sum(m for _, m, _ in out) == 4
    eqs = {(str(ex), m) for _, m, ex in out if ex is not None}
    assert eqs == {("0", 1), ("inf", 1), ("1", 2)}


def test_binary_form_roots_huge_coefficients():
    # rational extraction must not attempt to factor huge coefficients; small
    # rational roots are still recovered exactly next to enormous ones
    big = 10**40 + 7
    # (2x - 3)(x + big) = 2x^2 + (2 big - 3)x - 3 big
    coeffs = [-3 * big, 2 * big - 3, 2]
    out = binary_form_roots(coeffs)
    exacts = {str(ex) for _, _, ex in out if ex is not None}
    assert "3/2" in exacts


def test_binary_form_roots_beyond_float_range_is_typed():
    # (2x - 3)(x + 10^400): the squarefree factor has no float coefficients
    with pytest.raises(RootFindingFailure, match="float range"):
        binary_form_roots([-3 * 10**400, 2 * 10**400 - 3, 2])


def test_binary_form_roots_large_integer_root_within_float_precision():
    big = 2**40 + 5
    coeffs = [-big, big - 1, 1]  # (x + big)(x - 1) has roots 1 and -big
    out = binary_form_roots(coeffs)
    exacts = {str(ex) for _, _, ex in out if ex is not None}
    assert exacts == {"1", str(-big)}


def test_roots_batch_quadratics():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    roots = roots_batch(rows)
    vals = rows[:, 0, None] + rows[:, 1, None] * roots + rows[:, 2, None] * roots**2
    assert np.all(np.abs(vals) < 1e-8)


def test_roots_batch_quartics():
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
    roots = roots_batch(rows)
    horner = np.zeros_like(roots)
    for k in range(4, -1, -1):
        horner = horner * roots + rows[:, k][:, None]
    assert np.all(np.abs(horner) < 1e-6)


def test_roots_batch_linear_degenerate_quadratic():
    rows = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]], dtype=complex)
    roots = roots_batch(rows)
    assert np.isinf(np.abs(roots[0])).any()
    finite0 = roots[0][np.isfinite(roots[0])]
    assert np.allclose(finite0, [-2.0])
    assert np.allclose(np.sort_complex(roots[1]), [-1j, 1j])


# quadratic rows for every branch of the closed form: c2 = 0 with c1 != 0 and
# with c1 = 0, t = 0 (a double root at 0), all zeros, and signed zeros
DEGENERATE_QUADRATICS = [[2, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, -0.0],
                         [-0.0, -0.0, 1], [complex(0, -0.0), -0.0, -0.0], [-0.0, 3, -0.0],
                         [1, complex(-0.0, 2), 0], [4, 4, 1]]


@pytest.mark.parametrize("d", range(1, 9))
def test_roots_batch_reads_rows_and_columns_alike(d):
    # a C-ordered (N, d+1) input and the transposed view of a (d+1, N) array
    # give the same bytes; the result is (N, d), and ravel() is in row order
    rng = np.random.default_rng(60 + d)
    rows = _random_rows(rng, 300, d)
    if d == 2:
        rows[:len(DEGENERATE_QUADRATICS)] = DEGENERATE_QUADRATICS
    if d == 1:
        rows[:4] = [[1, 0], [0, 0], [-0.0, 1], [2, -0.0]]
    cols = np.ascontiguousarray(rows.T)
    assert rows.flags.c_contiguous and not cols.T.flags.c_contiguous
    by_rows, by_cols = roots_batch(rows), roots_batch(cols.T)
    assert by_rows.shape == by_cols.shape == (300, d)
    assert by_rows.tobytes() == by_cols.tobytes()
    flat = by_cols.ravel()
    for r in (0, 1, 150, 299):
        assert flat[r * d:(r + 1) * d].tobytes() == by_cols[r].tobytes()


def _random_rows(rng, n, d):
    rows = rng.normal(size=(n, d + 1)) + 1j * rng.normal(size=(n, d + 1))
    rows[::7, -1] *= 1e-12  # a tiny leading coefficient puts one root near infinity
    return rows


def _assert_matches_numpy(rows, roots):
    for row, got in zip(rows, roots):
        ref = np.sort_complex(np.roots(row[::-1]))
        assert np.all(np.abs(np.sort_complex(got) - ref) <= 1e-8 * np.abs(ref))


def test_roots_batch_matches_numpy_for_degrees_3_to_8():
    rng = np.random.default_rng(21)
    for d in range(3, 9):
        rows = _random_rows(rng, 50, d)
        _assert_matches_numpy(rows, roots_batch(rows))


def test_roots_batch_across_block_boundaries():
    rng = np.random.default_rng(22)
    n = 2 * _BLOCK + 17
    rows = _random_rows(rng, n, 3)
    roots = roots_batch(rows)
    assert roots.shape == (n, 3)
    _assert_matches_numpy(rows, roots)
    for lo in (_BLOCK - 2, 2 * _BLOCK - 2):
        assert roots_batch(rows[lo:lo + 4]).tobytes() == roots[lo:lo + 4].tobytes()


def test_roots_batch_rows_are_independent():
    # a converged row stops moving, so batch-mates cannot change its bits
    rng = np.random.default_rng(23)
    for d in (3, 4, 8):
        rows = _random_rows(rng, 30, d)
        single = np.concatenate([roots_batch(rows[i:i + 1]) for i in range(len(rows))])
        assert roots_batch(rows).tobytes() == single.tobytes()


# the fiber row of x2 = x1^2 + 1 that the curve sampler meets under (z^2, z^2)
_STUCK_ROW = [
    -2.931389459699747e-15 + 7.630463301935006e-15j,
    -7.996034943499936e-06 - 5.00962945126077e-05j,
    0.3721944333177387 - 0.7904722657368621j,
    0.9322482772707695 + 0.3618192221616791j,
    0.005456319251236135 + 0.028739010107794657j,
    -1.9091279203903938e-05 + 9.506366014867832e-06j,
    -2.0735749491772603e-09 - 1.8025497378580797e-09j,
    2.871593506098031e-14 - 7.627042701555743e-14j,
    6.67215831978077e-19 + 0j,
]


def test_roots_batch_one_stuck_row_fails_the_batch():
    rng = np.random.default_rng(24)
    good = rng.normal(size=(40, 9)) + 1j * rng.normal(size=(40, 9))
    roots_batch(good)
    rows = np.vstack([good[:20], [_STUCK_ROW], good[20:]])
    with pytest.raises(RootFindingFailure, match="^batched Aberth did not converge$"):
        roots_batch(rows)


# the fiber row of T3 = z^3 - 3z over t ~ 2 that the sampler meets at N = 20 000,
# seed 0: its roots are 2 and -1 +- 9e-8, where a 1e-10 relative correction is
# below double resolution
_NEAR_DOUBLE_ROW = [-1.9999999999999742 + 2.649063320484152e-16j, -3, 0, 1]


def test_roots_batch_accepts_a_stuck_row_by_its_backward_error():
    from dynamo.roots import (_BATCH_MAX_ITER, _BATCH_TOL, _block_starts, _horner_ratio,
                              aberth_sweeps)

    cn = np.array(_NEAR_DOUBLE_ROW, dtype=complex)[:, None]
    z, _ = _block_starts(cn, np.zeros(1, dtype=bool), _BATCH_TOL)
    _, stuck = aberth_sweeps(_horner_ratio(cn), z, _BATCH_TOL, _BATCH_MAX_ITER)
    assert stuck.tolist() == [0]
    rng = np.random.default_rng(11)
    good = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    roots = roots_batch(np.vstack([good[:10], [_NEAR_DOUBLE_ROW], good[10:]]))
    # the rows that retire keep their bits
    assert roots[np.arange(31) != 10].tobytes() == roots_batch(good).tobytes()
    # against the roots to 40 digits: a near-double pair keeps about half its
    # digits, still enough to split it by 1.9e-7
    want = [-1.0000000926604095 - 4.764824e-10j, -0.9999999073395876 + 4.764824e-10j, 2]
    got = np.sort_complex(roots[10])
    assert np.allclose(got, want, rtol=0, atol=1e-9)
    # every root is exact for coefficients within a few roundings of the row's
    c = np.array(_NEAR_DOUBLE_ROW)
    for r in got:
        residual = abs(np.polyval(c[::-1], r))
        assert residual <= 12 * np.finfo(float).eps * np.polyval(np.abs(c[::-1]), abs(r))


def test_binary_form_roots_solves_each_factor_once(monkeypatch):
    import dynamo.roots
    from dynamo.projective import CPoint

    calls = []
    real = dynamo.roots.aberth

    def counting(coeffs, tol=1e-12):
        calls.append(len(coeffs) - 1)
        return real(coeffs, tol=tol)

    monkeypatch.setattr(dynamo.roots, "aberth", counting)
    # x^4 + x + 1: squarefree, no rational root
    found = binary_form_roots([1, 1, 0, 0, 1])
    assert calls == [4]
    want = [CPoint.from_affine(z) for z in real([1, 1, 0, 0, 1])]
    assert [(p.x, p.y) for p, _, _ in found] == [(p.x, p.y) for p in want]
    # (x^2 + 1)(x - 2)^2: each Yun factor solved once, the linear one exactly
    calls.clear()
    found = binary_form_roots([4, -4, 5, -4, 1])
    assert calls == [2]
    assert {(str(ex), m) for _, m, ex in found if ex is not None} == {("2", 2)}
    # (x^2 - 2)(x - 3): one factor, one solve, the rational root labelled in place
    calls.clear()
    found = binary_form_roots([6, -2, -3, 1])
    assert calls == [3]
    assert [str(ex) for _, _, ex in found if ex is not None] == ["3"]
    assert sorted(p.affine().real for p, _, ex in found if ex is None) == pytest.approx(
        [-2**0.5, 2**0.5])


def test_rational_root_verifies_exactly():
    from dynamo.roots import rational_root

    c = [-3, 2]  # 2x - 3
    assert rational_root(c, 1.5 + 1e-13j) == Fraction(3, 2)
    assert rational_root(c, 1.5 + 1e-3j) is None  # not near the real axis
    assert rational_root([-2, 0, 1], 2**0.5) is None  # irrational
    assert rational_root([0, 1, 1], 0.0) == 0
    assert rational_root([1, 1, 1], 0.0) is None
    # a non-finite approximation has no nearest rational
    assert rational_root(c, complex(math.inf, 0.0)) is None
    assert rational_root(c, complex(math.nan, 0.0)) is None


def test_aberth_sweeps_takes_any_newton_ratio():
    from dynamo.roots import aberth_sweeps

    # z^5 - 1 and z^5 - 2 through their ratios alone, from starts off their
    # circles; the columns retire at different sweeps
    t = np.array([1.0, 2.0])
    widths = []

    def ratio(z, live):
        widths.append(len(live))
        return (z**5 - t[live]) / (5 * z**4)

    starts = np.exp(2j * np.pi * (np.arange(5) + 0.3) / 5)[:, None] * np.array([1.5, 40.0])
    z, stuck = aberth_sweeps(ratio, starts)
    assert widths[0] == 2 and widths[-1] == 1 and stuck.size == 0
    for k in range(2):
        assert np.allclose(np.sort_complex(z[:, k] ** 5), np.full(5, t[k]), atol=1e-12)
        assert min(abs(a - b) for i, a in enumerate(z[:, k]) for b in z[i + 1:, k]) > 0.5
        alone, _ = aberth_sweeps(lambda w, live: ratio(w, live + k), starts[:, k:k + 1])
        assert np.array_equal(alone[:, 0], z[:, k])


def test_aberth_starts_on_the_newton_polygon():
    # 1e-5 + 1e160 z + z^3: the circle of radius 1 + 1e160 overflowed the
    # evaluation, and the sweeps stopped after max_iter; the polygon starts
    # lie on the circles of the roots -1e-165 and +-1e80 i
    want = np.array([-1e-165, 1e80j, -1e80j])
    got = np.array(aberth([1e-5, 1e160, 0, 1]))
    dist = np.abs(got[:, None] - want[None, :])
    assert np.all(np.min(dist, axis=0) <= 1e-12 * (1 + np.abs(want)))
    assert sorted(np.argmin(dist, axis=0).tolist()) == [0, 1, 2]
    # z^3 - z: the root at 0, which has no polygon edge, is divided out first
    assert np.allclose(np.sort_complex(aberth([0, -1, 0, 1])), [-1, 0, 1], atol=1e-12)


def test_polygon_starts_follow_the_root_moduli():
    from dynamo.roots import polygon_starts

    # (x - 10^-3)(x - 1)(x - 10^3) expanded: one start on each of three circles
    c = [-1, 1001001 * 10**-3, -1001001 * 10**-3, 1]
    c = [round(v * 1000) for v in c]
    radii = sorted(abs(polygon_starts(c)))
    assert radii == pytest.approx([1e-3, 1.0, 1e3], rel=0.01)
    # coefficients beyond the float range still give finite starts
    assert np.all(np.isfinite(polygon_starts([10**400, 0, 1])))


# -- closed-form Aberth starts for degrees 3 and 4 ----------------------------

def _monic_columns(rows):
    rows = np.asarray(rows, dtype=complex)
    return np.ascontiguousarray((rows / rows[:, -1:]).T)


def _starts(rows, tol=1e-10):
    """The starts (N, d) of each row, and whether they are its closed-form roots."""
    from dynamo.roots import _block_starts

    cn = _monic_columns(rows)
    z, closed = _block_starts(cn, np.zeros(cn.shape[1], dtype=bool), tol)
    return z.T, closed


def _assert_same_roots(got, want, tol):
    """Each wanted root has a computed one within tol * (1 + |root|), one to one."""
    assert len(got) == len(want)
    dist = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    assert np.all(np.min(dist, axis=0) <= tol * (1 + np.abs(want)))
    assert len(set(np.argmin(dist, axis=0).tolist())) == len(want)


def _on_circle(rows):
    from dynamo.roots import _circle_starts

    return _circle_starts(_monic_columns(rows)).T


def test_closed_form_starts_match_numpy_for_cubics_and_quartics():
    rng = np.random.default_rng(31)
    for d in (3, 4):
        rows = rng.normal(size=(200, d + 1)) + 1j * rng.normal(size=(200, d + 1))
        starts, closed = _starts(rows)
        assert closed.all()
        _assert_matches_numpy(rows, starts)


def test_closed_form_starts_for_pure_powers():
    # z^3 - w and z^4 - w: the starts are the d-th roots of w
    rng = np.random.default_rng(32)
    w = rng.normal(size=50) + 1j * rng.normal(size=50)
    for d in (3, 4):
        rows = np.zeros((50, d + 1), dtype=complex)
        rows[:, 0], rows[:, d] = -w, 1.0
        starts, closed = _starts(rows)
        assert closed.all()
        assert np.max(np.abs(starts**d - w[:, None])) <= 1e-12 * np.max(np.abs(w))
        _assert_matches_numpy(rows, starts)
        swept = _aberth_block(rows.T, 1e-10, max_iter=1).T
        assert np.max(np.abs(swept - starts)) <= 1e-12


def test_multiple_roots_fall_back_to_the_circle():
    # (z - 1)^3 has no finite Cardano starts, and (z^2 + 1)^2 gives the
    # double roots twice; both rows start on the circle and still converge
    rows = np.array([[-1, 3, -3, 1]], dtype=complex)
    starts, closed = _starts(rows)
    assert np.array_equal(starts, _on_circle(rows)) and not closed.any()
    assert np.max(np.abs(roots_batch(rows) - 1.0)) < 1e-4
    rows = np.array([[1, 0, 2, 0, 1]], dtype=complex)
    starts, closed = _starts(rows)
    assert np.array_equal(starts, _on_circle(rows)) and not closed.any()
    roots = np.sort_complex(roots_batch(rows)[0])
    assert np.allclose(roots, [-1j, -1j, 1j, 1j], atol=1e-6)


def test_overflowing_starts_fall_back_to_the_circle():
    from dynamo.roots import _quartic_roots

    # z^4 + 1e25 z^3 + 1: the Ferrari resolvent overflows
    rows = np.array([[1, 0, 0, 1e25, 1]], dtype=complex)
    with np.errstate(all="ignore"):
        raw = _quartic_roots(*_monic_columns(rows)[3::-1])
    assert not np.all(np.isfinite(raw))
    starts, closed = _starts(rows)
    assert np.array_equal(starts, _on_circle(rows)) and not closed.any()
    small = (1e-25) ** (1 / 3) * np.exp(1j * np.pi * np.array([-1, 1, 3]) / 3)
    _assert_same_roots(roots_batch(rows)[0], np.concatenate([[-1e25], small]), 1e-12)


def test_coincident_starts_off_a_root_fall_back_to_the_circle():
    from dynamo.roots import _cubic_roots

    # z^3 - 3e8 z^2 - z - 3: the shift by 1e8 rounds both small roots of
    # Cardano to 0, while the true ones are about +-1e-4 i.  From those
    # starts the Aberth sum is infinite and the sweep would stop at once.
    rows = np.array([[-3, -1, -3e8, 1]], dtype=complex)
    raw = _cubic_roots(*_monic_columns(rows)[2::-1])[:, 0]
    assert raw[1] == raw[2] == 0
    starts, closed = _starts(rows)
    assert np.array_equal(starts, _on_circle(rows)) and not closed.any()
    _assert_same_roots(roots_batch(rows)[0], np.roots(rows[0, ::-1]), 1e-12)


def test_fiber_rows_converge_in_one_sweep():
    # fibers z^3 + 1 - w and Lattes (z^2 + 1)^2 - 4 w (z^3 - z) over targets
    # w in the unit disk: the closed-form starts already pass the test
    rng = np.random.default_rng(33)
    w = 0.7 * (rng.random(300) * np.exp(2j * np.pi * rng.random(300)))
    cubic = np.stack([1 - w, 0 * w, 0 * w, 1 + 0 * w], axis=1)
    lattes = np.stack([1 + 0 * w, 4 * w, 2 + 0 * w, -4 * w, 1 + 0 * w], axis=1)
    for rows in (cubic, lattes):
        roots = _aberth_block(rows.T, 1e-10, max_iter=1).T
        _assert_matches_numpy(rows, roots)


# -- closed-form columns accepted on one Newton correction ----------------------

def _recording_sweeps(monkeypatch):
    """Patch `aberth_sweeps` to record the starts (d, m) of every call."""
    import dynamo.roots

    calls = []
    real = dynamo.roots.aberth_sweeps

    def recording(ratio, z, *args):
        calls.append(np.array(z))
        return real(ratio, z, *args)

    monkeypatch.setattr(dynamo.roots, "aberth_sweeps", recording)
    return calls


@pytest.mark.parametrize("d", [3, 4])
def test_newton_acceptance_matches_the_sweeps_from_the_same_starts(monkeypatch, d):
    from dynamo.roots import _block_starts, _horner_ratio, aberth_sweeps

    rng = np.random.default_rng(36 + d)
    rows = _random_rows(rng, 400, d)
    cn = _monic_columns(rows)
    z, closed = _block_starts(cn, np.zeros(cn.shape[1], dtype=bool), 1e-10)
    want = aberth_sweeps(_horner_ratio(cn), z, 1e-10, 120)[0].T
    calls = _recording_sweeps(monkeypatch)
    got = roots_batch(rows)
    assert np.all(np.abs(got - want) <= 1e-14 * (1 + np.abs(want)))
    # both paths run: every row starts from its closed form, the rows with a
    # root near infinity (every seventh) fail the Newton test and are swept,
    # and the others are accepted
    assert closed.all()
    assert len(calls) == 1 and calls[0].tobytes() == z[:, ::7].tobytes()


def test_failed_newton_tests_reach_the_sweeps(monkeypatch):
    # row 2 has coincident closed-form starts (see above); rows 4 and 5 get an
    # infinite and a NaN first Newton ratio, which are failures, not passes
    import dynamo.roots

    rng = np.random.default_rng(38)
    rows = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    rows[2] = [-3, -1, -3e8, 1]
    real_ratio = dynamo.roots._horner_ratio

    def poisoned(cn):
        ratio = real_ratio(cn)
        first = [True]

        def first_poisoned(z, live):
            out = ratio(z, live)
            if first:
                first.clear()
                out[1, 4], out[0, 5] = complex(np.inf, 0.0), complex(np.nan, 0.0)
            return out

        return first_poisoned

    monkeypatch.setattr(dynamo.roots, "_horner_ratio", poisoned)
    calls = _recording_sweeps(monkeypatch)
    got = roots_batch(rows)
    starts, closed = _starts(rows)
    assert closed.tolist() == [True, True, False, True, True, True, True]
    assert len(calls) == 1
    assert calls[0].T.tobytes() == starts[[2, 4, 5]].tobytes()
    _assert_matches_numpy(rows, got)


def test_linear_factor_root_is_exact():
    # 10^13 z - 1: its root 1/10^13 has a denominator beyond the rational
    # reconstruction's 10^12, yet it is exact
    (cp, mult, ex), = binary_form_roots([-1, 10**13])
    assert str(ex) == "1/10000000000000" and mult == 1
    assert cp.affine() == pytest.approx(1e-13, rel=1e-15)
    # a repeated linear factor with coefficients past the float range
    big = 10**400 + 1
    out = binary_form_roots([big * big, 4 * big, 4])  # (big + 2z)^2
    assert [(str(ex), m) for _, m, ex in out] == [(f"-{big}/2", 2)]


def test_linear_factor_needs_no_solver(monkeypatch):
    import dynamo.roots

    def fail(*args, **kwargs):
        raise AssertionError("a linear factor reached a solver")

    for name in ("aberth", "poly_gcd", "rational_root"):
        monkeypatch.setattr(dynamo.roots, name, fail)
    assert dynamo.roots.yun_squarefree([6, -4]) == [([3, -2], 1)]
    assert [str(ex) for _, _, ex in binary_form_roots([0, 6, -4, 0])] == ["inf", "0", "3/2"]


def _to_chart_entrywise(z):
    """The chart form with every entry tested for finiteness, the reference
    for `to_chart`'s one-sum shortcut."""
    z = z.copy()
    infinite = ~np.isfinite(z)
    invs = np.abs(z) > 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z[invs] = 1.0 / z[invs]
    z[infinite] = 0.0
    return z, invs | infinite


@pytest.mark.parametrize("order", ["C", "F"])
def test_to_chart_non_finite_and_overflowing_sums(order):
    from dynamo.roots import to_chart

    big = np.finfo(float).max
    rows = [
        [0.5 + 0.5j, 3.0 - 2.0j],                      # finite: the one-sum path
        [complex(np.inf, 0.0), 0.25j],                 # infinity
        [complex(-np.inf, np.nan), 2.0],
        [complex(np.nan, np.nan), -0.5],               # nan
        [complex(0.5, np.nan), complex(np.nan, 3.0)],
        [complex(big, 0.0), complex(big, big)],        # finite, but the sum overflows
        [complex(-big, 1.0), complex(0.0, -big)],
        [complex(big, 0.0), complex(big, 1.0)],
        [complex(np.inf, np.inf), complex(1e-300, 0.0)],
    ]
    for picked in (rows[:1], rows[:2], rows[6:8], rows[5:8], rows):
        z = np.array(picked, dtype=complex, order=order)
        # the sum's overflow is silent; the reciprocal of big + big j overflows
        # as it did before the shortcut
        with np.errstate(over="ignore" if len(picked) > 2 else "warn"):
            want_v, want_i = _to_chart_entrywise(z)
            got_v, got_i = to_chart(z.copy(order=order))
        assert got_v.tobytes() == want_v.tobytes()  # bits, signed zeros included
        assert np.array_equal(got_i, want_i)
