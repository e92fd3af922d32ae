"""Curve pushforward by resultant elimination, and curve orbits."""

import copy
import hashlib
import json

import numpy as np
import pytest

from dynamo.curves import (
    _chartpoint,
    _residuals,
    _sample_curve_points,
    curve_orbit,
    curve_pushforward,
    make_curve,
)
from dynamo.errors import CapExceeded, EliminationFailure, RootFindingFailure
from dynamo.hypersurface import (
    _multiply_out,
    diagonal_surface,
    graph_surface,
)
from dynamo.projective import CPoint, RationalMapLift, evaluate_cpoint
from dynamo.roots import roots_batch

from json_forms import hypersurface_to_json


def test_diagonal_invariant_under_square(sq):
    D = diagonal_surface()
    image = curve_pushforward(D, sq, sq)
    assert image == D


def test_square_graph_invariant(sq):
    C = graph_surface([0, 0, 1])  # x2 = x1^2
    image = curve_pushforward(C, sq, sq)
    assert image == C


def test_shift_graph_image_oracle(sq):
    # {x2 = x1 + 1} maps to (v - u - 1)^2 = 4u: eliminating x from u = x^2,
    # v = (x + 1)^2 by hand gives
    #   u^2 - 2uv + v^2 - 2u - 2v + 1
    C = graph_surface([1, 1])
    image = curve_pushforward(C, sq, sq)
    expect = make_curve({(2, 0): 1, (1, 1): -2, (0, 2): 1,
                         (1, 0): -2, (0, 1): -2, (0, 0): 1}, (2, 2))
    assert image == expect


def test_diagonal_under_mixed_maps(sq, basilica):
    # (z^2, z^2-1)(diagonal) = {(x^2, x^2 - 1)} = the line v = u - 1
    img = curve_pushforward(diagonal_surface(), sq, basilica)
    expect = make_curve({(0, 1): 1, (1, 0): -1, (0, 0): 1}, (1, 1))
    assert img == expect


def test_pushforward_squarefree_collapse(sq):
    # the diagonal image under (z^2, z^2) arrives as (u - v)^2 before
    # reduction; the result must be the reduced diagonal, not its square
    D = diagonal_surface()
    image = curve_pushforward(D, sq, sq)
    assert image.multidegree == (1, 1)


def test_pushforward_with_mixed_repeated_factors(sq, monkeypatch):
    # the eliminants of (x2 - x1)(x2 - x1 - 1) under (z^2, z^2) have factors
    # of different multiplicities, so the squarefree reduction takes the
    # modular-gcd fallback; each image must also pass the numeric check.
    # The fourth step's (18, 18) eliminant keeps the gcd's cost in view.
    import dynamo.mpoly

    fallbacks = []
    by_gcd = dynamo.mpoly._squarefree_by_gcd

    def fallback(P):
        fallbacks.append((len(P) - 1, len(P[0]) - 1))
        return by_gcd(P)

    monkeypatch.setattr(dynamo.mpoly, "_squarefree_by_gcd", fallback)
    C = make_curve({(0, 2): 1, (1, 1): -2, (2, 0): 1, (0, 1): -1, (1, 0): 1}, (2, 2))
    bidegrees = []
    for _ in range(4):
        C = curve_pushforward(C, sq, sq)
        bidegrees.append(C.multidegree)
    assert bidegrees == [(3, 3), (5, 5), (9, 9), (17, 17)]
    assert (18, 18) in fallbacks


def test_curve_orbit_diagonal_fixed(sq):
    out = curve_orbit(diagonal_surface(), sq, sq, max_iter=2)
    assert out.preperiodic and (out.tail, out.period) == (0, 1)


def test_curve_orbit_square_graph_fixed(sq):
    out = curve_orbit(graph_surface([0, 0, 1]), sq, sq, max_iter=2)
    assert out.preperiodic and (out.tail, out.period) == (0, 1)


def test_curve_orbit_diagonal_fixed_all_powers():
    from dynamo.exceptional import power_map

    for d in range(2, 6):
        F = power_map(d)
        out = curve_orbit(diagonal_surface(), F, F, max_iter=1)
        assert out.preperiodic and (out.tail, out.period) == (0, 1)


def test_curve_orbit_shift_graph_grows(sq):
    out = curve_orbit(graph_surface([1, 1]), sq, sq, max_iter=5)
    assert not out.preperiodic
    degs = out.bidegrees
    assert len(degs) == 6  # the start curve plus five images
    for a, b in zip(degs, degs[1:]):
        assert b[0] > a[0] and b[1] > a[1]


def test_vertical_line_pushforward(sq):
    # {x1 = 2} maps to {x1 = 4}
    line = make_curve({(1, 0): 1, (0, 0): -2}, (1, 0))
    image = curve_pushforward(line, sq, sq)
    assert image == make_curve({(1, 0): 1, (0, 0): -4}, (1, 0))


def test_basilica_pair_graph(basilica):
    # the graph {x2 = f(x1)} maps onto {x2 = f(x1)} under (f, f): invariance
    C = graph_surface([-1, 0, 1])
    out = curve_orbit(C, basilica, basilica, max_iter=2)
    assert out.preperiodic and (out.tail, out.period) == (0, 1)


def test_diagonal_orbit_golden_image(sq, basilica):
    # the (32, 32) image of the diagonal under (z^2, z^2 - 1), six steps on;
    # the digest was recorded from the pseudo-remainder resultant that the
    # modular elimination replaced
    C = diagonal_surface()
    for _ in range(6):
        C = curve_pushforward(C, sq, basilica)
    assert C.multidegree == (32, 32)
    text = json.dumps(hypersurface_to_json(C), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "96deabfba82d1b194fc5db9464ef162d635192147332bde1b4213294dede77c1")


def test_pushforward_bidegree_with_unequal_degrees(sq):
    # (z^2, z^3)(diagonal) = {(x^2, x^3)} = {s^2 = u^3}, of bidegree (3, 2):
    # u has degree g.degree * d1, s has f.degree * d2, and no line at infinity
    from dynamo.exceptional import power_map

    image = curve_pushforward(diagonal_surface(), sq, power_map(3))
    assert image == make_curve({(3, 0): 1, (0, 2): -1}, (3, 2))


def test_pushforward_of_line_with_huge_slope(sq):
    # x2 = 10^80 x1 maps onto x2 = 10^160 x1 through the square (s - c u)^2,
    # whose root needs 10^320 > the float range
    line = make_curve({(0, 1): 1, (1, 0): -(10**80)}, (1, 1))
    image = curve_pushforward(line, sq, sq)
    assert image == make_curve({(0, 1): 1, (1, 0): -(10**160)}, (1, 1))


def _sample_one_row_at_a_time(C, count, rng):
    """The verification sampler as a per-point loop: one draw and one solve per row."""
    pts = []
    guard = 0
    d2 = C.multidegree[1]
    free = 2 if d2 else 1
    while len(pts) < count and guard < 40 * count:
        guard += 1
        z = complex(rng.normal(), rng.normal())
        p1 = CPoint.from_affine(z)
        row = C.fiber_coeff_matrix(free, {3 - free: (p1.x, p1.y)}, 1)
        scale = np.max(np.abs(row))
        if d2 and scale < 1e-12:
            continue
        for r in roots_batch(row / scale)[0]:
            if len(pts) < count:
                pts.append((p1, _chartpoint(r)) if d2 else (_chartpoint(r), p1))
    if len(pts) < count:
        raise EliminationFailure("could not sample enough numeric points on the curve")
    return np.array([[p1.x, p1.y, p2.x, p2.y] for p1, p2 in pts]).T


class _Stream:
    """A fixed list of normal deviates, served one at a time or as an array."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def normal(self, size=None):
        n = 1 if size is None else size
        out = self.values[self.used:self.used + n]
        self.used += n
        return out[0] if size is None else np.array(out)


# (x1 - 1)(x2 - 2): the fiber over x1 = 1 vanishes identically
_DEGENERATE_AT_ONE = make_curve({(1, 1): 1, (1, 0): -2, (0, 1): -1, (0, 0): 2}, (1, 1))

# rows of degree 1, 2 and 8 in x2, then forms without x2 (vertical lines)
_SAMPLED_CURVES = [
    diagonal_surface(),
    graph_surface([1, 1]),
    make_curve({(2, 0): 1, (1, 1): -2, (0, 2): 1, (1, 0): -2, (0, 1): -2, (0, 0): 1}, (2, 2)),
    make_curve({(0, 8): 1, (1, 5): -1, (1, 3): 3, (2, 0): -2, (0, 0): 1}, (2, 8)),
    make_curve({(1, 0): 1, (0, 0): -2}, (1, 0)),
    make_curve({(3, 0): 1, (1, 0): -2, (0, 0): 5}, (3, 0)),
    _DEGENERATE_AT_ONE,
]


@pytest.mark.parametrize("C", _SAMPLED_CURVES, ids=lambda C: str(C.multidegree))
@pytest.mark.parametrize("count", [1, 7, 20])
@pytest.mark.parametrize("seed", [0, 20240808])
def test_batched_sampler_matches_row_by_row_loop(C, count, seed):
    # one normal draw and one roots_batch call must give the points, bit for
    # bit, and leave the generator where the per-row loop leaves it
    rng = np.random.default_rng(seed)
    ref_rng = copy.deepcopy(rng)
    got = _sample_curve_points(C, count, rng)
    want = _sample_one_row_at_a_time(C, count, ref_rng)
    assert got.shape == (4, count)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_batched_sampler_tops_up_degenerate_rows():
    # rows 2 and 3 sit on x1 = 1 and are skipped; the batch must replace them
    # from the same stream and draw no row past the last one it needs
    values = [0.3, -0.7, 1.0, 0.0, 1.0, 0.0, 0.5, 0.2, -1.1, 0.4, 2.0, 2.0]
    new, ref = _Stream(values), _Stream(values)
    got = _sample_curve_points(_DEGENERATE_AT_ONE, 3, new)
    want = _sample_one_row_at_a_time(_DEGENERATE_AT_ONE, 3, ref)
    assert got.tobytes() == want.tobytes()
    assert new.used == ref.used == 10


def test_batched_sampler_gives_up_where_the_loop_does():
    # every row degenerate: both stop after 40 * count draws
    new, ref = _Stream([1.0, 0.0] * 400), _Stream([1.0, 0.0] * 400)
    with pytest.raises(EliminationFailure):
        _sample_curve_points(_DEGENERATE_AT_ONE, 5, new)
    with pytest.raises(EliminationFailure):
        _sample_one_row_at_a_time(_DEGENERATE_AT_ONE, 5, ref)
    assert new.used == ref.used == 400


def test_shift_square_graph_fails_at_the_sixteen_eight_check(sq):
    # the recorded root-solver defect: x2 = x1^2 + 1 under (z^2, z^2) passes
    # four checks, and a degree-8 fiber row of the (16, 8) curve does not
    # converge; one unconverged row still fails the whole check
    C = graph_surface([1, 0, 1])
    bidegrees = []
    for _ in range(4):
        C = curve_pushforward(C, sq, sq)
        bidegrees.append(C.multidegree)
    assert bidegrees == [(2, 1), (4, 2), (8, 4), (16, 8)]
    with pytest.raises(RootFindingFailure):
        curve_pushforward(C, sq, sq)


@pytest.mark.parametrize("k", range(4))
def test_residuals_match_the_term_loop(sq, basilica, k):
    # the dense product sums the image form's terms in another order than the
    # per-point term loop; on true images (residuals near 0) and on a form
    # that is not the image (residuals near 1) they agree to float rounding
    from dynamo.exceptional import power_map

    C, f, g = [(graph_surface([1, 1]), sq, sq),
               (diagonal_surface(), sq, power_map(3)),
               (graph_surface([-1, 0, 1]), basilica, basilica),
               (make_curve({(0, 8): 1, (1, 5): -1, (1, 3): 3, (2, 0): -2, (0, 0): 1},
                           (2, 8)), sq, basilica)][k]
    image = curve_pushforward(C, f, g)
    wrong = make_curve({(e, image.multidegree[1] - e % 2): e + 2 for e in range(3)},
                       (2, image.multidegree[1]))
    pts = _sample_curve_points(C, 20, np.random.default_rng(k))
    for form in (image, wrong):
        scaled = form.scaled_coefficients().items()
        want = []
        for x1, y1, x2, y2 in pts.T:
            u, s = evaluate_cpoint(f, CPoint(x1, y1)), evaluate_cpoint(g, CPoint(x2, y2))
            values = {1: (u.x, u.y), 2: (s.x, s.y)}
            want.append(abs(sum(val for _, val in
                                _multiply_out(scaled, form.multidegree, values))))
        got = _residuals(form, f, g, pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * len(form.terms))
        assert (max(got) > 0.01) == (form is wrong)


def test_curve_orbit_digit_cap_raises_cap_exceeded(monkeypatch):
    # the image of x1 x2 = 1 under (z^2 + 10^12, z^2 + 10^12) has 24-digit
    # coefficients; the cap is the same check as the orbit cap, and it
    # reads the coefficient bound before the first prime
    import dynamo.mpoly

    F = RationalMapLift.make([10**12, 0, 1], [0, 0, 1])
    C = make_curve({(1, 1): 1, (0, 0): -1}, (1, 1))
    primes = []
    eliminant_mod = dynamo.mpoly._eliminant_mod

    def recording(*args):
        primes.append(args[-1])
        return eliminant_mod(*args)

    monkeypatch.setattr(dynamo.mpoly, "_eliminant_mod", recording)
    with pytest.raises(CapExceeded, match="^curve coefficient bound exceeds 5 decimal digits"):
        curve_orbit(C, F, F, cap_digits=5)
    assert primes == []
    assert curve_orbit(C, F, F, max_iter=1).bidegrees
    assert primes
    # the cap reads the bound, not the coefficients: the largest, 10^24 - 1,
    # has 24 digits and the bound 49, so a 30-digit cap refuses the step
    with pytest.raises(CapExceeded, match="^curve coefficient bound exceeds 30 decimal digits"):
        curve_pushforward(C, F, F, cap_digits=30)
    image = curve_pushforward(C, F, F, cap_digits=49)
    assert max(abs(c) for _, c in image.terms) == 10**24 - 1
