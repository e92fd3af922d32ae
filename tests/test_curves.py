"""Curve pushforward by resultant elimination, and curve orbits."""

import hashlib
import json

import pytest

from dynamo.curves import (
    _verify_pushforward,
    curve_orbit,
    curve_pushforward,
    make_curve,
)
from dynamo.errors import CapExceeded, EliminationFailure
from dynamo.exceptional import power_map
from dynamo.hypersurface import diagonal_surface, graph_surface
from dynamo.projective import RationalMapLift

from conftest import poly_lift
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
    # modular-gcd fallback; each image must also pass the exact check.
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


# the curves of the benchmark's harness jobs: x1 = x2, x1 x2 = 1, x2 = x1^2 + 1
# and x2 = x1^2
_BENCH_CURVES = {
    "diag": diagonal_surface(),
    "hyper": make_curve({(1, 1): 1, (0, 0): -1}, (1, 1)),
    "graph": graph_surface([1, 0, 1]),
    "square": graph_surface([0, 0, 1]),
}
_MAPS = {
    "sq": poly_lift(0, 0, 1),
    "basilica": poly_lift(-1, 0, 1),
    "cubic": poly_lift(1, 0, 0, 1),
    "cheb3": poly_lift(0, -3, 0, 1),
    "lattes": RationalMapLift.make([1, 0, 2, 0, 1], [0, -4, 0, 4, 0]),
    "inv": RationalMapLift.make([1, 0, 1], [0, 0, 2]),
}


def _bumped(C, k: int):
    """C with its k-th coefficient raised by 1: not the same curve."""
    return make_curve({e: c + (j == k) for j, (e, c) in enumerate(C.terms)}, C.multidegree)


@pytest.mark.parametrize("curve", sorted(_BENCH_CURVES))
@pytest.mark.parametrize("maps", [("sq", "sq"), ("basilica", "cubic"), ("lattes", "inv"),
                                  ("cheb3", "sq")])
def test_check_accepts_the_image_and_rejects_a_bumped_coefficient(curve, maps):
    C, (f, g) = _BENCH_CURVES[curve], (_MAPS[m] for m in maps)
    image = curve_pushforward(C, f, g)  # runs the check
    for k in range(len(image.terms)):
        with pytest.raises(EliminationFailure, match="pushforward check failed"):
            _verify_pushforward(C, _bumped(image, k), f, g)


# (x1 - 1)(x2 - x1): fixed under (z^2, z^2); its line x1 = 1 shows only in
# the fibers over x2
_LINE_PAIR = make_curve({(1, 1): 1, (2, 0): -1, (0, 1): -1, (1, 0): 1}, (2, 1))


@pytest.mark.parametrize("C, wrong, g", [
    # the mirror u^2 = s^3 of the image s^2 = u^3 of the diagonal under (z^2, z^3)
    (diagonal_surface(), make_curve({(2, 0): 1, (0, 3): -1}, (2, 3)), power_map(3)),
    # (x2 - x1) Y1 is the diagonal plus the line x1 = inf; its image has the
    # factor Y1 (u = inf), which the same terms at bidegree (1, 1) lose, and
    # only the root at infinity of each fiber over x2 shows it
    (make_curve({(0, 1): 1, (1, 0): -1}, (2, 1)), diagonal_surface(), power_map(2)),
    # the image of _LINE_PAIR without that of x1 = 1, alone or times Y1, and
    # of its mirror (x2 - 1)(x1 - x2) without that of x2 = 1
    (_LINE_PAIR, diagonal_surface(), power_map(2)),
    (_LINE_PAIR, make_curve({(0, 1): 1, (1, 0): -1}, (2, 1)), power_map(2)),
    (make_curve({(1, 1): 1, (0, 2): -1, (1, 0): -1, (0, 1): 1}, (1, 2)), diagonal_surface(),
     power_map(2)),
], ids=["swapped-blocks", "bidegree", "missing-line", "missing-line-same-bidegree",
        "missing-horizontal-line"])
def test_check_rejects_a_wrong_form(sq, C, wrong, g):
    assert curve_pushforward(C, sq, g) != wrong
    with pytest.raises(EliminationFailure, match="pushforward check failed"):
        _verify_pushforward(C, wrong, sq, g)


@pytest.mark.parametrize("C, image", [
    # non-reduced: the fibers are squares, and the check reads their squarefree part
    (make_curve({(0, 2): 1, (1, 1): -2, (2, 0): 1}, (2, 2)), diagonal_surface()),
    # two vertical lines x1 = +-1, free of x2, with one image x1 = 1
    (make_curve({(2, 0): 1, (0, 0): -1}, (2, 0)), make_curve({(1, 0): 1, (0, 0): -1}, (1, 0))),
    (_LINE_PAIR, _LINE_PAIR),
    # the diagonal plus the line x1 = inf, whose image is u = inf
    (make_curve({(0, 1): 1, (1, 0): -1}, (2, 1)), make_curve({(0, 1): 1, (1, 0): -1}, (2, 1))),
    # (x1 - 1)(x2 - 2): the fiber over x1 = 1 vanishes identically
    (make_curve({(1, 1): 1, (1, 0): -2, (0, 1): -1, (0, 0): 2}, (1, 1)),
     make_curve({(1, 1): 1, (1, 0): -4, (0, 1): -1, (0, 0): 4}, (1, 1))),
], ids=["square", "vertical", "line-pair", "line-at-infinity", "degenerate-fiber"])
def test_check_accepts_special_curves(sq, C, image):
    assert curve_pushforward(C, sq, sq) == image


def test_shift_square_graph_runs_to_sixty_four_thirty_two(sq):
    # x2 = x1^2 + 1 under (z^2, z^2): a degree-8 fiber row of the (16, 8)
    # curve did not converge in the float check that this exact one replaced
    out = curve_orbit(graph_surface([1, 0, 1]), sq, sq)
    assert not out.preperiodic
    assert out.bidegrees[-2:] == ((32, 16), (64, 32))
    # all seven forms, pinned: batching the primes of an eliminant changes no coefficient
    digest = hashlib.sha256(repr([c.terms for c in out.curves]).encode()).hexdigest()
    assert digest == "c85447a54c774195441d358caa045264db89ca3afca160031131080d02b9db69"


def test_hyperbola_under_chebyshev_runs_to_thirty_two():
    # x1 x2 = 1 under (z^2 - 2, z^2 - 2) ended at the same float check
    cheb2 = poly_lift(-2, 0, 1)
    out = curve_orbit(_BENCH_CURVES["hyper"], cheb2, cheb2, max_iter=6)
    assert not out.preperiodic
    assert out.bidegrees == ((1, 1), (1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32))


def test_curve_orbit_digit_cap_raises_cap_exceeded(monkeypatch):
    # the image of x1 x2 = 1 under (z^2 + 10^12, z^2 + 10^12) has 24-digit
    # coefficients; the cap is the same check as the orbit cap, and it
    # reads the coefficient bound before the first prime
    import dynamo.mpoly

    F = RationalMapLift.make([10**12, 0, 1], [0, 0, 1])
    C = make_curve({(1, 1): 1, (0, 0): -1}, (1, 1))
    primes = []  # every prime handed to the one batched residue pass
    eliminant_mod = dynamo.mpoly._eliminant_mod

    def recording(C, F, G, us, ss, ps):
        primes.extend(ps.tolist())
        return eliminant_mod(C, F, G, us, ss, ps)

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
