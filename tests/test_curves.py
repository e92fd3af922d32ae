"""Curve pushforward by resultant elimination, and curve orbits."""

import hashlib
import json

from dynamo.curves import curve_orbit, curve_pushforward, make_curve
from dynamo.hypersurface import diagonal_surface, graph_surface, hypersurface_to_json

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


def test_pushforward_with_mixed_repeated_factors(sq):
    # the eliminants of (x2 - x1)(x2 - x1 - 1) under (z^2, z^2) have factors
    # of different multiplicities, so the squarefree reduction takes the
    # primitive-PRS fallback; each image must also pass the numeric check
    C = make_curve({(0, 2): 1, (1, 1): -2, (2, 0): 1, (0, 1): -1, (1, 0): 1}, (2, 2))
    bidegrees = []
    for _ in range(3):
        C = curve_pushforward(C, sq, sq)
        bidegrees.append(C.multidegree)
    assert bidegrees == [(3, 3), (5, 5), (9, 9)]


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
