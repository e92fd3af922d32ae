"""Exception types shared across the library.

Each stop rule has one error: a digit or work cap is `CapExceeded` (the
digit cap raised by `projective.check_cap` alone), and an ambiguous
portrait collision is `Inconclusive`.  The CLI exits 2 on any DynamoError.
"""


class DynamoError(Exception):
    """Base class for all library errors."""


class ZeroPoint(DynamoError):
    """Both homogeneous coordinates are zero."""


class DegenerateMap(DynamoError):
    """The homogeneous lift has resultant 0 and does not define a morphism."""


class RootFindingFailure(DynamoError):
    """Complex root iteration failed to converge to the requested tolerance."""


class CapExceeded(DynamoError):
    """A configured cap was exceeded: the decimal digits of an exact coefficient,
    coordinate or working integer, or a work cap such as the period degree or
    the memory of the sampler's branch table: the depth x N table of one
    byte per draw, allocated up front, which with the O(N) samples and
    block-bounded temporaries is what a sampling job holds."""


class NotACycle(DynamoError):
    """The supplied points are not permuted cyclically by the map."""


class SingularCurve(DynamoError):
    """The Weierstrass curve is singular (discriminant zero)."""


class Inconclusive(DynamoError):
    """The portrait was ambiguous: two orbit points close but not certifiably
    equal, or orbifold weights that did not stabilize."""


class DegenerateFiber(DynamoError):
    """A fiber polynomial vanished identically."""


class EliminationFailure(DynamoError):
    """Resultant elimination produced a form that failed point verification."""


class InsufficientPreperiodicSupply(DynamoError):
    """A map has too few rational preperiodic points for the requested trials."""
