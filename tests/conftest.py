"""Shared fixtures: the small menagerie of maps the suite exercises, and
the exact helpers that only tests need."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dynamo
from dynamo.projective import RationalMapLift, form_compose


def run_python(*args, timeout=120):
    """A fresh interpreter with this checkout's dynamo first on its path."""
    src = str(Path(dynamo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def poly_lift(*affine_coeffs):
    """Lift of a polynomial given ascending affine coefficients (F1 = Y^d)."""
    d = len(affine_coeffs) - 1
    f1 = [1] + [0] * d
    return RationalMapLift.make(list(affine_coeffs), f1)


def mobius_conjugate(F, m):
    """Lift of mu^-1 o f o mu for the invertible integer Mobius map mu = (a b / c d)."""
    a, b, c, d = m
    assert a * d - b * c != 0
    # (X, Y) -> (aX + bY, cX + dY), ascending X-power
    t0 = form_compose(F.f0, [b, a], [d, c])
    t1 = form_compose(F.f1, [b, a], [d, c])
    # the inverse acts on the value side through the adjugate matrix
    return RationalMapLift.make([d * u - b * v for u, v in zip(t0, t1)],
                                [-c * u + a * v for u, v in zip(t0, t1)])


def affine_value(p):
    """x/y of a rational point, or None at infinity."""
    return None if p.y == 0 else Fraction(p.x, p.y)


@pytest.fixture
def sq():
    """z^2"""
    return poly_lift(0, 0, 1)


@pytest.fixture
def basilica():
    """z^2 - 1"""
    return poly_lift(-1, 0, 1)


@pytest.fixture
def cheb2():
    """z^2 - 2"""
    return poly_lift(-2, 0, 1)


@pytest.fixture
def zsq_plus_1():
    """z^2 + 1"""
    return poly_lift(1, 0, 1)
