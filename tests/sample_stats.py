"""Statistics the measure tests apply to samples on the circle and the segment."""

import math

import numpy as np

from dynamo.measure import CAP_COUNT


def arc_fractions(angles: np.ndarray, bins: int = CAP_COUNT) -> np.ndarray:
    """Fraction of angles in each of `bins` equal arcs of the circle."""
    idx = np.floor((np.mod(angles, 2.0 * math.pi)) / (2.0 * math.pi) * bins).astype(int)
    idx = np.clip(idx, 0, bins - 1)
    return np.bincount(idx, minlength=bins) / len(angles)


def arc_discrepancy_uniform(angles: np.ndarray, bins: int = CAP_COUNT) -> float:
    """Max deviation of arc masses from the uniform 1/bins."""
    return float(np.max(np.abs(arc_fractions(angles, bins) - 1.0 / bins)))


def segment_distance(values: np.ndarray, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    """Euclidean distance from complex samples to the real segment [lo, hi]."""
    v = np.asarray(values)
    dx = np.maximum(np.maximum(lo - v.real, v.real - hi), 0.0)
    return np.hypot(dx, v.imag)
