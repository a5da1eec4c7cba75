"""Small quadrature toolkit for the invariant-measure checks.

The core rule is tanh-sinh (double-exponential): an open rule whose nodes
crowd toward the endpoints fast enough to absorb integrable power-law
singularities.  To actually resolve those singularities in double precision
the integrand must be evaluated from its exact distance to the endpoint, not
from the rounded abscissa, so the primitive here is
:func:`integrate_de_offsets`, whose integrand receives (distance from a,
distance from b) pairs.  Half-lines are folded onto (0, 1) by a rational
map, turning finite-mass power tails into integrable endpoint
singularities.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "integrate_de_offsets",
    "integrate_half_line_offsets",
]

_DE_TMAX = 6.7  # exp(-2u) underflows and node weights vanish well before this
_DE_MAX_LEVEL = 12  # halvings of the step h = 1: 13 levels, down to h = 2^-12


@functools.cache
def _level_nodes(h, only_odd):
    """Distances-from-endpoint (in units of b-a) and weights for one level,
    built once per (h, only_odd) and shared read-only: h halves from 1, so
    there is one table per refinement level (13, see _DE_MAX_LEVEL)."""
    k = np.arange(1, int(_DE_TMAX / h) + 1)
    if only_odd:
        k = k[k % 2 == 1]
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * u)
    dist = 0.5 * 2.0 * e / (1.0 + e)  # (1 - tanh(u)) / 2, exact for tiny e
    w = 0.5 * math.pi * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    keep = dist > 0.0
    dist, w = dist[keep], w[keep]
    dist.flags.writeable = w.flags.writeable = False
    return dist, w


def integrate_de_offsets(f2, a: float, b: float, tol: float) -> float:
    """Integrate f over (a, b) where f2(d_lo, d_hi) evaluates the integrand
    from its exact distances to the endpoints (arrays).

    Refines by level doubling until the result changes by less than
    tol * (1 + |result|).
    """
    if not (b > a):
        raise ParameterError(f"integration requires b > a, got ({a}, {b})")
    width = b - a

    def level_sum(dist, w):
        near_b = f2(width * (1.0 - dist), width * dist)
        near_a = f2(width * dist, width * (1.0 - dist))
        return float(np.sum((near_a + near_b) * w))

    h = 1.0
    dist, w = _level_nodes(h, only_odd=False)
    acc = float(np.sum(f2(np.array([0.5 * width]), np.array([0.5 * width]))) * 0.5 * math.pi)
    acc += level_sum(dist, w)
    result = acc * h * 0.5 * width

    for _ in range(_DE_MAX_LEVEL):
        h *= 0.5
        dist, w = _level_nodes(h, only_odd=True)
        acc += level_sum(dist, w)
        new = acc * h * 0.5 * width
        if abs(new - result) <= tol * (1.0 + abs(new)):
            return new
        result = new
    return result


def integrate_half_line_offsets(f1, scale: float, tol: float) -> float:
    """Integrate f over a half-line from its anchor point, where f1(d)
    evaluates the integrand from the exact distance d > 0 to the anchor.

    The rational map d = scale*s/(1-s) carries (0,1) onto the half-line; a
    finite-mass power tail becomes an integrable endpoint singularity at
    s = 1 and the anchor singularity stays at s = 0, both of which the
    tanh-sinh rule absorbs.
    """
    if scale <= 0.0:
        raise ParameterError("scale must be positive")

    def g2(d_lo, d_hi):
        # nodes this close to s=1 sit beyond any finite-mass tail; the map
        # overflows there while the true contribution has already vanished
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = scale * d_lo / d_hi
            vals = f1(d) * (scale / d_hi**2)
        return np.where(np.isfinite(vals), vals, 0.0)

    return integrate_de_offsets(g2, 0.0, 1.0, tol=tol)

