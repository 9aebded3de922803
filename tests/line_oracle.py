"""Numeric reference for the dual-field line integral.

Integrates S . dr = dual_field(efield(...)) . dr along each segment of a
polyline with adaptive Gauss-Kronrod 7-15, independently of the
angle-sum closed form in `acmoment.phase`.  Pieces that pass close by a
charge are split on geometry before the error estimate is trusted, so
charges should stay a few hundredths of a segment length away from the
path (see `relative_clearance`); nearer than that the recursion grows
quickly.
"""

import math

import numpy as np

from acmoment.field import dual_field, efield
from acmoment import quadrature

NODES_15 = np.asarray(quadrature.NODES_15)
WEIGHTS_K15 = np.asarray(quadrature.WEIGHTS_K15)
WEIGHTS_G7 = np.asarray(quadrature.WEIGHTS_G7)

MAX_DEPTH = 40


def _distance_to_segment(points, A, B):
    """Distance from each of `points` to the segment A-B."""
    d = B - A
    rel = points - A[None, :]
    t = np.clip(rel @ d / float(d @ d), 0.0, 1.0)
    gap = rel - t[:, None] * d[None, :]
    return np.sqrt(np.einsum("ij,ij->i", gap, gap))


def relative_clearance(path, points):
    """Per point, the least distance to a segment in units of its length."""
    P, Q = path.segment_endpoints()
    return np.min([_distance_to_segment(points, A, B) / math.hypot(*(B - A))
                   for A, B in zip(P, Q)], axis=0)


def _gk(config, A, d, a, b):
    """GK 7-15 estimates of Int_a^b S(A + t*d) . d dt."""
    half = 0.5 * (b - a)
    t = 0.5 * (a + b) + half * NODES_15
    vals = dual_field(efield(config, A[None, :] + t[:, None] * d[None, :])) @ d
    kron = half * float(WEIGHTS_K15 @ vals)
    return kron, abs(kron - half * float(WEIGHTS_G7 @ vals))


def _segment(config, A, d, a, b, budget, depth):
    if depth > MAX_DEPTH:
        raise RuntimeError("line oracle: subdivision too deep")
    lo, hi = A + a * d, A + b * d
    # 1/r fields defeat a fixed-order rule on pieces that pass close by
    # a charge; split on geometry first, then on the error estimate.
    near = _distance_to_segment(config.positions(), lo, hi).min()
    if near >= 0.1 * math.hypot(*(hi - lo)):
        value, error = _gk(config, A, d, a, b)
        if error <= budget:
            return value
    mid = 0.5 * (a + b)
    return (_segment(config, A, d, a, mid, 0.5 * budget, depth + 1)
            + _segment(config, A, d, mid, b, 0.5 * budget, depth + 1))


def line_integral(path, config, tol=1e-12):
    """Integral of S . dr along the path, to about `tol` absolute."""
    if not config.charges:
        return 0.0
    P, Q = path.segment_endpoints()
    budget = tol / len(P)
    return math.fsum(_segment(config, A, B - A, 0.0, 1.0, budget, 0)
                     for A, B in zip(P, Q))
