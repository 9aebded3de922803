"""The grid domain check that construction used before the exact one.

A test-only reference: the denominator in the (u, v) form
A(u) v^2 + B(u) v + C(u), with x = u v, y = v, is minimised over a
64x64 interior grid (exact in v at the quadratic's vertex) and refined
twice in u around the minimiser.  It samples the open triangle, so it
can only miss a minimum, never invent one.
"""

import math

import numpy as np

_V_PROBES = (np.arange(64) + 0.5) / 64.0


def _interior_min(u, q_hat2, B, C):
    A = 1.0 - u * (1.0 - u) * q_hat2
    D = A[:, None] * _V_PROBES ** 2 + B[:, None] * _V_PROBES + C[:, None]
    m = D.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vstar = np.where(A > 0.0, -B / (2.0 * A), -1.0)
        at_vertex = C - B * B / (4.0 * A)
    use = (A > 0.0) & (vstar > 0.0) & (vstar < 1.0)
    return np.where(use, np.minimum(m, at_vertex), m)


def _grid_floor(q_hat2, b_of_u, c_of_u):
    u = (np.arange(64) + 0.5) / 64.0
    width = 1.0 / 64.0
    floor = math.inf
    for _ in range(3):
        m = _interior_min(u, q_hat2, b_of_u(u), c_of_u(u))
        i = int(np.argmin(m))
        floor = min(floor, float(m[i]))
        lo = max(1.0 / 4096.0, float(u[i]) - width)
        hi = min(1.0 - 1.0 / 4096.0, float(u[i]) + width)
        u = np.linspace(lo, hi, 65)
        width /= 16.0
    return floor


def gauge_grid_min(q_hat2, mcs_hat2):
    """Grid minimum of the gauge-model denominator."""
    return _grid_floor(q_hat2, lambda u: -mcs_hat2 * u, lambda u: np.full_like(u, mcs_hat2))


def yukawa_grid_min(q_hat2, ma, mb):
    """Grid minimum of the Yukawa denominator for one mass ordering."""
    b = -(1.0 - (ma * ma - mb * mb))
    return _grid_floor(q_hat2, lambda u: np.full_like(u, b), lambda u: np.full_like(u, mb * mb))
