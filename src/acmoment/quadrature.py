"""Deterministic integration on [0, 1] and over the Feynman-parameter triangle.

Production form factors are 1-D: the inner Feynman-parameter integral
has a closed form, which leaves an integral over y on [0, 1].  Three
integrators are provided:

* `integrate_unit_interval` -- the production driver.  Globally adaptive
  bisection of [0, 1] with the embedded Gauss-Kronrod 7-15 rule: the
  Kronrod value is the estimate and |K15 - G7| the local error, and the
  worst interval is halved until the summed error drops below the
  absolute tolerance.  Each point returns the integrand value together
  with the size of the terms that cancelled in computing it, which
  gives every interval a rounding floor; an interval at its floor is
  final, so a tolerance below the integrand's rounding ends in
  `NonConvergence` after a bounded number of evaluations.  It uses
  plain Python floats, only + - * / and sqrt (correctly rounded under
  IEEE 754) and an exactly rounded `math.fsum`, so its results are
  byte-identical on every platform.
* `integrate_triangle` -- the 2-D cubature, kept as an independent
  check of the 1-D reductions.  The triangle T = {0 <= x <= y <= 1} is
  mapped onto the unit square by x = u * v, y = v (dx dy = v du dv),
  which turns corner concentration into a one-sided boundary layer in v,
  and the square is bisected with a tensor Gauss-Kronrod 7-15 rule.
  Integrands that behave like y / (y^2)^{3/2} on T become ~ 1/v, so a
  divergence fails loudly (`NonConvergence`).
* `mc_integrate_triangle` -- plain uniform Monte Carlo over T, a second
  independent check.  Sampling uses the counter-based Philox generator
  keyed on (seed, sample index chunk), so results are bit-identical for
  a given (seed, samples) no matter how the work is scheduled.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, NonFiniteIntegrand

DEFAULT_BUDGET = 10_000_000

# Gauss-Kronrod 7-15 abscissae/weights on [-1, 1] (QUADPACK dqk15 values).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-point grid in ascending order; the 7 Gauss nodes are the
# odd-indexed entries, so both rules share one evaluation array.
NODES_15 = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
WEIGHTS_K15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
WEIGHTS_G7 = np.zeros(15)
WEIGHTS_G7[[1, 13]] = _WG[0]
WEIGHTS_G7[[3, 11]] = _WG[1]
WEIGHTS_G7[[5, 9]] = _WG[2]
WEIGHTS_G7[7] = _WG[3]

_POINTS_PER_CELL = NODES_15.size ** 2

# The same rule as plain Python floats for the 1-D driver: positive
# Kronrod abscissae (descending) with their weights, the centre weights,
# and the Gauss weights of the odd-indexed abscissae.
_ABSCISSAE = tuple(_XGK.tolist())
_KRONROD = tuple(_WGK[:7].tolist())
_KRONROD_CENTRE = float(_WGK[7])
_GAUSS = tuple(_WG[:3].tolist())
_GAUSS_CENTRE = float(_WG[3])
_POINTS_PER_INTERVAL = 15

# A rule's rounding floor is this times its Kronrod sum of point scales
# (the factor of QUADPACK's dqk15).
_ROUNDING = 50.0 * 2.220446049250313e-16


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a dimensionless integral with an error estimate."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.error_estimate >= 0.0:
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


def _as_grid_function(f: Callable[[float, float], float]):
    """Return a wrapper evaluating f on numpy arrays of (x, y) points."""
    xt = np.array([0.3, 0.45])
    yt = np.array([0.6, 0.9])
    try:
        probe = np.asarray(f(xt, yt), dtype=float)
        if probe.shape == xt.shape:
            return lambda x, y: np.asarray(f(x, y), dtype=float)
    except Exception:
        pass
    fv = np.vectorize(f, otypes=[float])
    return lambda x, y: fv(x, y)


def _cell_rule(fg, ua, ub, va, vb):
    """Kronrod and Gauss estimates of the transformed integrand on a cell."""
    hu = 0.5 * (ub - ua)
    hv = 0.5 * (vb - va)
    u = 0.5 * (ua + ub) + hu * NODES_15
    v = 0.5 * (va + vb) + hv * NODES_15
    U, V = np.meshgrid(u, v, indexing="ij")
    vals = fg(U * V, V) * V
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand(
            "integrand returned a non-finite value inside the triangle"
        )
    scale = hu * hv
    kron = scale * (WEIGHTS_K15 @ vals @ WEIGHTS_K15)
    gauss = scale * (WEIGHTS_G7 @ vals @ WEIGHTS_G7)
    return kron, abs(kron - gauss)


def integrate_triangle(
    f: Callable[[float, float], float],
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
    initial_depth: int = 2,
) -> QuadratureResult:
    """Integrate f(x, y) over {0 <= x <= y <= 1} to absolute tolerance tol.

    Tolerance is absolute because the integrals handled here are O(0.1-10).
    Raises `NonConvergence` once more than `budget` integrand evaluations
    would be needed, and `NonFiniteIntegrand` if f produces NaN/inf.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if initial_depth < 0:
        raise ValueError("initial_depth must be >= 0")
    fg = _as_grid_function(f)

    n0 = 2 ** initial_depth
    edges = np.linspace(0.0, 1.0, n0 + 1)
    heap = []
    counter = 0
    evaluations = 0
    for i in range(n0):
        for j in range(n0):
            if evaluations + _POINTS_PER_CELL > budget:
                raise NonConvergence(
                    "evaluation budget exhausted during initial subdivision",
                    evaluations=evaluations,
                )
            val, err = _cell_rule(fg, edges[i], edges[i + 1], edges[j], edges[j + 1])
            evaluations += _POINTS_PER_CELL
            heapq.heappush(heap, (-err, counter, val, err, edges[i], edges[i + 1],
                                  edges[j], edges[j + 1]))
            counter += 1

    total_err = math.fsum(item[3] for item in heap)
    while total_err > tol:
        if evaluations + 4 * _POINTS_PER_CELL > budget:
            value = math.fsum(item[2] for item in heap)
            raise NonConvergence(
                f"tolerance {tol:g} not reached within {budget} evaluations "
                f"(current estimate {value:.6g} +- {total_err:.2g}); the "
                "integrand may be non-integrable at the x=y=0 corner",
                value=value,
                error_estimate=total_err,
                evaluations=evaluations,
            )
        _, _, val, err, ua, ub, va, vb = heapq.heappop(heap)
        total_err -= err
        um = 0.5 * (ua + ub)
        vm = 0.5 * (va + vb)
        for (a, b) in ((ua, um), (um, ub)):
            for (c, d) in ((va, vm), (vm, vb)):
                cval, cerr = _cell_rule(fg, a, b, c, d)
                evaluations += _POINTS_PER_CELL
                heapq.heappush(heap, (-cerr, counter, cval, cerr, a, b, c, d))
                counter += 1
                total_err += cerr

    # Final totals from scratch: the running sums above only steer the
    # refinement and would otherwise accumulate cancellation drift.
    value = math.fsum(item[2] for item in heap)
    error = math.fsum(item[3] for item in heap)
    return QuadratureResult(value=value, error_estimate=error, evaluations=evaluations)


def _interval_rule(f, a, b):
    """Kronrod value, |Kronrod - Gauss| and rounding floor of f on [a, b]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    try:
        fc, sc = f(c)
        kron = _KRONROD_CENTRE * fc
        gauss = _GAUSS_CENTRE * fc
        scale = _KRONROD_CENTRE * sc
        for j in range(7):
            d = h * _ABSCISSAE[j]
            f1, s1 = f(c - d)
            f2, s2 = f(c + d)
            pair = f1 + f2
            kron += _KRONROD[j] * pair
            scale += _KRONROD[j] * (s1 + s2)
            if j & 1:
                gauss += _GAUSS[j >> 1] * pair
    except (ZeroDivisionError, ValueError) as exc:
        # a division by zero or the square root of a negative number
        raise NonFiniteIntegrand(f"integrand failed inside [0, 1]: {exc}") from None
    if not (abs(kron) < math.inf and scale < math.inf):
        raise NonFiniteIntegrand("integrand returned a non-finite value inside [0, 1]")
    return h * kron, abs(h * (kron - gauss)), _ROUNDING * h * scale


def integrate_unit_interval(
    f: Callable[[float], tuple],
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
    initial_depth: int = 2,
    breakpoints=(),
) -> QuadratureResult:
    """Integrate f(y) over [0, 1] to absolute tolerance tol.

    f(y) returns (value, scale): scale >= |value| is the size of the
    terms that cancelled in computing value, so that a few eps * scale
    bounds its rounding error.  Refinement starts from 2**initial_depth
    equal intervals, further split at every breakpoint inside (0, 1).
    An interval whose |K - G| is at or below its rounding floor (50 eps
    times the rule applied to the scales) is final: the floor is its
    error and it is never split again.  Raises `NonConvergence` once more
    than `budget` evaluations would be needed, or when every remaining
    interval is final and the summed error still exceeds tol (the
    tolerance is below the integrand's rounding); raises
    `NonFiniteIntegrand` if f produces NaN/inf or divides by zero.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if initial_depth < 0:
        raise ValueError("initial_depth must be >= 0")
    n0 = 1 << initial_depth
    edges = sorted({k / n0 for k in range(n0 + 1)}
                   | {float(p) for p in breakpoints if 0.0 < p < 1.0})

    heap = []  # (-error, a, b, value): intervals still open to bisection
    final = []  # (value, error): intervals at their rounding floor
    evaluations = 0

    def push(a, b):
        value, err, floor = _interval_rule(f, a, b)
        if err <= floor:
            final.append((value, floor))
            return floor
        heapq.heappush(heap, (-err, a, b, value))
        return err

    for a, b in zip(edges, edges[1:]):
        if evaluations + _POINTS_PER_INTERVAL > budget:
            raise NonConvergence(
                "evaluation budget exhausted during initial subdivision",
                evaluations=evaluations,
            )
        push(a, b)
        evaluations += _POINTS_PER_INTERVAL

    def estimate():
        value = math.fsum([item[3] for item in heap] + [item[0] for item in final])
        error = math.fsum([-item[0] for item in heap] + [item[1] for item in final])
        return value, error

    total = estimate()[1]
    while total > tol:
        if not heap:
            value, error = estimate()
            raise NonConvergence(
                f"tolerance {tol:g} is below the rounding level of the "
                f"integrand (estimate {value:.6g} +- {error:.2g} after "
                f"{evaluations} evaluations)",
                value=value,
                error_estimate=error,
                evaluations=evaluations,
            )
        if evaluations + 2 * _POINTS_PER_INTERVAL > budget:
            value, error = estimate()
            raise NonConvergence(
                f"tolerance {tol:g} not reached within {budget} evaluations "
                f"(current estimate {value:.6g} +- {error:.2g}); the "
                "integrand may be non-integrable",
                value=value,
                error_estimate=error,
                evaluations=evaluations,
            )
        neg_err, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        total += neg_err + push(a, mid) + push(mid, b)
        evaluations += 2 * _POINTS_PER_INTERVAL

    # Final totals from scratch: the running sum above only steers the
    # refinement and would otherwise accumulate cancellation drift.
    value, error = estimate()
    return QuadratureResult(value=value, error_estimate=error, evaluations=evaluations)


_MC_CHUNK = 1 << 20


def mc_integrate_triangle(
    f: Callable[[float, float], float],
    samples: int,
    seed: int,
) -> QuadratureResult:
    """Uniform Monte Carlo estimate of the triangle integral of f.

    A sample is obtained from two Philox uniforms (a, b) as
    (x, y) = (min(a, b), max(a, b)), which is exactly uniform on the
    triangle.  The estimate is area * mean(f) with area = 1/2, and
    `error_estimate` is the one-sigma standard error of that mean.
    Chunk c of the stream starts at Philox counter 2 * c * chunk_size,
    so the draw for sample i never depends on how chunks are scheduled;
    chunk partial sums are reduced in index order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    fg = _as_grid_function(f)

    chunk_sums = []
    chunk_sqsums = []
    for start in range(0, samples, _MC_CHUNK):
        m = min(_MC_CHUNK, samples - start)
        bit = np.random.Philox(key=seed)
        # advance() counts 4-draw Philox blocks; chunk starts are always
        # block-aligned because _MC_CHUNK doubles are a multiple of 4.
        bit.advance((2 * start) // 4)
        u = np.random.Generator(bit).random(2 * m)
        a = u[0::2]
        b = u[1::2]
        x = np.minimum(a, b)
        y = np.maximum(a, b)
        vals = fg(x, y)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand(
                "integrand returned a non-finite value at a Monte Carlo sample"
            )
        chunk_sums.append(float(np.sum(vals)))
        chunk_sqsums.append(float(np.dot(vals, vals)))

    n = samples
    s = math.fsum(chunk_sums)
    s2 = math.fsum(chunk_sqsums)
    value = 0.5 * (s / n)
    if n >= 2:
        variance = max(s2 - s * s / n, 0.0) / (n - 1)
        stderr = 0.5 * math.sqrt(variance / n)
    else:
        stderr = math.inf  # a single sample carries no spread information
    return QuadratureResult(value=value, error_estimate=stderr, evaluations=n)
