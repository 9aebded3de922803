"""Topological phases of dipole-carrying particles around line charges.

A particle with magnetic-moment coupling g moving along a closed planar
trajectory picks up a phase proportional to the loop integral of the
dual electric field S = (E2, -E1):

    spinor:  phase = -g * Loop(S . dr) = +g * sum_i lambda_i w_i,
    scalar:  phase = +g * Loop(S . dr) = -g * sum_i lambda_i w_i,

where w_i is the signed winding number of the path around charge i
(counter-clockwise positive).  The two species pick up phases equal in
size and opposite in sign.

With the field normalization of the field module, S . dr around one
charge is -(lambda / 2 pi) d(theta), theta the polar angle seen from
the charge.  A straight segment therefore contributes exactly
-(lambda / 2 pi) times the angle it subtends at the charge, and no
quadrature is needed: every quantity here comes from one segments x
charges evaluation of atan2(cross, dot).  Closed paths use the integer
windings, so their phases are exact up to rounding; open interferometer
arms use the summed angles.  The `tol` arguments are validated but
steer nothing.

Sign conventions: the gamma-matrix orientation tag is s = +1
(`GAMMA_CONVENTION_S`), and the spinor/scalar signs above are the
physical results under that tag; outputs carry the tag so downstream
consumers can track it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import EndpointMismatch, ParseError, PointOnPath, SingularPath
from .field import TWO_PI, FieldConfig
from .field import efield  # noqa: F401  bench/spans.py wraps acmoment.phase.efield

if TYPE_CHECKING:
    import numpy as np

# gamma-matrix orientation tag entering the scalar coupling; recorded in
# output metadata, with the species signs fixed to the stated results.
GAMMA_CONVENTION_S = +1

# Points closer to the path than this fraction of its diameter count as
# lying on it (winding undefined, line integral singular).
_PROXIMITY = 1e-12


class Species(Enum):
    """Particle species; the two acquire exactly opposite phases."""

    SPINOR = "spinor"
    SCALAR = "scalar"

    @property
    def winding_sign(self) -> int:
        """Sign of the phase per unit of g * lambda * winding."""
        return +1 if self is Species.SPINOR else -1


@dataclass(frozen=True, eq=False)
class PolylinePath:
    """Ordered planar vertices; closure is implicit (no repeated vertex).

    Open paths are trajectories with distinct ends; closed paths wrap
    from the last vertex back to the first and need at least three
    vertices.
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        import numpy as np

        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("vertices must be an (n >= 2, 2) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if self.closed:
            if v.shape[0] < 3:
                raise ValueError("a closed path needs at least 3 vertices")
            if bool(np.all(v[0] == v[-1])):
                raise ValueError(
                    "closed paths must not repeat the first vertex; closure is implicit"
                )
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "closed", bool(self.closed))

    def segment_endpoints(self):
        """Arrays (P, Q) of segment start/end points, closure included."""
        import numpy as np

        v = self.vertices
        if self.closed:
            return v, np.roll(v, -1, axis=0)
        return v[:-1], v[1:]

    def diameter(self) -> float:
        """Bounding-box diagonal, the length scale for proximity tests."""
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(math.hypot(span[0], span[1]))

    def reverse(self) -> "PolylinePath":
        return PolylinePath(self.vertices[::-1].copy(), self.closed)

    @classmethod
    def from_json(cls, text: str) -> "PolylinePath":
        """Parse {"closed": bool, "vertices": [[x, y], ...]}."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON for path: {exc}") from exc
        if not isinstance(data, dict) or "vertices" not in data or "closed" not in data:
            raise ParseError('path must be an object with "closed" and "vertices"')
        if not isinstance(data["closed"], bool):
            raise ParseError('"closed" must be a boolean')
        try:
            return cls(data["vertices"], data["closed"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"invalid path vertices: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(
            {"closed": self.closed, "vertices": self.vertices.tolist()}
        )


@dataclass(frozen=True)
class PhaseResult:
    """Accumulated phase, per-charge windings, and a rounding bound.

    `error_estimate` bounds the floating-point rounding of `phase`; the
    phase itself is the exact +-g * sum_i lambda_i w_i, with no
    integration error.
    """

    phase: float
    windings: tuple
    error_estimate: float
    species: Species


class FringeShift(NamedTuple):
    delta_phase: float
    contrast: float


def _subtended_angles(path: PolylinePath, points, on_path: Exception):
    """Signed angle (CCW > 0) the path sweeps as seen from each point.

    Each segment subtends atan2(cross, dot) of its end vectors; the
    per-point totals are summed with fsum.  Raises `on_path` when any
    point lies within 1e-12 of the path diameter from a segment, where
    the angle is undefined.
    """
    import numpy as np

    P, Q = path.segment_endpoints()
    a = P[None, :, :] - points[:, None, :]
    b = Q[None, :, :] - points[:, None, :]
    d = Q - P
    L2 = np.einsum("ij,ij->i", d, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(L2 > 0.0, -np.einsum("pik,ik->pi", a, d) / L2, 0.0)
    gap = a + np.clip(t, 0.0, 1.0)[..., None] * d
    clearance = np.sqrt(np.einsum("pik,pik->pi", gap, gap))
    if np.any(clearance <= _PROXIMITY * path.diameter()):
        raise on_path
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    dot = np.einsum("pik,pik->pi", a, b)
    return np.array([math.fsum(row) for row in np.arctan2(cross, dot)])


def _winding(angle: float) -> int:
    return int(round(angle / TWO_PI))


def _charge_angles(path: PolylinePath, config: FieldConfig, tol: float):
    """Charge strengths and the angles the path subtends at each charge."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    angles = _subtended_angles(
        path,
        config.positions(),
        SingularPath("a path segment passes within machine tolerance of a charge"),
    )
    return config.lambdas(), angles


def winding_number(path: PolylinePath, point) -> int:
    """Signed number of times a closed path encircles a point (CCW > 0).

    Computed as the summed signed-angle increment over the vertices,
    divided by 2 pi and rounded to the nearest integer.  Points within
    1e-12 of the path diameter from any segment raise `PointOnPath`.
    """
    if not path.closed:
        raise ValueError("winding_number requires a closed path")
    import numpy as np

    p = np.asarray(point, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise ValueError("point must be a finite 2-vector")
    (angle,) = _subtended_angles(
        path, p[None, :], PointOnPath(f"point {p.tolist()} lies on the path")
    )
    return _winding(angle)


def line_integral_dual(path: PolylinePath, config: FieldConfig, tol: float) -> float:
    """Integral of the dual field S . dr along a polyline path.

    S . dr = -(lambda / 2 pi) d(theta) around each charge, so the value
    is -sum_i lambda_i theta_i / 2 pi, with theta_i the angle the path
    subtends at charge i.  It is exact up to rounding; for a closed
    path it is the quantized -sum_i lambda_i w_i.  `tol` is validated
    but steers nothing.
    """
    lam, angles = _charge_angles(path, config, tol)
    return -math.fsum(lam * angles) / TWO_PI


def ac_phase(
    path: PolylinePath,
    config: FieldConfig,
    g: float,
    species,
    tol: float = 1e-10,
) -> PhaseResult:
    """Topological phase of a closed trajectory around a charge set.

    spinor phase = -g * Loop(S . dr) = +g * sum_i lambda_i w_i; the
    scalar phase is its exact negative.  A single charge of strength
    lambda encircled once counter-clockwise gives +g*lambda for the
    spinor and -g*lambda for the scalar.  The windings are exact
    integers, so the phase is exact up to rounding.
    """
    species = Species(species)
    if not path.closed:
        raise ValueError(
            "ac_phase requires a closed path; for open trajectories only "
            "phase differences are meaningful, see fringe_shift"
        )
    if not math.isfinite(g):
        raise ValueError("g must be finite")
    lam, angles = _charge_angles(path, config, tol)
    windings = tuple(_winding(angle) for angle in angles)
    terms = [lam_i * w for lam_i, w in zip(lam.tolist(), windings)]
    # Each product, the fsum and the scaling by g round once, each by at
    # most half an ulp, i.e. eps/2 of a value bounded by |g| sum|terms|.
    bound = 2.0 * sys.float_info.epsilon * abs(g) * math.fsum(map(abs, terms))
    return PhaseResult(
        phase=species.winding_sign * g * math.fsum(terms),
        windings=windings,
        error_estimate=bound,
        species=species,
    )


def fringe_shift(
    path_a: PolylinePath,
    path_b: PolylinePath,
    config: FieldConfig,
    g: float,
    species,
    tol: float = 1e-10,
) -> FringeShift:
    """Interferometric phase difference between two open arms.

    Both arms must share identical start and end points; the difference
    equals the closed-loop phase of arm A followed by reversed arm B.
    Contrast is cos^2(delta_phase / 2).
    """
    species = Species(species)
    if path_a.closed or path_b.closed:
        raise ValueError("fringe_shift arms must be open paths")
    if not math.isfinite(g):
        raise ValueError("g must be finite")
    same_start = path_a.vertices[0].tolist() == path_b.vertices[0].tolist()
    same_end = path_a.vertices[-1].tolist() == path_b.vertices[-1].tolist()
    if not (same_start and same_end):
        raise EndpointMismatch(
            "interferometer arms must share identical start and end points"
        )
    va = line_integral_dual(path_a, config, tol)
    vb = line_integral_dual(path_b, config, tol)
    delta = -species.winding_sign * g * (va - vb)
    return FringeShift(delta_phase=delta, contrast=math.cos(0.5 * delta) ** 2)
