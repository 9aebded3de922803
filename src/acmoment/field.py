"""Planar electrostatics of line charges and the dual-field map.

A line charge of strength lambda (charge per unit length) piercing the
plane sources the 2-D Coulomb field

    E(r) = (lambda / 2 pi) * (r - r0) / |r - r0|^2.

The 1/(2 pi) normalization is chosen so that the loop integral of the
dual field S = (E2, -E1) around one charge is exactly
-lambda * (winding number), which gives the phase module an exact
analytic oracle.  Only static, purely electric configurations are
modeled; the field-strength content is then E alone and its planar dual
is the 90-degree rotation (E1, E2) -> (E2, -E1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParseError, SingularPoint

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LineCharge:
    """A single line charge: position in the plane plus strength lambda."""

    x: float
    y: float
    lam: float

    def __post_init__(self):
        for name in ("x", "y", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"LineCharge.{name} must be finite")

    @property
    def position(self) -> np.ndarray:
        import numpy as np

        return np.array([self.x, self.y])


@dataclass(frozen=True)
class FieldConfig:
    """An immutable set of line charges (superposed 2-D Coulomb fields)."""

    charges: tuple

    def __init__(self, charges=()):
        charges = tuple(charges)
        seen = set()
        for c in charges:
            if not isinstance(c, LineCharge):
                raise TypeError("charges must be LineCharge instances")
            if (c.x, c.y) in seen:
                raise ValueError(f"duplicate charge position ({c.x}, {c.y})")
            seen.add((c.x, c.y))
        object.__setattr__(self, "charges", charges)

    def positions(self) -> np.ndarray:
        import numpy as np

        if not self.charges:
            return np.zeros((0, 2))
        return np.array([[c.x, c.y] for c in self.charges])

    def lambdas(self) -> np.ndarray:
        import numpy as np

        return np.array([c.lam for c in self.charges])

    @classmethod
    def from_json(cls, text: str) -> "FieldConfig":
        """Parse {"charges": [{"x": .., "y": .., "lambda": ..}, ...]}."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON for charge set: {exc}") from exc
        if not isinstance(data, dict) or "charges" not in data:
            raise ParseError('charge set must be an object with a "charges" list')
        items = data["charges"]
        if not isinstance(items, list):
            raise ParseError('"charges" must be a list')
        charges = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise ParseError(f"charge #{i} must be an object")
            try:
                charges.append(
                    LineCharge(
                        x=float(item["x"]), y=float(item["y"]), lam=float(item["lambda"])
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(
                    f'charge #{i} needs numeric "x", "y", "lambda": {exc}'
                ) from exc
        try:
            return cls(charges)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(
            {"charges": [{"x": c.x, "y": c.y, "lambda": c.lam} for c in self.charges]}
        )


def efield(config: FieldConfig, point) -> np.ndarray:
    """Superposed electric field of all line charges at one or many points.

    `point` may be a single (2,) position or an (n, 2) batch; the return
    matches the input shape.  Raises `SingularPoint` when any requested
    point coincides exactly with a charge position.
    """
    import numpy as np

    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 2:
        raise ValueError("point must have shape (2,) or (n, 2)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    pos = config.positions()
    if pos.shape[0] == 0:
        out = np.zeros_like(pts)
        return out[0] if single else out
    sep = pts[:, None, :] - pos[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", sep, sep)
    if np.any(r2 == 0.0):
        raise SingularPoint("field evaluation exactly at a charge position")
    coeff = config.lambdas() / TWO_PI
    out = np.einsum("j,ijk->ik", coeff, sep / r2[:, :, None])
    return out[0] if single else out


def dual_field(e) -> np.ndarray:
    """Planar dual of the electric field: (E1, E2) -> (E2, -E1).

    The time component vanishes identically in this static configuration
    and is not represented.  The map is a -90 degree rotation, so it is
    linear, norm-preserving, and squares to -identity.
    """
    import numpy as np

    ev = np.asarray(e, dtype=float)
    return np.stack([ev[..., 1], -ev[..., 0]], axis=-1)
