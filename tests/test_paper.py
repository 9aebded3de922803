"""The paper's chain in code: the static moment sets the phase.

The one-loop gauge-model moment at q^2 = 0 is finite and positive for
every Chern-Simons regulator mass; taken as the Aharonov-Casher
coupling g (in units of its symbolic prefactor), it gives the spinor the
phase +g * sum_i lambda_i w_i around line charges, and the scalar
exactly the opposite phase.
"""

import math
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from acmoment.field import FieldConfig
from acmoment.formfactor import susy_q0_reference
from acmoment.phase import PolylinePath, ac_phase, winding_number

DATA = Path(__file__).parent / "data"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(1e-12, 1e8))
@example(1e-12)
@example(16.0)
@example(1e8)
def test_static_moment_is_finite_and_positive(mcs2):
    value = susy_q0_reference(mcs2)
    assert math.isfinite(value)
    assert value > 0.0


def test_static_moment_sets_opposite_spinor_and_scalar_phases():
    g = susy_q0_reference(1.0)
    path = PolylinePath.from_json((DATA / "hexagon.json").read_text())
    config = FieldConfig.from_json((DATA / "charges_pair.json").read_text())
    windings = [winding_number(path, (c.x, c.y)) for c in config.charges]
    assert windings == [1, 0]
    enclosed = math.fsum(c.lam * w for c, w in zip(config.charges, windings))

    spinor = ac_phase(path, config, g, "spinor")
    scalar = ac_phase(path, config, g, "scalar")
    assert spinor.windings == scalar.windings == tuple(windings)
    assert spinor.phase.hex() == (g * enclosed).hex()
    assert scalar.phase.hex() == (-spinor.phase).hex()
