import math

import numpy as np
import pytest

from conftest import half_circle_arm, regular_polygon, ring_loop
from line_oracle import line_integral, relative_clearance

from acmoment.errors import (
    EndpointMismatch,
    ParseError,
    PointOnPath,
    SingularPath,
)
from acmoment.field import FieldConfig, LineCharge
from acmoment.phase import (
    GAMMA_CONVENTION_S,
    PolylinePath,
    Species,
    ac_phase,
    fringe_shift,
    line_integral_dual,
    winding_number,
)

UNIT_SQUARE = PolylinePath([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]],
                           closed=True)


# ------------------------------------------------------------------ paths

def test_path_validation():
    with pytest.raises(ValueError):
        PolylinePath([[0.0, 0.0]], closed=False)
    with pytest.raises(ValueError):
        PolylinePath([[0.0, 0.0], [1.0, 0.0]], closed=True)
    with pytest.raises(ValueError):
        PolylinePath([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], closed=True)
    with pytest.raises(ValueError):
        PolylinePath([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]], closed=False)


def test_path_json_round_trip():
    path = regular_polygon(8, radius=2.0)
    again = PolylinePath.from_json(path.to_json())
    assert again.closed == path.closed
    assert np.array_equal(again.vertices, path.vertices)


@pytest.mark.parametrize(
    "text",
    [
        "{bad",
        "[]",
        '{"vertices": [[0, 0], [1, 1]]}',
        '{"closed": "yes", "vertices": [[0, 0], [1, 1], [0, 1]]}',
        '{"closed": true, "vertices": [[0, 0], [1, 1]]}',
        '{"closed": false, "vertices": [[0], [1, 1]]}',
    ],
)
def test_path_json_schema_violations(text):
    with pytest.raises(ParseError):
        PolylinePath.from_json(text)


# ---------------------------------------------------------------- winding

def test_winding_unit_square():
    assert winding_number(UNIT_SQUARE, [0.0, 0.0]) == 1
    assert winding_number(UNIT_SQUARE.reverse(), [0.0, 0.0]) == -1


def test_winding_distant_square_is_zero():
    shifted = PolylinePath(UNIT_SQUARE.vertices + 10.0, closed=True)
    assert winding_number(shifted, [0.0, 0.0]) == 0


@pytest.mark.parametrize("w", [-3, -2, 2, 3])
def test_winding_multiple_turns(w):
    rng = np.random.default_rng(abs(w))
    loop = ring_loop(rng, w)
    assert winding_number(loop, [0.0, 0.0]) == w


def test_winding_point_on_path():
    with pytest.raises(PointOnPath):
        winding_number(UNIT_SQUARE, [1.0, 0.0])
    with pytest.raises(PointOnPath):
        winding_number(UNIT_SQUARE, [1.0, 1.0])


def test_winding_requires_closed_path():
    open_path = PolylinePath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], closed=False)
    with pytest.raises(ValueError):
        winding_number(open_path, [0.5, 0.25])


# ---------------------------------------------------------- line integral

def test_loop_integral_single_charge():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 2.5)])
    circle = regular_polygon(256)
    value = line_integral_dual(circle, cfg, 1e-10)
    assert abs(value - (-2.5)) <= 1e-10


def test_loop_integral_empty_config():
    assert line_integral_dual(regular_polygon(64), FieldConfig([]), 1e-10) == 0.0


def test_loop_integral_ignores_distant_charge():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 1.3), LineCharge(5.0, 0.0, -0.7)])
    value = line_integral_dual(regular_polygon(256), cfg, 1e-10)
    assert abs(value - (-1.3)) <= 1e-10


def test_path_through_charge_is_singular():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 1.0)])
    through = PolylinePath([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
                           closed=True)
    with pytest.raises(SingularPath):
        line_integral_dual(through, cfg, 1e-8)


def test_integral_tol_validation():
    with pytest.raises(ValueError):
        line_integral_dual(regular_polygon(16), FieldConfig([]), 0.0)


# --------------------------------------------------------------- ac_phase

def test_spinor_and_scalar_reference_phases():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 3.0)])
    circle = regular_polygon(128)
    spinor = ac_phase(circle, cfg, 2.0, "spinor", 1e-10)
    scalar = ac_phase(circle, cfg, 2.0, Species.SCALAR, 1e-10)
    assert abs(spinor.phase - 6.0) <= 1e-9
    assert spinor.windings == (1,)
    assert scalar.phase == -spinor.phase
    assert spinor.error_estimate >= 0.0
    assert GAMMA_CONVENTION_S == 1


def test_wild_star_loop_is_topological():
    # strongly non-circular loop with the same winding gives the same phase
    rng = np.random.default_rng(3)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 48))
    radius = rng.uniform(0.4, 3.0, 48)
    star = PolylinePath(
        np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1),
        closed=True,
    )
    cfg = FieldConfig([LineCharge(0.0, 0.0, 3.0)])
    res = ac_phase(star, cfg, 2.0, "spinor", tol=1e-9)
    assert abs(res.phase - 6.0) <= 1e-8


def test_phase_requires_closed_path():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 1.0)])
    arm = half_circle_arm(upper=True)
    with pytest.raises(ValueError):
        ac_phase(arm, cfg, 1.0, "spinor", 1e-8)


def test_phase_orientation_reversal():
    rng = np.random.default_rng(9)
    loop = ring_loop(rng, 2)
    cfg = FieldConfig([LineCharge(0.05, -0.1, 1.7)])
    fwd = ac_phase(loop, cfg, 1.3, "spinor", 1e-10)
    bwd = ac_phase(loop.reverse(), cfg, 1.3, "spinor", 1e-10)
    assert abs(fwd.phase + bwd.phase) <= 1e-12
    assert bwd.windings == (-2,)


def test_phase_additivity_of_concatenated_loops():
    loop1 = np.array([[0.5, 0.0], [1.5, 0.0], [1.5, 1.0], [0.5, 1.0]])
    loop2 = np.array([[-0.5, 0.0], [-0.5, -1.0], [-1.5, -1.0], [-1.5, 0.0]])
    cfg = FieldConfig([LineCharge(1.0, 0.5, 1.1), LineCharge(-1.0, -0.5, -0.4)])
    concat = PolylinePath(np.vstack([[0.0, 0.0], loop1, [0.0, 0.0], loop2]),
                          closed=True)
    tol = 1e-10
    total = ac_phase(concat, cfg, 1.0, "spinor", tol)
    part1 = ac_phase(PolylinePath(loop1, closed=True), cfg, 1.0, "spinor", tol)
    part2 = ac_phase(PolylinePath(loop2, closed=True), cfg, 1.0, "spinor", tol)
    assert abs(total.phase - part1.phase - part2.phase) <= 10.0 * tol


def test_quantization_random_loops():
    rng = np.random.default_rng(21)
    tol = 1e-9
    for _ in range(25):
        w = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        loop = ring_loop(rng, w)
        n_charges = int(rng.integers(1, 4))
        charges = [
            LineCharge(float(c[0]), float(c[1]), float(rng.uniform(-2.0, 2.0)))
            for c in rng.uniform(-0.2, 0.2, size=(n_charges, 2))
        ]
        cfg = FieldConfig(charges)
        res = ac_phase(loop, cfg, 1.7, "spinor", tol)
        assert res.windings == tuple([w] * n_charges)
        predicted = 1.7 * w * sum(c.lam for c in charges)
        assert abs(res.phase - predicted) <= 10.0 * tol


def test_deformation_invariance():
    rng = np.random.default_rng(31)
    base = regular_polygon(64, radius=1.5)
    cfg = FieldConfig([LineCharge(0.1, 0.0, 1.2), LineCharge(-0.1, 0.05, -0.8)])
    tol = 1e-9
    reference = ac_phase(base, cfg, 2.2, "spinor", tol)
    for _ in range(20):
        jitter = rng.uniform(-0.08, 0.08, size=base.vertices.shape)
        deformed = PolylinePath(base.vertices + jitter, closed=True)
        res = ac_phase(deformed, cfg, 2.2, "spinor", tol)
        assert res.windings == reference.windings
        assert abs(res.phase - reference.phase) <= 10.0 * tol


def test_species_round_trip_and_validation():
    assert Species("spinor") is Species.SPINOR
    assert Species.SPINOR.winding_sign == 1
    assert Species.SCALAR.winding_sign == -1
    with pytest.raises(ValueError):
        Species("tensor")


def test_phase_g_validation():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        ac_phase(regular_polygon(16), cfg, math.inf, "spinor", 1e-8)


# ----------------------------------------------------------------- fringe

def test_fringe_half_circles():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 3.0)])
    res = fringe_shift(half_circle_arm(True), half_circle_arm(False), cfg,
                       2.0, "spinor", 1e-10)
    assert abs(res.delta_phase - 6.0) <= 1e-9
    assert abs(res.contrast - math.cos(3.0) ** 2) <= 1e-9


def test_fringe_scalar_opposite():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 3.0)])
    spinor = fringe_shift(half_circle_arm(True), half_circle_arm(False), cfg,
                          2.0, "spinor", 1e-10)
    scalar = fringe_shift(half_circle_arm(True), half_circle_arm(False), cfg,
                          2.0, "scalar", 1e-10)
    assert scalar.delta_phase == -spinor.delta_phase


def test_fringe_identical_arms():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 3.0)])
    arm = half_circle_arm(True)
    res = fringe_shift(arm, arm, cfg, 2.0, "spinor", 1e-10)
    assert res.delta_phase == 0.0
    assert res.contrast == 1.0


def test_fringe_pi_kills_contrast():
    cfg = FieldConfig([LineCharge(0.0, 0.0, math.pi)])
    res = fringe_shift(half_circle_arm(True), half_circle_arm(False), cfg,
                       1.0, "spinor", 1e-12)
    assert abs(res.delta_phase - math.pi) <= 1e-11
    assert res.contrast <= 1e-12


def test_fringe_endpoint_mismatch():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 1.0)])
    shifted = PolylinePath(half_circle_arm(False).vertices + [0.0, 1e-9],
                           closed=False)
    with pytest.raises(EndpointMismatch):
        fringe_shift(half_circle_arm(True), shifted, cfg, 1.0, "spinor", 1e-8)


def test_fringe_rejects_closed_arms():
    cfg = FieldConfig([LineCharge(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        fringe_shift(regular_polygon(8), half_circle_arm(True), cfg, 1.0,
                     "spinor", 1e-8)


# ------------------------------------------------------ near-path charges

NEAR_GAPS = [1e-3, 1e-6, 1e-9]


def _charge_off_segment(path, index, gap, side, lam=1.5):
    """Charge `gap` segment lengths off the middle of one segment.

    `side` -1 puts it toward the origin, +1 away from it; for the
    polygons and arms here that is inside and outside the loop.
    """
    P, Q = path.segment_endpoints()
    mid = 0.5 * (P[index] + Q[index])
    length = math.hypot(*(Q[index] - P[index]))
    pos = mid + side * gap * length * mid / math.hypot(*mid)
    return FieldConfig([LineCharge(float(pos[0]), float(pos[1]), lam)])


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("gap", NEAR_GAPS)
def test_charge_near_ring_segment(gap, side):
    ring = regular_polygon(36)
    cfg = _charge_off_segment(ring, 5, gap, side)
    w = 1 if side < 0 else 0
    res = ac_phase(ring, cfg, 2.0, "spinor", 1e-10)
    assert res.windings == (w,)
    assert res.phase == 2.0 * 1.5 * w
    assert line_integral_dual(ring, cfg, 1e-10) == pytest.approx(-1.5 * w, abs=1e-14)


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("gap", NEAR_GAPS)
def test_fringe_charge_near_arm(gap, side):
    up, down = half_circle_arm(True), half_circle_arm(False)
    cfg = _charge_off_segment(up, 10, gap, side)
    w = 1 if side < 0 else 0
    res = fringe_shift(up, down, cfg, 2.0, "spinor", 1e-10)
    assert abs(res.delta_phase - 2.0 * 1.5 * w) <= 1e-12


# ------------------------------------------------ numeric line-integral oracle

def _clear_charges(rng, path, n, half_width):
    """n random charges in a square, each >= 0.05 segment lengths off the path."""
    points = np.empty((0, 2))
    while len(points) < n:
        trial = rng.uniform(-half_width, half_width, size=(4 * n, 2))
        points = np.vstack([points, trial[relative_clearance(path, trial) >= 0.05]])
    return FieldConfig([LineCharge(float(x), float(y), float(rng.uniform(-2.0, 2.0)))
                        for x, y in points[:n]])


def _random_arms(rng, n=12):
    """Two random open arms from (1, 0) to (-1, 0) and the loop A + reversed B."""
    start, end = [1.0, 0.0], [-1.0, 0.0]
    arm_a, arm_b = (
        PolylinePath(np.vstack([start, rng.uniform(-2.0, 2.0, size=(n, 2)), end]))
        for _ in range(2)
    )
    joined = PolylinePath(np.vstack([arm_a.vertices, arm_b.vertices[-2:0:-1]]),
                          closed=True)
    return arm_a, arm_b, joined


def test_closed_form_matches_numeric_integral_on_rings():
    rng = np.random.default_rng(41)
    for _ in range(6):
        w = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        loop = ring_loop(rng, w)
        cfg = _clear_charges(rng, loop, int(rng.integers(1, 4)), 1.5)
        numeric = line_integral(loop, cfg, 1e-11)
        assert abs(line_integral_dual(loop, cfg, 1e-10) - numeric) <= 1e-9
        res = ac_phase(loop, cfg, 1.7, "spinor", 1e-10)
        assert abs(res.phase - (-1.7 * numeric)) <= 1e-9


def test_closed_form_matches_numeric_integral_on_arms():
    rng = np.random.default_rng(43)
    for _ in range(6):
        arm_a, arm_b, joined = _random_arms(rng)
        cfg = _clear_charges(rng, joined, 3, 1.0)
        va, vb = line_integral(arm_a, cfg, 1e-11), line_integral(arm_b, cfg, 1e-11)
        assert abs(line_integral_dual(arm_a, cfg, 1e-10) - va) <= 1e-9
        res = fringe_shift(arm_a, arm_b, cfg, 1.3, "spinor", 1e-10)
        assert abs(res.delta_phase - (-1.3 * (va - vb))) <= 1e-9


def test_fringe_equals_phase_of_joined_loop():
    rng = np.random.default_rng(47)
    for _ in range(20):
        arm_a, arm_b, joined = _random_arms(rng)
        cfg = _clear_charges(rng, joined, 3, 1.0)
        for species in ("spinor", "scalar"):
            loop = ac_phase(joined, cfg, 1.3, species, 1e-10)
            fringe = fringe_shift(arm_a, arm_b, cfg, 1.3, species, 1e-10)
            assert abs(fringe.delta_phase - loop.phase) <= 1e-12
