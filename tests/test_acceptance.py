"""Acceptance suite: one pass/fail line per criterion (run with -s to see).

Four sub-criteria presuppose a finite value for the *unregulated*
(massless Chern-Simons / massless second spinor) form-factor integrals.
Those integrals are mathematically divergent for every momentum: with
mcs_hat2 = 0 the substitution x = t*y factorizes the double integral
into [4/(4 - q_hat2)] * Int_0^1 dy/y exactly, so no finite target
exists (see README, "Infrared behaviour").  The corresponding tests
below are implemented as stated and FAIL BY DESIGN, documenting the
discrepancy rather than hiding it:

    criterion 1 (integral half)  -- both sides divergent at the limit
    criterion 3 (mcs_hat2 = 0 column)
    criterion 4 (mcs_hat2 = 0 scan)
    criterion 8 (momentum ladder at mcs_hat2 = 0)

Everything else passes at the stated tolerances.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import regular_polygon, ring_loop

from acmoment import cli
from acmoment.errors import DomainError, InfraredDivergent
from acmoment.field import FieldConfig, LineCharge
from acmoment.formfactor import (
    SusyParams,
    YukawaParams,
    ir_scan,
    reduction_check,
    reduction_integrand_deviation,
    susy_form_factor,
    susy_integrand,
    susy_q0_reference,
)
from acmoment.phase import PolylinePath, ac_phase
from acmoment.quadrature import mc_integrate_triangle

from test_cli import GOLDEN, GOLDEN_RUNS, run_cli

EXACT_M2_1 = math.log(3.0) - 2.0 * (math.sqrt(2.0) - 1.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------- criterion 1

def test_criterion_1_reduction_pointwise():
    """Yukawa -> gauge-model reduction at the integrand level, 1e4 points."""
    worst = max(
        reduction_integrand_deviation(q2, n_points=10_000, seed=i)
        for i, q2 in enumerate((-0.5, -1.0, -2.0))
    )
    ok = worst <= 1e-12
    report("1 (pointwise reduction)", ok, f"max deviation {worst:.3g} <= 1e-12")
    assert ok


def test_criterion_1_reduction_integrals():
    """Integral-level reduction agreement at q2 in {-0.5, -1, -2}, tol 1e-8.

    Documented red: at the literal reduction kinematics (m1 = m_phi,
    m2 = 0 vs mcs = 0) both integrals are infrared divergent, so the
    required finite comparison does not exist.
    """
    tol = 1e-8
    try:
        deviation = reduction_check([-0.5, -1.0, -2.0], tol)
    except InfraredDivergent as exc:
        report("1 (integral reduction)", False,
               f"no finite comparison exists: {exc}")
        pytest.fail(
            "criterion 1 integral half is unattainable: both sides of the "
            "reduction identity are infrared divergent at the required "
            "kinematics (corner factorizes into 4/(4-q2) * Int dy/y); the "
            "identity is exact at integrand level instead (see the "
            "pointwise half)"
        )
    ok = deviation <= 2.0 * tol
    report("1 (integral reduction)", ok, f"max deviation {deviation:.3g}")
    assert ok


# --------------------------------------------------------- criterion 2

def test_criterion_2_semi_analytic_oracle():
    """2-D integral against the reduced 1-D oracle at q2 = 0, tol 1e-7."""
    worst = 0.0
    for m2 in (0.1, 1.0, 10.0):
        res = susy_form_factor(SusyParams(q_hat2=0.0, mcs_hat2=m2), 1e-8)
        worst = max(worst, abs(res.integral - susy_q0_reference(m2)))
    unit = susy_form_factor(SusyParams(q_hat2=0.0, mcs_hat2=1.0), 1e-8)
    worst = max(worst, abs(unit.integral - EXACT_M2_1))
    ok = worst <= 1e-7
    report("2 (semi-analytic oracle)", ok,
           f"max |2D - oracle| = {worst:.3g} <= 1e-7 "
           f"(ln 3 - 2(sqrt 2 - 1) = {EXACT_M2_1:.9f})")
    assert ok


# --------------------------------------------------------- criterion 3

_GRID_SEEDS = {}
for _i, _q2 in enumerate((-0.25, -1.0, -3.9)):
    for _j, _m2 in enumerate((0.0, 0.5, 2.0)):
        _GRID_SEEDS[(_q2, _m2)] = 100 + 10 * _i + _j


@pytest.mark.parametrize("q2", [-0.25, -1.0, -3.9])
@pytest.mark.parametrize("m2", [0.0, 0.5, 2.0])
def test_criterion_3_mc_cross_validation(q2, m2):
    """Adaptive vs Monte Carlo (1e7 samples) within 3 sigma per grid point.

    Documented red for the mcs_hat2 = 0 column: those integrals are
    divergent, so neither method has a value to agree on.
    """
    label = f"3 (mc cross-check q2={q2}, mcs2={m2})"
    try:
        quad = susy_form_factor(SusyParams(q_hat2=q2, mcs_hat2=m2), 1e-8)
    except InfraredDivergent as exc:
        report(label, False, f"integral divergent: {exc}")
        pytest.fail(
            f"criterion 3 is unattainable at mcs_hat2 = 0 (q2 = {q2}): the "
            "unregulated integral diverges at the x = y = 0 corner for "
            "every q2, so there is no finite value for the two methods to "
            "agree on"
        )
    params = SusyParams(q_hat2=q2, mcs_hat2=m2)
    mc = mc_integrate_triangle(
        lambda x, y: susy_integrand(x, y, params),
        10_000_000,
        seed=_GRID_SEEDS[(q2, m2)],
    )
    sigma = math.hypot(quad.error_estimate, mc.error_estimate)
    dev = abs(quad.integral - mc.value)
    ok = dev <= 3.0 * sigma
    report(label, ok, f"|quad - mc| = {dev:.3g} <= 3 sigma = {3 * sigma:.3g}")
    assert ok


# --------------------------------------------------------- criterion 4

_IR_QS = [-1e-2, -1e-3, -1e-4, -1e-5, -1e-6]


def test_criterion_4_ir_scan_massless():
    """I vs ln(1/|q2|) fit at mcs_hat2 = 0: R^2 >= 0.999, positive slope.

    Documented red: every point of the requested scan is divergent; the
    log divergence lives in the regulator mass instead, where
    I(0, mcs2) ~ (1/2) ln(1/mcs2) (see cs_mass_scan and criterion 4b).
    """
    try:
        scan = ir_scan(_IR_QS, 0.0, 1e-8)
    except InfraredDivergent as exc:
        report("4 (massless ir scan)", False, f"scan impossible: {exc}")
        pytest.fail(
            "criterion 4's massless scan is unattainable: I(q2, mcs2=0) has "
            "no finite value at any q2 (the corner divergence coefficient "
            "4/(4-q2) is q2-dependent but the integral itself is infinite); "
            "the finite, verifiable log-divergence statement is "
            "I(0, mcs2) ~ (1/2) ln(1/mcs2), exercised by the regulated scan"
        )
    integrals = [row.integral for row in scan.rows]
    increasing = all(b > a for a, b in zip(integrals, integrals[1:]))
    ok = increasing and scan.r_squared >= 0.999 and scan.slope > 0.0
    report("4 (massless ir scan)", ok,
           f"slope {scan.slope:.4g}, r^2 {scan.r_squared:.6f}")
    assert ok


def test_criterion_4_regulated_scan_converges():
    """Same momentum scan at mcs_hat2 = 1 approaches the oracle within 1e-6."""
    scan = ir_scan(_IR_QS, 1.0, 1e-8)
    integrals = [row.integral for row in scan.rows]
    increasing = all(b > a for a, b in zip(integrals, integrals[1:]))
    gap = abs(integrals[-1] - EXACT_M2_1)
    ok = increasing and gap <= 1e-6
    report("4 (regulated scan)", ok,
           f"monotone approach, |I(-1e-6) - limit| = {gap:.3g} <= 1e-6")
    assert ok


# --------------------------------------------------------- criterion 5

def test_criterion_5_phase_quantization():
    """100 random loops (windings -3..3, 1-3 charges): phase quantization."""
    rng = np.random.default_rng(2024)
    tol = 1e-8
    g = 1.7
    worst = 0.0
    for trial in range(100):
        w = int(rng.integers(-3, 4))
        if w == 0:
            # ring away from the charges: every winding number is zero
            loop = ring_loop(rng, 1, center=(8.0, 8.0))
        else:
            loop = ring_loop(rng, w)
        n_charges = int(rng.integers(1, 4))
        charges = [
            LineCharge(float(p[0]), float(p[1]), float(rng.uniform(-2.0, 2.0)))
            for p in rng.uniform(-0.2, 0.2, size=(n_charges, 2))
        ]
        cfg = FieldConfig(charges)
        spinor = ac_phase(loop, cfg, g, "spinor", tol)
        scalar = ac_phase(loop, cfg, g, "scalar", tol)
        assert scalar.phase == -spinor.phase, "species signs must be exact negatives"
        predicted = g * sum(c.lam * wi for c, wi in zip(charges, spinor.windings))
        expected_w = 0 if w == 0 else w
        assert spinor.windings == tuple([expected_w] * n_charges)
        worst = max(worst, abs(spinor.phase - predicted))
    ok = worst <= 10.0 * tol
    report("5 (phase quantization)", ok,
           f"worst |phase - g*sum(lambda*w)| = {worst:.3g} <= {10 * tol:.0e}; "
           "spinor = -scalar exactly")
    assert ok


# --------------------------------------------------------- criterion 6

def test_criterion_6_topological_invariance():
    """50 winding-preserving deformations change the phase by <= 10*tol."""
    rng = np.random.default_rng(77)
    tol = 1e-8
    base = regular_polygon(64, radius=1.5)
    cfg = FieldConfig([LineCharge(0.1, 0.0, 1.2), LineCharge(-0.1, 0.05, -0.8)])
    reference = ac_phase(base, cfg, 2.2, "spinor", tol)
    worst = 0.0
    for _ in range(50):
        jitter = rng.uniform(-0.08, 0.08, size=base.vertices.shape)
        deformed = ac_phase(
            PolylinePath(base.vertices + jitter, closed=True),
            cfg, 2.2, "spinor", tol,
        )
        assert deformed.windings == reference.windings
        worst = max(worst, abs(deformed.phase - reference.phase))
    ok = worst <= 10.0 * tol
    report("6 (topological invariance)", ok,
           f"worst phase change {worst:.3g} <= {10 * tol:.0e}")
    assert ok


# --------------------------------------------------------- criterion 7

def test_criterion_7_threshold_guard():
    """q2 = 4.1 rejected with DomainError; q2 = 3.5 accepted and finite.

    "Accepted and finite" is read as a guard property: construction
    succeeds and the integrand is finite across the triangle (the
    denominator stays positive).  The massless *integral* at 3.5 has no
    finite value for the same reason as every mcs_hat2 = 0 case; that
    is criterion 4's documented territory.
    """
    with pytest.raises(DomainError):
        SusyParams(q_hat2=4.1, mcs_hat2=0.0)
    params = SusyParams(q_hat2=3.5, mcs_hat2=0.0)
    t = np.linspace(1e-3, 1.0 - 1e-3, 300)
    y = np.linspace(1e-3, 1.0 - 1e-3, 300)
    T, Y = np.meshgrid(t, y)
    vals = susy_integrand(T * Y, Y, params)
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals > 0.0))
    report("7 (threshold guard)", ok,
           "q2=4.1 rejected (DomainError); q2=3.5 accepted, integrand "
           "finite and positive on a 300x300 interior grid")
    assert ok


# --------------------------------------------------------- criterion 8

def test_criterion_8_monotone_in_regulator_mass():
    """I strictly decreasing in mcs_hat2 at q2 = -1 over an 8-point ladder."""
    ladder = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    vals = [
        susy_form_factor(SusyParams(q_hat2=-1.0, mcs_hat2=m2), 1e-9).integral
        for m2 in ladder
    ]
    ok = all(a > b for a, b in zip(vals, vals[1:]))
    report("8 (monotone in mcs2)", ok,
           f"I({ladder[0]}) = {vals[0]:.6f} .. I({ladder[-1]}) = {vals[-1]:.6f}")
    assert ok


def test_criterion_8_monotone_in_momentum_massless():
    """I strictly decreasing in |q2| at mcs_hat2 = 0 over an 8-point ladder.

    Documented red: the ladder values are divergent at mcs_hat2 = 0.
    The same monotonicity holds and is tested at mcs_hat2 = 0.5 in the
    module suite (the integrand is pointwise decreasing in |q2|).
    """
    ladder = [-0.25, -0.5, -1.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    try:
        vals = [
            susy_form_factor(SusyParams(q_hat2=q2, mcs_hat2=0.0), 1e-9).integral
            for q2 in ladder
        ]
    except InfraredDivergent as exc:
        report("8 (monotone in |q2|, massless)", False,
               f"ladder divergent: {exc}")
        pytest.fail(
            "criterion 8's momentum ladder pins mcs_hat2 = 0, where every "
            "integral is divergent; the monotonicity property itself holds "
            "pointwise and is verified at mcs_hat2 = 0.5 in "
            "test_formfactor.py::test_monotone_decreasing_in_spacelike_momentum"
        )
    ok = all(a > b for a, b in zip(vals, vals[1:]))
    report("8 (monotone in |q2|, massless)", ok, "strictly decreasing")
    assert ok


# --------------------------------------------------------- criterion 9

def test_criterion_9_cli_contract(capsys):
    """Golden outputs byte-stable; documented exit codes all exercised."""
    exercised = set()
    for argv, golden_name, expected_code in GOLDEN_RUNS:
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == expected_code
        assert out1 == out2, f"{golden_name} not stable across runs"
        assert out1 == (GOLDEN / golden_name).read_text(), f"{golden_name} drifted"
        exercised.add(code1)
    failures = [
        (["mdm", "--q2", ""], cli.EXIT_USAGE),
        (["mdm", "--q2", "4.1"], cli.EXIT_DOMAIN),
        (["mdm", "--q2", "0", "--mcs2", "0"], cli.EXIT_INFRARED),
        (["mdm", "--q2", "-1", "--mcs2", "1e-6", "--budget", "150"],
         cli.EXIT_NONCONVERGENCE),
        (["phase", "--charges", str(Path(__file__).parent / "data" / "hexagon.json"),
          "--path", str(Path(__file__).parent / "data" / "hexagon.json"),
          "--g", "1", "--species", "spinor"], cli.EXIT_PARSE),
    ]
    for argv, expected in failures:
        code, _, _ = run_cli(capsys, argv)
        assert code == expected, f"{argv} -> {code}, wanted {expected}"
        exercised.add(code)
    ok = exercised == {0, 2, 3, 4, 5, 6}
    report("9 (cli contract)", ok,
           f"golden outputs byte-stable; exit codes exercised: {sorted(exercised)}")
    assert ok
