import math

import numpy as np
import pytest

from acmoment.errors import DomainError, InfraredDivergent, NonConvergence
from acmoment.formfactor import (
    SUSY_PREFACTOR,
    YUKAWA_PREFACTOR,
    ScanResult,
    SusyParams,
    YukawaParams,
    cs_mass_scan,
    ir_scan,
    reduction_check,
    reduction_integrand_deviation,
    susy_form_factor,
    susy_integrand,
    susy_q0_reference,
    yukawa_form_factor,
    yukawa_integrand,
)
from acmoment.quadrature import mc_integrate_triangle

EXACT_M2_1 = math.log(3.0) - 2.0 * (math.sqrt(2.0) - 1.0)

# frozen from the 1-D reduced oracle (quad to 1e-13); guards regressions
# of the oracle itself
REFERENCE_Q0 = {0.1: 1.015055482536087, 1.0: 0.270185163921920, 10.0: 0.026760384543329}


# ---------------------------------------------------------------- params

def test_susy_param_validation():
    with pytest.raises(ValueError):
        SusyParams(q_hat2=-1.0, mcs_hat2=-0.5)
    with pytest.raises(ValueError):
        SusyParams(q_hat2=math.nan, mcs_hat2=0.0)


def test_yukawa_param_validation():
    with pytest.raises(ValueError):
        YukawaParams(q_hat2=-1.0, m1_hat=0.0, m2_hat=0.0, e1=1.0, e2=0.0)
    with pytest.raises(ValueError):
        YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=-0.1, e1=1.0, e2=0.0)
    with pytest.raises(ValueError):
        YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.5, e1=1.0, e2=0.0, a_abs2=-1.0)


def test_threshold_guard_rejects_above():
    with pytest.raises(DomainError):
        SusyParams(q_hat2=4.1, mcs_hat2=0.0)
    with pytest.raises(DomainError):
        SusyParams(q_hat2=4.0001, mcs_hat2=0.0)


def test_threshold_guard_accepts_below():
    SusyParams(q_hat2=3.5, mcs_hat2=0.0)
    SusyParams(q_hat2=3.99, mcs_hat2=0.0)
    SusyParams(q_hat2=0.0, mcs_hat2=0.0)
    SusyParams(q_hat2=-100.0, mcs_hat2=0.0)


def test_chern_simons_mass_raises_threshold():
    # with mcs2 = 2 the two-body threshold sits well above 4
    SusyParams(q_hat2=4.5, mcs_hat2=2.0)


def test_timelike_below_threshold_supported():
    res = susy_form_factor(SusyParams(q_hat2=2.0, mcs_hat2=1.0), 1e-8)
    assert math.isfinite(res.integral)
    assert res.integral > 0.0


def test_yukawa_guard_open_decay_channel():
    # scalar heavier than both spinors: denominator crosses zero inside
    with pytest.raises(DomainError):
        YukawaParams(q_hat2=-1.0, m1_hat=0.5, m2_hat=0.0, e1=1.0, e2=0.0)
    with pytest.raises(DomainError):
        YukawaParams(q_hat2=-1.0, m1_hat=0.5, m2_hat=0.2, e1=1.0, e2=1.0)
    YukawaParams(q_hat2=-1.0, m1_hat=0.7, m2_hat=0.5, e1=1.0, e2=1.0)


def test_reduction_kinematics_are_constructible():
    YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.0, e1=1.0, e2=0.0)


# ------------------------------------------------------------ integrands

def test_susy_integrand_reference_points():
    p = SusyParams(q_hat2=0.0, mcs_hat2=0.0)
    assert susy_integrand(0.5, 1.0, p) == 1.0
    assert susy_integrand(0.25, 0.5, p) == 4.0
    p = SusyParams(q_hat2=-4.0, mcs_hat2=0.0)
    assert abs(susy_integrand(0.5, 1.0, p) - 2.0 ** -1.5) <= 1e-15


def test_susy_integrand_rejects_nonpositive_denominator():
    # outside the ordered wedge x <= y the construction guard does not
    # apply and the denominator can go negative
    p = SusyParams(q_hat2=-4.0, mcs_hat2=0.0)
    with pytest.raises(DomainError):
        susy_integrand(1.0, 0.5, p)


def test_yukawa_integrand_reference_points():
    yp = YukawaParams(q_hat2=0.0, m1_hat=1.0, m2_hat=0.0, e1=1.0, e2=0.0)
    assert yukawa_integrand(0.5, 1.0, yp, "first") == 1.0
    yp = YukawaParams(q_hat2=0.0, m1_hat=2.0, m2_hat=2.0, e1=1.0, e2=1.0)
    assert yukawa_integrand(0.3, 1.0, yp, "first") == 0.25


def test_yukawa_equal_masses_terms_identical():
    yp = YukawaParams(q_hat2=-0.7, m1_hat=1.5, m2_hat=1.5, e1=1.0, e2=1.0)
    rng = np.random.default_rng(5)
    a, b = rng.random(200), rng.random(200)
    x, y = np.minimum(a, b), np.maximum(a, b)
    first = yukawa_integrand(x, y, yp, "first")
    swapped = yukawa_integrand(x, y, yp, "swapped")
    assert np.array_equal(first, swapped)


def test_yukawa_integrand_term_validation():
    yp = YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.5, e1=1.0, e2=0.0)
    with pytest.raises(ValueError):
        yukawa_integrand(0.2, 0.5, yp, "third")


def test_reduction_identity_pointwise_exact():
    # identical algebra: the two integrands agree to the last bit
    assert reduction_integrand_deviation(-1.0, 10_000, seed=0) == 0.0
    assert reduction_integrand_deviation(-0.25, 2_000, seed=3) <= 1e-12


# ----------------------------------------------------------- form factor

def test_susy_form_factor_matches_reduced_oracle():
    for m2, frozen in REFERENCE_Q0.items():
        oracle = susy_q0_reference(m2)
        assert abs(oracle - frozen) <= 1e-12
        res = susy_form_factor(SusyParams(q_hat2=0.0, mcs_hat2=m2), 1e-8)
        assert abs(res.integral - oracle) <= 2e-8
        assert res.prefactor_note == SUSY_PREFACTOR
        assert res.evaluations >= 1


def test_susy_form_factor_exact_value_at_unit_mass():
    res = susy_form_factor(SusyParams(q_hat2=0.0, mcs_hat2=1.0), 1e-10)
    assert abs(res.integral - EXACT_M2_1) <= 1e-10


def test_massless_regulator_is_refused():
    for q2 in (0.0, -1.0, -1e-6, 3.5):
        with pytest.raises(InfraredDivergent):
            susy_form_factor(SusyParams(q_hat2=q2, mcs_hat2=0.0), 1e-8)


def test_yukawa_degenerate_kinematics_refused():
    with pytest.raises(InfraredDivergent):
        yukawa_form_factor(
            YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.0, e1=1.0, e2=0.0), 1e-8
        )
    with pytest.raises(InfraredDivergent):
        yukawa_form_factor(
            YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.0, e1=0.0, e2=1.0), 1e-8
        )


def test_yukawa_zero_charges_give_zero():
    res = yukawa_form_factor(
        YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.0, e1=0.0, e2=0.0), 1e-8
    )
    assert res.integral == 0.0
    assert res.error_estimate == 0.0
    assert res.evaluations == 0


def test_yukawa_swap_symmetry_bit_identical():
    a = yukawa_form_factor(
        YukawaParams(q_hat2=-1.0, m1_hat=1.2, m2_hat=0.7, e1=0.8, e2=0.3), 1e-9
    )
    b = yukawa_form_factor(
        YukawaParams(q_hat2=-1.0, m1_hat=0.7, m2_hat=1.2, e1=0.3, e2=0.8), 1e-9
    )
    assert a.integral == b.integral
    assert a.prefactor_note == YUKAWA_PREFACTOR


def test_yukawa_massless_partner_above_scalar_mass_is_finite():
    res = yukawa_form_factor(
        YukawaParams(q_hat2=-1.0, m1_hat=1.5, m2_hat=0.0, e1=1.0, e2=0.0), 1e-8
    )
    assert math.isfinite(res.integral)
    assert res.integral > 0.0


def test_tolerance_validation():
    with pytest.raises(ValueError):
        susy_form_factor(SusyParams(q_hat2=-1.0, mcs_hat2=1.0), 0.0)
    with pytest.raises(ValueError):
        yukawa_form_factor(
            YukawaParams(q_hat2=-1.0, m1_hat=1.0, m2_hat=0.5, e1=1.0, e2=0.0), -1.0
        )


def test_monotone_decreasing_in_regulator_mass():
    ladder = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    vals = [
        susy_form_factor(SusyParams(q_hat2=-1.0, mcs_hat2=m2), 1e-9).integral
        for m2 in ladder
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_monotone_decreasing_in_spacelike_momentum():
    ladder = [-0.25, -0.5, -1.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    vals = [
        susy_form_factor(SusyParams(q_hat2=q2, mcs_hat2=0.5), 1e-9).integral
        for q2 in ladder
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("q2", [-0.25, -1.0, -3.9])
@pytest.mark.parametrize("m2", [0.5, 1.0, 2.0])
def test_adaptive_vs_mc_on_regulated_grid(q2, m2):
    params = SusyParams(q_hat2=q2, mcs_hat2=m2)
    quad = susy_form_factor(params, 1e-8)
    mc = mc_integrate_triangle(
        lambda x, y: susy_integrand(x, y, params), 300_000, seed=17
    )
    sigma = math.hypot(quad.error_estimate, mc.error_estimate)
    assert abs(quad.integral - mc.value) <= 3.0 * sigma


# ----------------------------------------------------------------- scans

def test_ir_scan_regulated_converges_to_reference():
    qs = [-1e-2, -1e-3, -1e-4, -1e-5, -1e-6]
    scan = ir_scan(qs, 1.0, 1e-8)
    assert isinstance(scan, ScanResult)
    integrals = [row.integral for row in scan.rows]
    assert all(b > a for a, b in zip(integrals, integrals[1:]))
    assert abs(integrals[-1] - susy_q0_reference(1.0)) <= 1e-7


def test_ir_scan_massless_propagates_refusal():
    with pytest.raises(InfraredDivergent):
        ir_scan([-1e-2, -1e-3], 0.0, 1e-8)


def test_ir_scan_validation():
    with pytest.raises(ValueError):
        ir_scan([], 1.0, 1e-8)
    with pytest.raises(ValueError):
        ir_scan([1e-2, -1e-3], 1.0, 1e-8)
    with pytest.raises(ValueError):
        ir_scan([-1e-3, -1e-2], 1.0, 1e-8)  # descending


def test_ir_scan_single_point_degenerate_fit():
    scan = ir_scan([-1e-3], 1.0, 1e-8)
    assert len(scan.rows) == 1
    assert math.isnan(scan.slope)
    assert math.isnan(scan.r_squared)


def test_cs_mass_scan_exposes_half_log_slope():
    scan = cs_mass_scan([1e-2, 1e-3, 1e-4, 1e-5, 1e-6], 0.0, 1e-8)
    assert 0.45 <= scan.slope <= 0.52
    assert scan.r_squared >= 0.999


def test_cs_mass_scan_validation():
    with pytest.raises(ValueError):
        cs_mass_scan([], 0.0, 1e-8)
    with pytest.raises(ValueError):
        cs_mass_scan([1e-4, 1e-3], 0.0, 1e-8)  # ascending
    with pytest.raises(ValueError):
        cs_mass_scan([1e-3, 0.0], 0.0, 1e-8)


def test_reduction_check_raises_on_divergent_limit():
    # both sides of the comparison are divergent at the literal limit;
    # the pointwise identity is the finite statement
    with pytest.raises(InfraredDivergent):
        reduction_check([-0.5, -1.0, -2.0], 1e-8)


def test_reduction_check_validation():
    with pytest.raises(ValueError):
        reduction_check([], 1e-8)
    with pytest.raises(ValueError):
        reduction_check([0.5], 1e-8)
    with pytest.raises(ValueError):
        reduction_check([-1.0], 0.0)


def test_reference_oracle_validation():
    with pytest.raises(ValueError):
        susy_q0_reference(0.0)


def test_tolerance_below_rounding_raises_in_bounded_evaluations():
    # 2e-6 below threshold I is about 7.7e5 and its rounding exceeds 1e-8:
    # the driver must give up on the rounding floor, not on the budget
    with pytest.raises(NonConvergence) as info:
        susy_form_factor(SusyParams(q_hat2=4.0, mcs_hat2=1e-6), 1e-8)
    assert info.value.evaluations <= 1_000
    assert info.value.error_estimate > 1e-8
