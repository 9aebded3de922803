"""Exact domain check against the old grid check and at its known verdicts."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from grid_domain import gauge_grid_min, yukawa_grid_min

from acmoment.errors import DomainError, InfraredDivergent
from acmoment.formfactor import (
    DENOMINATOR_FLOOR,
    SusyParams,
    YukawaParams,
    _gauge_min,
    _yukawa_min,
    susy_form_factor,
    yukawa_form_factor,
)


def threshold(mcs2):
    return (1.0 + math.sqrt(1.0 + mcs2)) ** 2


def accepts(make):
    try:
        make()
    except DomainError:
        return False
    return True


def gauge_grid_accepts(q2, mcs2):
    return gauge_grid_min(q2, mcs2) > DENOMINATOR_FLOOR


def yukawa_grid_accepts(q2, m1, m2):
    return min(yukawa_grid_min(q2, m1, m2), yukawa_grid_min(q2, m2, m1)) > DENOMINATOR_FLOOR


# The grid samples v only in [1/128, 127/128], so above threshold it
# accepts kinematics whose minimum lies near the y = 1 edge.  Measured
# over mcs2 in [1e-8, 30], its acceptance edge sits at threshold + w
# with w = 0.046 mcs2 (mcs2 <= 1) rising to 0.069 mcs2 (mcs2 = 30); at
# mcs2 = 0 its v cutoff rejects from 4 - 6.6e-5.  Below threshold the
# exact check rejects only the last ~4e-9, where the minimum (about
# 0.24 (threshold - q2) at mcs2 = 1) falls below the floor.
def in_gauge_band(q2, mcs2):
    th = threshold(mcs2)
    return th - 1e-4 <= q2 <= th + 0.1 * mcs2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mcs2=st.one_of(st.just(0.0), st.floats(1e-8, 10.0)),
    q2=st.floats(-20.0, 25.0),
)
def test_gauge_verdict_matches_grid_outside_threshold_band(q2, mcs2):
    assume(not in_gauge_band(q2, mcs2))
    exact = accepts(lambda: SusyParams(q2, mcs2))
    assert exact == gauge_grid_accepts(q2, mcs2)


# The Yukawa grid also misses negative minima near the y = 1 edge (seen
# down to -0.06); masses in (0, sqrt(floor)] are left to the explicit
# test below, where the two checks differ by design.
masses = st.one_of(st.just(0.0), st.floats(1e-4, 2.5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q2=st.floats(-10.0, 6.0), m1=st.floats(1e-4, 2.5), m2=masses)
def test_yukawa_verdict_matches_grid_outside_band(q2, m1, m2):
    exact = accepts(lambda: YukawaParams(q2, m1, m2, 1.0, 1.0))
    grid = yukawa_grid_accepts(q2, m1, m2)
    if exact:
        assert grid
    elif grid:
        # the grid's wrong accept: the exact minimum is below the floor
        # where the grid did not sample
        low = min(_yukawa_min(q2, m1, m2), _yukawa_min(q2, m2, m1))
        assert -0.1 <= low <= DENOMINATOR_FLOOR


def test_just_above_threshold_is_rejected_at_construction():
    # the grid accepted this and the 2-D integrand then failed at an
    # evaluation point
    q2 = threshold(1.0) + 0.03
    assert gauge_grid_accepts(q2, 1.0)
    with pytest.raises(DomainError, match=r"\(1 \+ sqrt\(1 \+ mcs_hat2\)\)\^2 = 5.828427125"):
        SusyParams(q2, 1.0)


def test_just_below_threshold_is_accepted_and_integrates():
    params = SusyParams(threshold(1.0) - 1e-6, 1.0)
    res = susy_form_factor(params, 1e-6)
    assert res.error_estimate <= 1e-6
    assert res.integral > susy_form_factor(SusyParams(5.0, 1.0), 1e-8).integral


def test_boundary_zero_verdicts_kept():
    SusyParams(-1.0, 0.0)
    with pytest.raises(InfraredDivergent):
        susy_form_factor(SusyParams(-1.0, 0.0), 1e-8)
    with pytest.raises(DomainError):
        SusyParams(-1.0, 1e-9)
    degenerate = YukawaParams(-1.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(InfraredDivergent):
        yukawa_form_factor(degenerate, 1e-8)
    corner = yukawa_form_factor(YukawaParams(-1.0, 1.02, 0.0, 1.0, 1.0), 1e-8)
    assert math.isfinite(corner.integral) and corner.error_estimate <= 2e-8  # tol per term
    with pytest.raises(DomainError):
        YukawaParams(-1.0, 0.99, 0.0, 1.0, 0.0)


def test_light_nonzero_mass_is_rejected_like_a_light_regulator():
    # the corner value of the denominator is the mass squared; below the
    # floor it is refused, as 0 < mcs2 <= 1e-9 is for the gauge model
    with pytest.raises(DomainError):
        YukawaParams(-1.0, 1.5, 1e-5, 1.0, 1.0)
    assert yukawa_grid_accepts(-1.0, 1.5, 1e-5)
    YukawaParams(-1.0, 1.5, 1e-4, 1.0, 1.0)
    YukawaParams(-1.0, 1.5, 0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "build,fired,not_fired",
    [
        (lambda: SusyParams(-3.0, 1e-10), "regulator floor", "threshold"),
        (lambda: SusyParams(4.1, 0.0), "two-body threshold", "floor"),
        (lambda: SusyParams(threshold(1.0) + 0.03, 1.0), "two-body threshold", "floor"),
        (lambda: YukawaParams(-1.0, 1.5, 1e-5, 1.0, 1.0), "safety floor", "not positive"),
        (lambda: YukawaParams(-1.0, 0.5, 0.0, 1.0, 0.0), "not positive", "floor"),
    ],
)
def test_domain_error_names_the_rule_that_fired(build, fired, not_fired):
    with pytest.raises(DomainError, match=fired) as info:
        build()
    assert not_fired not in str(info.value)


def test_exact_minimum_bounds_dense_sampling():
    n = 400
    for q2, mcs2 in ((-2.0, 0.5), (3.0, 0.01), (5.0, 1.0), (4.5, 0.3), (2.5, 0.2)):
        sampled = min(
            y * y + (1.0 - x) * mcs2 - x * (y - x) * q2
            for i in range(n + 1)
            for j in range(i + 1)
            for x, y in [(j / n, i / n)]
        )
        exact = _gauge_min(q2, mcs2)
        assert exact <= sampled + 1e-15
        assert sampled - exact <= 1e-4
