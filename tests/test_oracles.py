"""Independent oracles for the 1-D form factors; none uses the float driver.

* mpmath quadrature over x of the 2-D integrands equals the closed-form
  inner integral at random y;
* mpmath quadrature at 30 digits of the 1-D forms bounds the driver's
  true error by its error estimate;
* the driver agrees with the 2-D cubature on regulated kinematics;
* mpmath quadrature at 50 digits of the reduced x integral checks the
  closed-form static moment `susy_q0_reference` and its limits.
"""

import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from acmoment.errors import DomainError, NonConvergence
from acmoment.formfactor import (
    SusyParams,
    YukawaParams,
    _gauge_inner,
    _yukawa_inner,
    susy_form_factor,
    susy_integrand,
    susy_q0_reference,
    yukawa_form_factor,
    yukawa_integrand,
)
from acmoment.quadrature import integrate_triangle

mp.mp.dps = 30


# ------------------------------------------------- pointwise inner integral

def test_gauge_inner_closed_form_matches_mpmath_x_integral():
    rng = random.Random(11)
    for _ in range(40):
        params = SusyParams(rng.uniform(-5.0, 3.5), 10 ** rng.uniform(-6.0, 1.0))
        y = rng.uniform(0.0, 1.0)
        ref = mp.quad(lambda x: susy_integrand(float(x), y, params), [0.0, y])
        assert _gauge_inner(params)(y)[0] == pytest.approx(float(ref), rel=1e-12)


def test_yukawa_inner_closed_form_matches_mpmath_x_integral():
    rng = random.Random(12)
    done = 0
    while done < 40:
        q2 = rng.uniform(-5.0, 1.0)
        m1, m2 = rng.uniform(0.6, 2.0), rng.uniform(0.0, 2.0)
        try:
            params = YukawaParams(q2, m1, m2, 1.0, 1.0)
        except Exception:
            continue
        y = rng.uniform(0.0, 1.0)
        for term, ma, mb in (("first", m1, m2), ("swapped", m2, m1)):
            ref = mp.quad(lambda x: yukawa_integrand(float(x), y, params, term), [0.0, y])
            got = _yukawa_inner(q2, ma, mb)(y)[0]
            assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-14)
        done += 1


# ------------------------------------------------ 1-D forms at 30 digits

def _graded(points):
    """Split points in (0, 1) plus geometric grading towards both ends."""
    pts = {mp.mpf(0), mp.mpf(1)}
    for p in points:
        if 0.0 < p < 1.0:
            k = p
            while k < 1.0:
                pts.add(mp.mpf(k))
                k *= 3.0
    for j in range(1, 25):
        pts.add(mp.mpf(3) ** -j)
        pts.add(1 - mp.mpf(3) ** -j)
    return sorted(pts)


def gauge_ref(q2, m):
    q2, m = mp.mpf(q2), mp.mpf(m)

    def f(y):
        s0 = mp.sqrt(y * y + m)
        s1 = mp.sqrt(y * y + (1 - y) * m)
        s = s0 + s1
        return 2 * y * y * s / (s0 * s1 * (s * s - q2 * y * y))

    return mp.quad(f, _graded([math.sqrt(m)]))


def yukawa_term_ref(q2, ma, mb):
    q2, ma, mb = mp.mpf(q2), mp.mpf(ma), mp.mpf(mb)

    def f(y):
        c = y * y + mb * mb - y * (1 - ma * ma + mb * mb)
        if c == 0:
            return mp.mpf(0)  # the limit at a boundary zero of c
        return ((ma + mb) * y - mb) * 4 * y / ((4 * c - q2 * y * y) * mp.sqrt(c))

    # the zeros of c near [0, 1] set the scales: |c(0)|/|c'(0)| and the same at y = 1
    scales = [float(mb * mb / abs(1 - ma * ma + mb * mb)) if mb else 0.0, float(mb),
              1.0 - (float(ma * ma / abs(1 + ma * ma - mb * mb)) if ma else 0.0), 1.0 - float(ma)]
    return mp.quad(f, _graded(scales))


def check_bounds(run, ref, tol, may_hit_rounding):
    try:
        res = run()
    except NonConvergence as exc:
        # allowed only where the integrand's rounding can exceed tol: the
        # rounding floor, not the budget, ends the run and the partial
        # estimate must still bound its own error
        assert may_hit_rounding
        assert exc.evaluations < 100_000
        assert exc.error_estimate > tol
        assert abs(exc.value - ref) <= exc.error_estimate
        return
    assert abs(res.integral - ref) <= res.error_estimate <= tol


tols = st.floats(1e-10, 1e-6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    mcs2=st.floats(1e-7, 10.0),
    q2=st.floats(-10.0, 1.0),
    near=st.one_of(st.none(), st.floats(1e-5, 0.5)),
    tol=tols,
)
@example(mcs2=1.1323824884977601e-05, q2=-0.35510869266831246, near=None, tol=1e-8)
@example(mcs2=2.1959567027602825e-06, q2=0.8470620058695832, near=None, tol=1e-8)
@example(mcs2=1e-6, q2=-1.0, near=None, tol=1e-8)
def test_gauge_error_estimate_bounds_true_error(mcs2, q2, near, tol):
    th = (1.0 + math.sqrt(1.0 + mcs2)) ** 2
    if near is not None:
        q2 = th - near  # near the threshold
    elif q2 > 1.0:
        q2 = 1.0
    ref = float(gauge_ref(q2, mcs2))
    check_bounds(lambda: susy_form_factor(SusyParams(q2, mcs2), tol), ref, tol,
                 may_hit_rounding=near is not None)


yukawa_masses = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(q2=st.floats(-5.0, 1.0), m1=st.floats(0.5, 2.0), m2=yukawa_masses, tol=tols)
@example(q2=-1.0, m1=1.02, m2=1e-3, tol=1e-8)
@example(q2=-1.0, m1=1.02, m2=0.0, tol=1e-8)
def test_yukawa_error_estimate_bounds_true_error(q2, m1, m2, tol):
    try:
        YukawaParams(q2, m1, m2, 1.0, 1.0)
    except DomainError:
        return
    if m2 == 0.0 and m1 == 1.0:
        return  # refused as infrared divergent
    # one term at a time, so that a NonConvergence carries that term's value
    for e1, e2, ma, mb in ((1.0, 0.0, m1, m2), (0.0, 1.0, m2, m1)):
        params = YukawaParams(q2, m1, m2, e1, e2)
        ref = float(yukawa_term_ref(q2, ma, mb))
        # at m2 = 0 the swapped term goes like (1 - y)^(-1/2) at y = 1,
        # where floats are too coarse to resolve it below about 1e-8
        check_bounds(lambda: yukawa_form_factor(params, tol), ref, tol,
                     may_hit_rounding=m2 == 0.0)


def test_yukawa_nonconvergence_carries_the_charge_weighted_sum():
    # at m2 = 0 the swapped term cannot reach tol 7.8e-8; the raised
    # estimate must be that of the whole sum e1 I1 + e2 I2, not of one term
    q2, m1, m2, tol = 0.0, 2.0, 0.0, 7.8e-8
    first = yukawa_form_factor(YukawaParams(q2, m1, m2, 1.0, 0.0), tol)
    with pytest.raises(NonConvergence) as swapped:
        yukawa_form_factor(YukawaParams(q2, m1, m2, 0.0, 1.0), tol)
    with pytest.raises(NonConvergence) as info:
        yukawa_form_factor(YukawaParams(q2, m1, m2, 1.5, -0.5), tol)
    exc, part = info.value, swapped.value
    assert exc.value == 1.5 * first.integral - 0.5 * part.value
    assert exc.error_estimate == 1.5 * first.error_estimate + 0.5 * part.error_estimate
    assert exc.evaluations == first.evaluations + part.evaluations
    ref = 1.5 * yukawa_term_ref(q2, m1, m2) - 0.5 * yukawa_term_ref(q2, m2, m1)
    assert abs(exc.value - float(ref)) <= exc.error_estimate


# ------------------------------------------------------ 2-D cubature check

@pytest.mark.parametrize("q2", [-3.0, -1.0, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("mcs2", [0.25, 1.0, 4.0])
def test_driver_agrees_with_2d_cubature(q2, mcs2):
    params = SusyParams(q2, mcs2)
    one = susy_form_factor(params, 1e-9)
    two = integrate_triangle(lambda x, y: susy_integrand(x, y, params), 1e-9)
    assert abs(one.integral - two.value) <= one.error_estimate + two.error_estimate


# ------------------------------------------- closed-form static moment

def static_ref(m):
    """I(0, m) at 50 digits: Int_0^1 [(x^2 + c)^(-1/2) - (1 + c)^(-1/2)] dx,
    c = (1 - x) m, the y integral done exactly; split at the scales
    sqrt(m) near x = 0 and 1/m near x = 1."""
    with mp.workdps(50):
        m = mp.mpf(m)
        pts = {mp.mpf(0), mp.mpf(1)}
        for j in range(-30, 1):
            for p in (mp.sqrt(m) * mp.mpf(10) ** -j, 1 - mp.mpf(10) ** j / m):
                if 0 < p < 1:
                    pts.add(p)

        def f(x):
            c = (1 - x) * m
            return 1 / mp.sqrt(x * x + c) - 1 / mp.sqrt(1 + c)

        return mp.quad(f, sorted(pts))


# a log grid over [1e-12, 1e8], plus both sides of the switch at 16
STATIC_GRID = [10.0 ** (k / 4.0) for k in range(-48, 33, 3)] + [15.999, 16.0, 16.001]


@pytest.mark.parametrize("m", STATIC_GRID)
def test_static_moment_closed_form_matches_mpmath(m):
    ref = static_ref(m)
    assert abs(susy_q0_reference(m) - ref) <= 2e-14 * ref


def test_static_moment_heavy_photon_limit():
    # I(0, m) m^(3/2) = 5/3 - 4/sqrt(m) + O(1/m)
    for m in (1e4, 1e6, 1e8, 1e12):
        assert abs(susy_q0_reference(m) * m ** 1.5 - 5.0 / 3.0) <= 5.0 / math.sqrt(m)


def test_static_moment_infrared_law():
    # I(0, m) - (ln(1/m)/2 + ln 2 - 1) = sqrt(m)/2 + O(m) as m -> 0
    for m in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        law = 0.5 * math.log(1.0 / m) + math.log(2.0) - 1.0
        assert abs(susy_q0_reference(m) - law - 0.5 * math.sqrt(m)) <= m
