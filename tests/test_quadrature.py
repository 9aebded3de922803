import math

import numpy as np
import pytest

from acmoment.errors import NonConvergence, NonFiniteIntegrand
from acmoment.quadrature import integrate_triangle, integrate_unit_interval, mc_integrate_triangle

EXACT_M2_1 = math.log(3.0) - 2.0 * (math.sqrt(2.0) - 1.0)  # = 0.27018516392191956


def triangle_monomial_integral(a, b):
    # Int_0^1 dy y^b Int_0^y dx x^a = 1 / ((a+1)(a+b+2))
    return 1.0 / ((a + 1) * (a + b + 2))


def test_constant_is_triangle_area():
    res = integrate_triangle(lambda x, y: np.ones_like(x), 1e-10)
    assert abs(res.value - 0.5) <= 1e-10
    assert res.error_estimate >= 0.0
    assert res.evaluations >= 1


def test_linear_in_y():
    res = integrate_triangle(lambda x, y: y, 1e-10)
    assert abs(res.value - 1.0 / 3.0) <= 1e-10


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
)
def test_polynomial_exactness_degree_3(a, b):
    res = integrate_triangle(lambda x, y: x ** a * y ** b, 1e-10)
    assert abs(res.value - triangle_monomial_integral(a, b)) <= 1e-10


def test_susy_style_oracle():
    # inner integral in closed form gives ln 3 - 2(sqrt 2 - 1) at the
    # regulated point q2 = 0, mcs2 = 1
    res = integrate_triangle(lambda x, y: y / (y * y + (1.0 - x)) ** 1.5, 1e-8)
    assert abs(res.value - EXACT_M2_1) <= 1e-8


@pytest.mark.parametrize(
    "f",
    [
        lambda x, y: np.exp(-2.0 * x) * y,
        lambda x, y: y / (y * y + (1.0 - x)) ** 1.5,
        lambda x, y: np.sin(3.0 * x + y),
    ],
)
def test_initial_depth_doubling_invariance(f):
    tol = 1e-9
    shallow = integrate_triangle(f, tol, initial_depth=2)
    deep = integrate_triangle(f, tol, initial_depth=4)
    assert abs(shallow.value - deep.value) <= 2.0 * tol


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        integrate_triangle(lambda x, y: y, 0.0)
    with pytest.raises(ValueError):
        integrate_triangle(lambda x, y: y, -1e-8)


def test_non_finite_integrand_detected():
    with pytest.raises(NonFiniteIntegrand):
        integrate_triangle(lambda x, y: np.full_like(x, np.nan), 1e-8)
    with pytest.raises(NonFiniteIntegrand):
        integrate_triangle(lambda x, y: np.full_like(x, np.inf), 1e-8)


def test_non_integrable_corner_exhausts_budget():
    # y / (y^2 + x(y-x))^(3/2) ~ 1/v after the square substitution: the
    # local error near v = 0 is scale invariant and never drops, so the
    # driver must fail loudly rather than return a truncation value.
    def divergent(x, y):
        return y / (y * y + x * (y - x)) ** 1.5

    with pytest.raises(NonConvergence) as info:
        integrate_triangle(divergent, 1e-8, budget=500_000)
    assert info.value.evaluations <= 500_000
    assert info.value.error_estimate > 1e-8


def test_budget_respected_on_initial_grid():
    with pytest.raises(NonConvergence):
        integrate_triangle(lambda x, y: y, 1e-10, budget=100, initial_depth=2)


def test_mc_constant_is_exact():
    for seed in (0, 1, 987654321):
        res = mc_integrate_triangle(lambda x, y: np.ones_like(x), 1000, seed)
        assert res.value == 0.5
        assert res.error_estimate == 0.0
        assert res.evaluations == 1000


def test_mc_linear_within_three_sigma():
    res = mc_integrate_triangle(lambda x, y: y, 10 ** 6, seed=42)
    assert res.error_estimate > 0.0
    assert abs(res.value - 1.0 / 3.0) <= 3.0 * res.error_estimate


def test_mc_same_seed_bit_identical():
    a = mc_integrate_triangle(lambda x, y: np.cos(x) * y, 2_500_000, seed=7)
    b = mc_integrate_triangle(lambda x, y: np.cos(x) * y, 2_500_000, seed=7)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    c = mc_integrate_triangle(lambda x, y: np.cos(x) * y, 2_500_000, seed=8)
    assert c.value != a.value


def test_mc_single_sample_has_no_spread_estimate():
    res = mc_integrate_triangle(lambda x, y: y, 1, seed=0)
    assert res.evaluations == 1
    assert math.isinf(res.error_estimate)


def test_mc_sample_validation():
    with pytest.raises(ValueError):
        mc_integrate_triangle(lambda x, y: y, 0, seed=0)


def test_mc_non_finite_detected():
    with pytest.raises(NonFiniteIntegrand):
        mc_integrate_triangle(lambda x, y: np.where(x < 2.0, np.inf, 1.0), 100, 0)


def test_scalar_functions_accepted():
    # plain python callables that cannot take arrays must still work
    res = integrate_triangle(lambda x, y: 1.0, 1e-10)
    assert abs(res.value - 0.5) <= 1e-10
    mc = mc_integrate_triangle(lambda x, y: 1.0, 64, seed=0)
    assert mc.value == 0.5


SMOOTH_INTEGRANDS = [
    lambda x, y: np.ones_like(x),
    lambda x, y: x,
    lambda x, y: y * y,
    lambda x, y: x * y,
    lambda x, y: np.exp(-x - 2.0 * y),
    lambda x, y: np.sin(2.0 * x) * np.cos(y),
    lambda x, y: 1.0 / (1.0 + x + y),
    lambda x, y: np.exp(-8.0 * ((x - 0.2) ** 2 + (y - 0.7) ** 2)),
    lambda x, y: np.sqrt(0.1 + x + y),
    lambda x, y: y / (y * y + 0.5 * (1.0 - x)) ** 1.5,
]


@pytest.mark.parametrize("f", SMOOTH_INTEGRANDS)
def test_adaptive_and_mc_agree_within_three_sigma(f):
    quad = integrate_triangle(f, 1e-9)
    mc = mc_integrate_triangle(f, 400_000, seed=11)
    sigma = math.hypot(quad.error_estimate, mc.error_estimate)
    assert abs(quad.value - mc.value) <= 3.0 * sigma


# ------------------------------------------------------------ 1-D driver

def exact_scale(f):
    """Wrap a cancellation-free f(y) as the (value, scale) pair the driver takes."""
    def g(y):
        v = f(y)
        return v, abs(v)
    return g


@pytest.mark.parametrize("k", range(8))
def test_unit_interval_monomials(k):
    res = integrate_unit_interval(exact_scale(lambda y: y ** k), 1e-12)
    assert abs(res.value - 1.0 / (k + 1)) <= 1e-15
    assert res.evaluations == 4 * 15


def test_unit_interval_breakpoints_split_the_start():
    res = integrate_unit_interval(exact_scale(lambda y: 1.0), 1e-12, initial_depth=0,
                                  breakpoints=(0.3, 1.0, 0.0, -2.0))
    assert res.value == 1.0
    assert res.evaluations == 2 * 15


def test_unit_interval_endpoint_singularity_and_error_bound():
    # Int_0^1 y^(-1/2) dy = 2
    res = integrate_unit_interval(exact_scale(lambda y: 1.0 / math.sqrt(y)), 1e-10)
    assert abs(res.value - 2.0) <= res.error_estimate <= 1e-10


def test_unit_interval_validation_and_budget():
    with pytest.raises(ValueError):
        integrate_unit_interval(exact_scale(lambda y: y), 0.0)
    with pytest.raises(ValueError):
        integrate_unit_interval(exact_scale(lambda y: y), 1e-8, initial_depth=-1)
    with pytest.raises(NonConvergence):
        integrate_unit_interval(exact_scale(lambda y: y), 1e-8, budget=59)
    with pytest.raises(NonConvergence) as info:
        integrate_unit_interval(exact_scale(lambda y: 1.0 / y), 1e-8, budget=3000)
    assert info.value.evaluations <= 3000


def test_unit_interval_non_finite_detected():
    with pytest.raises(NonFiniteIntegrand):
        integrate_unit_interval(lambda y: (math.nan, 1.0), 1e-8)
    with pytest.raises(NonFiniteIntegrand):
        integrate_unit_interval(lambda y: (1.0 / (y - 0.5), 1.0), 1e-8, initial_depth=0)


def test_unit_interval_tolerance_below_rounding_stops_early():
    # a cancellation of 1e8 in every point makes 1e-12 unreachable; the
    # rounding floor ends refinement instead of the budget
    def f(y):
        return y, 1e8 * abs(y)

    with pytest.raises(NonConvergence) as info:
        integrate_unit_interval(f, 1e-12)
    assert info.value.evaluations == 4 * 15
    assert abs(info.value.value - 0.5) <= info.value.error_estimate
