"""Adaptive quadrature: analytic values, error contract, oracle checks."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from planarcp import quadrature
from planarcp import (
    QuadratureConvergenceError,
    integrate_finite,
    integrate_semi_infinite,
)
from planarcp.forces import mirror_force_bracket

W10 = 2.5e15


def test_exponential_decay():
    res = integrate_semi_infinite(lambda x: np.exp(-x), scale=1.0, tol=1e-10)
    assert abs(res.value - 1.0) <= 1e-10
    assert res.abs_error_estimate <= 1e-10 * 1.0 + 1e-30
    assert res.evaluations > 0


def test_lorentzian_kernel():
    # the polarisability kernel at physical scale: integral is pi/2
    f = lambda xi: W10 / (W10**2 + xi**2)
    res = integrate_semi_infinite(f, scale=W10, tol=1e-12)
    assert abs(res.value - np.pi / 2.0) <= 1e-12 * np.pi


def test_finite_sine():
    res = integrate_finite(np.sin, 0.0, np.pi, tol=1e-12)
    assert abs(res.value - 2.0) <= 1e-11


def test_rule_tables_at_full_precision():
    # both rules integrate 1 to 2 on [-1, 1]; on one panel G7 is exact up
    # to degree 13 and K15 up to degree 22, so truncated tables show as
    # a rule error well above rounding
    ulp = np.spacing(2.0)
    assert abs(quadrature._WK.sum() - 2.0) <= 4 * ulp
    assert abs(quadrature._WG.sum() - 2.0) <= 4 * ulp
    g7 = quadrature._WG @ quadrature._XK[1::2] ** 12
    k15 = quadrature._WK @ quadrature._XK ** 22
    assert abs(g7 * 13.0 / 2.0 - 1.0) <= 1e-15
    assert abs(k15 * 23.0 / 2.0 - 1.0) <= 1e-15


def test_zero_width_interval():
    res = integrate_finite(np.sin, 1.3, 1.3)
    assert res.value == 0.0
    assert res.abs_error_estimate == 0.0
    assert res.evaluations == 0


def _w(x):
    return mirror_force_bracket(x) / x**3


def _w_prime(x):
    x = np.asarray(x, dtype=float)
    return ((3.0 * x * x - 6.0) * np.cos(x)
            + (x**3 - 6.0 * x) * np.sin(x)) / x**4


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (1.0, 11.0), (8.0, 8.3)])
def test_antiderivative_identity(a, b):
    # first validate the derivative formula itself by central differences
    for x in (0.7, 2.0, 9.0):
        h = 1e-6 * x
        fd = (_w(x + h) - _w(x - h)) / (2.0 * h)
        assert abs(fd - _w_prime(x)) <= 1e-7 * abs(_w_prime(x))
    res = integrate_finite(_w_prime, a, b, tol=1e-12)
    expected = _w(b) - _w(a)
    assert abs(res.value - expected) <= 1e-10 * max(abs(expected), abs(_w(a)))


def test_linearity():
    rng = np.random.default_rng(7)
    f = lambda x: np.exp(-x)
    g = lambda x: x * np.exp(-0.5 * x)
    res_f = integrate_semi_infinite(f, scale=1.0, tol=1e-12)
    res_g = integrate_semi_infinite(g, scale=2.0, tol=1e-12)
    for _ in range(5):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        combo = integrate_semi_infinite(lambda x: a * f(x) + b * g(x),
                                        scale=2.0, tol=1e-12)
        expected = a * res_f.value + b * res_g.value
        tol = (abs(a) * res_f.abs_error_estimate
               + abs(b) * res_g.abs_error_estimate
               + combo.abs_error_estimate + 1e-14 * abs(expected))
        assert abs(combo.value - expected) <= tol


@pytest.mark.parametrize("make", [
    lambda: (lambda x: np.exp(-x) * np.cos(3.0 * x), "semi"),
    lambda: (lambda x: 1.0 / (1.0 + x * x), "semi"),
    lambda: (lambda x: np.sin(7.0 * x) ** 2, "finite"),
])
def test_tolerance_monotonicity(make):
    f, kind = make()
    previous = np.inf
    for tol in (1e-6, 1e-8, 1e-10):
        if kind == "semi":
            res = integrate_semi_infinite(f, scale=1.0, tol=tol)
        else:
            res = integrate_finite(f, 0.0, 3.0, tol=tol)
        assert res.abs_error_estimate <= previous
        previous = res.abs_error_estimate


def test_budget_exhaustion_reports_progress():
    f = lambda x: np.sin(1e4 * x)
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_finite(f, 0.0, 1.0, tol=1e-12, max_evaluations=300)
    assert err.value.evaluations <= 300
    assert err.value.abs_error_estimate > 0.0
    assert np.isfinite(err.value.value)


def test_nan_integrand_rejected():
    def f(x):
        return np.where(x > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        integrate_finite(f, 0.0, 1.0)


def test_non_finite_integrand_is_a_numerical_failure():
    f = lambda x: np.where(x > 0.5, np.inf, 1.0)
    with pytest.raises(QuadratureConvergenceError, match="non-finite"):
        integrate_finite(f, 0.0, 1.0)


def test_initial_panels_count_against_the_budget():
    # 20,000 initial panels would cost 300,000 evaluations
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_finite(np.cos, 0.0, 1.0, max_evaluations=1000,
                         initial_intervals=20000)
    assert err.value.evaluations <= 1000


def test_complex_integrand():
    res = integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
    expected = (np.exp(1j) - 1.0) / 1j
    assert abs(res.value - expected) <= 1e-12


@pytest.mark.parametrize("f,a,b", [
    (lambda x: np.exp(-x * x), 0.0, 5.0),
    (lambda x: np.cos(10.0 * x) / (1.0 + x), 0.0, 4.0),
])
def test_against_scipy_quadpack(f, a, b):
    res = integrate_finite(f, a, b, tol=1e-11)
    oracle, _ = scipy_quad(f, a, b, epsabs=1e-14, epsrel=1e-13)
    assert abs(res.value - oracle) <= 1e-10 * abs(oracle)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite(np.exp, scale=-1.0)
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 0.0, 1.0, tol=2.0)


FINITE_COLUMNS = (
    lambda x: np.sin(7.0 * x) ** 2,
    lambda x: np.exp(-x * x),
    lambda x: np.cos(10.0 * x) / (1.0 + x),
    lambda x: np.exp(1j * x),
)


def _assert_columns_match_scalar_calls(vec, scalars, tol):
    assert isinstance(vec.value, np.ndarray)
    assert isinstance(vec.abs_error_estimate, np.ndarray)
    assert isinstance(vec.evaluations, int)
    assert vec.value.shape == vec.abs_error_estimate.shape == (len(scalars),)
    for k, res in enumerate(scalars):
        # each column keeps the scalar contract and agrees with the scalar
        # call within the two reported errors
        assert vec.abs_error_estimate[k] <= tol * abs(vec.value[k]) + 1e-30
        assert abs(vec.value[k] - res.value) \
            <= vec.abs_error_estimate[k] + res.abs_error_estimate


def test_vector_finite_integral_equals_scalar_calls():
    f = lambda x: np.stack([g(x) for g in FINITE_COLUMNS], axis=1)
    vec = integrate_finite(f, 0.0, 3.0, tol=1e-11)
    scalars = [integrate_finite(g, 0.0, 3.0, tol=1e-11)
               for g in FINITE_COLUMNS]
    _assert_columns_match_scalar_calls(vec, scalars, 1e-11)
    assert abs(vec.value[3] - (np.exp(3j) - 1.0) / 1j) <= 1e-10


def test_vector_semi_infinite_integral_with_column_scales():
    rates = np.array([1.0, 1e-2, 50.0, 3e4])
    seen = []

    def f(x):
        seen.append(x.shape)
        return np.exp(-x * rates) * (1.0 + np.cos(x * rates))

    vec = integrate_semi_infinite(f, scale=1.0 / rates, tol=1e-10)
    assert all(len(shape) == 2 and shape[1] == rates.size for shape in seen)
    scalars = [integrate_semi_infinite(
        lambda x, r=r: np.exp(-x * r) * (1.0 + np.cos(x * r)),
        scale=1.0 / r, tol=1e-10) for r in rates]
    _assert_columns_match_scalar_calls(vec, scalars, 1e-10)
    # Int_0^inf e^{-r x}(1 + cos r x) dx = 3 / (2 r)
    assert np.all(np.abs(vec.value * rates - 1.5) <= 1e-9)
