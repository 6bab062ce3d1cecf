"""Adaptive quadrature: analytic values, error contract, oracle checks."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from planarcp import quadrature
from planarcp import (
    DEFAULT_MAX_EVALUATIONS,
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


def test_a_panel_at_floating_point_resolution_stalls():
    # a step inside one ulp: the first panel does not converge and its
    # halves would repeat its edges, so refinement stops on its own
    # reason, neither on the budget nor on a non-finite value
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_finite(lambda x: (x >= 1.0).astype(float), 1.0,
                         np.nextafter(1.0, 2.0), tol=1e-3)
    exc = err.value
    assert exc.reason == "quadrature stalled on an unresolvable interval"
    assert not isinstance(exc, quadrature.NonFiniteIntegrandError)
    assert "budget" not in str(exc)
    assert np.isfinite(exc.value) and np.isfinite(exc.abs_error_estimate)
    assert exc.evaluations == 15  # the first panel only


@pytest.mark.parametrize("budget", [float("nan"), 0, 0.5, -1])
def test_budget_below_one_or_nan_is_rejected(budget):
    # a NaN budget would compare false against every count and so lift
    # the cap: rejected before the integrand is called
    calls = []
    with pytest.raises(ValueError, match="evaluation budget must be >= 1"):
        integrate_finite(lambda x: calls.append(x) or np.sin(1e4 * x),
                         0.0, 1.0, tol=1e-12, max_evaluations=budget)
    assert calls == []


@pytest.mark.parametrize("budget", [1, 14])
def test_budget_below_one_panel_is_a_numerical_failure(budget):
    with pytest.raises(QuadratureConvergenceError,
                       match="^1 initial panels exceed the evaluation "
                             "budget") as err:
        integrate_finite(np.sin, 0.0, 1.0, max_evaluations=budget)
    assert err.value.evaluations == 0


def test_complex_integrand():
    res = integrate_finite(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
    expected = (np.exp(1j) - 1.0) / 1j
    assert abs(res.value - expected) <= 1e-12


def test_complex_integrand_with_zero_imaginary_part_is_real():
    # a complex integrand whose imaginary part is exactly zero integrates
    # to a Python float, not a complex with a zero imaginary part
    res = integrate_finite(lambda x: np.exp(x) + 0j, 0.0, 1.0, tol=1e-12)
    assert type(res.value) is float
    assert abs(res.value - (np.e - 1.0)) <= 1e-12 * np.e


def test_integrand_of_the_wrong_length_is_rejected():
    # an integrand must give one value or one row per abscissa
    with pytest.raises(ValueError, match=r"returned shape \(14,\) for 15 "
                                         "abscissae"):
        integrate_finite(lambda x: x[1:], 0.0, 1.0)


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
    for a, b in ((0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="expected finite a <= b"):
            integrate_finite(np.sin, a, b)
    for scale in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="decay scale must be finite "
                                             "and positive"):
            integrate_semi_infinite(np.exp, scale=scale)
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


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_semi_infinite_integrand_may_return_rows(columns):
    # rows of e^{-(k+1) x}: the Jacobian of the half-line map multiplies
    # every column, for K = 1 as for K > 1
    rates = np.arange(1, columns + 1)
    vec = integrate_semi_infinite(lambda x: np.exp(-np.outer(x, rates)),
                                  scale=1.0, tol=1e-11)
    assert vec.value.shape == vec.abs_error_estimate.shape == (columns,)
    scalars = [integrate_semi_infinite(lambda x, r=r: np.exp(-r * x),
                                       scale=1.0, tol=1e-11)
               for r in rates]
    for k, rate in enumerate(rates):
        assert abs(vec.value[k] - 1.0 / rate) <= vec.abs_error_estimate[k]
        assert vec.abs_error_estimate[k] <= 1e-11 * vec.value[k] + 1e-30
    _assert_columns_match_scalar_calls(vec, scalars, 1e-11)


# --------------------------------------------------------------------------
# the lock-step batch: n independent integrals, one integrand call a round,
# through the engine's one entry, one row of panel edges per integral

RATES = np.array([0.3, 1.0, 3.0, 10.0, 30.0])
TWO_PANELS = np.tile([0.0, 1.0, 2.0], (RATES.size, 1))


def _rows(x, rate):
    """Two columns per abscissa, one complex: e^{i r x} and e^{-r x}."""
    return np.stack([np.exp(1j * rate * x), np.exp(-rate * x)], axis=1)


def _batch(f, edges, tol=1e-9, max_evaluations=DEFAULT_MAX_EVALUATIONS,
           point=None):
    return quadrature._integrate_points(
        f, edges, quadrature._Request(tol, max_evaluations), point)


def _by_row(i):
    """The name of integral i of a batch in a failure message."""
    return f"integral {i}"


def test_batch_matches_separate_calls():
    calls = []

    def f(x, index):
        calls.append(index)
        return _rows(x, RATES[index])

    tol = 1e-11
    res = _batch(f, TWO_PANELS, tol=tol)
    assert res.value.shape == res.abs_error_estimate.shape \
        == (RATES.size, 2)
    assert res.evaluations.shape == (RATES.size,)
    rounds = []
    for k, rate in enumerate(RATES):
        alone_calls = []
        alone = integrate_finite(
            lambda x: alone_calls.append(x) or _rows(x, rate), 0.0, 2.0,
            tol=tol, initial_intervals=2)
        rounds.append(len(alone_calls))
        # each integral keeps its own contract, and agrees with the
        # separate call within the two reported errors
        assert np.all(res.abs_error_estimate[k]
                      <= tol * np.abs(res.value[k]) + 1e-30)
        assert np.all(np.abs(res.value[k] - alone.value)
                      <= res.abs_error_estimate[k] + alone.abs_error_estimate)
        # its own partition, refined as it would be alone
        assert res.evaluations[k] == alone.evaluations
        exact = (np.exp(2j * rate) - 1.0) / (1j * rate)
        assert abs(res.value[k, 0] - exact) <= 1e-10 * abs(exact)
    # one integrand call per round: as many as the slowest integral needs
    assert len(calls) == max(rounds) > min(rounds)


def test_batch_scalar_integrand_and_single_panels():
    res = _batch(lambda x, index: np.exp(-RATES[index] * x),
                 np.tile([0.0, 1.0], (RATES.size, 1)), tol=1e-12)
    assert res.value.shape == (RATES.size,)
    assert np.allclose(res.value, -np.expm1(-RATES) / RATES, rtol=1e-12,
                       atol=0.0)


def test_converged_integrals_leave_the_batch():
    # an index, once gone from the integrand calls, never comes back, and
    # each integral is evaluated at exactly its reported count
    calls = []

    def f(x, index):
        calls.append(np.bincount(index, minlength=RATES.size))
        return _rows(x, RATES[index])

    res = _batch(f, TWO_PANELS, tol=1e-12)
    present = np.array(calls) > 0
    assert len(calls) > 1 and not present.all()
    for column in present.T:
        last = np.flatnonzero(column)[-1]
        assert column[:last + 1].all()
    assert np.array_equal(np.sum(calls, axis=0), res.evaluations)


def test_budget_is_per_integral():
    # the budget of the costliest integral alone caps each integral of
    # the batch, though together they spend more
    alone = [integrate_finite(lambda x, r=r: np.cos(r * x), 0.0, 2.0,
                              tol=1e-12).evaluations for r in RATES]
    budget = max(alone)
    res = _batch(lambda x, index: np.cos(RATES[index] * x),
                 np.tile([0.0, 2.0], (RATES.size, 1)), tol=1e-12,
                 max_evaluations=budget)
    assert res.evaluations.tolist() == alone
    assert res.evaluations.sum() > budget


def test_one_exhausted_budget_raises_with_its_own_count():
    hard = lambda x: np.sin(1e4 * x)  # noqa: E731
    with pytest.raises(QuadratureConvergenceError) as alone:
        integrate_finite(hard, 0.0, 1.0, tol=1e-12, max_evaluations=300)

    def f(x, index):
        return np.where(index == 1, hard(x), np.exp(-x))

    with pytest.raises(QuadratureConvergenceError,
                       match="^integral 1: quadrature did not") as batch:
        _batch(f, np.tile([0.0, 1.0], (3, 1)), tol=1e-12,
               max_evaluations=300, point=_by_row)
    # the same partition and count as the integral alone: the other two
    # integrals charge nothing to its budget
    assert batch.value.evaluations == alone.value.evaluations <= 300
    assert batch.value.value == alone.value.value
    assert batch.value.abs_error_estimate == alone.value.abs_error_estimate
    # the engine names the integral by its row; the entry re-raises the
    # failure under that name, with no index left outside
    assert batch.value.__cause__.index == 1
    assert (batch.value.index, alone.value.index) == (None, None)
    assert alone.value.reason \
        == "quadrature did not converge within the evaluation budget"
    assert batch.value.reason == "integral 1: " + alone.value.reason


def _bumps(amplitudes):
    """Four narrow peaks at the centres of the panels of [0, 1] cut in
    four, of the given heights: panel errors in the order of these."""
    centres = np.array([0.125, 0.375, 0.625, 0.875])
    amplitudes = np.asarray(amplitudes, dtype=float)

    def f(x):
        return (amplitudes / (1.0 + (1e3 * (x[:, None] - centres)) ** 2)
                ).sum(axis=1)
    return f


@pytest.mark.parametrize("batch", [False, True])
def test_short_budget_bisects_the_worst_panels_first(batch):
    # 4 initial panels (60 abscissae) and room for two bisections (60
    # more): all four panels fail, and the two of largest error split
    orders = ([1.0, 4.0, 2.0, 3.0], [3.0, 1.0, 4.0, 2.0])
    worst = [{1, 3}, {0, 2}]
    calls = []
    edges = np.linspace(0.0, 1.0, 5)
    with pytest.raises(QuadratureConvergenceError) as err:
        if batch:
            fs = [_bumps(a) for a in orders]

            def f(x, index):
                calls.append((x, index))
                out = np.empty(x.size)
                for k, g in enumerate(fs):
                    out[index == k] = g(x[index == k])
                return out

            _batch(f, np.tile(edges, (2, 1)), tol=1e-12,
                   max_evaluations=120)
        else:
            g = _bumps(orders[0])

            def f(x):
                calls.append((x, np.zeros(x.size, dtype=int)))
                return g(x)

            integrate_finite(f, 0.0, 1.0, tol=1e-12, max_evaluations=120,
                             initial_intervals=4)
    assert err.value.evaluations == 120
    assert len(calls) == 2
    x, index = calls[1]
    for k in range(2 if batch else 1):
        split = set(np.floor(4.0 * x[index == k]).astype(int).tolist())
        assert split == worst[k]


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("f, scalar", [
    (lambda x: np.cos(10.0 * x) / (1.0 + x), True),
    (lambda x: _rows(x, 3.0), False),
], ids=["scalar", "complex-rows"])
def test_single_integral_is_a_batch_of_one(f, scalar, m):
    # bit for bit: the engine has one path for one integral and for many
    single = integrate_finite(f, 0.5, 2.0, tol=1e-11, initial_intervals=m)
    edges = np.linspace(0.5, 2.0, m + 1)
    batch = _batch(lambda x, index: f(x), edges[None], tol=1e-11)
    assert np.array_equal(single.value, batch.value[0])
    assert np.array_equal(single.abs_error_estimate,
                          batch.abs_error_estimate[0])
    assert single.evaluations == batch.evaluations[0]
    assert type(single.evaluations) is int
    if scalar:
        assert type(single.value) is float
        assert type(single.abs_error_estimate) is float


def test_half_line_starts_from_four_panels():
    # x = 0, scale/3, scale, 3 scale, infinity: 15 abscissae in each
    # quarter of the mapped line t = x / (scale + x)
    calls = []
    scale = 2.0

    def f(x):
        calls.append(x)
        return np.exp(-x / scale)

    integrate_semi_infinite(f, scale=scale)
    t = calls[0] / (scale + calls[0])
    assert np.bincount(np.floor(4.0 * t).astype(int)).tolist() \
        == [quadrature.PANEL_NODES] * 4


def test_empty_panels_of_a_row_are_dropped():
    # a repeated edge leaves an empty panel, which costs no abscissae and
    # changes no bit of the result
    f = lambda x, index: np.cos(3.0 * x)  # noqa: E731
    plain = _batch(f, np.array([[0.0, 0.5, 1.0]]), tol=1e-12)
    padded = _batch(f, np.array([[0.0, 0.5, 0.5, 1.0, 1.0]]), tol=1e-12)
    assert np.array_equal(padded.value, plain.value)
    assert np.array_equal(padded.abs_error_estimate,
                          plain.abs_error_estimate)
    assert np.array_equal(padded.evaluations, plain.evaluations)


@pytest.mark.parametrize("edges", [[[0.0, 1.0], [1.0, 1.0]],
                                   [[1.0, 1.0], [0.0, 1.0]],
                                   [[1.0, 1.0], [2.0, 2.0]]])
def test_a_row_without_panels_is_a_zero_integral(edges):
    # a row whose panels are all empty is an integral of 0 with error 0
    # after 0 evaluations, whichever its place and however hard the
    # other rows' integrals are to converge
    edges = np.array(edges)
    hard = lambda x, index: np.sqrt(x)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _batch(hard, edges, tol=1e-12)
    alone = [integrate_finite(np.sqrt, lo, hi, tol=1e-12)
             for lo, hi in edges]
    assert res.value.shape == res.abs_error_estimate.shape == (2,)
    assert res.value.tolist() == [r.value for r in alone]
    assert res.abs_error_estimate.tolist() \
        == [r.abs_error_estimate for r in alone]
    assert res.evaluations.tolist() == [r.evaluations for r in alone]
    # the row with panels needs rounds of refinement, each of which
    # takes every row's share of its target
    assert all(n > 15 for n, (lo, hi) in zip(res.evaluations, edges)
               if hi > lo)


def test_batch_non_finite_integrand():
    def f(x, index):
        return np.where((index == 2) & (x > 0.5), np.nan, x)

    with pytest.raises(quadrature.NonFiniteIntegrandError,
                       match="^integral 2: integrand returned a non-finite"
                       ) as err:
        _batch(f, np.tile([0.0, 1.0], (4, 1)), point=_by_row)
    assert err.value.evaluations == 15
    assert err.value.__cause__.index == 2
    assert err.value.index is None
