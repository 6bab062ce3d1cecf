"""Adaptive numerical integration with certified error estimates.

All potentials and forces in this package reduce to one-dimensional
integrals: semi-infinite imaginary-frequency integrals, finite spatial
integrals across a slab, and transverse-wavevector integrals for the
half-space Green tensor.  They are all evaluated by the same adaptive
Gauss-Kronrod (G7/K15) scheme.

Integrands must be vectorised: they are called with a 1-d numpy array
of abscissae and return either one value per abscissa (a scalar
integral) or a row of K values per abscissa, shape (N, K) (K integrals
on one shared partition).  Values may be real or complex.  The
abscissae of one call come panel by panel, PANEL_NODES consecutive
nodes per panel.

Refinement is batched: all initial panels are evaluated in one
integrand call, and every round bisects, again in one call, each panel
whose error in any unconverged column exceeds that column's equal
share of its target, (tol * |value_k| + abs_floor) / panels.

The error contract holds for every column k: on success the reported
absolute error estimate satisfies

    abs_error_estimate_k <= tol * |value_k| + abs_floor

and non-convergence within the evaluation budget raises
:class:`QuadratureConvergenceError` carrying the best value and the
achieved estimate.  A silently truncated result is never returned.
The budget counts abscissae of the shared partition (one abscissa
evaluates all K columns) and caps each integral on its own; the
integrals nested inside an integrand have budgets of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureConvergenceError",
    "NonFiniteIntegrandError",
    "integrate_finite",
    "integrate_semi_infinite",
]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] to the full
# precision of QUADPACK's qk15 (Piessens et al., 1983).  Both rules are
# symmetric: listed are the nodes x >= 0, their K15 weights, and the G7
# weights of x = 0, _X[2], _X[4], _X[6].
_X = np.array([
    0.0, 0.207784955007898467600689403773245,
    0.405845151377397166906606412076961, 0.586087235467691130294144838258730,
    0.741531185599394439863864773280788, 0.864864423359769072789712788640926,
    0.949107912342758524526189684047851, 0.991455371120812639206854697526329,
])
_W = np.array([
    0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
    0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
    0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
    0.063092092629978553290700663189204, 0.022935322010529224963732008058970,
])
_G = np.array([
    0.417959183673469387755102040816327, 0.381830050505118944950369775488975,
    0.279705391489276667901467771423780, 0.129484966168869693270611432679082,
])
_XK = np.concatenate([-_X[:0:-1], _X])
_WK = np.concatenate([_W[:0:-1], _W])
_WG = np.concatenate([_G[:0:-1], _G])
PANEL_NODES = _XK.size  # abscissae per panel


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its certified error estimate.

    value : float or complex; an ndarray of K values for a vector
        integrand
    abs_error_estimate : float, >= 0, same units as value; an ndarray of
        K estimates for a vector integrand
    evaluations : int, number of abscissae of the shared partition at
        which the integrand was evaluated
    """

    value: float | complex | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence.

    Carries the best available value and the achieved error estimate so
    callers can report exactly how far the integration got.
    """

    def __init__(self, message, value, abs_error_estimate, evaluations):
        super().__init__(
            f"{message} (best value {value}, achieved error estimate "
            f"{np.max(abs_error_estimate):.3e} after {evaluations} "
            "evaluations)"
        )
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations


class NonFiniteIntegrandError(QuadratureConvergenceError, ValueError):
    """Raised when the integrand returns inf or nan.

    A numerical failure like any other non-convergence, and a ValueError
    because the integrand broke its contract.
    """


def _gk15(f, lo, hi, spent):
    """G7/K15 on every panel [lo_i, hi_i] from one integrand call.

    Returns the K15 values and the |K15 - G7| error estimates, each of
    shape (panels, K), and whether the integrand is scalar (K = 1).
    `spent` is the evaluation count before this call, for error reports.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel()))
    if y.ndim not in (1, 2) or y.shape[0] != x.size:
        raise ValueError(
            f"integrand returned shape {y.shape} for {x.size} abscissae; "
            "expected one value or one row per abscissa"
        )
    scalar = y.ndim == 1
    y = y.reshape(lo.size, PANEL_NODES, -1)
    if not np.isfinite(y).all():
        k = np.argmin(np.isfinite(y).all(axis=(1, 2)))
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value on [{lo[k]}, {hi[k]}]",
            np.nan, np.inf, spent + x.size,
        )
    val_k = half[:, None] * (_WK @ y)
    val_g = half[:, None] * (_WG @ y[:, 1::2])  # Gauss nodes: odd slots
    # |K15 - G7| estimates the G7 error and so bounds the K15 error
    # conservatively; sharper heuristics tend to under-report on the
    # oscillatory integrands that occur here.
    return val_k, np.abs(val_k - val_g), scalar


def _adapt(f, a, b, tol, abs_floor, max_evaluations, initial_intervals=1):
    if not 0.0 < tol < 1.0:
        raise ValueError(f"relative tolerance must be in (0, 1), got {tol}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)

    # an oscillatory integrand can fool a single G7/K15 panel into a
    # deceptively small error estimate; callers that know the phase span
    # request enough initial panels to resolve it
    edges = np.linspace(a, b, max(int(initial_intervals), 1) + 1)
    lo, hi = edges[:-1], edges[1:]
    if lo.size * PANEL_NODES > max_evaluations:
        raise QuadratureConvergenceError(
            f"{lo.size} initial panels exceed the evaluation budget",
            np.nan, np.inf, 0,
        )
    val, err, scalar = _gk15(f, lo, hi, 0)
    evaluations = lo.size * PANEL_NODES

    while True:
        total_val = val.sum(axis=0)
        total_err = err.sum(axis=0)
        target = tol * np.abs(total_val) + abs_floor
        failing = total_err > target
        if not failing.any():
            break
        # a failing column has at least one panel above its equal share
        ratio = err[:, failing] / (target[failing] / lo.size)
        split = (ratio > 1.0).any(axis=1)
        room = (max_evaluations - evaluations) // (2 * PANEL_NODES)
        if room == 0:
            raise QuadratureConvergenceError(
                "quadrature did not converge within the evaluation budget",
                _unpack(total_val, scalar), _unpack(total_err, scalar),
                evaluations,
            )
        if np.count_nonzero(split) > room:
            # the budget runs short: bisect the worst panels that fit
            split[:] = False
            split[np.argsort(ratio.max(axis=1), kind="stable")[-room:]] = True
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        if ((mid == left) | (mid == right)).any():
            # interval at floating-point resolution; cannot refine further
            raise QuadratureConvergenceError(
                "quadrature stalled on an unresolvable interval",
                _unpack(total_val, scalar), _unpack(total_err, scalar),
                evaluations,
            )
        new_lo = np.concatenate([left, mid])
        new_hi = np.concatenate([mid, right])
        new_val, new_err, _ = _gk15(f, new_lo, new_hi, evaluations)
        evaluations += new_lo.size * PANEL_NODES
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])

    if np.iscomplexobj(total_val) and not np.any(total_val.imag):
        total_val = total_val.real
    return QuadratureResult(_unpack(total_val, scalar),
                            _unpack(total_err, scalar), evaluations)


def _unpack(column_values, scalar):
    """Python scalar for a scalar integrand, else the ndarray itself."""
    if not scalar:
        return column_values
    return column_values[0].item()


def integrate_finite(f, a, b, tol=1e-9, abs_floor=1e-30,
                     max_evaluations=100_000, initial_intervals=1):
    """Integrate a vectorised integrand f over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        f(x: ndarray (N,)) -> ndarray (N,) or (N, K), real or complex,
        finite everywhere on [a, b].
    a, b : float
        integration bounds, a <= b; a zero-width interval yields 0.
    tol : float
        relative tolerance; the reported error estimate satisfies
        err_k <= tol * |value_k| + abs_floor for every column k.
    abs_floor : float
        absolute error floor, in the units of the result.
    max_evaluations : int
        budget of abscissae before :class:`QuadratureConvergenceError`
        is raised; the initial panels count against it.
    initial_intervals : int
        number of equal panels the interval starts from; raise it for
        oscillatory integrands so no oscillation hides inside a single
        15-point panel.

    Returns
    -------
    QuadratureResult; value and abs_error_estimate are ndarrays of K
    entries when f returns rows.
    """
    if b < a:
        raise ValueError(f"expected a <= b, got a={a}, b={b}")
    return _adapt(f, float(a), float(b), tol, abs_floor, max_evaluations,
                  initial_intervals)


def integrate_semi_infinite(f, scale=1.0, tol=1e-9, abs_floor=1e-30,
                            max_evaluations=100_000):
    """Integrate a vectorised integrand f over (0, infinity).

    The half line is mapped onto (0, 1) through x = scale * t / (1 - t)
    and the image is integrated adaptively.  `scale` should be the
    characteristic decay scale of f: the map places half of the unit
    interval below x = scale.  f must decay faster than 1/x beyond the
    scale for the transformed integrand to remain integrable.

    With an array `scale` of K entries, column k is mapped with
    scale[k]: f is called with an (N, K) array of abscissae, column k
    holding x = scale[k] * t / (1 - t) on the shared partition in t, and
    must return an (N, K) array.

    Returns
    -------
    QuadratureResult
    """
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0.0):
        raise ValueError(f"decay scale must be positive, got {scale}")

    def g(t):
        if scale.ndim:
            t = t[:, None]
        one_minus = 1.0 - t
        x = scale * t / one_minus
        return f(x) * (scale / one_minus**2)

    return _adapt(g, 0.0, 1.0, tol, abs_floor, max_evaluations)
