"""Adaptive numerical integration with certified error estimates.

All potentials and forces in this package reduce to one-dimensional
integrals (over imaginary frequency, across a slab, over the transverse
wavevector), all evaluated by one adaptive Gauss-Kronrod (G7/K15)
engine that refines n independent integrals of K columns each.

Integrands are vectorised: called with a 1-d numpy array of abscissae,
PANEL_NODES consecutive nodes per panel, they return one value (K = 1)
or a row of K values per abscissa, real or complex.  The engine's one
entry, _integrate_points, runs n integrals in lock-step, each from the
panels between the consecutive edges of its own row, and also passes
the integrand the integral of every abscissa; integrate_finite and
integrate_semi_infinite take the same path as a batch of one.

Each round bisects, in one integrand call for the whole batch, every
panel whose error in an unconverged column exceeds that column's equal
share of its integral's target, (tol * |value_k| + floor) / panels.  A
converged integral has no such panel, so it is not evaluated again and
its result stays as it is; a batch costs the rounds of its slowest.

The error contract holds for every column k of every integral: on
success the reported absolute error estimate satisfies

    abs_error_estimate_k <= tol * |value_k| + floor

and non-convergence within the evaluation budget raises
:class:`QuadratureConvergenceError` carrying the best value and the
achieved estimate of the integral that ran out.  A silently truncated
result is never returned.  A _Request holds the tolerance and the
budget and checks both when it is made, so that every public call
rejects a bad one before any other work.  One ledger per integral
counts its panels and their abscissae (one abscissa evaluates all K
columns), initial panels included: that count is `evaluations`, and
the budget caps it for each integral of a batch on its own; when it
runs short, the panels of largest error are bisected first.  An
integral nested inside an integrand has its own budget and a tenth of
the outer tolerance, by _Request.nested(), the rule's one place.

The floor is the engine constant 1e-30, in the units of the result.  It
binds only where a whole integral is about floor / tol or less, as for
a third of the force module's slab integrals of dU/dz, in J, in the
mirror-slab benchmark (README, numerical notes); the reported error
still bounds the deviation.
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
    "DEFAULT_MAX_EVALUATIONS",
]

# abscissae one integral may evaluate, initial panels included
DEFAULT_MAX_EVALUATIONS = 100_000
# absolute part of every column's error target, in the units of the
# result (module docstring)
_ABS_FLOOR = 1e-30

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
# initial panels of the mapped half line t in [0, 1]: four equal ones,
# x = 0, scale/3, scale, 3 scale, infinity
_HALF_LINE = np.linspace(0.0, 1.0, 5)


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its certified error estimate.

    value : float or complex; an ndarray of K values for a vector
        integrand; from the engine's batch an ndarray of shape (n,) or
        (n, K)
    abs_error_estimate : float, >= 0, same units as value; an ndarray of
        the shape of value for a vector integrand or a batch
    evaluations : int, number of abscissae of the shared partition at
        which the integrand was evaluated; from the engine's batch an
        ndarray of the n per-integral counts
    """

    value: float | complex | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence.

    Carries the best available value and the achieved error estimate so
    callers can report exactly how far the integration got; `reason` is
    the message without them.  `index` is the failing integral's row in
    the engine's batch, by which _integrate_points names it before it
    re-raises; outside the engine it is None.
    """

    def __init__(self, message, value, abs_error_estimate, evaluations,
                 index=None):
        super().__init__(
            f"{message} (best value {value}, achieved error estimate "
            f"{np.max(abs_error_estimate):.3e} after {evaluations} "
            "evaluations)"
        )
        self.reason = message
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations
        self.index = index


class NonFiniteIntegrandError(QuadratureConvergenceError, ValueError):
    """Raised when the integrand returns inf or nan.

    A numerical failure like any other non-convergence, and a ValueError
    because the integrand broke its contract.
    """


def _gk15(f, lo, hi, owner, spent):
    """G7/K15 on every panel [lo_i, hi_i] from one integrand call
    f(x, index), index holding the integral owner_i of each abscissa.

    Returns the K15 values and the |K15 - G7| error estimates, each of
    shape (panels, K), and whether the integrand is scalar (K = 1).
    spent, the ledger's per-integral abscissae, this call's included,
    gives the count to report when a panel is not finite.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel(), owner.repeat(PANEL_NODES)))
    if y.ndim not in (1, 2) or y.shape[0] != x.size:
        raise ValueError(
            f"integrand returned shape {y.shape} for {x.size} abscissae; "
            "expected one value or one row per abscissa"
        )
    scalar = y.ndim == 1
    y = y.reshape(lo.size, PANEL_NODES, 1 if scalar else y.shape[1])
    if not np.isfinite(y).all():
        i = np.argmin(np.isfinite(y).all(axis=(1, 2)))
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value on [{lo[i]}, {hi[i]}]",
            np.nan, np.inf, int(spent[owner[i]]), int(owner[i]))
    val_k = half[:, None] * (_WK @ y)
    val_g = half[:, None] * (_WG @ y[:, 1::2])  # Gauss nodes: odd slots
    # |K15 - G7| estimates the G7 error and so bounds the K15 error
    # conservatively; sharper heuristics tend to under-report on the
    # oscillatory integrands that occur here.
    return val_k, np.abs(val_k - val_g), scalar


def _adapt(f, lo, hi, owner, n, request):
    """Lock-step G7/K15 refinement of n >= 1 integrals through f(x,
    index) from the initial panels [lo_j, hi_j] of integral owner_j
    (0..n-1; one that owns none is 0 with error 0 after 0 evaluations).
    Returns the QuadratureResult of _integrate_points.
    """
    tol, budget = request.rel_tol, request.budget
    # the ledger, per integral: panels, and abscissae spent on them
    panels = np.bincount(owner, minlength=n)
    spent = PANEL_NODES * panels

    def failure(message, i):
        return QuadratureConvergenceError(
            message, _unpack(total_val[i], scalar),
            _unpack(total_err[i], scalar), int(spent[i]), int(i))

    if spent.max() > budget:
        raise QuadratureConvergenceError(
            f"{panels.max()} initial panels exceed the evaluation budget",
            np.nan, np.inf, 0, int(np.argmax(panels)))
    val, err, scalar = _gk15(f, lo, hi, owner, spent)
    while True:
        total_val = _per_integral(val, owner, n)
        total_err = _per_integral(err, owner, n)
        target = tol * np.abs(total_val) + _ABS_FLOOR
        failing = total_err > target
        if not failing.any():
            break
        # a failing column has at least one panel above its equal share;
        # a converged or empty integral has none, so it is never split
        share = target / np.maximum(panels, 1)[:, None]
        ratio = np.where(failing[owner], err / share[owner], 0.0)
        split = (ratio > 1.0).any(axis=1)
        if spent.max() + 2 * PANEL_NODES * np.count_nonzero(split) > budget:
            # the budget may run short for some integral: bisect its
            # worst panels that fit, or give up when none fits
            wanted = np.bincount(owner[split], minlength=n)
            room = (budget - spent) // (2 * PANEL_NODES)
            for i in np.flatnonzero(wanted > room):
                if room[i] == 0:
                    raise failure("quadrature did not converge within the "
                                  "evaluation budget", i)
                mine = np.flatnonzero(owner == i)
                worst = np.argsort(ratio[mine].max(axis=1), kind="stable")
                split[mine] = False
                split[mine[worst[-room[i]:]]] = True
        left, right = lo[split], hi[split]
        mid = 0.5 * (left + right)
        stalled = (mid == left) | (mid == right)
        if stalled.any():
            # interval at floating-point resolution; cannot refine further
            raise failure("quadrature stalled on an unresolvable interval",
                          owner[split][np.argmax(stalled)])
        # kept panels first, then the left and the right halves, so each
        # integral's panels stay in order for the sums above
        keep = ~split
        parent = owner[split]
        grown = np.bincount(parent, minlength=n)  # a bisection adds one
        panels += grown
        spent += 2 * PANEL_NODES * grown
        new_lo = np.concatenate([left, mid])
        new_hi = np.concatenate([mid, right])
        new_owner = np.concatenate([parent, parent])
        owner = np.concatenate([owner[keep], new_owner])
        new_val, new_err, _ = _gk15(f, new_lo, new_hi, new_owner, spent)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])

    if np.iscomplexobj(total_val) and not np.any(total_val.imag):
        total_val = total_val.real
    if scalar:
        total_val, total_err = total_val[:, 0], total_err[:, 0]
    return QuadratureResult(total_val, total_err, spent)


def _per_integral(a, owner, n):
    """Sums of the panel rows a, shape (panels, K), over the panels of
    each of n integrals: shape (n, K)."""
    flat = a.view(float)  # complex columns as (real, imag) pairs
    width = flat.shape[1]
    index = owner if width == 1 else (owner[:, None] * width
                                      + np.arange(width)).ravel()
    sums = np.bincount(index, flat.ravel(), n * width)
    return sums.reshape(n, width).view(a.dtype)


def _unpack(column_values, scalar):
    """Python scalar for a scalar integrand, else the ndarray itself."""
    return column_values[0].item() if scalar else column_values


@dataclass(frozen=True)
class _Request:
    """Tolerance and budget of abscissae (QUADPACK's `limit`) per
    integral, both checked when the request is made."""

    rel_tol: float
    budget: float

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(
                f"relative tolerance must be in (0, 1), got {self.rel_tol}")
        if not self.budget >= 1:  # NaN too
            raise ValueError(
                f"evaluation budget must be >= 1, got {self.budget}")

    def nested(self):
        """An inner integral's request: a tenth of this one's tolerance."""
        return _Request(self.rel_tol / 10.0, self.budget)


def _integrate_points(integrand, edges, request, point=None):
    """The engine's one entry: n integrals in lock-step, one per point
    of a call, through the integrand f(x, index).  Point i starts from
    the panels between consecutive entries of row i of the (n, m + 1)
    array `edges`, ascending, in row order, with empty panels dropped; a
    row with none is 0.  Returns a QuadratureResult of shape (n,) or
    (n, K) with an ndarray of the n per-integral counts, each integral
    converged to the request's tolerance within its own budget.

    The engine's QuadratureConvergenceError is re-raised by _named,
    named by point(index) when `point` is given (index None for a
    failure nested inside the integrand)."""
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.arange(edges.shape[0]).repeat(edges.shape[1] - 1)
    keep = hi > lo
    try:
        return _adapt(integrand, lo[keep], hi[keep], owner[keep],
                      edges.shape[0], request)
    except QuadratureConvergenceError as exc:
        where = "" if point is None else f"{point(exc.index)}: "
        raise _named(exc, where) from exc


def _named(exc, where):
    """exc, a QuadratureConvergenceError, without an index and its
    message prefixed by `where`: the one way a failure is re-raised."""
    return type(exc)(where + exc.reason, exc.value, exc.abs_error_estimate,
                     exc.evaluations)


def _single(f, edges, request):
    """QuadratureResult of one integral from the panels between
    consecutive edges: the engine on a batch of one, with Python scalars
    for a scalar integrand."""
    res = _integrate_points(lambda x, index: f(x), edges[None], request)
    value, error = res.value[0], res.abs_error_estimate[0]
    if res.value.ndim == 1:
        value, error = value.item(), error.item()
    return QuadratureResult(value, error, int(res.evaluations[0]))


def integrate_finite(f, a, b, tol=1e-9,
                     max_evaluations=DEFAULT_MAX_EVALUATIONS,
                     initial_intervals=1):
    """Integrate a vectorised integrand f over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        f(x: ndarray (N,)) -> ndarray (N,) or (N, K), real or complex,
        finite everywhere on [a, b].
    a, b : float
        finite integration bounds, a <= b; a zero-width interval yields 0.
    tol : float
        relative tolerance; the reported error estimate satisfies
        err_k <= tol * |value_k| + floor for every column k, with the
        engine's floor of the module docstring.
    max_evaluations : int, >= 1
        budget of abscissae before :class:`QuadratureConvergenceError`
        is raised; the initial panels count against it.
    initial_intervals : int
        number of equal panels the interval starts from; for an
        oscillatory integrand give floor(phase span / pi) + 1, at most
        pi radians of phase a panel, so no oscillation hides inside a
        single 15-point panel.

    Returns
    -------
    QuadratureResult; value and abs_error_estimate are ndarrays of K
    entries when f returns rows.
    """
    request = _Request(tol, max_evaluations)
    if not (a <= b and np.isfinite(b - a)):
        raise ValueError(f"expected finite a <= b, got a={a}, b={b}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    # an oscillatory integrand can fool a single G7/K15 panel into a
    # deceptively small error estimate; callers that know the phase span
    # request enough initial panels to resolve it
    edges = np.linspace(a, b, max(int(initial_intervals), 1) + 1)
    return _single(f, edges, request)


def integrate_semi_infinite(f, scale=1.0, tol=1e-9,
                            max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Integrate a vectorised integrand f over (0, infinity).

    The half line is mapped onto (0, 1) through x = scale * t / (1 - t)
    and the image is integrated adaptively from four equal panels in t,
    whose edges are x = 0, scale/3, scale, 3 scale and infinity.
    `scale` should be the characteristic decay scale of f: the map places
    half of the unit interval below x = scale.  f must decay faster than
    1/x beyond the scale for the transformed integrand to remain
    integrable.

    Returns
    -------
    QuadratureResult
    """
    request = _Request(tol, max_evaluations)
    if not 0.0 < scale < np.inf:
        raise ValueError(f"decay scale must be finite and positive, got "
                         f"{scale}")

    def g(t):
        one_minus = 1.0 - t
        y = np.asarray(f(scale * t / one_minus))
        # the Jacobian as a column, for integrands that return rows
        jacobian = scale / one_minus**2
        return y * (jacobian if y.ndim == 1 else jacobian[:, None])

    return _single(g, _HALF_LINE, request)
