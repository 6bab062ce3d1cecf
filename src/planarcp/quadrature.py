"""Adaptive numerical integration with certified error estimates.

All potentials and forces in this package reduce to one-dimensional
integrals: semi-infinite imaginary-frequency integrals, finite spatial
integrals across a slab, and transverse-wavevector integrals for the
half-space Green tensor.  They are all evaluated by one adaptive
Gauss-Kronrod (G7/K15) engine, which refines n independent integrals of
K columns each.

Integrands must be vectorised: they are called with a 1-d numpy array
of abscissae and return either one value per abscissa (a scalar
integral) or a row of K values per abscissa, shape (N, K) (K integrals
on one shared partition).  Values may be real or complex.  The
abscissae of one call come panel by panel, PANEL_NODES consecutive
nodes per panel.  The engine has one entry, _integrate_points, which
runs n integrals in lock-step, each from the panels between the
consecutive edges of its own row: its integrand also receives, for
every abscissa, the index of the integral it belongs to.
integrate_finite and integrate_semi_infinite take the same path as a
batch of one.

Refinement is batched: all initial panels are evaluated in one
integrand call, and every round bisects, again in one call, each panel
whose error in any unconverged column exceeds that column's equal
share of its integral's target, (tol * |value_k| + floor) / panels.
An integral whose columns all meet their targets has no such panel, so
it is neither split nor evaluated again and its result stays as it is;
a round costs one call whatever n is, and a batch as many rounds as
its slowest integral.

The error contract holds for every column k of every integral: on
success the reported absolute error estimate satisfies

    abs_error_estimate_k <= tol * |value_k| + floor

and non-convergence within the evaluation budget raises
:class:`QuadratureConvergenceError` carrying the best value and the
achieved estimate of the integral that ran out.  A silently truncated
result is never returned.  `evaluations` counts the abscissae of an
integral's partition (one abscissa evaluates all K columns), initial
panels included, and the budget caps each integral of a batch on its
own; when it runs short, the panels of largest error are bisected
first.  The integrals nested inside an integrand have budgets of their
own.

The floor is the engine constant 1e-30, in the units of the result.  It
binds only where a whole integral is about floor / tol or less: the
slab integrals of dU/dz, in J, of the force module.  They run in ln z,
where the first panels of the nonresonant part already meet tol, so 97
of the 300 slab integrals of one pass of perfbench's mirror-slab-oracle
workload (seed 11; 43 resonant, 54 nonresonant) stop on the floor
rather than on tol; the reported error still bounds the deviation.  A floor
derived from the first-round estimate would be honest there, but costs
work on that workload.
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
    spent() gives the per-integral evaluation counts to report when a
    panel is not finite.
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
    y = y.reshape(lo.size, PANEL_NODES, -1)
    if not np.isfinite(y).all():
        i = np.argmin(np.isfinite(y).all(axis=(1, 2)))
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value on [{lo[i]}, {hi[i]}]",
            np.nan, np.inf, int(spent()[owner[i]]), int(owner[i]))
    val_k = half[:, None] * (_WK @ y)
    val_g = half[:, None] * (_WG @ y[:, 1::2])  # Gauss nodes: odd slots
    # |K15 - G7| estimates the G7 error and so bounds the K15 error
    # conservatively; sharper heuristics tend to under-report on the
    # oscillatory integrands that occur here.
    return val_k, np.abs(val_k - val_g), scalar


def _adapt(f, lo, hi, owner, tol, max_evaluations):
    """Lock-step G7/K15 refinement of n >= 1 integrals from their
    initial panels [lo_j, hi_j].

    owner holds the integral 0..n-1 that each initial panel belongs to,
    every integral owning at least one; the integrand is f(x, index),
    index holding the integral of each abscissa.  Returns the
    QuadratureResult of _integrate_points.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"relative tolerance must be in (0, 1), got {tol}")
    if not max_evaluations >= 1:  # NaN too
        raise ValueError(
            f"evaluation budget must be >= 1, got {max_evaluations}")
    initial = np.bincount(owner)
    n = initial.size

    def evaluations():
        # initial panels once, then two panels a bisection
        return PANEL_NODES * (2 * np.bincount(owner, minlength=n) - initial)

    def failure(message, i):
        return QuadratureConvergenceError(
            message, _unpack(total_val[i], scalar),
            _unpack(total_err[i], scalar), int(evaluations()[i]), int(i))

    if PANEL_NODES * initial.max() > max_evaluations:
        raise QuadratureConvergenceError(
            f"{initial.max()} initial panels exceed the evaluation budget",
            np.nan, np.inf, 0, int(np.argmax(initial)))
    val, err, scalar = _gk15(f, lo, hi, owner, evaluations)
    # abscissae of all integrals: exact for one, a bound on each of many
    spent = PANEL_NODES * lo.size
    while True:
        total_val = _per_integral(val, owner, n)
        total_err = _per_integral(err, owner, n)
        target = tol * np.abs(total_val) + _ABS_FLOOR
        failing = total_err > target
        if not failing.any():
            break
        # a failing column has at least one panel above its equal share;
        # a converged integral has none, so it is never split again
        share = target / np.bincount(owner, minlength=n)[:, None]
        ratio = np.where(failing[owner], err / share[owner], 0.0)
        split = (ratio > 1.0).any(axis=1)
        if spent + 2 * PANEL_NODES * np.count_nonzero(split) \
                > max_evaluations:
            # the budget may run short for some integral: bisect its
            # worst panels that fit, or give up when none fits
            wanted = np.bincount(owner[split], minlength=n)
            room = (max_evaluations - evaluations()) // (2 * PANEL_NODES)
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
        new_lo = np.concatenate([left, mid])
        new_hi = np.concatenate([mid, right])
        parent = owner[split]
        new_owner = np.concatenate([parent, parent])
        owner = np.concatenate([owner[keep], new_owner])
        new_val, new_err, _ = _gk15(f, new_lo, new_hi, new_owner,
                                    evaluations)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        spent += PANEL_NODES * new_lo.size

    if np.iscomplexobj(total_val) and not np.any(total_val.imag):
        total_val = total_val.real
    if scalar:
        total_val, total_err = total_val[:, 0], total_err[:, 0]
    return QuadratureResult(total_val, total_err, evaluations())


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
    if not scalar:
        return column_values
    return column_values[0].item()


def _integrate_points(integrand, edges, rel_tol, max_evaluations,
                      point=None):
    """The engine's one entry: n integrals in lock-step, one per point
    of a call, through the integrand f(x, index).  Point i starts from
    the panels between consecutive entries of row i of the (n, m + 1)
    array `edges`, ascending, in row order, with empty panels dropped;
    every row keeps at least one.  Returns a QuadratureResult of shape
    (n,) or (n, K) with an ndarray of the n per-integral counts, each
    integral converged to `rel_tol` within its own budget.

    The one place where the engine's QuadratureConvergenceError is
    re-raised: without an index, named by point(index) when `point` is
    given (index None for a failure nested inside the integrand)."""
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.arange(edges.shape[0]).repeat(edges.shape[1] - 1)
    keep = hi > lo
    try:
        return _adapt(integrand, lo[keep], hi[keep], owner[keep], rel_tol,
                      max_evaluations)
    except QuadratureConvergenceError as exc:
        where = "" if point is None else f"{point(exc.index)}: "
        raise type(exc)(where + exc.reason, exc.value,
                        exc.abs_error_estimate, exc.evaluations) from exc


def _single(f, edges, tol, max_evaluations):
    """QuadratureResult of one integral from the panels between
    consecutive edges: the engine on a batch of one, with Python scalars
    for a scalar integrand."""
    res = _integrate_points(lambda x, index: f(x), edges[None], tol,
                            max_evaluations)
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
    if not (a <= b and np.isfinite(b - a)):
        raise ValueError(f"expected finite a <= b, got a={a}, b={b}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    # an oscillatory integrand can fool a single G7/K15 panel into a
    # deceptively small error estimate; callers that know the phase span
    # request enough initial panels to resolve it
    edges = np.linspace(a, b, max(int(initial_intervals), 1) + 1)
    return _single(f, edges, tol, max_evaluations)


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
    if not 0.0 < scale < np.inf:
        raise ValueError(f"decay scale must be finite and positive, got "
                         f"{scale}")

    def g(t):
        one_minus = 1.0 - t
        x = scale * t / one_minus
        y = np.asarray(f(x))
        # the Jacobian as a column, for integrands that return rows
        jacobian = scale / one_minus**2
        return y * (jacobian if y.ndim == 1 else jacobian[:, None])

    return _single(g, _HALF_LINE, tol, max_evaluations)
