"""Coincident-point scattering Green-tensor traces for planar reflectors.

Everything here is the scattering (reflected) part G1 of the
electromagnetic Green tensor, evaluated at coincident points a distance
z above the interface; the divergent bulk part never enters.  Two
quantities feed the potentials:

    trace_e = Tr G1(r, r, w)                  units 1/m
    trace_m = Tr[curl G1(r, r, w) curl']      units 1/m^3

Two kernels, one per frequency axis, give trace_e or its z-derivative
of order n = 0 or 1 for every reflector, as arrays (values, abs_errors)
over an array of distances z at one frequency: _trace_e_imag_axis at
w = i xi, _trace_e_real_axis at real w.  For the perfect electric mirror

    G_xx = G_yy = w e^{i zt} (1 - i zt - zt^2) / (4 pi c zt^3)
    G_zz =        w e^{i zt} (1 - i zt)        / (2 pi c zt^3)

with zt = 2 w z / c, so that

    d^n/dz^n Tr G1 = (w / 2 pi c) (2 w / c)^n e^{i zt} Q_n(zt),
    Q_0 = (2 - 2 i zt - zt^2) / zt^3,
    Q_1 = (-i zt^3 + 3 zt^2 + 6 i zt - 6) / zt^4,

exact with zero error; the magnetic mirror is the negative.  On the
imaginary axis the kernel returns xi^2 Tr G1(i xi), the combination the
potentials integrate.  For the mirror it is real and pole-free, since
(xi / y)^3 = (c / 2z)^3 with y = 2 xi z / c:

    xi^2 Tr G1(i xi)      = -(c^2 / 16 pi z^3) e^{-y} (2 + 2 y + y^2)
    xi^2 d/dz Tr G1(i xi) =  (c^2 / 16 pi z^4) e^{-y} (y^3 + 3 y^2 + 6 y + 6)

so the xi -> 0 end of a frequency integral never divides by y^3.
Vacuum gives zeros.  A material half-space is integrated over the
transverse wavevector with its s- and p-polarised Fresnel coefficients
at v = gamma = k_z c / w,

    Tr G1 = (i w / 4 pi c) Int dgamma e^{i zt gamma}
            [r_s + (1 - 2 gamma^2) r_p],

from the gamma of infinite transverse wavevector to gamma = 1: from
i inf down the evanescent waves to 0 and along the propagating ones at
real w, from inf at w = i xi.  z enters only through e^{i zt gamma}, so
d/dz is one more factor 2 i w gamma / c.  Both kernels integrate along
the steepest-descent ray of e^{i zt gamma} from gamma = 1 (Michalski &
Mosig, IEEE TAP 45, 508 (1997)), gamma = 1 + d s for s >= 0, where
e^{i zt gamma} = e^{i zt} e^{-|zt| s} decays without oscillating
(_ray_integrals):

    at w = i xi:  zt = i y, d = 1,  Tr G1 = (xi / 4 pi c) Int_0^inf ds
                  e^{-y gamma} [r_s + (1 - 2 gamma^2) r_p],
    at real w:    d = i,            Tr G1 = (w / 4 pi c) Int_0^inf ds
                  e^{i zt gamma} [r_s + (1 - 2 gamma^2) r_p].

On the imaginary axis the ray is the path itself, gamma = v =
kappa_z c / xi >= 1; at real w the path deforms onto it for a purely
absorbing reflector (_trace_e_real_axis).  Every distance of a kernel
call is its own integral of one lock-step batch, all at the call's one
eps and mu (quadrature._integrate_points, on the engine's _adapt): each
round refines the failing panels of all distances in one integrand
call, so a call costs the rounds of its slowest distance, a failure
names its distance, and every distance has the bits of its call alone
at any length of the call (_ray_integrals).

Which kernel feeds which potential: the real-axis kernel gives every
resonant part, and the imaginary-axis kernel the nonresonant part of
the perfect mirrors and vacuum.  The nonresonant part of a half-space
does not call a kernel: it swaps the order of its xi- and
kappa-integrals (potentials module docstring) and uses only _fresnel.
The imaginary-axis Sommerfeld branch serves the public trace
functions, and through them the nested route that tests hold the
potentials against.

The curl-curl trace is obtained by duality rather than by direct
double-curl differentiation: exchanging eps and mu of the reflector
exchanges the roles of the two polarisations, whence

    trace_m(w; eps, mu) = -(w/c)^2 * trace_e(w; mu, eps).

The dual reflector needs no integral of its own.  Its eps(w) and mu(w)
are the reflector's, exchanged, so v1 is the same and its Fresnel pair
is (r_s, r_p) swapped; the dual of a perfect mirror is the opposite
mirror.  Each kernel therefore takes a tuple `duals` with one flag per
requested column, False for the reflector's trace and True for its
dual's, and integrates all of them on one partition from one
evaluation of eps, mu, v1 and the Fresnel pair per abscissa.  Columns
stay at unit scale; atomic responses and line weights are applied by
the callers.

For the perfect electric mirror this equals +(w/c)^2 * trace_e, which on
the imaginary axis is positive: a magnetically polarisable ground-state
atom is pushed away from an electric mirror, as it must be.  The sign
was pinned independently by an image-dipole computation of the double
curl and is the unique choice under which both potential parts are
invariant under the global duality exchange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._constants import c as C_LIGHT
from .materials import (
    PERFECT_ELECTRIC_MIRROR,
    MaterialResponse,
    _oscillator_sum_ixi,
)
from .quadrature import DEFAULT_MAX_EVALUATIONS, _integrate_points, _Request

__all__ = [
    "PlanarGeometry",
    "GreenTrace",
    "mirror_green_components",
    "mirror_trace_e",
    "mirror_curlcurl_trace",
    "halfspace_green_traces",
    "d_dz_traces",
    "DEFAULT_SOMMERFELD_TOL",
]

# default relative tolerance of the public trace functions
DEFAULT_SOMMERFELD_TOL = 1e-7

# initial cuts of a ray integral: in w = y s, the exponent of its decay,
# and in s below the first of those
_DECAY_CUTS = np.array([0.5, 1.5, 3.0, 6.0, 12.0, 30.0])
_HEAD_CUTS = 8.0 ** np.arange(21)

_PEC = MaterialResponse(PERFECT_ELECTRIC_MIRROR)


@dataclass(frozen=True)
class PlanarGeometry:
    """A single planar reflector filling z < 0 plus an observation point.

    reflector : MaterialResponse
    z_atom : observation distance above the interface, m, finite and > 0.
    """

    reflector: MaterialResponse
    z_atom: float

    def __post_init__(self):
        if np.ndim(self.z_atom) != 0:
            raise ValueError("observation distance must be one float")
        _distances(self.z_atom)

    def dual(self):
        """Geometry with eps and mu of the reflector exchanged."""
        return PlanarGeometry(self.reflector.dual(), self.z_atom)


@dataclass(frozen=True)
class GreenTrace:
    """Scattering-trace pair at one complex frequency, or its
    z-derivatives (d_dz_traces): Python scalars at one distance, arrays
    along an array of distances.

    err_e and err_m bound the quadrature errors of trace_e and trace_m,
    each in its own trace's units (1/m and 1/m^3, one more 1/m for the
    derivatives); both are 0 for the closed-form mirrors and for vacuum.
    """

    freq: complex
    trace_e: complex
    trace_m: complex
    err_e: float = 0.0
    err_m: float = 0.0


def _validate_freq(freq):
    w = complex(freq)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"frequency must be finite, got {w}")
    if w == 0.0:
        raise ValueError("frequency must be nonzero")
    if w.real != 0.0 and w.imag != 0.0:
        raise ValueError(
            f"frequency must be real or purely imaginary, got {w}"
        )
    if w.real < 0.0 or w.imag < 0.0:
        raise ValueError(
            f"frequency must lie on the positive real or positive "
            f"imaginary axis, got {w}"
        )
    return w


def _distances(z_atom):
    """z_atom, a float or a nonempty 1-d array of distances in m, as a
    1-d float array; every entry must satisfy 0 < z < inf, which NaN
    does not."""
    z = np.atleast_1d(np.asarray(z_atom, dtype=float))
    if z.ndim > 1:
        raise ValueError("distances must be a float or a 1-d array")
    if z.size == 0:
        raise ValueError("distances must not be an empty array")
    bad = ~((z > 0.0) & (z < math.inf))
    if bad.any():
        raise ValueError(
            f"distance must be finite and > 0, got {z[bad][0]}")
    return z


def _like(z_atom, values):
    """values along the distances of z_atom: a Python scalar for a
    scalar z_atom, the 1-d array itself for an array."""
    return values.item() if np.ndim(z_atom) == 0 else values


# --------------------------------------------------------------------------
# the two trace kernels


def _mirror_rows(value, duals):
    """One row per requested trace of a perfect mirror whose own trace is
    `value`: the dual of a perfect mirror is the opposite mirror, whose
    trace is the negative.  The common single own row is a view."""
    if duals == (False,):
        return value[None]
    return np.stack([-value if dual else value for dual in duals])


def _pec_phase_polynomial(zt, order):
    """e^{i zt} zt^(3+n) Q_n(zt) at real zt, the pole-free numerator of
    the electric mirror's real-axis closed form (module docstring), with
    the bits of one distance at any length of zt (np.multiply, as in
    _ray_integrals)."""
    phase = np.exp(1j * zt)
    if order == 0:
        return np.multiply(phase, 2.0 - 2j * zt - zt * zt)
    return np.multiply(phase, -1j * zt**3 + 3.0 * zt * zt + 6j * zt - 6.0)


def _fresnel(eps, mu, v, v1, em1):
    """(r_s, r_p) = (a v - v1) / (a v + v1) for a = mu and a = eps, with
    v1^2 = em1 + v^2 and em1 = eps mu - 1, which the caller holds once
    for all its abscissae, in the rationalised form

        ((a^2 - 1) v^2 - em1) / (a v + v1)^2,

    which does not cancel where v1 ~ v (large v, or a near 1).  The form
    is unchanged when v, v1 and sqrt(em1) are scaled together, so
    v = 1, v1 = sqrt(1 + em1 s^2) with em1 s^2 in place of em1 gives the
    pair at v = 1 / s, finite down to s = 0.  The dual reflector (eps
    and mu exchanged) has the same v1 and the pair swapped, (r_p, r_s)."""
    v2 = v * v

    def r(a):
        return ((a * a - 1.0) * v2 - em1) / (a * v + v1) ** 2

    return r(mu), r(eps)


def _imag_axis_response(material, xi):
    """eps(i xi) and mu(i xi) of a Drude-Lorentz material at an array
    xi, 0-d or 1-d, exactly real and so evaluated in real arithmetic
    (_oscillator_sum_ixi); both must be positive for the Fresnel pair
    to be."""
    eps = _oscillator_sum_ixi(material.eps_oscillators, xi)
    mu = _oscillator_sum_ixi(material.mu_oscillators, xi)
    bad = (eps <= 0.0) | (mu <= 0.0)
    if bad.any():
        raise ValueError(
            "eps(i xi) and mu(i xi) must be positive; the oscillator model "
            f"gave eps={eps[bad][0]:.3g}, mu={mu[bad][0]:.3g} at "
            f"xi={xi[bad][0]:.3g}"
        )
    return eps, mu


def _sommerfeld_panels(y):
    """Initial panel edges in t of the ray integrals at decay rates y,
    one row per point, mapped by s = S t / (1 - t) with S = max(1/y, 1).

    The panels end where w = y s = 0.5, 1.5, 3, 6, 12, 30
    (_DECAY_CUTS): about doubling in the exponent of e^{-y s}, so each
    spans a bounded share of the decay, which the map compresses toward
    t = 1, and beyond w = 30 the integrand is e^{-30} down.  Below
    w = 0.5 the first panel is cut again where s = 1, 8, 64, ...
    (_HEAD_CUTS): near gamma = 1 the Fresnel coefficients approach their
    large-gamma limits like 1/gamma^2, and at y << 1 that structure
    would sit between the nodes of one panel, where G7 and K15 can agree
    on a wrong value.  Points with y >= 0.5 have no head cuts.
    """
    y = y[:, None]
    rate = np.maximum(y, 1.0)  # y S: w = rate t / (1 - t)
    head = y * _HEAD_CUTS[_HEAD_CUTS * y.min() < _DECAY_CUTS[0]]
    # a head cut beyond the first decay cut collapses onto it, leaving
    # an empty panel that _integrate_points drops
    w = np.concatenate([np.minimum(head, _DECAY_CUTS[0]),
                        np.broadcast_to(_DECAY_CUTS,
                                        (y.size, _DECAY_CUTS.size))], axis=1)
    return np.concatenate([np.zeros_like(y), w / (rate + w),
                           np.ones_like(y)], axis=1)


def _ray_integrals(phi, d, eps, mu, order, duals, request, point):
    """The half-space Sommerfeld integral of both trace kernels, one per
    distance, along the ray gamma = 1 + d s of the module docstring:

        Int_0^inf ds gamma^n e^{phi gamma} [r_s + (1 - 2 gamma^2) r_p],

    with the Fresnel pair of _fresnel at v = gamma,
    v1 = sqrt(em1 + gamma^2) and em1 = eps mu - 1 computed once per
    call; the dual's bracket swaps r_s and r_p, and only the requested
    brackets are built.  Each is multiplied by its weight through
    np.multiply, weight first: an operator product of a temporary is
    computed in place from 16,384 entries on, with the operands
    swapped, and numpy's complex product is not commutative in the last
    bit, so a distance's bits would depend on the size of its batch.
    phi is an array over the distances, d = -|phi| / phi, so that
    |e^{phi gamma}| decays as e^{-rate s} with rate = |phi|; eps and mu
    are one scalar each, the medium at the call's frequency.  Each
    distance is mapped by s = S t / (1 - t) with S = max(1/rate, 1) and
    started from _sommerfeld_panels(rate), its own integral of one
    lock-step batch with the requested traces as its columns, on its own
    partition.  Returns the QuadratureResult, rows of len(duals) columns.
    """
    rate = np.abs(phi)
    scale = np.maximum(1.0 / rate, 1.0)
    em1 = eps * mu - 1.0

    def integrand(t, index):
        s = scale[index]
        one_minus = 1.0 - t
        gamma = 1.0 + d * (s * t / one_minus)
        weight = np.exp(phi[index] * gamma) * (s / one_minus**2)
        if order:
            weight *= gamma
        g2 = gamma * gamma
        rs, rp = _fresnel(eps, mu, gamma, np.sqrt(em1 + g2), em1)
        pw = 1.0 - 2.0 * g2
        # np.multiply never swaps operands to reuse a temporary (README)
        return np.column_stack([np.multiply(weight, rp + pw * rs if dual
                                            else rs + pw * rp)
                                for dual in duals])

    return _integrate_points(integrand, _sommerfeld_panels(rate), request,
                             point)


def _trace_e_imag_axis(material, z, xi, request, order=0, duals=(False,)):
    """xi^2 Tr G1(i xi), or xi^2 times its z-derivative for order 1, at
    one xi > 0 along a 1-d array of distances z; arrays (values,
    abs_errors) of shape (len(duals), z.size), exactly real.  Row j is
    the trace of the reflector when duals[j] is False and of its dual
    (eps and mu exchanged) when True.

    Perfect mirrors use the pole-free closed form of the module
    docstring, vacuum gives zeros; neither has an error, and both also
    broadcast z against an array of xi (potentials._xi_integrals).  A
    Drude-Lorentz half-space, with eps = eps(i xi) and mu = mu(i xi), is
    xi^3 / (4 pi c) (-2 xi / c)^n times the ray integral
    (_ray_integrals) at phi = -y, d = 1, with y = 2 xi z / c.
    """
    # 0-d for one xi, so that xi**3 is numpy's vectorised power as for an
    # array: it differs from libm's pow, which float_power is for a float
    # and an array alike, in the last bit of about one value in twenty
    xi = np.asarray(xi, dtype=float)
    if material.is_perfect_mirror:
        sign = 1.0 if material.model == PERFECT_ELECTRIC_MIRROR else -1.0
        y = (2.0 * z / C_LIGHT) * xi
        if order == 0:
            pref = -sign * C_LIGHT**2 / (16.0 * np.pi * np.float_power(z, 3))
            poly = 2.0 + y * (2.0 + y)
        else:
            pref = sign * C_LIGHT**2 / (16.0 * np.pi * np.float_power(z, 4))
            poly = 6.0 + y * (6.0 + y * (3.0 + y))
        return (_mirror_rows(pref * np.exp(-y) * poly, duals),
                np.zeros((len(duals),) + y.shape))
    if material.is_vacuum:
        shape = (len(duals),) + np.broadcast(z, xi).shape
        return np.zeros(shape), np.zeros(shape)
    eps, mu = _imag_axis_response(material, xi)
    y = 2.0 * xi * z / C_LIGHT
    res = _ray_integrals(
        -y, 1.0, eps, mu, order, duals, request,
        lambda i: f"imaginary-axis trace at z = {z[i]:.6g} m, "
                  f"xi = {xi:.6g} rad/s")
    pref = xi**3 / (4.0 * np.pi * C_LIGHT) * (-2.0 * xi / C_LIGHT) ** order
    return pref * res.value.T, abs(pref) * res.abs_error_estimate.T


def _trace_e_real_axis(material, z, w, request, order=0, duals=(False,)):
    """Tr G1 at real w > 0, or its z-derivative for order 1, at an array
    of distances z; arrays (values, abs_errors) of shape (len(duals),
    z.size), row j for the reflector or, when duals[j], for its dual.

    Perfect mirrors use the closed form (w / 2 pi c) (2 w / c)^n
    e^{i zt} Q_n(zt) of the module docstring, vacuum gives zeros; neither
    has an error.  A Drude-Lorentz half-space, with one eps = eps(w) and
    mu = mu(w), is (w / 4 pi c) (2 i w / c)^n times the ray integral
    (_ray_integrals) at phi = i zt, d = i.

    The deformation onto the ray is exact when no singularity lies in
    the quarter strip 0 < Re gamma < 1, Im gamma > 0 between the ray and
    the path i inf -> 0 -> 1, which holds for a purely absorbing reflector:
    Im eps >= 0, Im mu >= 0 and Im eps mu > 0 at w, required here.  Then
    eps mu - 1 + gamma^2 stays in the upper half-plane across the strip,
    so v1 has no cut there, and in 150,000 random such media no pole of
    r_s or r_p lay in it.  Gain can put a pole there (13 % of random
    media with gain), and Im eps mu < 0 makes v1 a wave growing into the
    medium.
    """
    z = np.asarray(z, dtype=float)
    shape = (len(duals), z.size)
    zt = 2.0 * w * z / C_LIGHT
    k = 2.0 * w / C_LIGHT
    if material.is_perfect_mirror:
        sign = 1.0 if material.model == PERFECT_ELECTRIC_MIRROR else -1.0
        value = (sign * w / (2.0 * np.pi * C_LIGHT) * k**order) \
            * _pec_phase_polynomial(zt, order) / zt ** (3 + order)
        return _mirror_rows(value, duals), np.zeros(shape)
    if material.is_vacuum:
        return np.zeros(shape, dtype=complex), np.zeros(shape)
    eps = material.epsilon(w)
    mu = material.mu(w)
    if not material.is_lossy_at(w):
        raise ValueError(
            "real-frequency half-space traces need a lossy (purely "
            "absorbing) reflector at that frequency, Im eps >= 0, "
            f"Im mu >= 0 and Im eps mu > 0; got eps={eps:.4g}, "
            f"mu={mu:.4g} at w={w:.4g}"
        )
    res = _ray_integrals(
        1j * zt, 1j, eps, mu, order, duals, request,
        lambda i: f"real-axis trace at z = {z[i]:.6g} m, w = {w:.6g} rad/s")
    pref = w / (4.0 * np.pi * C_LIGHT) * (1j * k) ** order
    return pref * res.value.T, abs(pref) * res.abs_error_estimate.T


# --------------------------------------------------------------------------
# traces along distances


def _trace_sweep(geometry, freq, request, z_atom, order):
    """GreenTrace of trace_e and trace_m, or of their z-derivatives for
    order 1, at the geometry's distance or along z_atom; each error in
    its own trace's units.

    One kernel call gives the reflector's column and its dual's for all
    the distances; trace_m(w; eps, mu) = -(w/c)^2 trace_e(w; mu, eps),
    and the imaginary-axis kernel returns xi^2-weighted traces, so there
    trace_m = [xi^2 trace_e(mu, eps)] / c^2.
    """
    w = _validate_freq(freq)
    if z_atom is None:
        z_atom = geometry.z_atom
    z = _distances(z_atom)
    if w.real == 0.0:
        values, errs = _trace_e_imag_axis(
            geometry.reflector, z, w.imag, request, order,
            duals=(False, True))
        scale = np.array([[1.0 / w.imag**2], [1.0 / C_LIGHT**2]])
    else:
        values, errs = _trace_e_real_axis(
            geometry.reflector, z, w.real, request, order,
            duals=(False, True))
        scale = np.array([[1.0], [-((w.real / C_LIGHT) ** 2)]])
    return GreenTrace(w, *(_like(z_atom, part) for part in (
        *(scale * values), *(abs(scale) * errs))))


def mirror_green_components(z_atom, freq):
    """Diagonal scattering components (G_xx, G_yy, G_zz) of a perfect
    electric mirror at distance z_atom, units 1/m.

    freq may be real positive or purely imaginary (i xi, xi > 0); in the
    latter case the continuation is taken and all components come out
    exactly real.
    """
    (z,) = _distances(z_atom).tolist()
    w = _validate_freq(freq)
    zt = 2.0 * w * z / C_LIGHT
    phase = np.exp(1j * zt)
    zt3 = zt**3
    gxx = w * phase * (1.0 - 1j * zt - zt * zt) / (4.0 * np.pi * C_LIGHT * zt3)
    gzz = w * phase * (1.0 - 1j * zt) / (2.0 * np.pi * C_LIGHT * zt3)
    return gxx, gxx, gzz


def mirror_trace_e(z_atom, freq):
    """Tr G1 of the perfect electric mirror, = 2 G_xx + G_zz; real on the
    imaginary axis."""
    return halfspace_green_traces(PlanarGeometry(_PEC, z_atom), freq).trace_e


def mirror_curlcurl_trace(z_atom, freq):
    """Tr[curl G1 curl'] of the perfect electric mirror, units 1/m^3.

    By duality this is -(w/c)^2 times the electric trace of the perfect
    magnetic mirror, i.e. +(w/c)^2 * mirror_trace_e.  On the imaginary
    axis the value is real and positive (mirror repels magnetic dipoles).
    """
    return halfspace_green_traces(PlanarGeometry(_PEC, z_atom), freq).trace_m


def halfspace_green_traces(geometry, freq, rel_tol=DEFAULT_SOMMERFELD_TOL,
                           max_evaluations=DEFAULT_MAX_EVALUATIONS,
                           z_atom=None):
    """Scattering traces of the geometry's reflector at `freq`.

    z_atom, a float or a 1-d array of distances, overrides the
    geometry's observation distance when given.  One call of the trace
    kernel for all the distances, for the reflector's column and its
    dual's: closed forms for the perfect mirrors, exact zeros for
    vacuum, the transverse-wavevector integral for a material
    half-space.  freq must be purely imaginary, or real with the
    reflector purely absorbing there, Im eps >= 0, Im mu >= 0 and
    Im eps mu > 0 (perfect mirrors are exempt).

    Returns
    -------
    GreenTrace with trace_e, trace_m and their achieved quadrature
    errors, Python scalars at one distance and arrays along an array.
    Both traces are exactly real on the imaginary frequency axis.
    """
    return _trace_sweep(geometry, freq, _Request(rel_tol, max_evaluations),
                        z_atom, 0)


def d_dz_traces(geometry, freq, rel_tol=DEFAULT_SOMMERFELD_TOL,
                max_evaluations=DEFAULT_MAX_EVALUATIONS, z_atom=None):
    """d(trace_e)/dz and d(trace_m)/dz, as halfspace_green_traces gives
    the traces, with the same arguments.

    The order-1 trace kernels: perfect mirrors differentiate the closed
    forms (zero reported error), vacuum gives zeros, and material
    half-spaces differentiate under the transverse-wavevector integral,
    where z enters only through the exponential: the derivative
    multiplies the integrand by 2 i w gamma / c along the ray, which is
    -2 xi gamma / c at w = i xi.  Both derivatives cost
    the integral of one trace pair, one kernel call on a shared
    partition.

    Returns
    -------
    GreenTrace whose trace_e and trace_m are the derivatives, in 1/m^2
    and 1/m^4, and whose err_e and err_m bound their errors, each in its
    own derivative's units.
    """
    return _trace_sweep(geometry, freq, _Request(rel_tol, max_evaluations),
                        z_atom, 1)
