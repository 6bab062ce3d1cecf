"""Coincident-point scattering Green-tensor traces for planar reflectors.

Everything here is the scattering (reflected) part G1 of the
electromagnetic Green tensor, evaluated at coincident points a distance
z above the interface; the divergent bulk part never enters.  Two
quantities feed the potentials:

    trace_e = Tr G1(r, r, w)                  units 1/m
    trace_m = Tr[curl G1(r, r, w) curl']      units 1/m^3

For the perfect electric mirror the components are closed forms in
zt = 2 w z / c:

    G_xx = G_yy = w e^{i zt} (1 - i zt - zt^2) / (4 pi c zt^3)
    G_zz =        w e^{i zt} (1 - i zt)        / (2 pi c zt^3)

analytically continued to w = i xi (then e^{i zt} -> e^{-2 xi z / c}
and all components are real).  A material half-space is evaluated from
the transverse-wavevector integral over its s- and p-polarised Fresnel
reflection coefficients.  The distance enters that integrand only
through the exponential e^{2 i k_z z}, so d/dz is taken under the
integral as one more factor 2 i k_z, and the kernels integrate traces at
many imaginary frequencies, or at many real-axis distances, as one
vector integral on a shared partition.

The curl-curl trace is obtained by duality rather than by direct
double-curl differentiation: exchanging eps and mu of the reflector
exchanges the roles of the two polarisations, whence

    trace_m(w; eps, mu) = -(w/c)^2 * trace_e(w; mu, eps).

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
from scipy.constants import c as C_LIGHT

from .materials import (
    PERFECT_ELECTRIC_MIRROR,
    PERFECT_MAGNETIC_MIRROR,
    MaterialResponse,
)
from .quadrature import integrate_finite, integrate_semi_infinite

__all__ = [
    "PlanarGeometry",
    "GreenTrace",
    "mirror_green_components",
    "mirror_trace_e",
    "mirror_curlcurl_trace",
    "halfspace_green_traces",
    "d_dz_traces",
]


@dataclass(frozen=True)
class PlanarGeometry:
    """A single planar reflector filling z < 0 plus an observation point.

    reflector : MaterialResponse
    z_atom : observation distance above the interface, m, strictly > 0.
    """

    reflector: MaterialResponse
    z_atom: float

    def __post_init__(self):
        if not self.z_atom > 0.0:
            raise ValueError(
                f"observation distance must be > 0, got {self.z_atom}"
            )

    def with_distance(self, z_atom):
        """Same reflector, observation point moved to z_atom."""
        return PlanarGeometry(self.reflector, z_atom)

    def dual(self):
        """Geometry with eps and mu of the reflector exchanged."""
        return PlanarGeometry(self.reflector.dual(), self.z_atom)


@dataclass(frozen=True)
class GreenTrace:
    """Scattering-trace pair at one complex frequency.

    abs_error bounds the quadrature error of both traces (0 for the
    closed-form mirrors and for vacuum).
    """

    freq: complex
    trace_e: complex
    trace_m: complex
    abs_error: float = 0.0


def _validate_freq(freq):
    w = complex(freq)
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


def _validate_distance(z_atom):
    z = float(z_atom)
    if not z > 0.0 or not math.isfinite(z):
        raise ValueError(f"distance above the mirror must be > 0, got {z}")
    return z


# --------------------------------------------------------------------------
# perfect electric mirror, closed forms


def mirror_green_components(z_atom, freq):
    """Diagonal scattering components (G_xx, G_yy, G_zz) of a perfect
    electric mirror at distance z_atom, units 1/m.

    freq may be real positive or purely imaginary (i xi, xi > 0); in the
    latter case the continuation is taken and all components come out
    exactly real.
    """
    z = _validate_distance(z_atom)
    w = _validate_freq(freq)
    zt = 2.0 * w * z / C_LIGHT
    phase = np.exp(1j * zt)
    zt3 = zt**3
    gxx = w * phase * (1.0 - 1j * zt - zt * zt) / (4.0 * np.pi * C_LIGHT * zt3)
    gzz = w * phase * (1.0 - 1j * zt) / (2.0 * np.pi * C_LIGHT * zt3)
    return gxx, gxx, gzz


def mirror_trace_e(z_atom, freq):
    """Tr G1 of the perfect electric mirror, = 2 G_xx + G_zz."""
    gxx, _, gzz = mirror_green_components(z_atom, freq)
    return 2.0 * gxx + gzz


def mirror_curlcurl_trace(z_atom, freq):
    """Tr[curl G1 curl'] of the perfect electric mirror, units 1/m^3.

    By duality this is -(w/c)^2 times the electric trace of the perfect
    magnetic mirror, i.e. +(w/c)^2 * mirror_trace_e.  On the imaginary
    axis the value is real and positive (mirror repels magnetic dipoles).
    """
    w = _validate_freq(freq)
    return (w / C_LIGHT) ** 2 * mirror_trace_e(z_atom, freq)


def _mirror_trace_e_dz(z_atom, freq):
    """Analytic d(trace_e)/dz for the perfect electric mirror.

    d/dz [e^{i zt}(2 - 2 i zt - zt^2)/zt^3]
        = (2 w / c) e^{i zt} (-i zt^3 + 3 zt^2 + 6 i zt - 6) / zt^4
    """
    z = _validate_distance(z_atom)
    w = _validate_freq(freq)
    zt = 2.0 * w * z / C_LIGHT
    phase = np.exp(1j * zt)
    poly = -1j * zt**3 + 3.0 * zt * zt + 6j * zt - 6.0
    return (w / (2.0 * np.pi * C_LIGHT)) * (2.0 * w / C_LIGHT) \
        * phase * poly / zt**4


def _mirror_curlcurl_dz(z_atom, freq):
    w = _validate_freq(freq)
    return (w / C_LIGHT) ** 2 * _mirror_trace_e_dz(z_atom, freq)


# --------------------------------------------------------------------------
# vectorised perfect-mirror kernels for the potential integrands
#
# In the products that appear in the potentials the 1/zt^3 poles cancel
# against explicit frequency powers, e.g.
#     xi^2 trace_e(i xi) = -(c^2/16 pi z^3) e^{-y} (2 + 2y + y^2)
# with y = 2 xi z / c, because (xi/y)^3 = (c/2z)^3.  These kernels are
# written in that pole-free form so the xi -> 0 end of the frequency
# integral never divides by a vanishing y^3.


def _mirror_xi2_trace_e_ixi(z, xi):
    """xi^2 * Tr G1(i xi) of the PEC mirror, vectorised over xi >= 0."""
    y = 2.0 * np.asarray(xi, dtype=float) * z / C_LIGHT
    return -(C_LIGHT**2 / (16.0 * np.pi * z**3)) \
        * np.exp(-y) * (2.0 + 2.0 * y + y * y)


def _mirror_trace_m_ixi(z, xi):
    """Tr[curl G1 curl'](i xi) of the PEC mirror; positive."""
    y = 2.0 * np.asarray(xi, dtype=float) * z / C_LIGHT
    return (1.0 / (16.0 * np.pi * z**3)) \
        * np.exp(-y) * (2.0 + 2.0 * y + y * y)


def _mirror_xi2_dtrace_e_dz_ixi(z, xi):
    """d/dz of xi^2 * Tr G1(i xi), PEC mirror, vectorised."""
    y = 2.0 * np.asarray(xi, dtype=float) * z / C_LIGHT
    return (C_LIGHT**2 / (16.0 * np.pi * z**4)) \
        * np.exp(-y) * (y**3 + 3.0 * y * y + 6.0 * y + 6.0)


def _mirror_dtrace_m_dz_ixi(z, xi):
    y = 2.0 * np.asarray(xi, dtype=float) * z / C_LIGHT
    return -(1.0 / (16.0 * np.pi * z**4)) \
        * np.exp(-y) * (y**3 + 3.0 * y * y + 6.0 * y + 6.0)


def _mirror_re_dtrace_e_dz(z, omega):
    """d/dz of Re Tr G1 at real omega, PEC mirror, vectorised over z."""
    zt = 2.0 * omega * np.asarray(z, dtype=float) / C_LIGHT
    poly = (3.0 * zt * zt - 6.0) * np.cos(zt) \
        + (zt**3 - 6.0 * zt) * np.sin(zt)
    return (omega**2 / (np.pi * C_LIGHT**2)) * poly / zt**4


# --------------------------------------------------------------------------
# material half-space via Fresnel integrals

# inner-integral tolerances default to one decade looser than potentials
DEFAULT_SOMMERFELD_TOL = 1e-7


def _trace_e_imag_axis(material, z, xi, rel_tol, max_evaluations, order=0):
    """Tr G1 at w = i xi for a Drude-Lorentz half-space, or its z-derivative
    of the given order (0 or 1); exact real.

    xi is an array: all its entries are integrated on one shared
    partition, each column with its own map scale, and arrays of
    (traces, abs_errors) come back.  With v = kappa_z c / xi in
    [1, inf), y = 2 xi z / c:

        trace_e = (xi / 4 pi c) Int_1^inf dv e^{-y v}
                  [ r_s(v) - (2 v^2 - 1) r_p(v) ]

        r_s = (mu v - v1)/(mu v + v1),  r_p = (eps v - v1)/(eps v + v1),
        v1  = sqrt(eps mu - 1 + v^2),   eps = eps(i xi), mu = mu(i xi).

    z enters only through the exponential, so d/dz multiplies the
    integrand by -2 xi v / c.
    """
    xi = np.asarray(xi, dtype=float)
    eps = material.epsilon(1j * xi).real
    mu = material.mu(1j * xi).real
    bad = (eps <= 0.0) | (mu <= 0.0)
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(
            "eps(i xi) and mu(i xi) must be positive; the oscillator model "
            f"gave eps={eps[k]:.3g}, mu={mu[k]:.3g} at xi={xi[k]:.3g}"
        )
    y = 2.0 * xi * z / C_LIGHT
    em1 = eps * mu - 1.0

    def integrand(t):
        v = 1.0 + t
        v1 = np.sqrt(em1 + v * v)
        rs = (mu * v - v1) / (mu * v + v1)
        rp = (eps * v - v1) / (eps * v + v1)
        return np.exp(-y * v) * v**order * (rs - (2.0 * v * v - 1.0) * rp)

    res = integrate_semi_infinite(integrand, scale=np.maximum(1.0 / y, 1.0),
                                  tol=rel_tol,
                                  max_evaluations=max_evaluations)
    pref = xi / (4.0 * np.pi * C_LIGHT) * (-2.0 * xi / C_LIGHT) ** order
    return pref * res.value, np.abs(pref) * res.abs_error_estimate


def _trace_e_real_axis(material, z, w, rel_tol, max_evaluations, order=0):
    """Tr G1 at real w > 0 for a lossy Drude-Lorentz half-space, or its
    z-derivative of the given order (0 or 1).

    z is an array: all its entries are integrated on shared partitions,
    one column per distance, and arrays of (traces, abs_errors) come
    back.  Split at the vacuum branch point: the propagating part is
    parametrised by gamma = k_z c / w in (0, 1) (bounded oscillation,
    at most zt radians of phase), the evanescent part by b with
    gamma = i b, which decays like e^{-zt b}:

        trace_e = (i w / 4 pi c) * (A - i B)
        A = Int_0^1  dgamma e^{i zt gamma} [r_s + (1 - 2 gamma^2) r_p]
        B = Int_0^inf db     e^{-zt b}     [r_s + (1 + 2 b^2) r_p]

    with zt = 2 w z / c.  z enters only through the exponentials, so
    d/dz multiplies the A integrand by 2 i w gamma / c and the B
    integrand by -2 w b / c.

    Loss moves the medium branch point and any surface-mode pole off the
    integration path, which is why Im eps > 0 or Im mu > 0 is required.
    """
    if not material.is_lossy_at(w):
        raise ValueError(
            "real-frequency half-space traces need a lossy reflector at "
            f"that frequency; Im eps <= 0 and Im mu <= 0 at w={w:.4g}"
        )
    eps = material.epsilon(w)
    mu = material.mu(w)
    zt = 2.0 * w * np.asarray(z, dtype=float) / C_LIGHT
    em1 = eps * mu - 1.0

    def integrand_A(g):
        g1 = np.sqrt(em1 + g * g + 0j)
        rs = (mu * g - g1) / (mu * g + g1)
        rp = (eps * g - g1) / (eps * g + g1)
        bracket = g**order * (rs + (1.0 - 2.0 * g * g) * rp)
        return np.exp(1j * g[:, None] * zt) * bracket[:, None]

    def integrand_B(b):
        g = 1j * b
        g1 = np.sqrt(em1 - b * b + 0j)
        rs = (mu * g - g1) / (mu * g + g1)
        rp = (eps * g - g1) / (eps * g + g1)
        return np.exp(-zt * b) * b**order * (rs + (1.0 + 2.0 * b * b) * rp)

    # the propagating segment carries zt radians of phase; seed the
    # adaptive rule with about one panel per radian of the farthest z
    res_a = integrate_finite(integrand_A, 0.0, 1.0, tol=rel_tol,
                             max_evaluations=max_evaluations,
                             initial_intervals=int(zt.max()) + 1)
    res_b = integrate_semi_infinite(integrand_B,
                                    scale=np.maximum(1.0 / zt, 1.0),
                                    tol=rel_tol,
                                    max_evaluations=max_evaluations)
    k = 2.0 * w / C_LIGHT
    pref = 1j * w / (4.0 * np.pi * C_LIGHT)
    value = pref * ((1j * k) ** order * res_a.value
                    - 1j * (-k) ** order * res_b.value)
    err = abs(pref) * k**order * (res_a.abs_error_estimate
                                  + res_b.abs_error_estimate)
    return value, err


def _halfspace_traces(material, z, w, rel_tol, max_evaluations, order):
    """(trace_e, trace_m, abs_error) of a material half-space at one z,
    or their z-derivatives for order 1."""
    def trace_e(mat):
        if w.real == 0.0:
            te, err = _trace_e_imag_axis(mat, z, np.array([w.imag]),
                                         rel_tol, max_evaluations, order)
        else:
            te, err = _trace_e_real_axis(mat, np.array([z]), w.real,
                                         rel_tol, max_evaluations, order)
        return te.item(), err.item()

    te, err_e = trace_e(material)
    te_dual, err_m = trace_e(material.dual())
    # duality: trace_m(eps, mu) = -(w/c)^2 trace_e(mu, eps); on the
    # imaginary axis the factor is +(xi/c)^2 and everything stays real
    if w.real == 0.0:
        factor = (w.imag / C_LIGHT) ** 2
    else:
        factor = -((w / C_LIGHT) ** 2)
    return te, factor * te_dual, err_e + abs(factor) * err_m


def halfspace_green_traces(geometry, freq, rel_tol=DEFAULT_SOMMERFELD_TOL,
                           max_evaluations=100_000):
    """Scattering traces of the geometry's reflector at `freq`.

    Perfect mirrors are served from the closed forms, a vacuum
    half-space returns exact zeros without quadrature, and a material
    half-space is integrated over the transverse wavevector.  freq must
    be purely imaginary, or real with the reflector lossy there (perfect
    mirrors are exempt from the loss requirement).

    Returns
    -------
    GreenTrace with trace_e, trace_m and the achieved quadrature error.
    Both traces are exactly real on the imaginary frequency axis.
    """
    w = _validate_freq(freq)
    z = geometry.z_atom
    material = geometry.reflector

    if material.is_perfect_mirror:
        # the dual of a perfect mirror is its sign-flipped twin, so
        # trace_m = -(w/c)^2 * (-trace_e) = (w/c)^2 * trace_e for both
        sign = 1.0 if material.model == PERFECT_ELECTRIC_MIRROR else -1.0
        te = sign * mirror_trace_e(z, w)
        return GreenTrace(w, te, (w / C_LIGHT) ** 2 * te, 0.0)
    if material.is_vacuum:
        return GreenTrace(w, 0.0, 0.0, 0.0)

    te, tm, err = _halfspace_traces(material, z, w, rel_tol,
                                    max_evaluations, 0)
    return GreenTrace(w, te, tm, err)


# --------------------------------------------------------------------------
# derivatives with respect to the observation distance


def d_dz_traces(geometry, freq, rel_tol=DEFAULT_SOMMERFELD_TOL,
                max_evaluations=100_000):
    """d(trace_e)/dz and d(trace_m)/dz at the geometry's distance.

    Perfect mirrors use the analytic derivatives of the closed forms
    (zero reported error).  Material half-spaces differentiate under the
    transverse-wavevector integral, where z enters only through the
    exponential: the derivative multiplies the integrand by -2 xi v / c
    on the imaginary axis, by 2 i w gamma / c on the propagating and by
    -2 w b / c on the evanescent real-axis segment.  Each trace costs the
    same integrals as the trace itself, and the reported error is the
    quadrature error of both derivatives.

    Returns
    -------
    (d_trace_e, d_trace_m, abs_error)
    """
    w = _validate_freq(freq)
    z = geometry.z_atom
    material = geometry.reflector

    if material.model == PERFECT_ELECTRIC_MIRROR:
        de = _mirror_trace_e_dz(z, w)
        return de, _mirror_curlcurl_dz(z, w), 0.0
    if material.model == PERFECT_MAGNETIC_MIRROR:
        de = -_mirror_trace_e_dz(z, w)
        return de, -_mirror_curlcurl_dz(z, w), 0.0
    if material.is_vacuum:
        return 0.0, 0.0, 0.0
    return _halfspace_traces(material, z, w, rel_tol, max_evaluations, 1)
