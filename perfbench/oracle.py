"""Reference values computed apart from planarcp.

Every formula here is written out from the textbook expressions with
scipy.integrate.quad (QUADPACK) and plain numpy; nothing is imported from
planarcp.  The parametrisations differ on purpose from the ones planarcp
uses, so that a shared algebra slip would not cancel out of a comparison.

Conventions: SI units, an isotropic two-level atom with signed transition
frequency omega (> 0 for an excited atom) and squared dipole element
dsq = |d|^2, a nonmagnetic Lorentz half-space or a perfect electric mirror
filling z < 0.

QUADPACK maps (0, inf) onto (0, 1) at unit scale.  At optical frequencies
(xi ~ 1e15 rad/s) a naive quad over (0, inf) in xi samples only the far
tail and silently returns zero, so each integral below is first rescaled
to a dimensionless variable of order one.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, hbar, mu_0
from scipy.integrate import IntegrationWarning, quad

EPSREL = 1e-12
_LIMIT = 400


def _quad(f, a, b):
    # near the requested 1e-12 QUADPACK may report round-off; the values
    # still agree with closed forms to ~1e-13, so the warning is noise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, epsabs=0.0, epsrel=EPSREL, limit=_LIMIT)[0]


def alpha_imag(xi, omega, dsq):
    """Two-level polarisability on the imaginary axis, alpha(i xi).

    alpha(w) = |d|^2/(3 hbar) [1/(w - omega) - 1/(w + omega)] at w = i xi
    gives -2 omega |d|^2 / (3 hbar (xi^2 + omega^2)); it is negative for an
    excited atom (omega > 0).
    """
    return -2.0 * omega * dsq / (3.0 * hbar * (xi * xi + omega * omega))


def lorentz_eps(freq, oscillators):
    """eps(freq) = 1 + sum s w0^2 / (w0^2 - freq^2 - i g freq).

    oscillators: iterable of (strength, resonance, damping); freq may be
    complex (i xi gives a real value).
    """
    w = complex(freq)
    out = 1.0 + 0.0j
    for s, w0, g in oscillators:
        out += s * w0 * w0 / (w0 * w0 - w * w - 1j * g * w)
    return out


# ---------------------------------------------------------------------------
# perfect electric mirror


def mirror_bracket_w(zt):
    """W(zt) = [(2 - zt^2) cos zt + 2 zt sin zt] / zt^3.

    Image-dipole tensor of the mirror: Tr G1(z, z, w) =
    (w / (2 pi c zt^3)) e^{i zt} (2 - 2 i zt - zt^2) with zt = 2 w z / c,
    so Re Tr G1 = (w / (2 pi c)) W(zt).
    """
    zt = np.asarray(zt, dtype=float)
    return ((2.0 - zt * zt) * np.cos(zt) + 2.0 * zt * np.sin(zt)) / zt**3


def mirror_resonant_potential(omega, dsq, z):
    """U_r = -(mu0/3) omega^2 |d|^2 Re Tr G1(omega) of an excited atom."""
    zt = 2.0 * omega * z / C_LIGHT
    return -(mu_0 / 3.0) * omega**2 * dsq \
        * (omega / (2.0 * math.pi * C_LIGHT)) * float(mirror_bracket_w(zt))


def mirror_resonant_slab_force(omega, dsq, eta, z, d):
    """Resonant force per area on the slab [z, z + d], -eta [U_r]_z^{z+d}.

    Returns (force, scale): scale is the size of the two boundary terms,
    the natural yardstick where their difference cancels.
    """
    pref = (mu_0 / 3.0) * eta * omega**2 * dsq \
        * (omega / (2.0 * math.pi * C_LIGHT))
    wa = float(mirror_bracket_w(2.0 * omega * z / C_LIGHT))
    wb = float(mirror_bracket_w(2.0 * omega * (z + d) / C_LIGHT))
    return pref * (wb - wa), abs(pref) * (abs(wa) + abs(wb))


def mirror_nonresonant_potential(omega, dsq, z):
    """U_nr = (hbar mu0 / 2 pi) Int_0^inf dxi xi^2 alpha(i xi) Tr G1(i xi).

    On the imaginary axis the image tensor gives xi^2 Tr G1(i xi) =
    -(c^2 / 16 pi z^3) e^{-y} (2 + 2 y + y^2), y = 2 xi z / c.  With
    zt = 2 |omega| z / c the Lorentzian of alpha has width zt in y; below
    zt = 1 the substitution y = zt tan(theta) absorbs it.
    """
    zt = 2.0 * abs(omega) * z / C_LIGHT
    alpha0 = -2.0 * dsq / (3.0 * hbar * omega)  # alpha(i xi) = alpha0 L(y)

    def poly(y):
        return math.exp(-y) * (2.0 + 2.0 * y + y * y)

    if zt >= 1.0:
        integral = _quad(lambda y: poly(y) / (1.0 + (y / zt) ** 2),
                         0.0, math.inf)
    else:
        integral = zt * _quad(lambda th: poly(zt * math.tan(th)),
                              0.0, 0.5 * math.pi)
    dxi_dy = C_LIGHT / (2.0 * z)
    return (hbar * mu_0 / (2.0 * math.pi)) * dxi_dy * alpha0 \
        * (-(C_LIGHT**2) / (16.0 * math.pi * z**3)) * integral


def mirror_nonresonant_slab_force(omega, dsq, eta, z, d):
    """Nonresonant force per area on the slab [z, z + d], -eta [U_nr]."""
    return -eta * (mirror_nonresonant_potential(omega, dsq, z + d)
                   - mirror_nonresonant_potential(omega, dsq, z))


def retarded_limit(alpha_static, z):
    """Casimir-Polder far field -3 hbar c alpha(0) / (32 pi^2 eps0 z^4)."""
    return -3.0 * hbar * C_LIGHT * alpha_static \
        / (32.0 * math.pi**2 * epsilon_0 * z**4)


def image_limit(dsq, z):
    """Nonretarded image-dipole energy -|d|^2 / (48 pi eps0 z^3)."""
    return -dsq / (48.0 * math.pi * epsilon_0 * z**3)


# ---------------------------------------------------------------------------
# nonmagnetic Lorentz half-space


def halfspace_trace_imag(xi, z, oscillators):
    """Tr G1(z, z, i xi) of a nonmagnetic Lorentz half-space, in 1/m.

    Sommerfeld form Tr G1 = (i/4 pi) Int dq (q/k_z) e^{2 i k_z z}
    [r_s + (2 q^2/k^2 - 1) r_p].  At w = i xi, k_z = i kappa with
    kappa = sqrt(xi^2/c^2 + q^2), and q dq = kappa dkappa gives

        Tr G1 = (1/4 pi) Int_{xi/c}^inf dkappa e^{-2 kappa z}
                [r_s - (2 kappa^2 c^2 / xi^2 - 1) r_p],

    r_s = (kappa - kappa1)/(kappa + kappa1),
    r_p = (eps kappa - kappa1)/(eps kappa + kappa1),
    kappa1 = sqrt(kappa^2 + (eps - 1) xi^2 / c^2).  The shift
    kappa = xi/c + s/(2z) leaves a unit-scale decay e^{-s}.
    """
    eps = lorentz_eps(1j * xi, oscillators).real
    k0 = xi / C_LIGHT
    y = 2.0 * k0 * z

    def integrand(s):
        kap = k0 + s / (2.0 * z)
        kap1 = math.sqrt(kap * kap + (eps - 1.0) * k0 * k0)
        rs = (kap - kap1) / (kap + kap1)
        rp = (eps * kap - kap1) / (eps * kap + kap1)
        ratio = kap / k0
        return math.exp(-s) * (rs - (2.0 * ratio * ratio - 1.0) * rp)

    # the reflection coefficients turn over at s ~ y; split there
    cut = min(y, 1.0)
    integral = _quad(integrand, 0.0, cut) + _quad(integrand, cut, math.inf)
    return math.exp(-y) * integral / (8.0 * math.pi * z)


def halfspace_nonresonant_potential(omega, dsq, z, oscillators):
    """U_nr of a two-level electric atom, nested quad over xi and kappa.

    xi is measured in units of |omega|; the integrand has its features at
    x ~ 1 (atomic Lorentzian) and x ~ 1/zt (reflection cut-off), where the
    outer range is split.
    """
    w = abs(omega)
    zt = 2.0 * w * z / C_LIGHT

    def integrand(x):
        xi = w * x
        return xi * xi * alpha_imag(xi, omega, dsq) \
            * halfspace_trace_imag(xi, z, oscillators)

    edges = sorted({min(1.0, 1.0 / zt), max(1.0, 1.0 / zt)})
    pieces = [0.0] + edges + [math.inf]
    total = sum(_quad(integrand, a, b) for a, b in zip(pieces, pieces[1:]))
    return (hbar * mu_0 / (2.0 * math.pi)) * w * total


def halfspace_trace_real(omega, z, oscillators):
    """Re Tr G1(z, z, omega) of a lossy nonmagnetic Lorentz half-space.

    Propagating waves q = k sin(theta), evanescent waves q = k cosh(t),
    with k = omega/c:

        Tr G1 = (i k / 4 pi) Int_0^{pi/2} dtheta sin(theta)
                    e^{i zt cos(theta)} [r_s + (2 sin^2 - 1) r_p]
              + (k / 4 pi) Int_0^inf dt cosh(t) e^{-zt sinh(t)}
                    [r_s + (2 cosh^2 - 1) r_p],

    where k_z / k is cos(theta) or i sinh(t), and k_z1 / k is the root of
    eps - (q/k)^2 with positive imaginary part (loss keeps it off the
    path).
    """
    eps = lorentz_eps(omega, oscillators)
    k = omega / C_LIGHT
    zt = 2.0 * k * z

    def coeffs(kz, qk2):
        kz1 = np.sqrt(eps - qk2 + 0j)
        rs = (kz - kz1) / (kz + kz1)
        rp = (eps * kz - kz1) / (eps * kz + kz1)
        return rs + (2.0 * qk2 - 1.0) * rp

    def prop_imag(th):
        s = math.sin(th)
        val = s * np.exp(1j * zt * math.cos(th)) * coeffs(math.cos(th), s * s)
        return val.imag

    def evan_real(t):
        ch = math.cosh(t)
        val = ch * math.exp(-zt * math.sinh(t)) \
            * coeffs(1j * math.sinh(t), ch * ch)
        return val.real

    # the evanescent factor falls below e^-80 beyond sinh(t) = 80 / zt
    t_max = math.asinh(80.0 / zt)
    prop = _quad(prop_imag, 0.0, 0.5 * math.pi)
    evan = _quad(evan_real, 0.0, t_max)
    # Re[(i k/4 pi) P] = -(k/4 pi) Im P
    return (k / (4.0 * math.pi)) * (evan - prop)


def halfspace_resonant_potential(omega, dsq, z, oscillators):
    """U_r = -(mu0/3) omega^2 |d|^2 Re Tr G1(omega) of an excited atom."""
    return -(mu_0 / 3.0) * omega**2 * dsq \
        * halfspace_trace_real(omega, z, oscillators)


def resonant_scale(lines, z):
    """Yardstick for resonant potentials, which pass through zero.

    lines: iterable of (omega, dsq, msq) downward transitions.  Returns
    sum (mu0/3) omega^2 (|d|^2 + |m|^2/c^2) (omega / 2 pi c) A(zt): the
    perfect-mirror U_r with W replaced by its envelope
    A(zt) = sqrt(4 + zt^4) / zt^3.
    """
    total = 0.0
    for omega, dsq, msq in lines:
        zt = 2.0 * omega * z / C_LIGHT
        total += (mu_0 / 3.0) * omega**2 * (dsq + msq / C_LIGHT**2) \
            * (omega / (2.0 * math.pi * C_LIGHT)) * math.sqrt(4.0 + zt**4) \
            / zt**3
    return total


def resonant_slab_scale(lines, eta, z, d):
    """Yardstick eta [A-terms at z and z + d] for resonant slab forces."""
    return eta * (resonant_scale(lines, z) + resonant_scale(lines, z + d))
