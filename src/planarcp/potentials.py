"""Casimir-Polder potentials of a single atom near a planar reflector.

The potential of an atom in state n splits into two parts.  The
nonresonant part is an integral along the positive imaginary frequency
axis,

    U_nr = (hbar mu0 / 2 pi) Int_0^inf dxi
           [ xi^2 alpha_n(i xi) trace_e(i xi)
             + beta_n(i xi) trace_m(i xi) ],

present for every atom.  The resonant part exists only for excited
atoms; it is carried entirely by the downward transitions,

    U_r = -(mu0 / 3) sum_k Theta(omega_nk)
          [ omega_nk^2 |d_nk|^2 Re trace_e(omega_nk)
            - |m_nk|^2 Re trace_m(omega_nk) ],

and usually dominates.  For a ground-state atom U_r is an exact
structural zero; no Green function is evaluated.

Forces follow from F = -dU/dz (the force module integrates that over a
slab).  Both parts are invariant under the global duality exchange
alpha <-> beta / c^2 together with eps <-> mu of the reflector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import hbar, mu_0

from . import greens
from .materials import AtomModel, Transition, _response_ixi, resonant_weights
from .quadrature import integrate_semi_infinite

__all__ = [
    "PotentialResult",
    "nonresonant_potential",
    "resonant_potential",
    "total_potential",
    "duality_transform",
    "DEFAULT_POTENTIAL_TOL",
]

DEFAULT_POTENTIAL_TOL = 1e-9

# closed-form parts are exact up to floating-point evaluation; their
# reported error carries this rounding floor instead of zero
_ROUNDING_FLOOR = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class PotentialResult:
    """Resonant/nonresonant split of the potential at one distance, in J.

    u_total = u_nonresonant + u_resonant holds exactly by construction.
    quadrature_error bounds the numerical error of the sum; closed-form
    contributions enter it with a floating-point rounding floor rather
    than zero.
    """

    u_nonresonant: float
    u_resonant: float
    u_total: float
    quadrature_error: float


def _decay_scale(atom, z):
    """Decay scale of the imaginary-frequency integrand.

    The integrand dies off beyond both the largest transition frequency
    (atomic response) and c/2z (reflection phase), whichever is larger.
    """
    omega_max = max(abs(t.omega_nk) for t in atom.transitions)
    return max(omega_max, C_LIGHT / (2.0 * z))


def _nonresonant(atom, geometry, rel_tol, max_evaluations, order=0):
    """(value, abs_error) of the nonresonant potential in J, or of its
    z-derivative in J/m for order 1.

    Each integrand call makes one imaginary-axis kernel call per trace
    the atom couples to: the electric one for electric moments, the dual
    (magnetic) one for magnetic moments.  The kernel returns xi^2 trace_e,
    and by duality trace_m(i xi) = xi^2 trace_e(i xi; mu, eps) / c^2.
    """
    z = geometry.z_atom
    material = geometry.reflector
    inner_tol = rel_tol / 10.0
    has_e = not atom.is_purely_magnetic
    dual = None if atom.is_purely_electric else material.dual()
    # a reflector and its dual are both closed forms (zero error at every
    # xi) or both quadratures, so the first call's errors tell which
    inexact = None

    def integrand(xi):
        nonlocal inexact
        out = np.zeros(xi.shape)
        if has_e:
            xi2_te, err = greens._trace_e_imag_axis(
                material, z, xi, inner_tol, max_evaluations, order)
            out += _response_ixi(atom, xi) * xi2_te
        if dual is not None:
            xi2_td, err = greens._trace_e_imag_axis(
                dual, z, xi, inner_tol, max_evaluations, order)
            out += _response_ixi(atom, xi, magnetic=True) \
                * (xi2_td / C_LIGHT**2)
        if inexact is None:
            inexact = bool(err.any())
        return out

    res = integrate_semi_infinite(integrand, scale=_decay_scale(atom, z),
                                  tol=rel_tol,
                                  max_evaluations=max_evaluations)
    pref = hbar * mu_0 / (2.0 * np.pi)
    value = float(pref * res.value)
    err = float(pref * res.abs_error_estimate)
    if inexact:
        err += rel_tol * abs(value)  # inner quadratures budgeted at rel_tol/10
    return value, max(err, _ROUNDING_FLOOR * abs(value))


def _halfspace_line_sums(lines, material, z_values, rel_tol,
                         max_evaluations, order):
    """Sum over resonant lines of w^2 |d|^2-weighted Re trace_e minus
    |m|^2-weighted Re trace_m (or of their z-derivatives for order 1) at
    an array of distances, one real-axis kernel call per trace, for any
    reflector.

    Builds only the traces the lines couple to and weights each trace's
    error by its own line weight.  Returns arrays (sums, abs_errors).
    """
    total = np.zeros(z_values.shape)
    err = np.zeros(z_values.shape)
    for line in lines:
        if line.electric_weight:
            te, te_err = greens._trace_e_real_axis(
                material, z_values, line.omega, rel_tol, max_evaluations,
                order)
            weight = line.electric_weight * line.omega**2
            total += weight * te.real
            err += weight * te_err
        if line.magnetic_weight:
            # trace_m(w) = -(w/c)^2 trace_e(w; mu, eps)
            td, td_err = greens._trace_e_real_axis(
                material.dual(), z_values, line.omega, rel_tol,
                max_evaluations, order)
            weight = line.magnetic_weight * (line.omega / C_LIGHT) ** 2
            total += weight * td.real
            err += weight * td_err
    return total, err


def _resonant(atom, geometry, rel_tol, max_evaluations):
    """(value, abs_error) of the resonant potential in J.

    Exact zero (without touching the reflector) for ground-state atoms.
    """
    lines = resonant_weights(atom)
    if not lines:
        return 0.0, 0.0
    (value,), (err,) = _halfspace_line_sums(
        lines, geometry.reflector, np.array([geometry.z_atom]),
        rel_tol / 10.0, max_evaluations, 0)
    pref = -hbar * mu_0 / np.pi
    value = float(pref * value)
    err = float(abs(pref) * err)
    return value, max(err, _ROUNDING_FLOOR * abs(value))


def nonresonant_potential(atom, geometry, z_atom=None,
                          rel_tol=DEFAULT_POTENTIAL_TOL,
                          max_evaluations=100_000):
    """Nonresonant (imaginary-frequency) potential in J.

    z_atom overrides the geometry's observation distance when given.
    The single-atom potential is independent of any slab density.
    """
    if z_atom is not None:
        geometry = geometry.with_distance(z_atom)
    return _nonresonant(atom, geometry, rel_tol, max_evaluations)[0]


def resonant_potential(atom, geometry, z_atom=None,
                       rel_tol=DEFAULT_POTENTIAL_TOL,
                       max_evaluations=100_000):
    """Resonant potential in J; zero for ground-state atoms.

    At each downward transition frequency the reflector must be a
    perfect mirror, vacuum, or lossy (absorbing) material.
    """
    if z_atom is not None:
        geometry = geometry.with_distance(z_atom)
    return _resonant(atom, geometry, rel_tol, max_evaluations)[0]


def total_potential(atom, geometry, z_atom=None,
                    rel_tol=DEFAULT_POTENTIAL_TOL,
                    max_evaluations=100_000):
    """Both potential parts and their sum as a PotentialResult."""
    if z_atom is not None:
        geometry = geometry.with_distance(z_atom)
    u_nr, err_nr = _nonresonant(atom, geometry, rel_tol, max_evaluations)
    u_r, err_r = _resonant(atom, geometry, rel_tol, max_evaluations)
    return PotentialResult(
        u_nonresonant=u_nr,
        u_resonant=u_r,
        u_total=u_nr + u_r,
        quadrature_error=err_nr + err_r,
    )


def duality_transform(atom, geometry):
    """Globally exchange electric and magnetic roles.

    The atom maps via |d|^2 -> |m|^2 / c^2 and |m|^2 -> c^2 |d|^2 (the
    realisation of alpha <-> beta/c^2), the reflector swaps eps and mu
    (perfect electric <-> perfect magnetic mirror).  Applying the
    transform twice returns the original system; both potential parts
    are invariant under a single application.
    """
    c2 = C_LIGHT**2
    dual_atom = AtomModel(
        state_label=atom.state_label,
        transitions=tuple(
            Transition(
                omega_nk=t.omega_nk,
                dipole_sq=t.magnetic_sq / c2,
                magnetic_sq=t.dipole_sq * c2,
            )
            for t in atom.transitions
        ),
        kind=atom.kind,
    )
    return dual_atom, geometry.dual()


# --------------------------------------------------------------------------
# z-derivatives, consumed by the force module


def _du_resonant_dz_grid(atom, geometry, z_values, rel_tol,
                         max_evaluations):
    """d U_r / dz on an array of distances; (values, abs_error_bound).

    One order-1 real-axis kernel call per coupled trace per line for all
    the distances: the kernel differentiates the closed forms of the
    perfect mirrors, and for a material half-space differentiates under
    the transverse-wavevector integral, one vector integral per chunk of
    PANEL_NODES distances.  The bound is the largest over the distances
    of the per-line errors summed.
    """
    lines = resonant_weights(atom)
    z_values = np.asarray(z_values, dtype=float)
    if not lines:
        return np.zeros_like(z_values), 0.0
    total, err = _halfspace_line_sums(lines, geometry.reflector, z_values,
                                      rel_tol / 10.0, max_evaluations, 1)
    pref = -hbar * mu_0 / np.pi
    return pref * total, abs(pref) * float(err.max())
