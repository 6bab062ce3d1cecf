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

Each part is one routine, _nonresonant or _resonant, giving arrays
(values, abs_errors) of U, or of dU/dz for order 1, at an array of
distances.  The public functions take one distance or a 1-d array of
them and call each routine they need once for all of them.

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
from .greens import _distances, _like
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
    """Resonant/nonresonant split of the potential, in J: Python floats
    at one distance, arrays along an array of distances.

    u_total = u_nonresonant + u_resonant holds exactly by construction.
    quadrature_error bounds the numerical error of the sum; closed-form
    contributions enter it with a floating-point rounding floor rather
    than zero.
    """

    u_nonresonant: float
    u_resonant: float
    u_total: float
    quadrature_error: float


def _nonresonant(atom, material, z_values, rel_tol, max_evaluations,
                 order=0):
    """Nonresonant potential in J, or its z-derivative in J/m for order
    1, at an array of distances; arrays (values, abs_errors).

    One adaptive xi-integral per distance.  Each integrand call makes one
    imaginary-axis kernel call for the columns the atom couples to: the
    reflector's own for electric moments, the dual's for magnetic
    moments.  The kernel returns xi^2 trace_e at unit scale, alpha(i xi)
    and beta(i xi) / c^2 are applied here, and by duality
    trace_m(i xi) = xi^2 trace_e(i xi; mu, eps) / c^2.
    """
    z_values = np.asarray(z_values, dtype=float)
    inner_tol = rel_tol / 10.0
    duals = tuple(dual for dual, coupled in (
        (False, not atom.is_purely_magnetic),
        (True, not atom.is_purely_electric)) if coupled)
    omega_max = max(abs(t.omega_nk) for t in atom.transitions)
    pref = hbar * mu_0 / (2.0 * np.pi)
    values = np.empty(z_values.shape)
    errs = np.empty(z_values.shape)
    for i, z in enumerate(z_values.tolist()):
        # a reflector is a closed form (zero error at every xi) or a
        # quadrature, so the first call's errors tell which
        inexact = None

        def integrand(xi):
            nonlocal inexact
            traces, err = greens._trace_e_imag_axis(
                material, z, xi, inner_tol, max_evaluations, order, duals)
            if inexact is None:
                inexact = bool(err.any())
            out = np.zeros(xi.shape)
            for dual, xi2_t in zip(duals, traces):
                if dual:
                    out += _response_ixi(atom, xi, magnetic=True) \
                        * (xi2_t / C_LIGHT**2)
                else:
                    out += _response_ixi(atom, xi) * xi2_t
            return out

        # the integrand dies off beyond both the largest transition
        # frequency (atomic response) and c/2z (reflection phase)
        res = integrate_semi_infinite(
            integrand, scale=max(omega_max, C_LIGHT / (2.0 * z)),
            tol=rel_tol, max_evaluations=max_evaluations)
        values[i] = pref * res.value
        errs[i] = pref * res.abs_error_estimate
        if inexact:
            # inner quadratures budgeted at rel_tol/10
            errs[i] += rel_tol * abs(values[i])
    return values, np.maximum(errs, _ROUNDING_FLOOR * np.abs(values))


def _resonant(atom, material, z_values, rel_tol, max_evaluations, order=0):
    """Resonant potential in J, or its z-derivative in J/m for order 1,
    at an array of distances; arrays (values, abs_errors).

    One real-axis kernel call per resonant line for all the distances
    and the columns the line couples to (for a half-space one contour
    integral per distance, all in one lock-step batch): w^2 |d|^2-weighted
    Re trace_e minus |m|^2-weighted Re trace_m, with trace_m(w) =
    -(w/c)^2 trace_e(w; mu, eps) from the dual column, each trace's error
    weighted by its own line weight.  Exact zeros, without touching the
    reflector, for ground-state atoms.
    """
    z_values = np.asarray(z_values, dtype=float)
    lines = resonant_weights(atom)
    if not lines:
        return np.zeros(z_values.shape), np.zeros(z_values.shape)
    total = np.zeros(z_values.shape)
    err = np.zeros(z_values.shape)
    for line in lines:
        duals, weights = zip(*[(dual, weight) for dual, weight in (
            (False, line.electric_weight * line.omega**2),
            (True, line.magnetic_weight * (line.omega / C_LIGHT) ** 2))
            if weight])
        traces, trace_errs = greens._trace_e_real_axis(
            material, z_values, line.omega, rel_tol / 10.0, max_evaluations,
            order, duals)
        for weight, trace, trace_err in zip(weights, traces, trace_errs):
            total += weight * trace.real
            err += weight * trace_err
    pref = -hbar * mu_0 / np.pi
    values = pref * total
    return values, np.maximum(abs(pref) * err,
                              _ROUNDING_FLOOR * np.abs(values))


def _part(part, atom, geometry, z_atom, rel_tol, max_evaluations):
    """(values, abs_errors) of one potential part at the geometry's
    distance or along z_atom, one routine call for all the distances;
    Python floats for a scalar distance."""
    if z_atom is None:
        z_atom = geometry.z_atom
    values, errs = part(atom, geometry.reflector, _distances(z_atom),
                        rel_tol, max_evaluations)
    return _like(z_atom, values), _like(z_atom, errs)


def nonresonant_potential(atom, geometry, z_atom=None,
                          rel_tol=DEFAULT_POTENTIAL_TOL,
                          max_evaluations=100_000):
    """Nonresonant (imaginary-frequency) potential in J.

    z_atom, a float or a 1-d array of distances, overrides the
    geometry's observation distance when given; the result is a float or
    an array accordingly.  The single-atom potential is independent of
    any slab density.
    """
    return _part(_nonresonant, atom, geometry, z_atom, rel_tol,
                 max_evaluations)[0]


def resonant_potential(atom, geometry, z_atom=None,
                       rel_tol=DEFAULT_POTENTIAL_TOL,
                       max_evaluations=100_000):
    """Resonant potential in J, a float or an array as for
    nonresonant_potential; zero for ground-state atoms.

    At each downward transition frequency the reflector must be a
    perfect mirror, vacuum, or lossy (absorbing) material.
    """
    return _part(_resonant, atom, geometry, z_atom, rel_tol,
                 max_evaluations)[0]


def total_potential(atom, geometry, z_atom=None,
                    rel_tol=DEFAULT_POTENTIAL_TOL,
                    max_evaluations=100_000):
    """Both potential parts and their sum as a PotentialResult, of floats
    or arrays as for nonresonant_potential."""
    args = (atom, geometry, z_atom, rel_tol, max_evaluations)
    u_nr, err_nr = _part(_nonresonant, *args)
    u_r, err_r = _part(_resonant, *args)
    return PotentialResult(u_nr, u_r, u_nr + u_r, err_nr + err_r)


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
