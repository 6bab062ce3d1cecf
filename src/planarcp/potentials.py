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

For perfect mirrors and vacuum the traces are closed forms, and U_nr is
one xi-integral per distance.  For a Drude-Lorentz half-space each trace
is a Sommerfeld integral over v = c kappa / xi; swapping the order of
integration (Wylie & Sipe, PRA 30, 1185 (1984)) leaves z only in the
exponential,

    U_nr = (hbar mu0 / 8 pi^2) Int_0^inf dkappa e^{-2 kappa z} K(kappa),
    K(kappa) = Int_0^{c kappa} dxi xi^2
               [ alpha_n(i xi) B_e + beta_n(i xi) / c^2 B_m ]

with B_e = r_s - (2 v^2 - 1) r_p and B_m its dual (r_s and r_p
exchanged); dU_nr/dz multiplies the integrand by -2 kappa.  K does not
depend on z, so the distances of a call share it: each is one
kappa-integral of a lock-step batch, mapped at the power of two S at or
above min(max(omega_max / c, 1 / 2z), _SCALE_CAP / 2z) and started from
panels graded toward the decay of e^{-2 kappa z}, so that distances of
one octave of S start from the same nodes and most converge in one
round.  Each round evaluates K once per distinct node, as one batch of
inner integrals at rel_tol / 10, by _Request.nested.  The reported error is the
kappa-integral's plus rel_tol |U| for the inner ones.

Forces follow from F = -dU/dz (the force module integrates that over a
slab).  Both parts are invariant under the global duality exchange
alpha <-> beta / c^2 together with eps <-> mu of the reflector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import greens
from ._constants import c as C_LIGHT
from ._constants import hbar, mu_0
from .greens import _distances, _like
from .materials import AtomModel, Transition, _response_ixi, resonant_weights
from .quadrature import (
    DEFAULT_MAX_EVALUATIONS,
    QuadratureConvergenceError,
    _integrate_points,
    _named,
    _Request,
    integrate_semi_infinite,
)

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

# largest ratio of a nonresonant route's map scale to its decay scale,
# c / 2z in xi or 1 / 2z in kappa.  Far beyond the atomic scale
# (2 omega_max z / c >> 1) a map at omega_max would put every first node
# where e^{-2 xi z / c} has died, K15 and G7 would agree on about 0 and
# the floor would accept it; at this cap the first node sees about e^{-1}
_SCALE_CAP = 2.0**10

# initial panel edges in t of a kappa-integral, kappa = S t / (1 - t):
# kappa = 0, S/7, S/3, S, 3S, 7S, 15S, infinity.  With S >= 1/2z the
# cuts toward t = 1 grade the decay e^{-2 kappa z} before any bisection
# round.  The cut at S/7 is needed in the near field: without it, zt =
# 1e-3 converges 1.3e-11 relative off an independent reference
_KAPPA_PANELS = np.array([0.0, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 15 / 16,
                          1.0])


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


def _nonresonant(atom, material, z_values, request, order=0):
    """Nonresonant potential in J, or its z-derivative in J/m for order
    1, at an array of distances; arrays (values, abs_errors).

    Perfect mirrors and vacuum take one adaptive xi-integral per
    distance of the closed-form kernel (_xi_integrals); a half-space
    takes the kappa-first form of the module docstring
    (_kappa_integrals), where all the distances share K(kappa) node by
    node.  A half-space's inner integrals run at request.nested() and add
    rel_tol |U| to the kappa-integral's error; closed forms add nothing.
    """
    z_values = np.asarray(z_values, dtype=float)
    if material.is_perfect_mirror or material.is_vacuum:
        values, errs = _xi_integrals(atom, material, z_values, request, order)
    else:
        values, errs = _kappa_integrals(atom, material, z_values, request,
                                        order)
        errs = errs + request.rel_tol * np.abs(values)
    return values, np.maximum(errs, _ROUNDING_FLOOR * np.abs(values))


def _xi_integrals(atom, material, z_values, request, order):
    """U_nr (or dU_nr/dz) of a perfect mirror or vacuum and its xi-error,
    one adaptive xi-integral per distance, mapped at
    min(max(omega_max, c / 2z), _SCALE_CAP c / 2z); a failure names the
    integral and its distance.

    Each integrand call asks the imaginary-axis kernel for the
    reflector's own column only, xi^2 trace_e at unit scale, and applies
    alpha(i xi) to it and beta(i xi) / c^2 to its negative: by duality
    trace_m(i xi) = xi^2 trace_e(i xi; mu, eps) / c^2, and the dual of a
    perfect mirror is the opposite mirror (that of vacuum is vacuum).
    """
    omega_max = max(abs(t.omega_nk) for t in atom.transitions)
    pref = hbar * mu_0 / (2.0 * np.pi)
    values = np.empty(z_values.shape)
    errs = np.empty(z_values.shape)
    for i, z in enumerate(z_values.tolist()):
        def integrand(xi):
            (xi2_t,), _ = greens._trace_e_imag_axis(material, z, xi, request,
                                                    order)
            out = np.zeros(xi.shape)
            if not atom.is_purely_magnetic:
                out += _response_ixi(atom, xi) * xi2_t
            if not atom.is_purely_electric:
                out += _response_ixi(atom, xi, magnetic=True) \
                    * (-xi2_t / C_LIGHT**2)
            return out

        # the integrand dies off beyond both the largest transition
        # frequency (atomic response) and c/2z (reflection phase)
        decay = C_LIGHT / (2.0 * z)
        try:
            res = integrate_semi_infinite(
                integrand, scale=min(max(omega_max, decay),
                                     _SCALE_CAP * decay),
                tol=request.rel_tol, max_evaluations=request.budget)
        except QuadratureConvergenceError as exc:
            where = f"nonresonant xi-integral at z = {z:.6g} m: "
            raise _named(exc, where) from exc
        values[i] = pref * res.value
        errs[i] = pref * res.abs_error_estimate
    return values, errs


def _kappa_integrals(atom, material, z_values, request, order):
    """U_nr (or dU_nr/dz) of a Drude-Lorentz half-space and its
    kappa-error, in the kappa-first form of the module docstring: one
    lock-step batch of kappa-integrals, kappa = S t / (1 - t) from the
    seven initial panels of _KAPPA_PANELS, which depend on z only
    through S = 2^ceil(log2 min(max(omega_max / c, 1 / 2z),
    _SCALE_CAP / 2z)).  Each round evaluates K once per distinct node at
    which some distance's e^{-2 kappa z} is nonzero; a node's K does not
    depend on the other nodes, so an entry of an array call has the bits
    of a single call.
    """
    omega_max = max(abs(t.omega_nk) for t in atom.transitions)
    decay = 0.5 / z_values
    scale = np.exp2(np.ceil(np.log2(np.minimum(
        np.maximum(omega_max / C_LIGHT, decay), _SCALE_CAP * decay))))

    def integrand(t, index):
        one_minus = 1.0 - t
        kappa = scale[index] * t / one_minus
        weight = np.exp(-2.0 * kappa * z_values[index]) \
            * (scale[index] / one_minus**2)
        if order:
            weight *= -2.0 * kappa
        live = weight != 0.0
        nodes, node = np.unique(kappa[live], return_inverse=True)
        out = np.zeros(t.shape)
        if nodes.size:
            out[live] = weight[live] * _laplace_kernel(
                atom, material, nodes, request.nested())[node]
        return out

    res = _integrate_points(
        integrand, np.tile(_KAPPA_PANELS, (z_values.size, 1)), request,
        lambda i: "nonresonant kappa-integral" if i is None
        else f"nonresonant kappa-integral at z = {z_values[i]:.6g} m")
    pref = hbar * mu_0 / (8.0 * np.pi**2)
    return pref * res.value, pref * res.abs_error_estimate


def _laplace_kernel(atom, material, kappa, request):
    """K(kappa) of the kappa-first form at a sorted array of distinct
    kappa > 0.  With xi = c kappa s,

        K(kappa) = (c kappa)^3 Int_0^1 ds [alpha(i xi) B_e(s)
                                           + beta(i xi) / c^2 B_m(s)],
        B_e = s^2 r_s - (2 - s^2) r_p,   B_m = s^2 r_p - (2 - s^2) r_s,

    with the Fresnel pair at v = 1 / s in the scaled form of
    greens._fresnel, finite at s = 0; only the brackets the atom couples
    to are evaluated.  The poles xi = +-i omega of the atomic and medium
    frequencies and the branch point s = i / sqrt(eps mu - 1) crowd
    toward s = 0 as kappa grows, so each integral starts from panels cut
    at s = s_lo 2^k < 1, s_lo = min(omega_lo / c kappa, s_b) / 2, with
    omega_lo the lowest of those frequencies and s_b the least branch
    point distance: no singularity lies closer to a panel than the
    panel is wide.  One lock-step batch at the request, the integrand
    scaled by the static response so that the engine's absolute floor
    never binds.
    """
    electric = not atom.is_purely_magnetic
    magnetic = not atom.is_purely_electric
    oscillators = material.eps_oscillators + material.mu_oscillators
    # an overdamped oscillator also turns at resonance^2 / damping
    omega_lo = min([abs(t.omega_nk) for t in atom.transitions]
                   + [o.resonance * min(1.0, o.resonance / o.damping)
                      for o in oscillators])
    static = [1.0 + sum(o.strength for o in group if not o.amplifying)
              for group in (material.eps_oscillators,
                            material.mu_oscillators)]
    s_branch = 1.0 / math.sqrt(max(static[0] * static[1] - 1.0, 1.0))
    unit = 3.0 * hbar / max((t.dipole_sq + t.magnetic_sq / C_LIGHT**2)
                            / abs(t.omega_nk) for t in atom.transitions)

    ck = C_LIGHT * kappa
    s_lo = 0.5 * np.minimum(omega_lo / ck, s_branch)
    # cuts at 1 and beyond collapse onto the end, leaving empty
    # panels that _integrate_points drops
    grading = np.exp2(np.arange(math.ceil(-math.log2(s_lo[-1]))))
    edges = np.concatenate([np.zeros((ck.size, 1)),
                            np.minimum(s_lo[:, None] * grading, 1.0),
                            np.ones((ck.size, 1))], axis=1)

    def integrand(s, index):
        xi = ck[index] * s
        eps, mu = greens._imag_axis_response(material, xi)
        s2 = s * s
        em1 = (eps * mu - 1.0) * s2
        rs, rp = greens._fresnel(eps, mu, 1.0, np.sqrt(1.0 + em1), em1)
        out = np.zeros(s.shape)
        if electric:
            out += (unit * _response_ixi(atom, xi)) \
                * (s2 * rs - (2.0 - s2) * rp)
        if magnetic:
            out += (unit / C_LIGHT**2 * _response_ixi(atom, xi, True)) \
                * (s2 * rp - (2.0 - s2) * rs)
        return out

    res = _integrate_points(
        integrand, edges, request,
        lambda i: f"K(kappa) at kappa = {kappa[i]:.6g} 1/m")
    return ck * ck * ck / unit * res.value


def _resonant(atom, material, z_values, request, order=0):
    """Resonant potential in J, or its z-derivative in J/m for order 1,
    at an array of distances; arrays (values, abs_errors).

    One real-axis kernel call per resonant line for all the distances
    and the columns the line couples to (for a half-space one ray
    integral per distance, all in one lock-step batch): w^2 |d|^2-weighted
    Re trace_e minus |m|^2-weighted Re trace_m, with trace_m(w) =
    -(w/c)^2 trace_e(w; mu, eps) from the dual column, each trace's error
    weighted by its own line weight.  Exact zeros, without touching the
    reflector, for ground-state atoms.
    """
    z_values = np.asarray(z_values, dtype=float)
    lines = resonant_weights(atom)
    total, err = np.zeros(z_values.shape), np.zeros(z_values.shape)
    if not lines:
        return total, err
    for line in lines:
        duals, weights = zip(*[(dual, weight) for dual, weight in (
            (False, line.electric_weight * line.omega**2),
            (True, line.magnetic_weight * (line.omega / C_LIGHT) ** 2))
            if weight])
        traces, trace_errs = greens._trace_e_real_axis(
            material, z_values, line.omega, request.nested(), order, duals)
        for weight, trace, trace_err in zip(weights, traces, trace_errs):
            total += weight * trace.real
            err += weight * trace_err
    pref = -hbar * mu_0 / np.pi
    values = pref * total
    return values, np.maximum(abs(pref) * err,
                              _ROUNDING_FLOOR * np.abs(values))


def _part(part, atom, geometry, z_atom, request):
    """(values, abs_errors) of one potential part at the geometry's
    distance or along z_atom, one routine call for all the distances;
    Python floats for a scalar distance."""
    if z_atom is None:
        z_atom = geometry.z_atom
    values, errs = part(atom, geometry.reflector, _distances(z_atom),
                        request)
    return _like(z_atom, values), _like(z_atom, errs)


def nonresonant_potential(atom, geometry, z_atom=None,
                          rel_tol=DEFAULT_POTENTIAL_TOL,
                          max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Nonresonant (imaginary-frequency) potential in J.

    z_atom, a float or a 1-d array of distances, overrides the
    geometry's observation distance when given; the result is a float or
    an array accordingly.  The single-atom potential is independent of
    any slab density.
    """
    return _part(_nonresonant, atom, geometry, z_atom,
                 _Request(rel_tol, max_evaluations))[0]


def resonant_potential(atom, geometry, z_atom=None,
                       rel_tol=DEFAULT_POTENTIAL_TOL,
                       max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Resonant potential in J, a float or an array as for
    nonresonant_potential; zero for ground-state atoms.

    At each downward transition frequency the reflector must be a
    perfect mirror, vacuum, or purely absorbing, the paper's absorbing
    environment: Im eps >= 0, Im mu >= 0 and Im eps mu > 0 there, else
    ValueError.
    """
    return _part(_resonant, atom, geometry, z_atom,
                 _Request(rel_tol, max_evaluations))[0]


def total_potential(atom, geometry, z_atom=None,
                    rel_tol=DEFAULT_POTENTIAL_TOL,
                    max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Both potential parts and their sum as a PotentialResult, of floats
    or arrays as for nonresonant_potential."""
    args = (atom, geometry, z_atom, _Request(rel_tol, max_evaluations))
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
    )
    return dual_atom, geometry.dual()
