"""Casimir force on a dilute slab of atoms facing a planar reflector.

For an optically dilute slab the force per unit area is the density-
weighted sum of the single-atom forces F = -dU/dz over the slab volume,

    f = -eta Int_z^{z+d} dz_A  dU/dz_A ,

split into resonant and nonresonant parts exactly like the potential.
For a two-level purely electric gas in front of a perfect electric
mirror the resonant part has a closed form: with zt = 2 w z / c and
W = Re e^{i zt} Q_0(zt), read from the mirror trace's closed form,

    W(zt) = [ (2 - zt^2) cos zt + 2 zt sin zt ] / zt^3

the force per unit area is

    f_r = (mu0 / 3) eta w^2 |d|^2 * C * (w / c) * [ W(zt(z+d)) - W(zt(z)) ]

where the constant C is pinned against the independent quadrature of
-eta Int dU_r/dz (see plate_force_quadrature and the regression test);
it is 1/(2 pi), the coefficient of the mirror trace.  Forces are
reported per unit plate area; per_thickness = f_total / d matches the
single-atom force density eta * (-dU/dz) in the d -> 0 limit.

Both numerical routes call each potential part over arrays of
distances: plate_force_quadrature integrates dU/dz across the slab,
force_decomposition differences U at the distinct edges of a sweep.
The slab integral runs in u = ln z, as the integral of z dU/dz: there
the power law dU/dz becomes a smooth exponential (nonresonant, from one
panel) or keeps its oscillation in 2 w z / c (resonant, from the images
of equal panels in z of at most pi radians of phase each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._constants import c as C_LIGHT
from ._constants import mu_0
from .greens import PlanarGeometry, _distances, _pec_phase_polynomial
from .materials import (
    PERFECT_ELECTRIC_MIRROR,
    AtomModel,
    clausius_mossotti,
)
from .potentials import (
    _ROUNDING_FLOOR,
    DEFAULT_POTENTIAL_TOL,
    _nonresonant,
    _resonant,
)
from .quadrature import DEFAULT_MAX_EVALUATIONS, _integrate_points, _Request

__all__ = [
    "SlabScenario",
    "ForceResult",
    "PLATE_FORCE_TRACE_CONSTANT",
    "mirror_force_bracket",
    "plate_force_closed_form",
    "plate_force_quadrature",
    "force_decomposition",
]

# Coefficient C of the closed-form plate force, C * (w/c) * [W]_a^b.
# Regression-pinned: the independent quadrature oracle fixes C = 1/(2 pi),
# the prefactor of the mirror trace 2 G_xx + G_zz (not the 1/(4 pi) of the
# single transverse component).  tests/test_forces.py asserts both the
# stored value and the oracle agreement.
PLATE_FORCE_TRACE_CONSTANT = 1.0 / (2.0 * np.pi)


@dataclass(frozen=True)
class SlabScenario:
    """Dilute gas slab [z, z + d] in front of the reflector at z = 0.

    z : plate-mirror gap, m, finite and > 0
    d : plate thickness, m, finite and > 0
    eta : atomic number density, 1/m^3, finite and > 0
    atom : AtomModel of the gas atoms
    geometry : PlanarGeometry supplying the reflector (its observation
        distance is not used here; the slab spans [z, z + d])

    A DiluteLimitWarning is emitted when the static Clausius-Mossotti
    susceptibilities of the gas reach the dilute guard.
    """

    z: float
    d: float
    eta: float
    atom: AtomModel
    geometry: PlanarGeometry

    def __post_init__(self):
        for name, value in (("gap", self.z), ("thickness", self.d),
                            ("number density", self.eta)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {value}")
        clausius_mossotti(self.eta, self.atom, 0.0)


@dataclass(frozen=True)
class ForceResult:
    """Force per unit plate area, N/m^2, negative = toward the mirror.

    f_total = f_resonant + f_nonresonant exactly; per_thickness is
    f_total / d in N/m^3.
    """

    f_resonant: float
    f_nonresonant: float
    f_total: float
    per_thickness: float
    quadrature_error: float


def _force_result(f_r, f_nr, d, quadrature_error):
    """ForceResult of the two parts of a slab of thickness d."""
    f_r, f_nr = float(f_r), float(f_nr)
    return ForceResult(f_r, f_nr, f_r + f_nr, (f_r + f_nr) / d,
                       float(quadrature_error))


def mirror_force_bracket(zt, order=0):
    """(2 - zt^2) cos zt + 2 zt sin zt = zt^3 W(zt), the antiderivative
    bracket of the mirror-trace derivative, or zt^4 W'(zt) for order 1,
    the bracket of the single-atom force; vectorised."""
    return _pec_phase_polynomial(np.asarray(zt, dtype=float), order).real


def _require_two_level_electric_pec(scenario):
    atom = scenario.atom
    if len(atom.transitions) != 1:
        raise ValueError("closed form needs a two-level atom "
                         f"(got {len(atom.transitions)} transitions)")
    t = atom.transitions[0]
    if t.omega_nk <= 0.0:
        raise ValueError("closed form needs an excited two-level atom")
    if t.magnetic_sq != 0.0:
        raise ValueError("closed form needs a purely electric atom")
    if scenario.geometry.reflector.model != PERFECT_ELECTRIC_MIRROR:
        raise ValueError("closed form needs a perfect electric mirror")
    return t


def plate_force_closed_form(scenario):
    """Resonant force per unit area from the boundary-difference closed
    form, N/m^2.  Restricted to an excited two-level purely electric gas
    and a perfect electric mirror."""
    t = _require_two_level_electric_pec(scenario)
    w = t.omega_nk
    zt_a = 2.0 * w * scenario.z / C_LIGHT
    zt_b = 2.0 * w * (scenario.z + scenario.d) / C_LIGHT
    delta_w = (mirror_force_bracket(zt_b) / zt_b**3
               - mirror_force_bracket(zt_a) / zt_a**3)
    return (mu_0 / 3.0) * scenario.eta * w**2 * t.dipole_sq \
        * PLATE_FORCE_TRACE_CONSTANT * (w / C_LIGHT) * float(delta_w)


def plate_force_quadrature(scenario, rel_tol=DEFAULT_POTENTIAL_TOL,
                           max_evaluations=DEFAULT_MAX_EVALUATIONS,
                           include_nonresonant=True):
    """Slab force from direct quadrature of -eta dU/dz across the slab.

    This is the independent route against which the closed form is
    checked: it never uses the antiderivative structure.  Works for any
    atom and reflector within the potential preconditions.  With
    include_nonresonant=False only the resonant part is integrated and
    f_nonresonant is reported as zero.

    Each part is integrated over u = ln(z / a) on [0, log1p(d / a)],
    with integrand z dU/dz at z = a e^u.  dU/dz is a power law in z
    (z^-4 to z^-5 for the nonresonant part): on equal panels in z it
    needs many bisections toward the near edge, and for far or thick
    slabs stops on the engine's absolute floor short of rel_tol.  In u
    the nonresonant integrand is a smooth exponential, resolved from one
    panel.  The resonant part oscillates with the phase 2 w z / c and
    starts from the images in u of floor(phase span / pi) + 1 equal
    panels in z, at most pi radians each.  The error is the slab
    quadrature error plus (b - a) = Int z du times the largest inner
    error; a QuadratureConvergenceError names the part and the slab.
    The nonresonant part is asked at _Request.nested(), rel_tol / 10.
    """
    request = _Request(rel_tol, max_evaluations)
    material = scenario.geometry.reflector
    a, b = scenario.z, scenario.z + scenario.d
    # the slab edge z + d, reached as z exp(log1p(d / z)), is rounded to
    # a few eps (z + d); the force inherits that as a relative error
    # (z + d) / d larger, unseen by quadrature
    rounding = _ROUNDING_FLOOR * b / (b - a)

    def slab_integral(part, inner, panels, name):
        """-eta Int_a^b dU/dz of one potential part and its error, from
        the images in u of `panels` equal panels in z; all the abscissae
        of a refinement round are taken in one call."""
        inner_err = 0.0

        def integrand(u, index):
            nonlocal inner_err
            z_values = a * np.exp(u)
            vals, err = part(scenario.atom, material, z_values, inner, order=1)
            inner_err = max(inner_err, float(err.max()))
            return z_values * vals

        edges = np.log1p(np.linspace(0.0, scenario.d / a, panels + 1))
        res = _integrate_points(
            integrand, edges[None], request,
            lambda i: f"{name} slab integral over [{a:.6g}, {b:.6g}] m")
        return (-scenario.eta * res.value[0],
                scenario.eta * (res.abs_error_estimate[0]
                                + (b - a) * inner_err))

    f_r, err_r = 0.0, 0.0
    if scenario.atom.is_excited:
        # the integrand oscillates with the trace phase 2 w z / c; start
        # with equal panels of at most pi radians of phase across the slab
        omega_max = max(t.omega_nk for t in scenario.atom.transitions
                        if t.omega_nk > 0.0)
        phase_span = 2.0 * omega_max * scenario.d / C_LIGHT
        f_r, err_r = slab_integral(_resonant, request,
                                   int(phase_span // np.pi) + 1, "resonant")
        err_r = max(err_r, rounding * abs(f_r))

    f_nr, err_nr = 0.0, 0.0
    if include_nonresonant:
        f_nr, err_nr = slab_integral(_nonresonant, request.nested(), 1,
                                     "nonresonant")
        err_nr = max(err_nr + rel_tol * abs(f_nr), rounding * abs(f_nr))

    return _force_result(f_r, f_nr, scenario.d, err_r + err_nr)


def force_decomposition(scenario, z_grid, rel_tol=DEFAULT_POTENTIAL_TOL,
                        max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Per-gap force decomposition along a grid of plate positions.

    Uses the antiderivative (boundary-difference) structure: each
    potential part is evaluated once over all the distinct slab edges
    (the grid and the grid shifted by d), and each gap's force is
    -eta [U(z + d) - U(z)].  The resonant column is identically zero
    whenever the atom has no downward transition.

    Returns a list of ForceResult in grid order.
    """
    request = _Request(rel_tol, max_evaluations)
    z_grid = _distances(z_grid)
    if (np.diff(z_grid) <= 0.0).any():
        raise ValueError("grid must be strictly increasing")
    edges, index = np.unique(np.concatenate([z_grid, z_grid + scenario.d]),
                             return_inverse=True)
    lo, hi = np.split(index, 2)
    material = scenario.geometry.reflector
    u_nr, err_nr = _nonresonant(scenario.atom, material, edges, request)
    u_r, err_r = _resonant(scenario.atom, material, edges, request)
    err, eta = err_nr + err_r, scenario.eta
    return [_force_result(-eta * (u_r[b] - u_r[a]),
                          -eta * (u_nr[b] - u_nr[a]), scenario.d,
                          eta * (err[a] + err[b]))
            for a, b in zip(lo, hi)]
