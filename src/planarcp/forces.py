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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, mu_0

from .greens import PlanarGeometry, _pec_phase_polynomial
from .materials import (
    PERFECT_ELECTRIC_MIRROR,
    AtomModel,
    DiluteLimitWarning,
    polarizability,
)
from .potentials import (
    _ROUNDING_FLOOR,
    DEFAULT_POTENTIAL_TOL,
    _du_resonant_dz_grid,
    _nonresonant,
    _resonant,
)
from .quadrature import integrate_finite

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

_DILUTE_GUARD = 0.1


@dataclass(frozen=True)
class SlabScenario:
    """Dilute gas slab [z, z + d] in front of the reflector at z = 0.

    z : plate-mirror gap, m, > 0
    d : plate thickness, m, > 0
    eta : atomic number density, 1/m^3, > 0
    atom : AtomModel of the gas atoms
    geometry : PlanarGeometry supplying the reflector (its observation
        distance is not used here; the slab spans [z, z + d])
    """

    z: float
    d: float
    eta: float
    atom: AtomModel
    geometry: PlanarGeometry

    def __post_init__(self):
        if not self.z > 0.0:
            raise ValueError(f"gap must be > 0, got {self.z}")
        if not self.d > 0.0:
            raise ValueError(f"thickness must be > 0, got {self.d}")
        if not self.eta > 0.0:
            raise ValueError(f"number density must be > 0, got {self.eta}")
        chi = self.eta * abs(polarizability(self.atom, 0.0)) / epsilon_0
        if chi >= _DILUTE_GUARD:
            warnings.warn(
                f"eta |alpha(0)| / eps0 = {chi:.3g} exceeds the dilute "
                f"guard {_DILUTE_GUARD}; the single-atom summation is "
                "unreliable at this density",
                DiluteLimitWarning,
                stacklevel=2,
            )


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


def mirror_force_bracket(zt):
    """(2 - zt^2) cos zt + 2 zt sin zt = zt^3 W(zt), the antiderivative
    bracket of the mirror-trace derivative; vectorised."""
    return _pec_phase_polynomial(np.asarray(zt, dtype=float), 0).real


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
                           max_evaluations=100_000,
                           include_nonresonant=True):
    """Slab force from direct quadrature of -eta dU/dz across the slab.

    This is the independent route against which the closed form is
    checked: it never uses the antiderivative structure.  Works for any
    atom and reflector within the potential preconditions.  With
    include_nonresonant=False only the resonant part is integrated and
    f_nonresonant is reported as zero.
    """
    geo = scenario.geometry
    a, b = scenario.z, scenario.z + scenario.d
    # the slab edge z + d is rounded to eps (z + d); the force inherits
    # that as a relative error (z + d) / d larger, unseen by quadrature
    rounding = _ROUNDING_FLOOR * b / (b - a)

    # the inner integrals' errors reach the slab integral at most as
    # (b - a) times the largest of them
    inner_err = {"r": 0.0, "nr": 0.0}

    def resonant_integrand(z_values):
        vals, err = _du_resonant_dz_grid(scenario.atom, geo, z_values,
                                         rel_tol, max_evaluations)
        inner_err["r"] = max(inner_err["r"], err)
        return vals

    lines_exist = scenario.atom.is_excited
    if lines_exist:
        # the integrand oscillates with the trace phase 2 w z / c; start
        # with about one panel per radian of phase across the slab
        omega_max = max(t.omega_nk for t in scenario.atom.transitions
                        if t.omega_nk > 0.0)
        phase_span = 2.0 * omega_max * scenario.d / C_LIGHT
        panels = int(phase_span) + 1
        res_r = integrate_finite(resonant_integrand, a, b, tol=rel_tol,
                                 max_evaluations=max_evaluations,
                                 initial_intervals=panels)
        f_r = -scenario.eta * res_r.value
        err_r = max(scenario.eta * (res_r.abs_error_estimate
                                    + (b - a) * inner_err["r"]),
                    rounding * abs(f_r))
    else:
        f_r, err_r = 0.0, 0.0

    if include_nonresonant:
        def nonresonant_integrand(z_values):
            out = np.empty_like(z_values)
            for i, z in enumerate(z_values):
                out[i], err = _nonresonant(
                    scenario.atom, geo.with_distance(float(z)),
                    rel_tol / 10.0, max_evaluations, order=1)
                inner_err["nr"] = max(inner_err["nr"], err)
            return out

        res_nr = integrate_finite(nonresonant_integrand, a, b, tol=rel_tol,
                                  max_evaluations=max_evaluations)
        f_nr = -scenario.eta * res_nr.value
        err_nr = max(scenario.eta * (res_nr.abs_error_estimate
                                     + (b - a) * inner_err["nr"])
                     + rel_tol * abs(f_nr), rounding * abs(f_nr))
    else:
        f_nr, err_nr = 0.0, 0.0

    return ForceResult(
        f_resonant=f_r,
        f_nonresonant=f_nr,
        f_total=f_r + f_nr,
        per_thickness=(f_r + f_nr) / scenario.d,
        quadrature_error=err_r + err_nr,
    )


def _boundary_difference_force(scenario, u_cache, rel_tol,
                               max_evaluations):
    """Slab force from U(z+d) - U(z); shares U evaluations via u_cache."""
    atom, geo = scenario.atom, scenario.geometry

    def u_parts(z):
        if z not in u_cache:
            g = geo.with_distance(z)
            u_nr, e_nr = _nonresonant(atom, g, rel_tol, max_evaluations)
            u_r, e_r = _resonant(atom, g, rel_tol, max_evaluations)
            u_cache[z] = (u_nr, u_r, e_nr + e_r)
        return u_cache[z]

    u_nr_a, u_r_a, err_a = u_parts(scenario.z)
    u_nr_b, u_r_b, err_b = u_parts(scenario.z + scenario.d)
    f_r = -scenario.eta * (u_r_b - u_r_a)
    f_nr = -scenario.eta * (u_nr_b - u_nr_a)
    return ForceResult(
        f_resonant=f_r,
        f_nonresonant=f_nr,
        f_total=f_r + f_nr,
        per_thickness=(f_r + f_nr) / scenario.d,
        quadrature_error=scenario.eta * (err_a + err_b),
    )


def force_decomposition(scenario, z_grid, rel_tol=DEFAULT_POTENTIAL_TOL,
                        max_evaluations=100_000):
    """Per-gap force decomposition along a grid of plate positions.

    Uses the antiderivative (boundary-difference) structure so each
    distinct slab boundary costs one potential evaluation, reused across
    overlapping slabs.  The resonant column is identically zero whenever
    the atom has no downward transition.

    Returns a list of ForceResult in grid order.
    """
    z_grid = [float(z) for z in z_grid]
    if any(z <= 0.0 for z in z_grid):
        raise ValueError("grid positions must be > 0")
    if any(b <= a for a, b in zip(z_grid, z_grid[1:])):
        raise ValueError("grid must be strictly increasing")
    u_cache = {}
    results = []
    for z in z_grid:
        sc = SlabScenario(z=z, d=scenario.d, eta=scenario.eta,
                          atom=scenario.atom, geometry=scenario.geometry)
        results.append(_boundary_difference_force(sc, u_cache, rel_tol,
                                                  max_evaluations))
    return results
