"""Slab forces: closed form vs quadrature oracle, scaling, averaging."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT

from planarcp import (
    AtomModel,
    DiluteLimitWarning,
    PlanarGeometry,
    QuadratureConvergenceError,
    SlabScenario,
    Transition,
    force_decomposition,
    mirror_force_bracket,
    plate_force_closed_form,
    plate_force_quadrature,
    total_potential,
)
import planarcp.forces as forces_module
import planarcp.potentials as potentials_module
from planarcp.forces import PLATE_FORCE_TRACE_CONSTANT

from conftest import D2, ETA, W10, rel_diff, zt_to_z

# frozen: bracket at zt = 1 is cos(1) + 2 sin(1), 50-digit evaluation
BRACKET_AT_1 = 2.2232442754839327307


def make_scenario(excited_atom, pec, zt, thickness_factor, eta=ETA):
    z = zt_to_z(zt)
    d = thickness_factor * C_LIGHT / W10
    geo = PlanarGeometry(pec, z)
    return SlabScenario(z=z, d=d, eta=eta, atom=excited_atom, geometry=geo)


class TestClosedForm:
    def test_bracket_frozen_value(self):
        assert mirror_force_bracket(1.0) == pytest.approx(BRACKET_AT_1,
                                                          rel=1e-15)

    def test_trace_constant_regression(self):
        # pinned once against the quadrature oracle; 1/(2 pi) is the
        # prefactor of the full mirror trace
        assert PLATE_FORCE_TRACE_CONSTANT == 1.0 / (2.0 * np.pi)

    @pytest.mark.parametrize("zt", [0.3, 1.0, 7.3])
    @pytest.mark.parametrize("thickness_factor", [0.1, 1.0, 5.0])
    def test_oracle_equivalence(self, excited_atom, pec, zt,
                                thickness_factor):
        sc = make_scenario(excited_atom, pec, zt, thickness_factor)
        closed = plate_force_closed_form(sc)
        quad = plate_force_quadrature(sc, rel_tol=1e-11,
                                      include_nonresonant=False)
        assert rel_diff(closed, quad.f_resonant) < 1e-9

    def test_short_distance_attraction(self, excited_atom, pec):
        for zt in (0.1, 0.3, 0.49):
            sc = make_scenario(excited_atom, pec, zt, 1.0)
            assert plate_force_closed_form(sc) < 0.0

    def test_preconditions(self, excited_atom, ground_atom,
                           magnetoelectric_atom, pec, pmc):
        with pytest.raises(ValueError, match="two-level"):
            sc = make_scenario(magnetoelectric_atom, pec, 1.0, 1.0)
            plate_force_closed_form(sc)
        with pytest.raises(ValueError, match="excited"):
            plate_force_closed_form(make_scenario(ground_atom, pec, 1.0,
                                                  1.0))
        magnetic = AtomModel("me", (Transition(+W10, D2, 1e-44),))
        with pytest.raises(ValueError, match="electric"):
            plate_force_closed_form(make_scenario(magnetic, pec, 1.0, 1.0))
        with pytest.raises(ValueError, match="mirror"):
            plate_force_closed_form(make_scenario(excited_atom, pmc, 1.0,
                                                  1.0))


class TestQuadratureRoute:
    def test_matches_boundary_difference(self, excited_atom, pec):
        sc = make_scenario(excited_atom, pec, 0.8, 0.7)
        quad = plate_force_quadrature(sc, rel_tol=1e-10)
        grid = force_decomposition(sc, [sc.z], rel_tol=1e-10)[0]
        assert rel_diff(quad.f_resonant, grid.f_resonant) < 1e-8
        assert rel_diff(quad.f_nonresonant, grid.f_nonresonant) < 1e-7
        assert quad.f_total == quad.f_resonant + quad.f_nonresonant

    def test_ground_state_slab(self, ground_atom, pec):
        sc = SlabScenario(z=zt_to_z(1.0), d=0.5 * C_LIGHT / W10, eta=ETA,
                          atom=ground_atom,
                          geometry=PlanarGeometry(pec, zt_to_z(1.0)))
        res = plate_force_quadrature(sc)
        assert res.f_resonant == 0.0
        assert res.f_nonresonant < 0.0  # attraction toward the mirror

    def test_thin_far_slab_error_covers_edge_rounding(self, excited_atom,
                                                      pec):
        # zt 23.9, 2 w d / c 0.106: the rounded slab edge z + d, relative
        # eps (z + d) / d, limits the agreement of the two routes to
        # ~3.6e-14 relative, ten times a plain 16 eps floor
        z, d = zt_to_z(23.889480505502167), zt_to_z(0.10606783577236656)
        sc = SlabScenario(z=z, d=d, eta=ETA, atom=excited_atom,
                          geometry=PlanarGeometry(pec, z))
        res = plate_force_quadrature(sc, include_nonresonant=False)
        closed = plate_force_closed_form(sc)
        assert abs(res.f_resonant - closed) <= res.quadrature_error
        assert res.quadrature_error <= 1e-11 * abs(closed)

    @pytest.mark.parametrize("zt", [0.5, 4.6, 20.0])
    def test_halfspace_matches_boundary_difference(
            self, magnetoelectric_atom, lossy_halfspace, zt):
        # dU_r/dz under the Sommerfeld integral against the boundary
        # difference U_r(z + d) - U_r(z) of tighter potentials
        z = zt_to_z(zt)
        sc = SlabScenario(z=z, d=0.4 * C_LIGHT / W10, eta=ETA,
                          atom=magnetoelectric_atom,
                          geometry=PlanarGeometry(lossy_halfspace, z))
        quad = plate_force_quadrature(sc, include_nonresonant=False)
        u = [potentials_module._resonant(magnetoelectric_atom,
                                         lossy_halfspace, [zz], 1e-11,
                                         100_000)
             for zz in (sc.z, sc.z + sc.d)]
        f_bd = -ETA * (u[1][0][0] - u[0][0][0])
        assert abs(quad.f_resonant - f_bd) \
            <= quad.quadrature_error + ETA * (u[0][1][0] + u[1][1][0])

    def test_far_thick_nonresonant_slab_meets_rel_tol(self, excited_atom,
                                                      pec):
        # the slab integral of dU_nr/dz is 4.6e-30 J, so the engine's
        # 1e-30 J floor sets its target: in z it stopped 6.7e-4 off; in
        # ln z its integrand is a smooth exponential that one panel
        # resolves
        sc = make_scenario(excited_atom, pec, 2.92, 24.3)
        quad = plate_force_quadrature(sc)
        grid = force_decomposition(sc, [sc.z])[0]
        assert rel_diff(quad.f_nonresonant, grid.f_nonresonant) <= 1e-12

    def test_halfspace_resonant_slab_meets_rel_tol(
            self, magnetoelectric_atom, lossy_halfspace):
        # the slab integral of dU_r/dz is 2.8e-27 J: in z it stopped on
        # the floor at 2e-7 |f_r|, where 1e-9 was asked
        z = zt_to_z(0.5)
        sc = SlabScenario(z=z, d=C_LIGHT / W10, eta=ETA,
                          atom=magnetoelectric_atom,
                          geometry=PlanarGeometry(lossy_halfspace, z))
        quad = plate_force_quadrature(sc, include_nonresonant=False)
        grid = force_decomposition(sc, [z])[0]
        assert quad.quadrature_error <= 1e-9 * abs(quad.f_resonant)
        assert abs(quad.f_resonant - grid.f_resonant) \
            <= quad.quadrature_error

    def test_near_thick_slab_rule_calls(self, excited_atom, pec,
                                        rule_calls):
        # perf guard: zt 0.05, 2 w d / c = 60 at default tolerance reads
        # 221 rule calls in ln z, 841 on equal panels in z
        plate_force_quadrature(make_scenario(excited_atom, pec, 0.05, 30.0))
        assert len(rule_calls) <= 300

    def test_slab_failure_names_the_slab(self, excited_atom, pec):
        # 2 w d / c = 60 asks for 20 initial panels of at most pi
        # radians, 300 abscissae
        sc = make_scenario(excited_atom, pec, 1.0, 30.0)
        with pytest.raises(QuadratureConvergenceError,
                           match=r"resonant slab integral over \[") as exc:
            plate_force_quadrature(sc, max_evaluations=290)
        assert exc.value.index is None

    def test_halfspace_resonant_slab_abscissae(
            self, magnetoelectric_atom, lossy_halfspace, monkeypatch,
            rule_calls):
        # perf guard: 2 w d / c = 2 fits one panel of at most pi radians,
        # so the slab takes one rule call of 15 abscissae, one real-axis
        # kernel call at 15 distances; 5,745 abscissae in all (17,445
        # from one panel per radian)
        original, slab_rounds = forces_module._resonant, []

        def counted(*args, **kwargs):
            slab_rounds.append(args[2].size)
            return original(*args, **kwargs)

        monkeypatch.setattr(forces_module, "_resonant", counted)
        z = zt_to_z(0.5)
        sc = SlabScenario(z=z, d=C_LIGHT / W10, eta=ETA,
                          atom=magnetoelectric_atom,
                          geometry=PlanarGeometry(lossy_halfspace, z))
        plate_force_quadrature(sc, include_nonresonant=False)
        assert slab_rounds == [15]
        assert sum(rule_calls) <= 8_000

    @pytest.mark.parametrize("part", ["_resonant", "_nonresonant"])
    def test_inner_errors_reach_the_slab_error(self, excited_atom,
                                               lossy_halfspace, monkeypatch,
                                               part):
        # inflate the inner error of the integrand to 1e-3 of its value:
        # the slab error must grow by eta (b - a) times the largest one
        original = getattr(forces_module, part)
        largest = []

        def inflated(*args, **kwargs):
            vals, _ = original(*args, **kwargs)
            err = 1e-3 * np.abs(vals).max()
            largest.append(err)
            return vals, np.full(vals.shape, err)

        monkeypatch.setattr(forces_module, part, inflated)
        sc = SlabScenario(z=zt_to_z(1.0), d=0.4 * C_LIGHT / W10, eta=ETA,
                          atom=excited_atom,
                          geometry=PlanarGeometry(lossy_halfspace, 1e-7))
        res = plate_force_quadrature(
            sc, rel_tol=1e-4,
            include_nonresonant=part == "_nonresonant")
        assert res.quadrature_error >= ETA * sc.d * max(largest)

    def test_density_scaling_is_exact(self, excited_atom, pec):
        sc1 = make_scenario(excited_atom, pec, 1.0, 1.0, eta=ETA)
        sc2 = make_scenario(excited_atom, pec, 1.0, 1.0, eta=2.0 * ETA)
        assert plate_force_closed_form(sc2) \
            == 2.0 * plate_force_closed_form(sc1)
        r1 = plate_force_quadrature(sc1, include_nonresonant=False)
        r2 = plate_force_quadrature(sc2, include_nonresonant=False)
        assert r2.f_resonant == 2.0 * r1.f_resonant


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestRoutesAgreeProperty:
    """plate_force_quadrature and force_decomposition agree within their
    summed reported errors for ground, excited and magnetoelectric
    atoms in front of either perfect mirror, and for excited and
    magnetoelectric atoms in front of the lossy half-space."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(zt=_log_uniform(0.05, 30.0), phase=_log_uniform(0.1, 60.0),
           atom=st.sampled_from(["ground_atom", "excited_atom",
                                 "magnetoelectric_atom"]),
           mirror=st.sampled_from(["pec", "pmc"]))
    def test_routes_agree(self, request, zt, phase, atom, mirror):
        z = zt_to_z(zt)
        sc = SlabScenario(z=z, d=zt_to_z(phase), eta=ETA,
                          atom=request.getfixturevalue(atom),
                          geometry=PlanarGeometry(
                              request.getfixturevalue(mirror), z))
        quad = plate_force_quadrature(sc)
        grid = force_decomposition(sc, [z])[0]
        assert abs(quad.f_resonant - grid.f_resonant) \
            + abs(quad.f_nonresonant - grid.f_nonresonant) \
            <= quad.quadrature_error + grid.quadrature_error

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(zt=_log_uniform(0.05, 50.0), phase=_log_uniform(0.1, 40.0),
           atom=st.sampled_from(["excited_atom", "magnetoelectric_atom"]))
    def test_halfspace_routes_agree(self, request, lossy_halfspace, zt,
                                    phase, atom):
        # the resonant slab integral of real-axis traces, from panels of
        # at most pi radians, against the boundary difference
        z = zt_to_z(zt)
        sc = SlabScenario(z=z, d=zt_to_z(phase), eta=ETA,
                          atom=request.getfixturevalue(atom),
                          geometry=PlanarGeometry(lossy_halfspace, z))
        quad = plate_force_quadrature(sc)
        grid = force_decomposition(sc, [z])[0]
        assert abs(quad.f_resonant - grid.f_resonant) \
            + abs(quad.f_nonresonant - grid.f_nonresonant) \
            <= quad.quadrature_error + grid.quadrature_error


class TestDecomposition:
    def test_resonant_zero_along_grid_for_ground_state(self, ground_atom,
                                                       pec):
        sc = SlabScenario(z=zt_to_z(0.5), d=0.3 * C_LIGHT / W10, eta=ETA,
                          atom=ground_atom,
                          geometry=PlanarGeometry(pec, zt_to_z(0.5)))
        grid = [zt_to_z(zt) for zt in (0.5, 1.0, 2.0, 6.0)]
        for res in force_decomposition(sc, grid):
            assert res.f_resonant == 0.0
            assert res.f_total == res.f_nonresonant
            assert res.per_thickness == res.f_total / sc.d

    def test_additivity_of_subslabs(self, excited_atom, pec):
        z = zt_to_z(0.9)
        d1 = 0.6 * C_LIGHT / W10
        d2 = 1.1 * C_LIGHT / W10
        geo = PlanarGeometry(pec, z)

        def slab_force(z0, d):
            sc = SlabScenario(z=z0, d=d, eta=ETA, atom=excited_atom,
                              geometry=geo)
            return force_decomposition(sc, [z0], rel_tol=1e-11)[0].f_total

        whole = slab_force(z, d1 + d2)
        parts = slab_force(z, d1) + slab_force(z + d1, d2)
        assert rel_diff(whole, parts) < 1e-11

    def test_thin_slab_limit_is_single_atom_force_density(self,
                                                          excited_atom,
                                                          pec):
        zt = 1.3
        z = zt_to_z(zt)
        d = 1e-6 * C_LIGHT / W10
        sc = SlabScenario(z=z, d=d, eta=ETA, atom=excited_atom,
                          geometry=PlanarGeometry(pec, z))
        res = force_decomposition(sc, [z], rel_tol=1e-11)[0]

        # single-atom force density eta * (-dU/dz) at the slab midpoint
        mid = z + 0.5 * d
        h = 1e-6 * mid

        def u_total(zz):
            r = total_potential(excited_atom, PlanarGeometry(pec, zz),
                                rel_tol=1e-11)
            return r.u_total

        d1 = (u_total(mid + h) - u_total(mid - h)) / (2.0 * h)
        d2 = (u_total(mid + 0.5 * h) - u_total(mid - 0.5 * h)) / h
        force_density = -ETA * (4.0 * d2 - d1) / 3.0
        assert rel_diff(res.per_thickness, force_density) < 1e-5

    def test_sign_changes_in_retarded_regime(self, excited_atom, pec):
        # at least floor((zt_max - zt_min)/pi) - 1 sign changes
        zts = np.arange(5.0, 30.0, 0.05)
        sc = SlabScenario(z=zt_to_z(5.0), d=0.5 * C_LIGHT / W10, eta=ETA,
                          atom=excited_atom,
                          geometry=PlanarGeometry(pec, zt_to_z(5.0)))
        vals = [plate_force_closed_form(SlabScenario(
            z=zt_to_z(t), d=sc.d, eta=ETA, atom=excited_atom,
            geometry=sc.geometry)) for t in zts]
        vals = np.array(vals)
        changes = int(np.sum(vals[:-1] * vals[1:] < 0.0))
        assert changes >= int((30.0 - 5.0) / np.pi) - 1

    def test_oscillation_averaging_over_thickness(self, excited_atom, pec):
        # amplitude of the per-thickness force is non-increasing while d
        # sweeps one oscillation period (pi c / w) at fixed retarded gap
        window = np.linspace(20.0, 20.0 + 2.0 * np.pi, 120)

        def amplitude(thickness_factor):
            d = thickness_factor * C_LIGHT / W10
            best = 0.0
            for t in window:
                sc = SlabScenario(z=zt_to_z(t), d=d, eta=ETA,
                                  atom=excited_atom,
                                  geometry=PlanarGeometry(pec, zt_to_z(t)))
                best = max(best,
                           abs(plate_force_closed_form(sc)) / d)
            return best

        factors = np.linspace(0.05, np.pi, 9)
        amps = [amplitude(f) for f in factors]
        assert all(a >= b * (1.0 - 1e-9)
                   for a, b in zip(amps, amps[1:]))

    def test_grid_validation(self, excited_atom, pec):
        sc = make_scenario(excited_atom, pec, 1.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            force_decomposition(sc, [2e-7, 1e-7])
        with pytest.raises(ValueError, match="> 0"):
            force_decomposition(sc, [-1e-7, 1e-7])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                force_decomposition(sc, [1e-7, bad])

    def test_each_part_is_called_once_per_sweep(self, magnetoelectric_atom,
                                                 lossy_halfspace,
                                                 monkeypatch):
        # one call per potential part over the distinct slab edges: a
        # grid spaced by d shares every inner edge between two gaps
        calls = []

        def counted(name):
            original = getattr(forces_module, name)

            def wrapper(atom, material, z_values, *args, **kwargs):
                calls.append((name, list(z_values)))
                return original(atom, material, z_values, *args, **kwargs)
            return wrapper

        for name in ("_nonresonant", "_resonant"):
            monkeypatch.setattr(forces_module, name, counted(name))
        z0, d = zt_to_z(0.5), zt_to_z(0.8)
        sc = SlabScenario(z=z0, d=d, eta=ETA, atom=magnetoelectric_atom,
                          geometry=PlanarGeometry(lossy_halfspace, z0))
        grid = [z0, z0 + d, z0 + d + d]
        results = force_decomposition(sc, grid, rel_tol=1e-7)
        edges = grid + [grid[-1] + d]
        assert sorted(calls) == [("_nonresonant", edges),
                                 ("_resonant", edges)]
        assert len(results) == 3


class TestScenarioValidation:
    def test_positive_fields(self, excited_atom, pec):
        geo = PlanarGeometry(pec, 1e-7)
        for bad in ({"z": -1e-7}, {"d": 0.0}, {"eta": -1.0}):
            kwargs = dict(z=1e-7, d=1e-7, eta=ETA, atom=excited_atom,
                          geometry=geo)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                SlabScenario(**kwargs)

    def test_dilute_guard_warning(self, excited_atom, pec):
        with pytest.warns(DiluteLimitWarning):
            SlabScenario(z=1e-7, d=1e-7, eta=1e29, atom=excited_atom,
                         geometry=PlanarGeometry(pec, 1e-7))

    def test_dilute_guard_sees_magnetisability(self, excited_atom, pec):
        # the dual of the excited atom: 1 - 1/mu = 2.05 at this density
        magnetic = AtomModel("m", (Transition(+W10, 0.0, D2 * C_LIGHT**2),))
        with pytest.warns(DiluteLimitWarning, match="1/mu"):
            SlabScenario(z=1e-7, d=1e-7, eta=1e29, atom=magnetic,
                         geometry=PlanarGeometry(pec, 1e-7))

    def test_non_finite_fields(self, excited_atom, pec):
        geo = PlanarGeometry(pec, 1e-7)
        for bad in ({"z": np.inf}, {"d": np.nan}, {"eta": np.inf}):
            kwargs = dict(z=1e-7, d=1e-7, eta=ETA, atom=excited_atom,
                          geometry=geo)
            kwargs.update(bad)
            with pytest.raises(ValueError, match="finite"):
                SlabScenario(**kwargs)
