"""Single-atom potentials: oracles, symmetry properties, duality.

The nonresonant pipeline is anchored against two textbook limits that
are independent of everything in this package: the retarded potential
-3 hbar c alpha(0) / (32 pi^2 eps0 z^4) and the nonretarded image
potential -|d|^2 / (48 pi eps0 z^3) of a ground-state atom in front of
a perfect mirror.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, hbar, mu_0

import planarcp.potentials as potentials_module
import planarcp.quadrature as quadrature_module
from planarcp import (
    AtomModel,
    LorentzOscillator,
    MaterialResponse,
    PlanarGeometry,
    Transition,
    d_dz_traces,
    duality_transform,
    halfspace_green_traces,
    nonresonant_potential,
    resonant_potential,
    resonant_weights,
    total_potential,
)

from conftest import D2, W10, rel_diff, zt_to_z


class TestNonresonant:
    def test_ground_state_attraction_and_trapezoid_oracle(self, ground_atom,
                                                          pec):
        # brute-force oracle: 1e6-point trapezoid of the explicit
        # integrand written out independently of the package internals
        z = zt_to_z(1.0)
        xi_hi = 40.0 * W10
        xi = np.linspace(0.0, xi_hi, 1_000_001)
        alpha = 2.0 * D2 * W10 / (3.0 * hbar * (W10**2 + xi[1:] ** 2))
        y = 2.0 * xi[1:] * z / C_LIGHT
        trace = -(xi[1:] / (2.0 * np.pi * C_LIGHT)) * np.exp(-y) \
            * (2.0 + 2.0 * y + y * y) / y**3
        f = np.empty_like(xi)
        f[1:] = xi[1:] ** 2 * alpha * trace
        f[0] = -(2.0 * D2 / (3.0 * hbar * W10)) \
            * C_LIGHT**2 / (8.0 * np.pi * z**3)  # xi -> 0 limit
        oracle = hbar * mu_0 / (2.0 * np.pi) * np.trapezoid(f, xi)

        value = nonresonant_potential(ground_atom, PlanarGeometry(pec, z),
                                      rel_tol=1e-11)
        assert value < 0.0
        assert rel_diff(value, oracle) < 1e-8

    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
    def test_ground_excited_opposition(self, ground_atom, excited_atom,
                                       pec, zt):
        geo = PlanarGeometry(pec, zt_to_z(zt))
        u_g = nonresonant_potential(ground_atom, geo)
        u_e = nonresonant_potential(excited_atom, geo)
        assert u_g < 0.0
        assert u_e + u_g == 0.0

    def test_ground_state_attractive_everywhere(self, ground_atom, pec):
        for zt in np.geomspace(0.01, 30.0, 12):
            assert nonresonant_potential(
                ground_atom, PlanarGeometry(pec, zt_to_z(zt))) < 0.0

    def test_retarded_textbook_limit(self, ground_atom, pec):
        z = zt_to_z(200.0)
        u = nonresonant_potential(ground_atom, PlanarGeometry(pec, z))
        alpha0 = 2.0 * D2 / (3.0 * hbar * W10)
        u_casimir_polder = -3.0 * hbar * C_LIGHT * alpha0 \
            / (32.0 * np.pi**2 * epsilon_0 * z**4)
        assert rel_diff(u, u_casimir_polder) < 1e-3

    def test_nonretarded_textbook_limit(self, ground_atom, pec):
        z = zt_to_z(1e-3)
        u = nonresonant_potential(ground_atom, PlanarGeometry(pec, z))
        u_image = -D2 / (48.0 * np.pi * epsilon_0 * z**3)
        assert rel_diff(u, u_image) < 1e-3

    def test_monotone_decay_in_retarded_regime(self, ground_atom, pec):
        values = [nonresonant_potential(ground_atom,
                                        PlanarGeometry(pec, zt_to_z(zt)))
                  for zt in np.linspace(5.0, 30.0, 11)]
        assert all(a < b < 0.0 for a, b in zip(values, values[1:]))

    def test_distance_override_argument(self, ground_atom, pec):
        geo = PlanarGeometry(pec, zt_to_z(5.0))
        direct = nonresonant_potential(ground_atom, geo, z_atom=zt_to_z(1.0))
        expected = nonresonant_potential(
            ground_atom, PlanarGeometry(pec, zt_to_z(1.0)))
        assert direct == expected


class TestHalfspaceNonresonant:
    def test_electric_atom_never_builds_the_dual_reflector(
            self, excited_atom, magnetoelectric_atom, lossy_halfspace,
            monkeypatch):
        # the dual trace is a column of the reflector's own kernel call:
        # the electric atom asks only for the reflector's column, the
        # magnetoelectric atom for both in every call
        built = []
        dual = MaterialResponse.dual
        monkeypatch.setattr(MaterialResponse, "dual",
                            lambda self: built.append(self) or dual(self))
        requested = []
        kernel = potentials_module.greens._trace_e_imag_axis
        monkeypatch.setattr(
            potentials_module.greens, "_trace_e_imag_axis",
            lambda material, *a: requested.append((material, a[-1]))
            or kernel(material, *a))
        z = [zt_to_z(1.0)]
        potentials_module._nonresonant(excited_atom, lossy_halfspace, z,
                                       1e-7, 100_000)
        assert built == []
        assert requested and set(requested) == {(lossy_halfspace, (False,))}
        requested.clear()
        potentials_module._nonresonant(magnetoelectric_atom, lossy_halfspace,
                                       z, 1e-5, 100_000)
        assert built == []
        assert requested and set(requested) == {
            (lossy_halfspace, (False, True))}

    def test_readme_point_converges_at_default_tolerances(self):
        # the README's half-space scenario at its nearest point, zt = 0.1
        atom = AtomModel("excited", (Transition(2.5e15, 7.2e-59),))
        medium = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=1.0, resonance=1e16, damping=1e14),
        ))
        geo = PlanarGeometry(medium, 6e-9)
        res = total_potential(atom, geo)
        (u_nr,), (err_nr,) = potentials_module._nonresonant(
            atom, medium, [6e-9], 1e-9, 100_000)
        tight = nonresonant_potential(atom, geo, rel_tol=1e-11)
        assert res.u_nonresonant == u_nr > 0.0  # excited: repelled
        assert err_nr <= 2e-9 * u_nr
        assert abs(u_nr - tight) <= err_nr

    def test_readme_point_rule_calls(self, monkeypatch):
        # perf guard: G7/K15 rule calls (one integrand call each) of the
        # README's nearest point at default tolerances.  The inner
        # Sommerfeld integrals of an outer round refine in lock-step from
        # decay-graded panels, so this reads 16; one 15-xi chunk after
        # another, each from one panel, read 90.
        calls = []
        rule = quadrature_module._gk15
        monkeypatch.setattr(quadrature_module, "_gk15",
                            lambda *a: calls.append(1) or rule(*a))
        atom = AtomModel("excited", (Transition(2.5e15, 7.2e-59),))
        medium = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=1.0, resonance=1e16, damping=1e14),
        ))
        total_potential(atom, PlanarGeometry(medium, 6e-9))
        assert len(calls) <= 30

    def test_readme_point_error_counts_only_coupled_traces(self):
        # a purely electric atom: the resonant error comes from the
        # electric trace alone, weighted by w^2 |d|^2, not from the dual
        # trace it does not couple to
        atom = AtomModel("excited", (Transition(2.5e15, 7.2e-59),))
        medium = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=1.0, resonance=1e16, damping=1e14),
        ))
        geo = PlanarGeometry(medium, 6e-9)
        res = total_potential(atom, geo)
        tight = total_potential(atom, geo, rel_tol=1e-11)
        assert res.quadrature_error <= 1e-8 * abs(res.u_total)
        assert abs(res.u_total - tight.u_total) <= res.quadrature_error


    @pytest.mark.parametrize("zt", [0.05, 0.1])
    def test_magnetoelectric_atom_converges_near_the_halfspace(
            self, magnetoelectric_atom, lossy_halfspace, zt):
        # the dual (magnetic) trace of this non-magnetic medium has
        # eps = 1, where the plain Fresnel quotient cancelled and the
        # inner integral exhausted its budget at default tolerances
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(zt))
        res = total_potential(magnetoelectric_atom, geo)
        tight = total_potential(magnetoelectric_atom, geo, rel_tol=1e-11)
        assert abs(res.u_total - tight.u_total) <= res.quadrature_error

    @pytest.mark.parametrize("zt, frozen", [(0.2, 4.9309804571827404e-27),
                                            (0.5, 3.0771746327785073e-28)])
    def test_magnetoelectric_values_kept_by_the_fresnel_form(
            self, magnetoelectric_atom, lossy_halfspace, zt, frozen):
        # u_nonresonant with the plain Fresnel quotient, default
        # tolerances, where it converged
        u = nonresonant_potential(magnetoelectric_atom,
                                  PlanarGeometry(lossy_halfspace,
                                                 zt_to_z(zt)))
        assert rel_diff(u, frozen) < 1e-14


class TestResonant:
    def test_ground_state_structural_zero(self, ground_atom, pec,
                                          monkeypatch):
        # the zero must come from the empty line list, not from a
        # quadrature of zero: poison the trace evaluation to make sure
        def boom(*args, **kwargs):
            raise AssertionError("traces must not be evaluated")
        monkeypatch.setattr(potentials_module.greens, "_trace_e_real_axis",
                            boom)
        geo = PlanarGeometry(pec, zt_to_z(1.0))
        assert resonant_potential(ground_atom, geo) == 0.0
        values, errs = potentials_module._resonant(ground_atom, pec,
                                                   [geo.z_atom], 1e-9, 1000)
        assert (values.tolist(), errs.tolist()) == ([0.0], [0.0])

    def test_near_field_asymptote(self, excited_atom, pec):
        zt = 1e-3
        z = zt_to_z(zt)
        u = resonant_potential(excited_atom, PlanarGeometry(pec, z))
        asymptote = -mu_0 * W10**3 * D2 / (3.0 * np.pi * C_LIGHT * zt**3)
        assert u < 0.0
        assert rel_diff(u, asymptote) < 1e-9

    def test_oscillation_with_inverse_distance_envelope(self, excited_atom,
                                                        pec):
        def window_peak(lo):
            zts = np.linspace(lo, lo + 6.5, 150)
            return max(abs(resonant_potential(
                excited_atom, PlanarGeometry(pec, zt_to_z(t)))) * t
                for t in zts)

        peaks = [window_peak(lo) for lo in (20.0, 40.0, 60.0)]
        assert rel_diff(peaks[0], peaks[1]) < 0.02
        assert rel_diff(peaks[1], peaks[2]) < 0.02
        # and it does oscillate: both signs occur
        signs = {np.sign(resonant_potential(
            excited_atom, PlanarGeometry(pec, zt_to_z(t))))
            for t in np.linspace(20.0, 26.5, 40)}
        assert signs == {-1.0, 1.0}

    def test_lossy_halfspace_value_close_to_mirror(self, excited_atom,
                                                   lossy_halfspace, pec):
        z = zt_to_z(1.0)
        u_hs = resonant_potential(excited_atom,
                                  PlanarGeometry(lossy_halfspace, z))
        u_pec = resonant_potential(excited_atom, PlanarGeometry(pec, z))
        assert np.isfinite(u_hs)
        assert abs(u_hs) < abs(u_pec)  # partial reflection


class TestTotal:
    def test_ground_total_is_nonresonant(self, ground_atom, pec):
        res = total_potential(ground_atom, PlanarGeometry(pec, zt_to_z(1.0)))
        assert res.u_resonant == 0.0
        assert res.u_total == res.u_nonresonant

    def test_sum_is_exact(self, magnetoelectric_atom, pec):
        res = total_potential(magnetoelectric_atom,
                              PlanarGeometry(pec, zt_to_z(0.7)))
        assert res.u_total == res.u_nonresonant + res.u_resonant
        assert res.quadrature_error > 0.0

    @pytest.mark.parametrize("zt", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_resonant_dominance(self, excited_atom, pec, zt):
        # recorded on a grid rather than assumed: the resonant part
        # dominates for the canonical excited two-level atom
        res = total_potential(excited_atom, PlanarGeometry(pec, zt_to_z(zt)))
        assert abs(res.u_resonant) > abs(res.u_nonresonant)

    def test_linearity_in_dipole_strength(self, excited_atom, pec):
        doubled = AtomModel("e2", (Transition(+W10, 2.0 * D2),))
        geo = PlanarGeometry(pec, zt_to_z(0.8))
        r1 = total_potential(excited_atom, geo)
        r2 = total_potential(doubled, geo)
        assert r2.u_resonant == pytest.approx(2.0 * r1.u_resonant,
                                              rel=1e-12)
        assert r2.u_nonresonant == pytest.approx(2.0 * r1.u_nonresonant,
                                                 rel=1e-12)

    def test_vacuum_reflector_all_zero(self, magnetoelectric_atom, vacuum):
        res = total_potential(magnetoelectric_atom,
                              PlanarGeometry(vacuum, zt_to_z(1.0)))
        assert res == potentials_module.PotentialResult(0.0, 0.0, 0.0, 0.0)


class TestDuality:
    def test_double_transform_is_identity(self, magnetoelectric_atom, pec):
        geo = PlanarGeometry(pec, zt_to_z(1.0))
        atom2, geo2 = duality_transform(
            *duality_transform(magnetoelectric_atom, geo))
        assert geo2 == geo
        assert atom2.state_label == magnetoelectric_atom.state_label
        for t2, t1 in zip(atom2.transitions,
                          magnetoelectric_atom.transitions):
            assert t2.omega_nk == t1.omega_nk
            assert t2.dipole_sq == pytest.approx(t1.dipole_sq, rel=1e-14)
            assert t2.magnetic_sq == pytest.approx(t1.magnetic_sq, rel=1e-14)

    @pytest.mark.parametrize("zt", [0.3, 1.0, 4.0])
    def test_mirror_pair_invariance(self, magnetoelectric_atom, pec, zt):
        geo = PlanarGeometry(pec, zt_to_z(zt))
        dual_atom, dual_geo = duality_transform(magnetoelectric_atom, geo)
        assert dual_geo.reflector.model == "perfect-magnetic-mirror"
        r = total_potential(magnetoelectric_atom, geo)
        rd = total_potential(dual_atom, dual_geo)
        budget = 10.0 * (r.quadrature_error + rd.quadrature_error)
        assert abs(rd.u_nonresonant - r.u_nonresonant) <= budget
        assert abs(rd.u_resonant - r.u_resonant) <= budget

    def test_halfspace_pair_invariance(self, magnetoelectric_atom,
                                       lossy_halfspace):
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(1.0))
        dual_atom, dual_geo = duality_transform(magnetoelectric_atom, geo)
        assert dual_geo.reflector.mu_oscillators \
            == lossy_halfspace.eps_oscillators
        r = total_potential(magnetoelectric_atom, geo)
        rd = total_potential(dual_atom, dual_geo)
        budget = 10.0 * (r.quadrature_error + rd.quadrature_error)
        assert abs(rd.u_nonresonant - r.u_nonresonant) <= budget
        assert abs(rd.u_resonant - r.u_resonant) <= budget


def _lorentz_oscillators(strength, min_size):
    return st.lists(st.builds(
        LorentzOscillator,
        strength=st.floats(*strength),
        resonance=st.floats(0.3 * W10, 3.0 * W10),
        damping=st.floats(0.05 * W10, 0.5 * W10)),
        min_size=min_size, max_size=2)


_TRANSITIONS = st.lists(st.builds(
    Transition,
    omega_nk=st.floats(0.5 * W10, 2.0 * W10).flatmap(
        lambda w: st.sampled_from([w, -w])),
    dipole_sq=st.floats(0.1 * D2, D2),
    magnetic_sq=st.floats(0.1 * D2 * C_LIGHT**2, D2 * C_LIGHT**2)),
    min_size=1, max_size=2)


class TestDualityProperty:
    """Both parts are invariant under duality_transform for random
    absorbing Lorentz media with eps and mu oscillators and random
    magnetoelectric atoms, at orders 0 and 1, within the summed errors."""

    TOL = 1e-6

    @settings(max_examples=8, deadline=None, derandomize=True,
              database=None)
    @given(eps=_lorentz_oscillators((0.1, 3.0), 1),
           mu=_lorentz_oscillators((0.05, 1.0), 0),
           transitions=_TRANSITIONS, zt=st.floats(0.3, 5.0),
           order=st.sampled_from([0, 1]))
    def test_parts_invariant(self, eps, mu, transitions, zt, order):
        material = MaterialResponse("drude-lorentz", eps_oscillators=eps,
                                    mu_oscillators=mu)
        atom = AtomModel("drawn", transitions)
        geo = PlanarGeometry(material, zt_to_z(zt))
        dual_atom, dual_geo = duality_transform(atom, geo)
        for part in (potentials_module._nonresonant,
                     potentials_module._resonant):
            (u,), (err,) = part(atom, material, [geo.z_atom], self.TOL,
                                100_000, order)
            (ud,), (err_d,) = part(dual_atom, dual_geo.reflector,
                                   [geo.z_atom], self.TOL, 100_000, order)
            assert abs(u - ud) <= err + err_d
            assert (u == 0.0) == (part is potentials_module._resonant
                                  and atom.is_ground_state)


_TWO_LEVEL = st.builds(
    Transition,
    omega_nk=st.floats(0.5 * W10, 2.0 * W10).flatmap(
        lambda w: st.sampled_from([w, -w])),
    dipole_sq=st.floats(0.1 * D2, D2),
    magnetic_sq=st.just(0.0) | st.floats(0.1 * D2 * C_LIGHT**2,
                                         D2 * C_LIGHT**2))


class TestTwoLevelProperties:
    """Random two-level atoms, over vacuum and over random absorbing
    Lorentz half-spaces."""

    TOL = 1e-6

    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None)
    @given(transition=_TWO_LEVEL, zt=st.floats(0.05, 30.0),
           order=st.sampled_from([0, 1]))
    def test_vacuum_gives_exact_zeros(self, transition, zt, order):
        vacuum = MaterialResponse("drude-lorentz")
        atom = AtomModel("drawn", (transition,))
        z = zt_to_z(zt)
        for part in (potentials_module._nonresonant,
                     potentials_module._resonant):
            values, _ = part(atom, vacuum, [z], self.TOL, 100_000, order)
            assert values.tolist() == [0.0]
        w = abs(transition.omega_nk)
        for freq in (w, 1j * w):
            tr = halfspace_green_traces(PlanarGeometry(vacuum, z), freq)
            assert (tr.trace_e, tr.trace_m) == (0.0, 0.0)

    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None)
    @given(eps=_lorentz_oscillators((0.1, 3.0), 1),
           mu=_lorentz_oscillators((0.05, 1.0), 0),
           transition=_TWO_LEVEL, zt=st.floats(0.3, 5.0),
           order=st.sampled_from([0, 1]))
    def test_nonresonant_part_odd_in_the_transition_frequency(
            self, eps, mu, transition, zt, order):
        # alpha(i xi) and beta(i xi) are odd in omega_nk, and so is U_nr
        material = MaterialResponse("drude-lorentz", eps_oscillators=eps,
                                    mu_oscillators=mu)
        flipped = Transition(-transition.omega_nk, transition.dipole_sq,
                             transition.magnetic_sq)
        (u,), (err,) = potentials_module._nonresonant(
            AtomModel("drawn", (transition,)), material, [zt_to_z(zt)],
            self.TOL, 100_000, order)
        (uf,), (err_f,) = potentials_module._nonresonant(
            AtomModel("flipped", (flipped,)), material, [zt_to_z(zt)],
            self.TOL, 100_000, order)
        assert u != 0.0
        assert abs(u + uf) <= err + err_f


class TestGradient:
    @pytest.mark.parametrize("zt", [0.5, 1.0, 5.0])
    def test_resonant_gradient_consistency(self, excited_atom, pec, zt):
        # analytic dU_r/dz assembled from the trace derivatives vs a
        # Richardson finite difference of the potential itself
        z = zt_to_z(zt)
        geo = PlanarGeometry(pec, z)
        lines = resonant_weights(excited_atom)
        analytic = 0.0
        for line in lines:
            d = d_dz_traces(geo, line.omega)
            analytic += (line.electric_weight * line.omega**2
                         * np.real(d.trace_e)
                         - line.magnetic_weight * np.real(d.trace_m))
        analytic *= -hbar * mu_0 / np.pi

        h = 1e-6 * z
        u = lambda zz: resonant_potential(excited_atom,
                                          PlanarGeometry(pec, zz))
        d1 = (u(z + h) - u(z - h)) / (2.0 * h)
        d2 = (u(z + 0.5 * h) - u(z - 0.5 * h)) / h
        fd = (4.0 * d2 - d1) / 3.0
        assert rel_diff(analytic, fd) < 1e-6


class TestSharedRoutine:
    """Both potential parts take an array of distances and a derivative
    order; an array call must equal calls at one distance each."""

    ZTS = (0.3, 1.0, 4.0)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "lossy_halfspace"])
    @pytest.mark.parametrize("atom", ["excited_atom", "ground_atom",
                                      "magnetoelectric_atom"])
    def test_nonresonant_array_is_per_distance_bit_for_bit(
            self, request, atom, reflector, order):
        atom = request.getfixturevalue(atom)
        material = request.getfixturevalue(reflector)
        z = [zt_to_z(zt) for zt in self.ZTS]
        values, errs = potentials_module._nonresonant(
            atom, material, z, 1e-7, 100_000, order)
        for k, zk in enumerate(z):
            (v,), (e,) = potentials_module._nonresonant(
                atom, material, [zk], 1e-7, 100_000, order)
            assert (values[k], errs[k]) == (v, e)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "lossy_halfspace"])
    @pytest.mark.parametrize("atom", ["excited_atom", "ground_atom",
                                      "magnetoelectric_atom"])
    def test_resonant_array_agrees_within_reported_errors(
            self, request, atom, reflector, order):
        # distances of one chunk share a partition of the Sommerfeld
        # integrals, so half-space values move within their errors
        atom = request.getfixturevalue(atom)
        material = request.getfixturevalue(reflector)
        z = [zt_to_z(zt) for zt in self.ZTS]
        values, errs = potentials_module._resonant(
            atom, material, z, 1e-9, 100_000, order)
        for k, zk in enumerate(z):
            (v,), (e,) = potentials_module._resonant(
                atom, material, [zk], 1e-9, 100_000, order)
            assert abs(values[k] - v) <= errs[k] + e
            assert (v == 0.0) == atom.is_ground_state

    @pytest.mark.parametrize("reflector", ["pec", "pmc", "lossy_halfspace"])
    def test_public_scalar_and_array_calls_agree_bit_for_bit(
            self, request, magnetoelectric_atom, reflector):
        # one array call against one call per distance: the same values
        # and errors, Python floats for a scalar distance
        material = request.getfixturevalue(reflector)
        geo = PlanarGeometry(material, zt_to_z(5.0))
        z = np.array([zt_to_z(zt) for zt in self.ZTS])
        kw = dict(rel_tol=1e-7)
        sweep = total_potential(magnetoelectric_atom, geo, z_atom=z, **kw)
        parts = {part: part(magnetoelectric_atom, geo, z_atom=z, **kw)
                 for part in (nonresonant_potential, resonant_potential)}
        assert np.array_equal(parts[nonresonant_potential],
                              sweep.u_nonresonant)
        assert np.array_equal(parts[resonant_potential], sweep.u_resonant)
        for k, zk in enumerate(z.tolist()):
            one = total_potential(magnetoelectric_atom, geo, z_atom=zk, **kw)
            assert one == total_potential(
                magnetoelectric_atom, PlanarGeometry(material, zk), **kw)
            fields = astuple(one)
            assert [type(f) for f in fields] == [float] * 4
            assert fields == tuple(f[k] for f in astuple(sweep))
            for part, values in parts.items():
                value = part(magnetoelectric_atom, geo, z_atom=zk, **kw)
                assert type(value) is float and value == values[k]

    @pytest.mark.parametrize("bad", [0.0, float("inf"), float("nan")])
    def test_distance_check(self, magnetoelectric_atom, lossy_halfspace,
                            bad):
        # at inf the half-space once failed deep inside the kernel with
        # "negative dimensions are not allowed"
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(1.0))
        for z in (bad, np.array([zt_to_z(1.0), bad])):
            for potential in (nonresonant_potential, resonant_potential,
                              total_potential):
                with pytest.raises(ValueError, match="finite and > 0"):
                    potential(magnetoelectric_atom, geo, z_atom=z)

    def test_public_functions_are_the_parts_at_one_distance(
            self, magnetoelectric_atom, lossy_halfspace):
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(0.7))
        res = total_potential(magnetoelectric_atom, geo, rel_tol=1e-7)
        parts = [part(magnetoelectric_atom, lossy_halfspace, [geo.z_atom],
                      1e-7, 100_000)
                 for part in (potentials_module._nonresonant,
                              potentials_module._resonant)]
        (u_nr,), (err_nr,) = parts[0]
        (u_r,), (err_r,) = parts[1]
        assert (res.u_nonresonant, res.u_resonant) == (u_nr, u_r)
        assert res.quadrature_error == err_nr + err_r
        assert nonresonant_potential(magnetoelectric_atom, geo,
                                     rel_tol=1e-7) == u_nr
        assert resonant_potential(magnetoelectric_atom, geo,
                                  rel_tol=1e-7) == u_r
