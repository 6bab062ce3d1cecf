"""Single-atom potentials: oracles, symmetry properties, duality.

The nonresonant pipeline is anchored against two textbook limits that
are independent of everything in this package: the retarded potential
-3 hbar c alpha(0) / (32 pi^2 eps0 z^4) and the nonretarded image
potential -|d|^2 / (48 pi eps0 z^3) of a ground-state atom in front of
a perfect mirror.
"""

import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, hbar, mu_0
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

import planarcp.potentials as potentials_module
from planarcp import (
    AtomModel,
    LorentzOscillator,
    MaterialResponse,
    PlanarGeometry,
    QuadratureConvergenceError,
    Transition,
    d_dz_traces,
    duality_transform,
    halfspace_green_traces,
    integrate_semi_infinite,
    magnetizability,
    nonresonant_potential,
    polarizability,
    resonant_potential,
    resonant_weights,
    total_potential,
)
from planarcp.quadrature import _Request

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

    @pytest.mark.parametrize("zt", [200.0, 1e5, 1e6])
    def test_retarded_textbook_limit(self, ground_atom, pec, zt):
        # far beyond zt ~ 1e3 the xi map's scale must stay near the decay
        # scale c / 2z (potentials._SCALE_CAP): at omega_max every first
        # node would sit where the integrand has died
        z = zt_to_z(zt)
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
    @pytest.mark.parametrize("atom", ["ground_atom", "excited_atom"])
    def test_far_field_holds_its_plateau(self, request, atom,
                                         lossy_halfspace):
        # U z^4 tends to a constant at zt >> 1, which the kappa map
        # resolves only with its scale near 1 / 2z (_SCALE_CAP)
        z = zt_to_z(np.array([1e5, 1e6]))
        u, err = potentials_module._nonresonant(
            request.getfixturevalue(atom), lossy_halfspace, z,
            _Request(1e-9, 100_000))
        plateau = u * z**4
        assert rel_diff(plateau[1], plateau[0]) <= 1e-5
        assert (err <= 2e-9 * np.abs(u)).all()

    def test_electric_atom_never_builds_the_dual_reflector(
            self, excited_atom, magnetoelectric_atom, lossy_halfspace,
            monkeypatch):
        # the dual bracket B_m is a column of the reflector's own Fresnel
        # pair: the electric atom evaluates only alpha and B_e, the
        # magnetoelectric atom both brackets, and neither builds the dual
        built = []
        dual = MaterialResponse.dual
        monkeypatch.setattr(MaterialResponse, "dual",
                            lambda self: built.append(self) or dual(self))
        requested = []
        response = potentials_module._response_ixi
        monkeypatch.setattr(
            potentials_module, "_response_ixi",
            lambda atom, xi, magnetic=False: requested.append(magnetic)
            or response(atom, xi, magnetic))
        z = [zt_to_z(1.0)]
        potentials_module._nonresonant(excited_atom, lossy_halfspace, z,
                                       _Request(1e-7, 100_000))
        assert built == []
        assert requested and set(requested) == {False}
        requested.clear()
        potentials_module._nonresonant(magnetoelectric_atom, lossy_halfspace,
                                       z, _Request(1e-5, 100_000))
        assert built == []
        assert requested.count(False) == requested.count(True) > 0

    def test_readme_point_converges_at_default_tolerances(self):
        # the README's half-space scenario at its nearest point, zt = 0.1
        atom = AtomModel("excited", (Transition(2.5e15, 7.2e-59),))
        medium = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=1.0, resonance=1e16, damping=1e14),
        ))
        geo = PlanarGeometry(medium, 6e-9)
        res = total_potential(atom, geo)
        (u_nr,), (err_nr,) = potentials_module._nonresonant(
            atom, medium, [6e-9], _Request(1e-9, 100_000))
        tight = nonresonant_potential(atom, geo, rel_tol=1e-11)
        assert res.u_nonresonant == u_nr > 0.0  # excited: repelled
        assert err_nr <= 2e-9 * u_nr
        assert abs(u_nr - tight) <= err_nr

    def test_readme_point_rule_calls(self, rule_calls):
        # perf guard: G7/K15 rule calls (one integrand call each) of the
        # README's nearest point at default tolerances.  The inner
        # Sommerfeld integrals of an outer round refine in lock-step from
        # decay-graded panels, so this reads 16; one 15-xi chunk after
        # another, each from one panel, read 90.
        atom = AtomModel("excited", (Transition(2.5e15, 7.2e-59),))
        medium = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=1.0, resonance=1e16, damping=1e14),
        ))
        total_potential(atom, PlanarGeometry(medium, 6e-9))
        assert len(rule_calls) <= 30

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
        values, errs = potentials_module._resonant(
            ground_atom, pec, [geo.z_atom], _Request(1e-9, 1000))
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
            request = _Request(self.TOL, 100_000)
            (u,), (err,) = part(atom, material, [geo.z_atom], request, order)
            (ud,), (err_d,) = part(dual_atom, dual_geo.reflector,
                                   [geo.z_atom], request, order)
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
            values, _ = part(atom, vacuum, [z], _Request(self.TOL, 100_000),
                             order)
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
            _Request(self.TOL, 100_000), order)
        (uf,), (err_f,) = potentials_module._nonresonant(
            AtomModel("flipped", (flipped,)), material, [zt_to_z(zt)],
            _Request(self.TOL, 100_000), order)
        assert u != 0.0
        assert abs(u + uf) <= err + err_f


def _nested_route(atom, material, z, order, rel_tol):
    """U_nr, or dU_nr/dz for order 1, and its error by the nested route
    of public functions: one xi-integral of the traces at i xi, each a
    Sommerfeld integral at rel_tol / 10.  The error is the xi-integral's
    plus rel_tol |U| for the inner integrals, the budget this route
    reported when the package took it."""
    geo = PlanarGeometry(material, z)
    traces = d_dz_traces if order else halfspace_green_traces

    def integrand(xi):
        out = np.empty(xi.shape)
        for j, x in enumerate(xi.tolist()):
            tr = traces(geo, 1j * x, rel_tol=rel_tol / 10.0)
            out[j] = x * x * polarizability(atom, 1j * x).real * tr.trace_e \
                + magnetizability(atom, 1j * x).real * tr.trace_m
        return out

    omega_max = max(abs(t.omega_nk) for t in atom.transitions)
    res = integrate_semi_infinite(
        integrand, scale=max(omega_max, C_LIGHT / (2.0 * z)), tol=rel_tol)
    pref = hbar * mu_0 / (2.0 * np.pi)
    return pref * res.value, pref * (res.abs_error_estimate
                                     + rel_tol * abs(res.value))


_ATOMS = st.sampled_from([
    AtomModel("ground", (Transition(-W10, D2),)),
    AtomModel("excited", (Transition(W10, D2),)),
    AtomModel("excited-me", (
        Transition(W10, D2, 0.12 * D2 * C_LIGHT**2),
        Transition(-1.7 * W10, 0.5 * D2, 0.4 * D2 * C_LIGHT**2))),
])


class TestKappaRoute:
    """The half-space nonresonant part in kappa-first form against the
    nested route of the public trace functions."""

    TOL = 1e-6

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(eps=_lorentz_oscillators((0.1, 3.0), 1),
           mu=_lorentz_oscillators((0.05, 1.0), 0),
           atom=_ATOMS, log_zt=st.floats(-3.0, 3.0),
           order=st.sampled_from([0, 1]))
    def test_agrees_with_the_nested_route(self, eps, mu, atom, log_zt,
                                          order):
        material = MaterialResponse("drude-lorentz", eps_oscillators=eps,
                                    mu_oscillators=mu)
        z = zt_to_z(10.0**log_zt)
        (u,), (err,) = potentials_module._nonresonant(
            atom, material, [z], _Request(self.TOL, 100_000), order)
        nested, nested_err = _nested_route(atom, material, z, order,
                                           self.TOL)
        assert abs(u - nested) <= err + nested_err

    @staticmethod
    def _reference(z, oscillator, dsq, omega):
        """U_nr of a two-level electric atom over a nonmagnetic Lorentz
        half-space, nested scipy quad at 1e-12 in x = xi / omega and
        w = y (v - 1), y = 2 xi z / c, written apart from the package.
        Near 1e-12 QUADPACK may warn of round-off, which is noise here."""
        strength, w0, gamma = oscillator

        def quad(f, a, b):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                return scipy_quad(f, a, b, epsabs=0.0, epsrel=1e-12,
                                  limit=200)[0]

        def inner(x):
            xi = omega * x
            eps = 1.0 + strength * w0**2 / (w0**2 + xi**2 + gamma * xi)
            y = 2.0 * xi * z / C_LIGHT

            def bracket(w):
                v = 1.0 + w / y
                v1 = np.sqrt(eps - 1.0 + v * v)
                rs = (v - v1) / (v + v1)
                rp = (eps * v - v1) / (eps * v + v1)
                return np.exp(-w) * (rs - (2.0 * v * v - 1.0) * rp)

            cut = min(y, 1.0)
            v_integral = (quad(bracket, 0.0, cut)
                          + quad(bracket, cut, np.inf)) / y
            alpha = -2.0 * omega * dsq / (3.0 * hbar * (xi**2 + omega**2))
            return alpha * xi**3 / (4.0 * np.pi * C_LIGHT) * np.exp(-y) \
                * v_integral

        zt = 2.0 * omega * z / C_LIGHT
        edges = [0.0, 1.0, 1.0 / zt, np.inf]
        total = sum(quad(inner, a, b) for a, b in zip(edges, edges[1:]))
        return hbar * mu_0 / (2.0 * np.pi) * omega * total

    @pytest.mark.parametrize("zt", [1e-3, 1e-2])
    def test_near_field_against_a_scipy_reference(self, excited_atom,
                                                  lossy_halfspace, zt):
        # the nearest distances, where the kappa-integral reaches
        # c kappa ~ 1e4 times the atomic frequency and the inner
        # integrands crowd toward s = 0
        z = zt_to_z(zt)
        (osc,) = lossy_halfspace.eps_oscillators
        reference = self._reference(z, (osc.strength, osc.resonance,
                                        osc.damping), D2, W10)
        (u,), (err,) = potentials_module._nonresonant(
            excited_atom, lossy_halfspace, [z], _Request(1e-9, 100_000))
        assert abs(u - reference) <= err
        assert rel_diff(u, reference) <= 1e-11

    def test_a_failure_names_its_layer_and_point(self, excited_atom,
                                                 lossy_halfspace, pec,
                                                 vacuum):
        # a budget of 120 abscissae, above the 105 of the seven initial
        # kappa panels: the far distance runs out in its kappa-integral,
        # the nearer one in an inner integral at a node
        z = zt_to_z(100.0)
        with pytest.raises(QuadratureConvergenceError,
                           match=f"^nonresonant kappa-integral at z = "
                                 f"{z:.6g} m: quadrature did not converge"):
            potentials_module._nonresonant(excited_atom, lossy_halfspace,
                                           [z], _Request(1e-9, 120))
        with pytest.raises(QuadratureConvergenceError,
                           match=r"^nonresonant kappa-integral: K\(kappa\) "
                                 r"at kappa = \S+ 1/m: \d+ initial panels"):
            potentials_module._nonresonant(excited_atom, lossy_halfspace,
                                           [zt_to_z(1.0)], _Request(1e-9, 120))
        # a mirror or vacuum takes one xi-integral per distance: 30
        # abscissae do not hold its four initial panels, and at 1e-13 the
        # mirror runs out of 100
        z = 1e-7
        for reflector in (pec, vacuum):
            with pytest.raises(QuadratureConvergenceError,
                               match=f"^nonresonant xi-integral at z = "
                                     f"{z:.6g} m: 4 initial panels exceed"):
                nonresonant_potential(excited_atom,
                                      PlanarGeometry(reflector, z),
                                      max_evaluations=30)
        with pytest.raises(QuadratureConvergenceError,
                           match=f"^nonresonant xi-integral at z = {z:.6g} "
                                 "m: quadrature did not converge"):
            nonresonant_potential(excited_atom, PlanarGeometry(pec, z),
                                  rel_tol=1e-13, max_evaluations=100)

    def test_negative_eps_on_the_imaginary_axis_is_rejected(
            self, excited_atom):
        gain = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(2.0, W10, 0.1 * W10, amplifying=True),))
        with pytest.raises(ValueError, match="must be positive"):
            potentials_module._nonresonant(excited_atom, gain,
                                           [zt_to_z(1.0)],
                                           _Request(1e-6, 100_000))

    def test_slab_edges_share_their_kappa_nodes(
            self, magnetoelectric_atom, lossy_halfspace, rule_calls):
        # perf guard: 32 slab edges in one call share K(kappa) node by
        # node; the nested route took 308 rule calls, this one takes 4
        z = zt_to_z(np.geomspace(0.5, 22.0, 32))
        potentials_module._nonresonant(magnetoelectric_atom,
                                       lossy_halfspace, z,
                                       _Request(1e-9, 100_000))
        assert len(rule_calls) <= 16

    def test_readme_point_takes_one_kappa_round(self, rule_calls):
        # perf guard: at the README's nearest point, zt = 0.1, the graded
        # initial panels resolve e^{-2 kappa z}, so the kappa-integral
        # converges in one round, one rule call plus one K batch; four
        # equal initial panels took three rounds, 6 rule calls
        atom = AtomModel("excited", (Transition(2.5e15, 7.2e-59),))
        medium = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=1.0, resonance=1e16, damping=1e14),
        ))
        potentials_module._nonresonant(atom, medium, [zt_to_z(0.1)],
                                       _Request(1e-9, 100_000))
        assert len(rule_calls) <= 2

    def test_inner_batch_does_not_grow_with_the_distances(
            self, magnetoelectric_atom, lossy_halfspace, rule_calls):
        # perf guard: the largest rule call, in abscissae, of 256
        # distances against 16 (about 48,000 against 34,000); the nested
        # route's inner batch holds every (z, xi) node of a round
        largest = []
        for n in (16, 256):
            rule_calls.clear()
            potentials_module._nonresonant(
                magnetoelectric_atom, lossy_halfspace,
                zt_to_z(np.geomspace(0.05, 60.0, n)), _Request(1e-9, 100_000))
            largest.append(max(rule_calls))
        assert largest[1] <= min(70_000, 1.5 * largest[0])


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
    # 256 distances: the real-axis kernel then evaluates more than 16,384
    # complex entries a round, from which numpy computes an operator
    # product of a temporary in place, with its operands swapped
    SWEEP = tuple(np.geomspace(0.1, 20.0, 256))
    SWEEPS = pytest.mark.parametrize("zts, step", [(ZTS, 1), (SWEEP, 17)],
                                     ids=["3", "256"])

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "vacuum",
                                           "lossy_halfspace"])
    @pytest.mark.parametrize("atom", ["excited_atom", "ground_atom",
                                      "magnetoelectric_atom"])
    def test_nonresonant_array_is_per_distance_bit_for_bit(
            self, request, monkeypatch, atom, reflector, order):
        atom = request.getfixturevalue(atom)
        material = request.getfixturevalue(reflector)
        halfspace = reflector == "lossy_halfspace"
        # closed forms: one xi-integral per distance; a half-space: one
        # batch of kappa-integrals for all of them
        outer = []
        name = "_kappa_integrals" if halfspace else "integrate_semi_infinite"
        routine = getattr(potentials_module, name)
        monkeypatch.setattr(potentials_module, name,
                            lambda *a, **kw: outer.append(routine(*a, **kw))
                            or outer[-1])
        z = [zt_to_z(zt) for zt in self.ZTS]
        values, errs = potentials_module._nonresonant(
            atom, material, z, _Request(1e-7, 100_000), order)
        if halfspace:
            assert len(outer) == 1
            outer_values, outer_errs = outer[0]
        else:
            assert len(outer) == len(z)
            pref = hbar * mu_0 / (2.0 * np.pi)
            outer_values = [pref * res.value for res in outer]
            outer_errs = [pref * res.abs_error_estimate for res in outer]
        # each error is the outer integral's, plus rel_tol |U| for the
        # inner quadratures of a half-space only (closed forms add
        # nothing), and at least the rounding floor
        inner = 1e-7 if halfspace else 0.0
        for k in range(len(z)):
            assert values[k] == outer_values[k]
            assert errs[k] == max(
                outer_errs[k] + inner * abs(values[k]),
                potentials_module._ROUNDING_FLOOR * abs(values[k]))
        for k, zk in enumerate(z):
            (v,), (e,) = potentials_module._nonresonant(
                atom, material, [zk], _Request(1e-7, 100_000), order)
            assert (values[k], errs[k]) == (v, e)

    @SWEEPS
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "lossy_halfspace"])
    @pytest.mark.parametrize("atom", ["excited_atom", "ground_atom",
                                      "magnetoelectric_atom"])
    def test_resonant_array_agrees_within_reported_errors(
            self, request, atom, reflector, order, zts, step):
        # every distance is its own Sommerfeld integral, so the sweep and
        # the single calls agree to the bit: every step-th value and
        # reported error is that of its own call
        atom = request.getfixturevalue(atom)
        material = request.getfixturevalue(reflector)
        z = [zt_to_z(zt) for zt in zts]
        values, errs = potentials_module._resonant(
            atom, material, z, _Request(1e-9, 100_000), order)
        for k in range(0, len(z), step):
            (v,), (e,) = potentials_module._resonant(
                atom, material, [z[k]], _Request(1e-9, 100_000), order)
            assert (values[k], errs[k]) == (v, e)
            assert (v == 0.0) == atom.is_ground_state

    @SWEEPS
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "lossy_halfspace"])
    def test_public_scalar_and_array_calls_agree_bit_for_bit(
            self, request, magnetoelectric_atom, reflector, zts, step):
        # one array call against one call per step-th distance: the same
        # values and errors, Python floats for a scalar distance
        material = request.getfixturevalue(reflector)
        geo = PlanarGeometry(material, zt_to_z(5.0))
        z = np.array([zt_to_z(zt) for zt in zts])
        kw = dict(rel_tol=1e-7)
        sweep = total_potential(magnetoelectric_atom, geo, z_atom=z, **kw)
        parts = {part: part(magnetoelectric_atom, geo, z_atom=z, **kw)
                 for part in (nonresonant_potential, resonant_potential)}
        assert np.array_equal(parts[nonresonant_potential],
                              sweep.u_nonresonant)
        assert np.array_equal(parts[resonant_potential], sweep.u_resonant)
        for k in range(0, z.size, step):
            zk = z[k].item()
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
                      _Request(1e-7, 100_000))
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
