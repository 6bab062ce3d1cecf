"""Atomic response functions, line weights, and reflector materials."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import epsilon_0, hbar

from planarcp import (
    AtomModel,
    DiluteLimitWarning,
    LorentzOscillator,
    MaterialResponse,
    Transition,
    atom_model_from_dict,
    atom_model_to_dict,
    clausius_mossotti,
    load_atom_model,
    magnetizability,
    polarizability,
    resonant_weights,
)
from planarcp.materials import _oscillator_sum_ixi

from conftest import D2, W10

# frozen oracle value: two-level excited atom at freq = i*W10, computed
# by summing the two pole terms with 50-digit arithmetic
ALPHA_EXCITED_I_W10 = -9.0883015382788924528e-41


@pytest.fixture
def three_level_middle():
    # middle state: one downward, one upward transition
    return AtomModel("middle", (
        Transition(+0.4 * W10, 0.6 * D2),
        Transition(-1.1 * W10, D2),
    ))


class TestPolarizability:
    def test_static_ground_state(self, ground_atom):
        expected = 2.0 * D2 / (3.0 * hbar * W10)
        assert polarizability(ground_atom, 0.0) == pytest.approx(
            expected, rel=1e-14)

    def test_static_excited_is_minus_ground(self, ground_atom, excited_atom):
        a_g = polarizability(ground_atom, 0.0)
        a_e = polarizability(excited_atom, 0.0)
        assert a_e == -a_g
        assert a_e.real == pytest.approx(-2.0 * D2 / (3.0 * hbar * W10),
                                         rel=1e-14)

    def test_frozen_imaginary_axis_value(self, excited_atom):
        val = polarizability(excited_atom, 1j * W10)
        assert val.imag == 0.0
        assert val.real == pytest.approx(ALPHA_EXCITED_I_W10, rel=1e-15)
        # closed form -(2/3hbar) |d|^2 w10 / (w10^2 + xi^2) at xi = w10
        assert val.real == pytest.approx(-D2 / (3.0 * hbar * W10), rel=1e-14)

    def test_schwarz_reflection_thousand_samples(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = rng.integers(1, 5)
            transitions = tuple(
                Transition(
                    omega_nk=float(rng.choice([-1, 1])
                                   * 10 ** rng.uniform(13, 17)),
                    dipole_sq=float(10 ** rng.uniform(-62, -57)),
                    magnetic_sq=float(10 ** rng.uniform(-45, -40)),
                )
                for _ in range(n)
            )
            atom = AtomModel("rand", transitions)
            xi = float(10 ** rng.uniform(12, 18))
            assert polarizability(atom, 1j * xi).imag == 0.0
            assert magnetizability(atom, 1j * xi).imag == 0.0

    def test_two_level_opposition_along_axis(self, ground_atom,
                                             excited_atom):
        for xi in np.geomspace(1e12, 1e18, 25):
            a_g = polarizability(ground_atom, 1j * xi)
            a_e = polarizability(excited_atom, 1j * xi)
            assert a_e == -a_g

    def test_crossing_symmetry(self, magnetoelectric_atom):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = complex(rng.uniform(-3, 3) * W10, rng.uniform(0.1, 3) * W10)
            lhs = polarizability(magnetoelectric_atom, -np.conj(w))
            rhs = np.conj(polarizability(magnetoelectric_atom, w))
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_pole_rejected_without_broadening(self, excited_atom,
                                              ground_atom):
        with pytest.raises(ValueError, match="pole"):
            polarizability(excited_atom, W10)
        # the pole at -omega_nk is hit from the other side too
        with pytest.raises(ValueError, match="pole"):
            polarizability(ground_atom, W10)

    def test_broadening_resolves_line_with_gain_sign(self, excited_atom,
                                                     ground_atom):
        gamma = 1e-4 * W10
        a_exc = polarizability(excited_atom, W10, broadening=gamma)
        a_gnd = polarizability(ground_atom, W10, broadening=gamma)
        assert a_exc.imag < 0.0   # emission line: gain
        assert a_gnd.imag > 0.0   # absorption line
        with pytest.raises(ValueError):
            polarizability(excited_atom, W10, broadening=-1.0)


class TestMagnetizability:
    def test_zero_for_electric_atom(self, excited_atom):
        for freq in (0.0, 1j * W10, 0.3 * W10):
            assert magnetizability(excited_atom, freq) == 0.0

    def test_mirrors_polarizability_structure(self):
        atom = AtomModel("m", (Transition(-W10, dipole_sq=0.0,
                                          magnetic_sq=1e-42),))
        expected = 2.0 * 1e-42 / (3.0 * hbar * W10)
        assert magnetizability(atom, 0.0) == pytest.approx(expected,
                                                           rel=1e-14)

    def test_dual_atom_scaling(self):
        # magnetic moments m = c * d make beta = c^2 * alpha at every freq
        scale = C_LIGHT**2
        atom = AtomModel("dual", (
            Transition(+W10, D2, magnetic_sq=scale * D2),
            Transition(-2.2 * W10, 0.3 * D2, magnetic_sq=scale * 0.3 * D2),
        ))
        for freq in (0.0, 1j * 0.7 * W10, complex(0.5 * W10, 0.2 * W10)):
            beta = magnetizability(atom, freq)
            alpha = polarizability(atom, freq)
            assert beta == pytest.approx(scale * alpha, rel=1e-14)


class TestResonantWeights:
    def test_ground_state_empty(self, ground_atom):
        assert resonant_weights(ground_atom) == []

    def test_excited_two_level(self, excited_atom):
        lines = resonant_weights(excited_atom)
        assert len(lines) == 1
        assert lines[0].omega == W10
        assert lines[0].electric_weight == pytest.approx(
            math.pi * D2 / (3.0 * hbar), rel=1e-15)
        assert lines[0].magnetic_weight == 0.0

    def test_three_level_middle_state(self, three_level_middle):
        lines = resonant_weights(three_level_middle)
        assert len(lines) == 1
        assert lines[0].omega == pytest.approx(0.4 * W10)

    def test_invariant_under_upward_transitions(self, excited_atom):
        base = resonant_weights(excited_atom)
        extended = AtomModel("ext", excited_atom.transitions + (
            Transition(-3.0 * W10, D2),
            Transition(-0.2 * W10, 0.0, 1e-44),
        ))
        assert resonant_weights(extended) == base


class TestClausiusMossotti:
    def test_vacuum_density(self, excited_atom):
        assert clausius_mossotti(0.0, excited_atom, 1j * W10) == (0.0, 0.0)

    def test_gain_inside_emission_line(self, excited_atom):
        eps_m1, _ = clausius_mossotti(1e20, excited_atom, W10,
                                      broadening=1e-3 * W10)
        assert eps_m1.imag < 0.0  # amplifying response

    def test_real_on_imaginary_axis(self, ground_atom):
        eps_m1, inv_mu = clausius_mossotti(1e20, ground_atom, 1j * W10)
        assert eps_m1.imag == 0.0
        assert inv_mu.imag == 0.0
        assert eps_m1.real > 0.0

    def test_consistent_with_definition(self, excited_atom):
        eta = 1e20
        eps_m1, inv_mu = clausius_mossotti(eta, excited_atom, 1j * W10)
        assert eps_m1 == pytest.approx(
            eta * polarizability(excited_atom, 1j * W10) / epsilon_0)

    def test_dilute_guard_warns(self, ground_atom):
        with pytest.warns(DiluteLimitWarning):
            clausius_mossotti(1e30, ground_atom, 0.0)

    def test_dilute_guard_sees_magnetisability(self):
        # purely magnetic atom: eps - 1 = 0 but 1 - 1/mu = 2.05
        magnetic = AtomModel("m", (Transition(+W10, 0.0, D2 * C_LIGHT**2),))
        with pytest.warns(DiluteLimitWarning, match="1/mu"):
            eps_m1, one_minus_inv_mu = clausius_mossotti(1e29, magnetic, 0.0)
        assert eps_m1 == 0.0
        assert abs(one_minus_inv_mu) == pytest.approx(2.05, rel=0.01)

    def test_negative_density_rejected(self, ground_atom):
        with pytest.raises(ValueError):
            clausius_mossotti(-1.0, ground_atom, 0.0)


class TestValidation:
    def test_transition_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="degenerate"):
            Transition(0.0, D2)

    def test_transition_rejects_negative_moments(self):
        with pytest.raises(ValueError):
            Transition(W10, -1.0)
        with pytest.raises(ValueError):
            Transition(W10, D2, -1.0)

    def test_transition_rejects_momentless(self):
        with pytest.raises(ValueError):
            Transition(W10, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: Transition(v, D2),
        lambda v: Transition(W10, v),
        lambda v: Transition(W10, D2, v),
        lambda v: LorentzOscillator(v, W10, 0.1 * W10),
        lambda v: LorentzOscillator(1.0, v, 0.1 * W10),
        lambda v: LorentzOscillator(1.0, W10, v),
    ], ids=["omega", "dipole", "magnetic", "strength", "resonance",
            "damping"])
    def test_non_finite_values_rejected(self, make, value):
        # a NaN or infinite moment or oscillator parameter once
        # constructed and failed later inside the quadrature
        with pytest.raises(ValueError):
            make(value)

    def test_atom_needs_transitions(self):
        with pytest.raises(ValueError):
            AtomModel("empty", ())


def _oscillators(max_strength, max_size):
    """Lists of absorbing and amplifying Lorentz oscillators with
    log-uniform resonances and dampings."""
    def log_uniform(lo, hi):
        return st.floats(lo, hi).map(lambda e: 10.0**e)

    return st.lists(st.builds(
        LorentzOscillator, strength=st.floats(1e-3, max_strength),
        resonance=log_uniform(10.0, 17.0), damping=log_uniform(8.0, 17.0),
        amplifying=st.booleans()), max_size=max_size)


class TestMaterialResponse:
    def test_schwarz_reflection(self, lossy_halfspace):
        for xi in np.geomspace(1e12, 1e18, 30):
            assert lossy_halfspace.epsilon(1j * xi).imag == 0.0
            assert lossy_halfspace.mu(1j * xi).imag == 0.0
            assert lossy_halfspace.epsilon(1j * xi).real > 1.0

    def test_absorbing_model_is_lossy_everywhere(self, lossy_halfspace):
        for w in np.geomspace(1e12, 1e18, 30):
            assert lossy_halfspace.epsilon(w).imag >= 0.0
            assert lossy_halfspace.is_lossy_at(w)

    def test_amplifying_window(self):
        # weak gain line on an absorbing background: net gain only in a
        # bounded window around the inverted oscillator
        w0 = 1e15
        mat = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(0.1, w0, 1e13, amplifying=True),
            LorentzOscillator(1.0, 5.0 * w0, 5e14),
        ))
        assert mat.epsilon(w0).imag < 0.0
        assert mat.is_amplifying_at(w0)
        for w in (1e13, 3e15, 5e15, 1e17):
            assert mat.epsilon(w).imag > 0.0
        grid = np.geomspace(1e13, 1e17, 4001)
        negative = np.array([mat.epsilon(w).imag < 0.0 for w in grid])
        idx = np.nonzero(negative)[0]
        assert idx.size > 0
        # the gain region is one contiguous window containing w0
        assert np.all(np.diff(idx) == 1)
        assert grid[idx[0]] < w0 < grid[idx[-1]]

    # one term of the real-arithmetic sum and of the complex reference
    # differ by a few ulp of that term, so the tolerance is relative to
    # the summands' magnitudes; amplifying terms may cancel in the sum
    REAL_ARITHMETIC_TOL = 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(eps=_oscillators(10.0, 3), mu=_oscillators(2.0, 2),
           log_xi=st.lists(st.floats(8.0, 20.0), min_size=1, max_size=16))
    def test_imaginary_axis_in_real_arithmetic(self, eps, mu, log_xi):
        mat = MaterialResponse("drude-lorentz", eps_oscillators=eps,
                               mu_oscillators=mu)
        xi = 10.0 ** np.array(log_xi)
        for oscillators, reference in ((eps, mat.epsilon),
                                       (mu, mat.mu)):
            expected = reference(1j * xi).real
            scale = 1.0 + sum(abs(o.contribution(1j * xi).real)
                              for o in oscillators)
            got = _oscillator_sum_ixi(oscillators, xi)
            assert got.shape == xi.shape
            assert np.all(np.abs(got - expected)
                          <= self.REAL_ARITHMETIC_TOL * scale)
        assert np.all(_oscillator_sum_ixi((), xi) == 1.0)

    def test_vacuum_and_duality(self, vacuum, pec, pmc):
        assert vacuum.is_vacuum
        assert vacuum.epsilon(1j * W10) == 1.0
        assert pec.dual() == pmc
        assert pmc.dual() == pec
        osc = (LorentzOscillator(1.0, W10, 0.1 * W10),)
        mat = MaterialResponse("drude-lorentz", eps_oscillators=osc)
        assert mat.dual().mu_oscillators == osc
        assert mat.dual().dual() == mat

    def test_mirrors_take_no_oscillators(self):
        with pytest.raises(ValueError):
            MaterialResponse("perfect-electric-mirror", eps_oscillators=(
                LorentzOscillator(1.0, W10, 0.1 * W10),))
        with pytest.raises(ValueError, match="unknown reflector"):
            MaterialResponse("metal")

    def test_mirror_has_no_finite_eps(self, pec):
        with pytest.raises(ValueError):
            pec.epsilon(W10)


class TestAtomModelIO:
    def test_round_trip(self, tmp_path, magnetoelectric_atom):
        path = tmp_path / "atom.json"
        path.write_text(json.dumps(atom_model_to_dict(magnetoelectric_atom)))
        loaded = load_atom_model(path)
        assert loaded == magnetoelectric_atom

    def test_schema_documented_field_names(self, tmp_path):
        path = tmp_path / "atom.json"
        path.write_text(json.dumps({
            "state_label": "e",
            "transitions": [{
                "omega_nk_rad_s": W10,
                "dipole_sq_C2m2": D2,
                "magnetic_sq_A2m4": 1e-44,
            }],
        }))
        atom = load_atom_model(path)
        assert atom.transitions[0].magnetic_sq == 1e-44

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields"):
            atom_model_from_dict({
                "state_label": "e",
                "transitions": [{"omega_nk_rad_s": W10,
                                 "dipole_sq_C2m2": D2,
                                 "dipole": 1.0}],
            })

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            atom_model_from_dict({"transitions": []})
        with pytest.raises(ValueError):
            atom_model_from_dict({"state_label": "e",
                                  "transitions": [{"dipole_sq_C2m2": D2}]})

    @pytest.mark.parametrize("text", ["[" * 100_000, "{", "[1, 2"])
    def test_malformed_file_is_a_value_error(self, tmp_path, text):
        # a file nested deeper than the decoder's stack once let
        # RecursionError escape
        path = tmp_path / "atom.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="atom.json"):
            load_atom_model(path)
