"""Atomic response functions and planar-reflector material models.

The atomic side carries signed transition frequencies: omega_nk is the
frequency of the transition from the modelled state n to the partner
state k, positive when the transition goes downward in energy.  A
ground-state atom therefore has only negative omega_nk, an excited atom
has at least one positive omega_nk.  Downward transitions are the ones
that feed the resonant potential and make a dilute gas amplifying.

The dynamic polarisability of the state n is

    alpha_n(w) = (1/3 hbar) sum_k |d_nk|^2 *
                 [ 1/(w - omega_nk + i e) - 1/(w + omega_nk + i e) ]

and the magnetisability beta_n(w) has the identical structure with
|m_nk|^2 in place of |d_nk|^2.  On the positive imaginary axis both are
real; near a downward transition frequency Im alpha < 0 (gain), which
via the linearised Clausius-Mossotti map makes Im(eps) < 0 for a dilute
gas of such atoms.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._constants import epsilon_0, hbar, mu_0

__all__ = [
    "Transition",
    "AtomModel",
    "LorentzOscillator",
    "MaterialResponse",
    "ResonantLine",
    "polarizability",
    "magnetizability",
    "resonant_weights",
    "clausius_mossotti",
    "load_atom_model",
    "atom_model_from_dict",
    "atom_model_to_dict",
    "DiluteLimitWarning",
]


class DiluteLimitWarning(UserWarning):
    """The requested density leaves the dilute (linear-response) regime."""


@dataclass(frozen=True)
class Transition:
    """One atomic transition of the modelled state.

    omega_nk : signed angular frequency in rad/s, (E_n - E_k)/hbar;
        positive means a downward transition out of state n.
    dipole_sq : squared electric dipole matrix element |d_nk|^2, C^2 m^2.
    magnetic_sq : squared magnetic dipole matrix element |m_nk|^2,
        (A m^2)^2.  Either moment may vanish, but not both.
    """

    omega_nk: float
    dipole_sq: float
    magnetic_sq: float = 0.0

    def __post_init__(self):
        if self.omega_nk == 0.0 or not math.isfinite(self.omega_nk):
            raise ValueError(
                f"degenerate transition rejected: omega_nk={self.omega_nk}"
            )
        if not all(0.0 <= m < math.inf
                   for m in (self.dipole_sq, self.magnetic_sq)):
            raise ValueError("squared matrix elements must be finite, >= 0")
        if self.dipole_sq == 0.0 and self.magnetic_sq == 0.0:
            raise ValueError(
                "transition must carry an electric or a magnetic moment"
            )


@dataclass(frozen=True)
class AtomModel:
    """Isotropic atom prepared in the state named by `state_label`."""

    state_label: str
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if not self.transitions:
            raise ValueError("atom model needs at least one transition")

    @property
    def is_ground_state(self):
        """True when every transition goes upward (all omega_nk < 0)."""
        return all(t.omega_nk < 0.0 for t in self.transitions)

    @property
    def is_excited(self):
        """True when at least one downward transition exists."""
        return any(t.omega_nk > 0.0 for t in self.transitions)

    @property
    def is_purely_electric(self):
        return all(t.magnetic_sq == 0.0 for t in self.transitions)

    @property
    def is_purely_magnetic(self):
        return all(t.dipole_sq == 0.0 for t in self.transitions)


class ResonantLine(NamedTuple):
    """Downward transition with its delta-line weights.

    The weights are the integrated masses of the negative-frequency-free
    imaginary parts: Im alpha carries -pi |d|^2 / (3 hbar) * delta(w - omega)
    per downward transition, and likewise for Im beta.
    """

    omega: float            # rad/s, > 0
    electric_weight: float  # pi |d_nk|^2 / (3 hbar)
    magnetic_weight: float  # pi |m_nk|^2 / (3 hbar)


def _response_sum(transitions, moments, freq, broadening):
    """Common two-pole sum of alpha/beta at complex frequency `freq`."""
    w = complex(freq)
    eps_b = float(broadening)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"frequency must be finite, got {w}")
    if not 0.0 <= eps_b < math.inf:
        raise ValueError(f"broadening must be finite and >= 0, got {eps_b}")
    if w.imag == 0.0 and eps_b == 0.0:
        for t in transitions:
            if w.real == t.omega_nk or w.real == -t.omega_nk:
                raise ValueError(
                    "real frequency hits the pole at |omega_nk|="
                    f"{abs(t.omega_nk):g} rad/s; supply a positive "
                    "broadening to evaluate there"
                )
    total = 0.0 + 0.0j
    wb = w + 1j * eps_b
    for t, msq in zip(transitions, moments):
        total += msq * (1.0 / (wb - t.omega_nk) - 1.0 / (wb + t.omega_nk))
    return total / (3.0 * hbar)


def polarizability(atom, freq, broadening=0.0):
    """Dynamic polarisability alpha_n at complex angular frequency.

    Parameters
    ----------
    atom : AtomModel
    freq : complex
        Angular frequency in rad/s.  Purely imaginary arguments i*xi
        give an exactly real result.  Real arguments are the
        zero-broadening limit and are rejected exactly on a pole; pass
        `broadening` > 0 to resolve the line shape instead.
    broadening : float
        Finite pole broadening e >= 0 in rad/s, added as +i*e to the
        frequency in both pole terms.  Never applied implicitly.

    Returns
    -------
    complex, SI units C^2 m^2 / J.
    """
    moments = [t.dipole_sq for t in atom.transitions]
    return _response_sum(atom.transitions, moments, freq, broadening)


def magnetizability(atom, freq, broadening=0.0):
    """Dynamic magnetisability beta_n; same structure as polarizability.

    Returns complex, SI units (A m^2)^2 / J = J / T^2.
    """
    moments = [t.magnetic_sq for t in atom.transitions]
    return _response_sum(atom.transitions, moments, freq, broadening)


def _response_ixi(atom, xi, magnetic=False):
    """alpha_n(i xi), or beta_n(i xi) when magnetic, for an ndarray
    xi >= 0, evaluated in real arithmetic."""
    xi = np.asarray(xi, dtype=float)
    xi2 = xi * xi
    out = np.zeros(xi.shape)
    for t in atom.transitions:
        msq = t.magnetic_sq if magnetic else t.dipole_sq
        out += msq * (-2.0 * t.omega_nk) / (xi2 + t.omega_nk**2)
    return out / (3.0 * hbar)


def resonant_weights(atom):
    """Downward transitions of `atom` with their resonant line weights.

    Only transitions with omega_nk > 0 survive; a ground-state model
    yields an empty list.  Adding upward transitions never changes the
    result.
    """
    pref = math.pi / (3.0 * hbar)
    return [
        ResonantLine(t.omega_nk, pref * t.dipole_sq, pref * t.magnetic_sq)
        for t in atom.transitions
        if t.omega_nk > 0.0
    ]


# |eps - 1| or |1 - 1/mu| at which the dilute expansion becomes doubtful
_DILUTE_GUARD = 0.1


def clausius_mossotti(eta, atom, freq, broadening=0.0):
    """Linearised Clausius-Mossotti susceptibilities of a dilute gas.

    Returns the pair (eps - 1, 1 - 1/mu) with

        eps - 1  = eta * alpha_n(freq) / eps0
        1 - 1/mu = mu0 * eta * beta_n(freq)

    valid to first order in the density eta (per m^3).  When
    |eps - 1| or |1 - 1/mu| reaches 0.1 the dilute expansion is
    doubtful and a DiluteLimitWarning is emitted; the value is still
    returned.
    """
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"number density must be finite and >= 0, got "
                         f"{eta}")
    if eta == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    eps_m1 = eta * polarizability(atom, freq, broadening) / epsilon_0
    one_minus_inv_mu = mu_0 * eta * magnetizability(atom, freq, broadening)
    for name, chi in (("eps - 1", eps_m1), ("1 - 1/mu", one_minus_inv_mu)):
        if abs(chi) >= _DILUTE_GUARD:
            warnings.warn(
                f"|{name}| = {abs(chi):.3g} exceeds the dilute guard "
                f"{_DILUTE_GUARD}; the linearised map is unreliable at this "
                "density",
                DiluteLimitWarning,
                stacklevel=2,
            )
    return eps_m1, one_minus_inv_mu


# --------------------------------------------------------------------------
# reflector materials


@dataclass(frozen=True)
class LorentzOscillator:
    """One Lorentz oscillator of a reflector material.

    strength : dimensionless oscillator strength, > 0
    resonance : resonance angular frequency, rad/s, > 0
    damping : linewidth, rad/s, > 0
    amplifying : inverted (gain) oscillator when True; it enters the
        permittivity with negative strength, so Im eps < 0 near its line.
    """

    strength: float
    resonance: float
    damping: float
    amplifying: bool = False

    def __post_init__(self):
        for name in ("strength", "resonance", "damping"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"oscillator {name} must be finite and > 0")

    def contribution(self, omega):
        """Oscillator term of the susceptibility at complex omega."""
        w = complex(omega) if np.isscalar(omega) else np.asarray(omega)
        sign = -1.0 if self.amplifying else 1.0
        w0 = self.resonance
        return sign * self.strength * w0**2 / (
            w0**2 - w * w - 1j * self.damping * w
        )


def _oscillator_sum(oscillators, omega):
    """1 plus the terms of `oscillators` at complex omega, a scalar or
    an array: a relative permittivity or permeability."""
    out = 1.0 + 0.0j if np.isscalar(omega) else np.ones(
        np.shape(omega), dtype=complex)
    for osc in oscillators:
        out = out + osc.contribution(omega)
    return out


def _oscillator_sum_ixi(oscillators, xi):
    """_oscillator_sum at omega = i xi for an ndarray xi >= 0, evaluated
    in real arithmetic: 1 + sum +-f w0^2 / (w0^2 + xi^2 + gamma xi)."""
    xi = np.asarray(xi, dtype=float)
    xi2 = xi * xi
    out = np.ones(xi.shape)
    for osc in oscillators:
        sign = -1.0 if osc.amplifying else 1.0
        w02 = osc.resonance**2
        out += sign * osc.strength * w02 / (w02 + xi2 + osc.damping * xi)
    return out


PERFECT_ELECTRIC_MIRROR = "perfect-electric-mirror"
PERFECT_MAGNETIC_MIRROR = "perfect-magnetic-mirror"
DRUDE_LORENTZ = "drude-lorentz"
_MODELS = (PERFECT_ELECTRIC_MIRROR, PERFECT_MAGNETIC_MIRROR, DRUDE_LORENTZ)


@dataclass(frozen=True)
class MaterialResponse:
    """Reflector material: a perfect mirror or a Drude-Lorentz half-space.

    Both the permittivity and the permeability are sums of Lorentz
    oscillators over a vacuum background, so eps(i xi) and mu(i xi) are
    real for real xi > 0 by construction.  A purely absorbing model has
    Im eps >= 0 and Im mu >= 0 at every positive real frequency;
    amplifying oscillators flip the sign of their own line.
    """

    model: str
    eps_oscillators: tuple[LorentzOscillator, ...] = ()
    mu_oscillators: tuple[LorentzOscillator, ...] = ()

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(
                f"unknown reflector model {self.model!r}; "
                f"expected one of {_MODELS}"
            )
        object.__setattr__(self, "eps_oscillators",
                           tuple(self.eps_oscillators))
        object.__setattr__(self, "mu_oscillators",
                           tuple(self.mu_oscillators))
        if self.model != DRUDE_LORENTZ and (self.eps_oscillators
                                            or self.mu_oscillators):
            raise ValueError("perfect mirrors take no oscillators")

    @property
    def is_perfect_mirror(self):
        return self.model in (PERFECT_ELECTRIC_MIRROR,
                              PERFECT_MAGNETIC_MIRROR)

    @property
    def is_vacuum(self):
        """Oscillator-free Drude-Lorentz model: eps = mu = 1 everywhere."""
        return (self.model == DRUDE_LORENTZ
                and not self.eps_oscillators and not self.mu_oscillators)

    def epsilon(self, omega):
        """Relative permittivity at complex angular frequency omega."""
        self._require_material()
        return _oscillator_sum(self.eps_oscillators, omega)

    def mu(self, omega):
        """Relative permeability at complex angular frequency omega."""
        self._require_material()
        return _oscillator_sum(self.mu_oscillators, omega)

    def is_lossy_at(self, omega):
        """True when the material purely absorbs at the real frequency
        omega > 0: Im eps >= 0, Im mu >= 0 and Im eps mu > 0."""
        self._require_material()
        eps, mu = self.epsilon(omega), self.mu(omega)
        return eps.imag >= 0.0 and mu.imag >= 0.0 and (eps * mu).imag > 0.0

    def is_amplifying_at(self, omega):
        """True when Im eps < 0 or Im mu < 0 at the real frequency omega."""
        self._require_material()
        return (self.epsilon(omega).imag < 0.0
                or self.mu(omega).imag < 0.0)

    def dual(self):
        """Material with the roles of eps and mu exchanged."""
        if self.model == PERFECT_ELECTRIC_MIRROR:
            return MaterialResponse(PERFECT_MAGNETIC_MIRROR)
        if self.model == PERFECT_MAGNETIC_MIRROR:
            return MaterialResponse(PERFECT_ELECTRIC_MIRROR)
        return MaterialResponse(DRUDE_LORENTZ,
                                eps_oscillators=self.mu_oscillators,
                                mu_oscillators=self.eps_oscillators)

    def _require_material(self):
        if self.model != DRUDE_LORENTZ:
            raise ValueError(
                f"{self.model} has no finite eps/mu; it is handled by the "
                "closed-form mirror Green tensor"
            )


# --------------------------------------------------------------------------
# configuration files

_KIND_NAMES = {str: "a string", list: "a list", dict: "an object",
               int: "an integer", float: "a finite number"}


def config_value(cfg, key, where, kind, default=None):
    """Leaf `key` of the JSON object `cfg`, or `default` when absent,
    checked to be of `kind`: str, list, dict, int, or float for any
    finite JSON number (returned as a float).  Errors are ValueErrors
    naming the JSON path of the leaf; JSON null is never a value.
    """
    path = f"{where}.{key}" if where else key
    value = cfg.get(key, default)
    # JSON true/false are no numbers; the bound rejects nan, inf and
    # ints too large for a float without converting them
    if isinstance(value, (int, float) if kind is float else kind) \
            and not isinstance(value, bool) \
            and (kind is not float or abs(value) <= sys.float_info.max):
        return float(value) if kind is float else value
    got = reprlib.repr(value) if key in cfg else "nothing"
    raise ValueError(f"{path}: expected {_KIND_NAMES[kind]}, got {got}")


def config_object(value, where, keys):
    """`value` checked to be a JSON object with no key outside `keys`."""
    if not isinstance(value, dict):
        raise ValueError(
            f"{where}: expected an object, got {reprlib.repr(value)}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    return value


_TRANSITION_KEYS = ("omega_nk_rad_s", "dipole_sq_C2m2", "magnetic_sq_A2m4")


def atom_model_from_dict(data):
    """Build an AtomModel from its configuration mapping.

    Schema::

        {
          "state_label": "<name of the prepared state>",
          "transitions": [
            {"omega_nk_rad_s": <signed float, nonzero>,
             "dipole_sq_C2m2": <float >= 0>,
             "magnetic_sq_A2m4": <float >= 0, optional, default 0>},
            ...
          ]
        }

    Numbers must be finite JSON numbers (true and false are not), the
    label a string; unknown fields are rejected.  Errors are ValueErrors
    naming the JSON path, e.g. ``atom.transitions[0].dipole_sq_C2m2``.
    """
    config_object(data, "atom", ("state_label", "transitions"))
    transitions = []
    for i, entry in enumerate(config_value(data, "transitions", "atom",
                                           list)):
        where = f"atom.transitions[{i}]"
        config_object(entry, where, _TRANSITION_KEYS)
        fields = (config_value(entry, "omega_nk_rad_s", where, float),
                  config_value(entry, "dipole_sq_C2m2", where, float),
                  config_value(entry, "magnetic_sq_A2m4", where, float, 0.0))
        try:
            transitions.append(Transition(*fields))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return AtomModel(config_value(data, "state_label", "atom", str),
                     tuple(transitions))


def atom_model_to_dict(atom):
    """Inverse of atom_model_from_dict."""
    return {
        "state_label": atom.state_label,
        "transitions": [
            {
                "omega_nk_rad_s": t.omega_nk,
                "dipole_sq_C2m2": t.dipole_sq,
                "magnetic_sq_A2m4": t.magnetic_sq,
            }
            for t in atom.transitions
        ],
    }


def load_atom_model(path):
    """Load an AtomModel from a JSON file following the documented schema.
    A file that is not valid JSON raises a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # RecursionError: nesting deeper than the JSON decoder's stack
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return atom_model_from_dict(data)
