"""Shared fixtures: canonical atoms, reflectors, geometry helpers and
the rule-call counter of the perf guards."""

import pytest
from scipy.constants import c as C_LIGHT

from planarcp import (
    AtomModel,
    LorentzOscillator,
    MaterialResponse,
    PlanarGeometry,
    Transition,
)
from planarcp import quadrature

# canonical two-level parameters used throughout the suite
W10 = 2.5e15          # rad/s
D2 = 7.1882e-59       # C^2 m^2, of order (e a0)^2
ETA = 1e20            # 1/m^3, comfortably dilute


def zt_to_z(zt, omega=W10):
    """Distance z for a given dimensionless zt = 2 omega z / c."""
    return zt * C_LIGHT / (2.0 * omega)


@pytest.fixture
def ground_atom():
    return AtomModel("ground", (Transition(-W10, D2),))


@pytest.fixture
def excited_atom():
    return AtomModel("excited", (Transition(+W10, D2),))


@pytest.fixture
def magnetoelectric_atom():
    # excited atom with both moments and an extra upward transition
    m2 = 0.4 * D2 * C_LIGHT**2
    return AtomModel("excited-me", (
        Transition(+W10, D2, 0.3 * m2),
        Transition(-1.7 * W10, 0.5 * D2, m2),
    ))


@pytest.fixture
def pec():
    return MaterialResponse("perfect-electric-mirror")


@pytest.fixture
def pmc():
    return MaterialResponse("perfect-magnetic-mirror")


@pytest.fixture
def vacuum():
    return MaterialResponse("drude-lorentz")


@pytest.fixture
def lossy_halfspace():
    # moderately dense absorbing dielectric, lossy at every omega > 0
    return MaterialResponse("drude-lorentz", eps_oscillators=(
        LorentzOscillator(strength=1.5, resonance=1.3 * W10,
                          damping=0.2 * W10),
    ))


@pytest.fixture
def pec_geometry(pec):
    def make(zt):
        return PlanarGeometry(pec, zt_to_z(zt))
    return make


@pytest.fixture
def rule_calls(monkeypatch):
    """List that gains one entry per G7/K15 rule call of the quadrature
    engine (one integrand call each) while the test runs: the number of
    abscissae of that call."""
    calls = []
    rule = quadrature._gk15

    def counted(f, lo, *rest):
        calls.append(quadrature.PANEL_NODES * lo.size)
        return rule(f, lo, *rest)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    return calls


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b))
