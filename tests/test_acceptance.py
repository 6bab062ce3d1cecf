"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them on success; failures show them in the captured output).

Two sub-criteria are known to fail and are implemented as stated
anyway, because the demanded tolerances sit a factor ~2 below what the
closed-form physics itself yields:

* criterion 1b: G_zz/G_xx at zt = 1e-3 is exactly 2 + 2 zt^2 + O(zt^3)
  = 2 + 2e-6, outside the demanded band 2 +- 1e-6.
* criterion 2: a half-space with eps = 1e8 deviates from the perfect
  mirror by 2 g(zt)/sqrt(eps), with g(0.1, 1, 10) ~= (0.074, 0.54,
  0.98); that is 1.08e-4 and 1.95e-4 at zt = 1 and 10, above the
  demanded 1e-4 (eps >= 4e8 would be needed).  The deviation is the
  finite surface impedance of the material, not quadrature error; see
  tests/test_greens.py for the frozen convergence-rate checks.
"""

import time

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT
from scipy.constants import hbar, mu_0

from planarcp import (
    LorentzOscillator,
    MaterialResponse,
    PlanarGeometry,
    SlabScenario,
    d_dz_traces,
    duality_transform,
    halfspace_green_traces,
    mirror_curlcurl_trace,
    mirror_green_components,
    mirror_trace_e,
    nonresonant_potential,
    plate_force_closed_form,
    plate_force_quadrature,
    resonant_potential,
    resonant_weights,
    total_potential,
)
from planarcp.cli import cmd_fig3, fig3_summary

from conftest import ETA, W10, rel_diff, zt_to_z

SIN1_OVER_4PI = 0.066962133350290946577


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {tag}" + (f"  [{detail}]" if detail
                                                else ""))


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.budget, \
            f"runtime {self.elapsed:.1f}s exceeds {self.budget}s"


def test_criterion_1a_mirror_closed_form_value():
    clock = Stopwatch(1.0)
    z = zt_to_z(1.0)
    gxx, _, _ = mirror_green_components(z, W10)
    expected = SIN1_OVER_4PI * W10 / C_LIGHT
    rel = rel_diff(gxx.real, expected)
    ok = rel <= 1e-12
    report("1a mirror value at zt=1", ok, f"rel={rel:.2e}")
    clock.check()
    assert ok


def test_criterion_1b_small_distance_ratio():
    clock = Stopwatch(1.0)
    gxx, _, gzz = mirror_green_components(zt_to_z(1e-3), W10)
    deviation = abs(gzz / gxx - 2.0)
    ok = deviation <= 1e-6
    report("1b G_zz/G_xx = 2 +- 1e-6 at zt=1e-3", ok,
           f"|ratio-2|={deviation:.3e}, exact value is 2 zt^2 = 2e-6")
    clock.check()
    assert ok, (
        "the closed forms give G_zz/G_xx = 2 + 2 zt^2 exactly; at "
        "zt = 1e-3 the deviation is 2e-6, twice the demanded band")


@pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
def test_criterion_2_mirror_limit_convergence(zt):
    clock = Stopwatch(10.0)
    mirror_like = MaterialResponse("drude-lorentz", eps_oscillators=(
        LorentzOscillator(strength=1e8, resonance=1e3 * W10,
                          damping=1e-6 * 1e3 * W10),
    ))
    z = zt_to_z(zt)
    tr = halfspace_green_traces(PlanarGeometry(mirror_like, z), 1j * W10,
                                rel_tol=1e-9)
    closed = mirror_trace_e(z, 1j * W10)
    rel = rel_diff(tr.trace_e, closed.real)
    ok = rel <= 1e-4
    report(f"2 mirror limit eps=1e8 at zt={zt}", ok,
           f"rel={rel:.3e}, physical limit 2g(zt)/sqrt(eps)")
    clock.check()
    assert ok, (
        f"the eps=1e8 half-space genuinely differs from the perfect "
        f"mirror by {rel:.3e} at zt={zt}; reaching 1e-4 here needs "
        f"eps >= 4e8 (finite surface impedance, not quadrature error)")


def test_criterion_3_closed_form_vs_quadrature_oracle(excited_atom, pec):
    clock = Stopwatch(60.0)
    grid = np.geomspace(0.3, 30.0, 50)
    worst = 0.0
    for factor in (0.1, 1.0, 5.0):
        d = factor * C_LIGHT / W10
        for zt in grid:
            z = zt_to_z(zt)
            sc = SlabScenario(z=z, d=d, eta=ETA, atom=excited_atom,
                              geometry=PlanarGeometry(pec, z))
            closed = plate_force_closed_form(sc)
            quad = plate_force_quadrature(sc, rel_tol=1e-10,
                                          include_nonresonant=False)
            worst = max(worst, rel_diff(closed, quad.f_resonant))
    ok = worst <= 1e-8
    report("3 force closed form vs quadrature", ok,
           f"worst rel={worst:.2e} over 150 slabs, C=1/(2 pi) stable")
    clock.check()
    assert ok


@pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
def test_criterion_4_ground_excited_opposition(ground_atom, excited_atom,
                                               pec, zt):
    clock = Stopwatch(10.0)
    geo = PlanarGeometry(pec, zt_to_z(zt))
    u_g = nonresonant_potential(ground_atom, geo)
    u_e = nonresonant_potential(excited_atom, geo)
    rel = abs(u_e + u_g) / abs(u_g)
    ok = rel <= 1e-10
    report(f"4 ground/excited opposition at zt={zt}", ok, f"rel={rel:.2e}")
    clock.check()
    assert ok


def test_criterion_5_duality_invariance(magnetoelectric_atom,
                                        lossy_halfspace, pec):
    clock = Stopwatch(60.0)
    ok_all = True
    details = []
    for label, reflector in (("PEC<->PMC", pec),
                             ("eps<->mu half-space", lossy_halfspace)):
        geo = PlanarGeometry(reflector, zt_to_z(1.0))
        dual_atom, dual_geo = duality_transform(magnetoelectric_atom, geo)
        r = total_potential(magnetoelectric_atom, geo)
        rd = total_potential(dual_atom, dual_geo)
        budget = 10.0 * (r.quadrature_error + rd.quadrature_error)
        ok_nr = abs(rd.u_nonresonant - r.u_nonresonant) <= budget
        ok_r = abs(rd.u_resonant - r.u_resonant) <= budget
        ok_all &= ok_nr and ok_r
        details.append(
            f"{label}: d_nr={abs(rd.u_nonresonant - r.u_nonresonant):.1e}"
            f" d_r={abs(rd.u_resonant - r.u_resonant):.1e}"
            f" budget={budget:.1e}")
    report("5 duality invariance", ok_all, "; ".join(details))
    clock.check()
    assert ok_all


def test_criterion_6_canonical_slab_experiment(tmp_path, capsys):
    clock = Stopwatch(120.0)
    out = tmp_path / "fig3.csv"
    code = cmd_fig3(str(out))
    capsys.readouterr()
    lines, ok = fig3_summary()
    report("6 canonical slab experiment", ok and code == 0,
           "short-range attraction, >=6 sign changes with spacing "
           "pi +- 5%, amplitude decreasing with thickness")
    clock.check()
    assert code == 0
    assert ok
    assert out.exists()


@pytest.mark.parametrize("zt", [0.5, 1.0, 5.0])
def test_criterion_7_gradient_consistency(excited_atom, pec, zt):
    clock = Stopwatch(10.0)
    z = zt_to_z(zt)
    geo = PlanarGeometry(pec, z)
    h = 1e-6 * z

    def richardson(f):
        d1 = (f(z + h) - f(z - h)) / (2.0 * h)
        d2 = (f(z + 0.5 * h) - f(z - 0.5 * h)) / h
        return (4.0 * d2 - d1) / 3.0

    # trace derivatives
    d = d_dz_traces(geo, W10)
    de, dm = d.trace_e, d.trace_m
    fd_e = richardson(lambda zz: mirror_trace_e(zz, W10))
    fd_m = richardson(lambda zz: mirror_curlcurl_trace(zz, W10))
    rel_e = abs(de - fd_e) / abs(fd_e)
    rel_m = abs(dm - fd_m) / abs(fd_m)

    # resonant-potential derivative
    lines = resonant_weights(excited_atom)
    analytic = -hbar * mu_0 / np.pi * sum(
        line.electric_weight * line.omega**2
        * np.real(d_dz_traces(geo, line.omega).trace_e)
        for line in lines)
    fd_u = richardson(lambda zz: resonant_potential(
        excited_atom, PlanarGeometry(pec, zz)))
    rel_u = abs(analytic - fd_u) / abs(fd_u)

    worst = max(rel_e, rel_m, rel_u)
    ok = worst <= 1e-6
    report(f"7 gradient consistency at zt={zt}", ok, f"worst={worst:.2e}")
    clock.check()
    assert ok


def test_criterion_8_structural_zeros(ground_atom, magnetoelectric_atom,
                                      pec, vacuum):
    clock = Stopwatch(1.0)
    geo = PlanarGeometry(pec, zt_to_z(1.0))
    u_r = resonant_potential(ground_atom, geo)
    sc = SlabScenario(z=zt_to_z(1.0), d=0.4 * C_LIGHT / W10, eta=ETA,
                      atom=ground_atom, geometry=geo)
    f = plate_force_quadrature(sc, include_nonresonant=False)

    vac_geo = PlanarGeometry(vacuum, zt_to_z(1.0))
    res_vac = total_potential(magnetoelectric_atom, vac_geo)
    sc_vac = SlabScenario(z=zt_to_z(1.0), d=0.4 * C_LIGHT / W10, eta=ETA,
                          atom=magnetoelectric_atom, geometry=vac_geo)
    f_vac = plate_force_quadrature(sc_vac)

    ok = (u_r == 0.0 and f.f_resonant == 0.0
          and res_vac.u_total == 0.0 and res_vac.quadrature_error == 0.0
          and f_vac.f_total == 0.0)
    report("8 structural zeros", ok,
           "ground-state resonant parts and vacuum-reflector results "
           "are exact zeros")
    clock.check()
    assert ok
