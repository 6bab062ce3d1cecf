"""The benchmark's workloads: inputs made from a seed, one pass, checks.

A pass is a fixed list of operations; every run repeats whole passes, so
the share of failed operations is the same in every run.  Each operation
is a call into planarcp's public API or its command line.  Checks compare
the outputs with oracle.py (computed apart from planarcp) or with
properties the method must have, and return a list of problems.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.constants import c as C_LIGHT

import oracle

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the canonical two-level parameters of tests/conftest.py and fig3
W10 = 2.5e15          # rad/s
D2 = 7.1882e-59       # C^2 m^2
ETA = 1e20            # 1/m^3


def z_of(zt):
    """Distance in m at zt = 2 w10 z / c."""
    return zt * C_LIGHT / (2.0 * W10)


class ProgramMissing(RuntimeError):
    """The checkout holds no planarcp sources to benchmark."""


def load_program():
    """Import planarcp from this checkout's src/, never from elsewhere."""
    if not (SRC / "planarcp" / "__init__.py").is_file():
        raise ProgramMissing(f"no planarcp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import planarcp
    import planarcp.cli  # noqa: F401  (the package does not import it)
    if Path(planarcp.__file__).resolve().parent != SRC / "planarcp":
        raise ProgramMissing(f"imported planarcp from {planarcp.__file__}")
    return planarcp


@dataclass
class PassResult:
    outputs: dict
    op_times: list = field(default_factory=list)      # s, every operation
    traced_times: list = field(default_factory=list)  # s, traced repeats
    latencies: list = field(default_factory=list)     # s, successful points
    attempted: int = 0
    failed: int = 0


def _within(value, reference, tol, scale, what):
    """Problem text when |value - reference| > tol * scale, else None."""
    dev = abs(value - reference)
    if dev <= tol * scale:
        return None
    return (f"{what}: got {value!r}, expected {reference!r} "
            f"(deviation {dev:.3e} > {tol:g} x {scale:.3e})")


def _read_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def _cli(P, argv, out_path):
    """Run a planarcp subcommand writing CSV to out_path; returns the CSV."""
    rc = P.cli.main(argv + ["--out", str(out_path)])
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited {rc}")
    return out_path.read_text(encoding="utf-8")


def _lorentz(strength, resonance, damping):
    return {"strength": strength, "resonance_rad_s": resonance,
            "damping_rad_s": damping, "sign": "absorbing"}


class Workload:
    """One workload; subclasses fill in the inputs, a pass and the checks."""

    name = ""

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)

    def write_inputs(self):
        """Write the scenario files the program parses."""

    def setup(self, P):
        """Parse the scenario; part of the timed set-up."""

    def warm_up(self, P):
        """One fixed operation, the same for every seed."""

    def run_pass(self, P, tracer=None):
        raise NotImplementedError

    def check(self, P, outputs):
        """Problems with one pass's outputs; empty when they are right."""
        raise NotImplementedError

    def _op(self, result, tracer, label, fn, point=False, expected=()):
        """Run one operation, counting it and timing point-level calls.

        With a tracer the operation runs twice, untraced and then traced,
        so that the tracing overhead is measured on adjacent calls; both
        runs must give the same value.
        """
        value, elapsed = _timed(result, fn, expected)
        if tracer is not None:
            tracer.point = label
            tracer.install()
            try:
                traced, traced_elapsed = _timed(result, fn, expected)
            finally:
                tracer.remove()
            if traced != value:
                raise RuntimeError(f"{label}: traced and untraced runs differ")
            result.traced_times.append(traced_elapsed)
        result.op_times.append(elapsed)
        if point and value is not None:
            result.latencies.append(elapsed)
        return value


def _timed(result, fn, expected):
    """(value or None if it raised one of `expected`, seconds taken)."""
    result.attempted += 1
    t0 = time.perf_counter()
    try:
        value = fn()
    except expected:
        result.failed += 1
        value = None
    return value, time.perf_counter() - t0


# ---------------------------------------------------------------------------


class HalfspacePotentialReadme(Workload):
    """The README scenario: cp-potential points on a lossy half-space."""

    name = "hs-potential-readme"
    OMEGA = 2.5e15
    DSQ = 7.2e-59
    OSCILLATORS = ((1.0, 1e16, 1e14),)
    Z_MIN, Z_MAX, POINTS = 6e-9, 6e-7, 50
    ORACLE_BINS = 5
    WARM_UP_INDEX = 25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.grid = np.geomspace(self.Z_MIN, self.Z_MAX, self.POINTS)
        # the grid is the README's; the seed picks the oracle points, in
        # each of ORACLE_BINS stretches of the grid the first that succeeds
        width = self.POINTS // self.ORACLE_BINS
        self.oracle_order = [self.rng.permutation(
            np.arange(b * width, (b + 1) * width)).tolist()
            for b in range(self.ORACLE_BINS)]
        self.scenario_path = self.workdir / "hs_potential.json"

    def write_inputs(self):
        _write_json(self.scenario_path, {
            "schema_version": 1,
            "atom": {"state_label": "excited", "transitions": [
                {"omega_nk_rad_s": self.OMEGA,
                 "dipole_sq_C2m2": self.DSQ, "magnetic_sq_A2m4": 0.0}]},
            "reflector": {"model": "drude-lorentz", "epsilon_oscillators": [
                _lorentz(*osc) for osc in self.OSCILLATORS]},
            "sweep": {"z_min_m": self.Z_MIN, "z_max_m": self.Z_MAX,
                      "points": self.POINTS, "spacing": "log"},
            "units": "si",
            "tolerances": {"relative": 1e-9, "sommerfeld_relative": 1e-7,
                           "max_evaluations": 100000},
        })

    def setup(self, P):
        self.scenario = P.cli.load_scenario(str(self.scenario_path))
        self.geometry = P.PlanarGeometry(self.scenario.reflector,
                                         self.scenario.sweep[0])

    def _point(self, P, z):
        tol = self.scenario.tolerances
        return P.total_potential(self.scenario.atom, self.geometry, z_atom=z,
                                 rel_tol=tol["relative"],
                                 max_evaluations=tol["max_evaluations"])

    def warm_up(self, P):
        self._point(P, self.scenario.sweep[self.WARM_UP_INDEX])

    def run_pass(self, P, tracer=None):
        result = PassResult(outputs={"points": []})
        for i, z in enumerate(self.scenario.sweep):
            res = self._op(result, tracer, f"z{i}",
                           lambda: self._point(P, z), point=True,
                           expected=P.QuadratureConvergenceError)
            result.outputs["points"].append(
                None if res is None else
                (res.u_nonresonant, res.u_resonant, res.u_total,
                 res.quadrature_error))
        return result

    def oracle_indices(self, points):
        picks = []
        for order in self.oracle_order:
            ok = [i for i in order if points[i] is not None]
            if ok:
                picks.append(ok[0])
        return picks

    def check(self, P, outputs):
        problems = []
        points = outputs["points"]
        if list(self.scenario.sweep) != self.grid.tolist():
            problems.append("parsed sweep differs from the README grid")
        for i, p in enumerate(points):
            if p is not None and p[2] != p[0] + p[1]:
                problems.append(f"z{i}: u_total != u_nonresonant + "
                                "u_resonant")
        picks = self.oracle_indices(points)
        if len(picks) < self.ORACLE_BINS:
            problems.append("a whole stretch of the grid failed")
        for i in picks:
            z = float(self.grid[i])
            u_nr, u_r, _, err = points[i]
            o_nr = oracle.halfspace_nonresonant_potential(
                self.OMEGA, self.DSQ, z, self.OSCILLATORS)
            o_r = oracle.halfspace_resonant_potential(
                self.OMEGA, self.DSQ, z, self.OSCILLATORS)
            r_scale = oracle.resonant_scale([(self.OMEGA, self.DSQ, 0.0)], z)
            problems += [p for p in (
                _within(u_nr, o_nr, 1e-8, abs(o_nr), f"z{i} u_nonresonant"),
                _within(u_r, o_r, 1e-8, r_scale, f"z{i} u_resonant"),
            ) if p]
            deviation = abs(u_nr - o_nr) + abs(u_r - o_r)
            if deviation > err:
                problems.append(f"z{i}: reported quadrature_error {err:.3e} "
                                f"< observed deviation {deviation:.3e}")
        return problems


# ---------------------------------------------------------------------------


class HalfspaceSlabForce(Workload):
    """plate-force sweep on the lossy half-space, against the quadrature
    route, for the magnetoelectric excited atom of tests/conftest.py."""

    name = "hs-slab-force"
    GAPS = 16
    NONRESONANT_GAPS = (0, GAPS - 1)
    NONRESONANT_TOL = 1e-3
    THICKNESS = C_LIGHT / W10
    OSCILLATORS = ((1.5, 1.3 * W10, 0.2 * W10),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        zt_min = 0.5 * math.exp(self.rng.uniform(0.0, math.log(1.1)))
        zt_max = 20.0 * math.exp(-self.rng.uniform(0.0, math.log(1.1)))
        self.z_min, self.z_max = z_of(zt_min), z_of(zt_max)
        self.dual_gap = int(self.rng.integers(1, self.GAPS - 1))
        m2 = 0.4 * D2 * C_LIGHT**2
        self.transitions = ((W10, D2, 0.3 * m2), (-1.7 * W10, 0.5 * D2, m2))
        self.scenario_path = self.workdir / "hs_slab.json"
        self.csv_path = self.workdir / "hs_slab.csv"

    def write_inputs(self):
        _write_json(self.scenario_path, {
            "schema_version": 1,
            "atom": {"state_label": "excited-me", "transitions": [
                {"omega_nk_rad_s": w, "dipole_sq_C2m2": d,
                 "magnetic_sq_A2m4": m} for w, d, m in self.transitions]},
            "reflector": {"model": "drude-lorentz", "epsilon_oscillators": [
                _lorentz(*osc) for osc in self.OSCILLATORS]},
            "sweep": {"z_min_m": self.z_min, "z_max_m": self.z_max,
                      "points": self.GAPS, "spacing": "log"},
            "slab": {"thickness_m": self.THICKNESS,
                     "number_density_m3": ETA},
        })

    def setup(self, P):
        self.scenario = P.cli.load_scenario(str(self.scenario_path))
        self.geometry = P.PlanarGeometry(self.scenario.reflector,
                                         self.scenario.sweep[0])

    def _slab(self, P, z, atom=None, geometry=None):
        return P.SlabScenario(z=z, d=self.THICKNESS, eta=ETA,
                              atom=atom or self.scenario.atom,
                              geometry=geometry or self.geometry)

    def _resonant(self, P, z, **kw):
        return P.plate_force_quadrature(self._slab(P, z, **kw),
                                        include_nonresonant=False).f_resonant

    def warm_up(self, P):
        self._resonant(P, self.scenario.sweep[0])

    def run_pass(self, P, tracer=None):
        result = PassResult(outputs={})
        out = result.outputs
        out["csv"] = self._op(result, tracer, "plate-force", lambda: _cli(
            P, ["plate-force", "--scenario", str(self.scenario_path)],
            self.csv_path))
        out["resonant"] = [
            self._op(result, tracer, f"gap{i}",
                     lambda: self._resonant(P, z), point=True)
            for i, z in enumerate(self.scenario.sweep)]
        out["nonresonant"] = [
            self._op(result, tracer, f"gap{i}-nr",
                     lambda: P.plate_force_quadrature(
                         self._slab(P, self.scenario.sweep[i]),
                         rel_tol=self.NONRESONANT_TOL).f_nonresonant)
            for i in self.NONRESONANT_GAPS]
        return result

    def check(self, P, outputs):
        problems = []
        header, rows = _read_csv(outputs["csv"])
        col = {name: k for k, name in enumerate(header)}
        if [r[col["z"]] for r in rows] != list(self.scenario.sweep):
            return ["plate-force CSV gaps differ from the scenario sweep"]
        lines = [t for t in self.transitions if t[0] > 0.0]
        for i, (row, f_quad) in enumerate(zip(rows, outputs["resonant"])):
            z = row[col["z"]]
            scale = oracle.resonant_slab_scale(lines, ETA, z, self.THICKNESS)
            problems.append(_within(row[col["f_resonant"]], f_quad, 1e-7,
                                    scale, f"gap{i} resonant routes"))
            if row[col["f_total"]] != (row[col["f_resonant"]]
                                       + row[col["f_nonresonant"]]):
                problems.append(f"gap{i}: f_total != f_resonant + "
                                "f_nonresonant")
        for i, f_quad in zip(self.NONRESONANT_GAPS, outputs["nonresonant"]):
            f_csv = rows[i][col["f_nonresonant"]]
            problems.append(_within(f_csv, f_quad, 1e-5,
                                    max(abs(f_csv), abs(f_quad)),
                                    f"gap{i} nonresonant routes"))
        z = self.scenario.sweep[self.dual_gap]
        dual_atom, dual_geometry = P.duality_transform(self.scenario.atom,
                                                       self.geometry)
        f_dual = self._resonant(P, z, atom=dual_atom, geometry=dual_geometry)
        problems.append(_within(
            outputs["resonant"][self.dual_gap], f_dual, 1e-7,
            oracle.resonant_slab_scale(lines, ETA, z, self.THICKNESS),
            f"gap{self.dual_gap} duality"))
        return [p for p in problems if p]


# ---------------------------------------------------------------------------


class MirrorSlabOracle(Workload):
    """Slab forces in front of a perfect electric mirror against the
    closed form and the oracle's xi-integral, plus cp-potential and fig3."""

    name = "mirror-slab-oracle"
    ZT_BINS = np.geomspace(0.05, 30.0, 16)       # 15 gap strata
    THICKNESS_BINS = np.geomspace(0.1, 60.0, 11)  # 10 thickness strata
    WARM_UP = (1.0, 1.0)  # (zt, 2 w d / c)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # one configuration per stratum keeps the pass cost steady across
        # seeds: cost grows with thickness and falls with the gap
        u = self.rng.uniform(size=(len(self.ZT_BINS) - 1,
                                   len(self.THICKNESS_BINS) - 1, 2))
        lzt, lth = np.log(self.ZT_BINS), np.log(self.THICKNESS_BINS)
        self.configs = [
            (math.exp(lzt[a] + u[a, b, 0] * (lzt[a + 1] - lzt[a])),
             math.exp(lth[b] + u[a, b, 1] * (lth[b + 1] - lth[b])))
            for a in range(len(lzt) - 1) for b in range(len(lth) - 1)]
        self.zt_sweep = (
            0.05 * math.exp(self.rng.uniform(0.0, math.log(2.0))),
            30.0 * math.exp(-self.rng.uniform(0.0, math.log(1.5))))
        self.scenario_path = self.workdir / "mirror.json"
        self.cp_csv = self.workdir / "mirror_cp.csv"
        self.fig3_csv = self.workdir / "fig3.csv"

    def write_inputs(self):
        _write_json(self.scenario_path, {
            "schema_version": 1,
            "atom": {"state_label": "excited", "transitions": [
                {"omega_nk_rad_s": W10, "dipole_sq_C2m2": D2}]},
            "reflector": {"model": "perfect-electric-mirror"},
            "sweep": {"z_min_m": z_of(self.zt_sweep[0]),
                      "z_max_m": z_of(self.zt_sweep[1]),
                      "points": 50, "spacing": "log"},
        })

    def setup(self, P):
        self.scenario = P.cli.load_scenario(str(self.scenario_path))
        self.geometry = P.PlanarGeometry(self.scenario.reflector, z_of(1))

    def _slab(self, P, zt, th):
        return P.plate_force_quadrature(P.SlabScenario(
            z=z_of(zt), d=z_of(th), eta=ETA, atom=self.scenario.atom,
            geometry=self.geometry))

    def warm_up(self, P):
        self._slab(P, *self.WARM_UP)

    def _fig3(self, P):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = P.cli.main(["fig3", "--out", str(self.fig3_csv)])
        return rc, stdout.getvalue(), self.fig3_csv.read_text(encoding="utf-8")

    def run_pass(self, P, tracer=None):
        result = PassResult(outputs={})
        out = result.outputs
        slabs = []
        for k, (zt, th) in enumerate(self.configs):
            r = self._op(result, tracer, f"slab{k}",
                         lambda: self._slab(P, zt, th), point=True)
            slabs.append((r.f_resonant, r.f_nonresonant, r.f_total,
                          r.quadrature_error))
        out["slabs"] = slabs
        out["cp_csv"] = self._op(result, tracer, "cp-potential", lambda: _cli(
            P, ["cp-potential", "--scenario", str(self.scenario_path)],
            self.cp_csv))
        out["fig3"] = self._op(result, tracer, "fig3", lambda: self._fig3(P))
        return result

    def check(self, P, outputs):
        problems = []
        for k, ((zt, th), (f_r, f_nr, f_tot, err)) in enumerate(
                zip(self.configs, outputs["slabs"])):
            z, d = z_of(zt), z_of(th)
            o_r, s_r = oracle.mirror_resonant_slab_force(W10, D2, ETA, z, d)
            o_nr = oracle.mirror_nonresonant_slab_force(W10, D2, ETA, z, d)
            problems.append(_within(f_r, o_r, 1e-8, s_r, f"slab{k} resonant"))
            # the nonresonant slab integral may stop well short of rel_tol
            # (its absolute floor can exceed the integral); what must hold
            # is the reported error bound
            problems.append(_within(f_nr, o_nr, 1.0, err,
                                    f"slab{k} nonresonant vs reported error"))
            if f_tot != f_r + f_nr:
                problems.append(f"slab{k}: f_total != f_r + f_nr")
        header, rows = _read_csv(outputs["cp_csv"])
        col = {name: k for k, name in enumerate(header)}
        if [r[col["z"]] for r in rows] != list(self.scenario.sweep):
            problems.append("cp-potential CSV distances differ from sweep")
        for k, row in enumerate(rows):
            z = row[col["z"]]
            u_nr, u_r = row[col["u_nonresonant"]], row[col["u_resonant"]]
            o_nr = oracle.mirror_nonresonant_potential(W10, D2, z)
            o_r = oracle.mirror_resonant_potential(W10, D2, z)
            problems.append(_within(u_nr, o_nr, 1e-8, abs(o_nr),
                                    f"cp z{k} u_nonresonant"))
            problems.append(_within(
                u_r, o_r, 1e-8, oracle.resonant_scale([(W10, D2, 0.0)], z),
                f"cp z{k} u_resonant"))
            if row[col["u_total"]] != u_nr + u_r:
                problems.append(f"cp z{k}: u_total != u_nr + u_r")
        rc, stdout, _ = outputs["fig3"]
        verdicts = stdout.strip().splitlines()
        if rc != 0 or not verdicts or verdicts[-1] != "fig3 summary: PASS" \
                or any("FAIL" in line for line in verdicts):
            problems.append(f"fig3 exited {rc}: {stdout.strip()!r}")
        return [p for p in problems if p]


WORKLOADS = {w.name: w for w in (HalfspacePotentialReadme, HalfspaceSlabForce,
                                 MirrorSlabOracle)}


def make(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
