"""Command-line front end: scenario files, sweeps, CSV emission.

Subcommands
-----------
greens        reflector Green-tensor traces along the sweep grid
cp-potential  single-atom potential decomposition along the grid
plate-force   slab force decomposition along the grid
fig3          built-in canonical slab experiment with self-checks

Scenario files are JSON (schema below, versioned via "schema_version").
Each scenario subcommand returns named columns of SI values, each
tagged with its unit kind; main alone converts them to the unit system
and writes the CSV.  Output is CSV with RFC-4180-style quoting; every
file starts with a comment block ('#' lines) recording the scenario
hash, unit system, tolerances and, for force output, the closed-form
trace constant, so each artifact carries its own provenance.
Identical scenario files produce byte-identical output.

Exit codes: 0 ok, 2 configuration error (including an --out path that
cannot be written, found before any computation), 3 numerical failure
or failed built-in assertion.

Scenario schema (all frequencies rad/s, lengths m, densities 1/m^3)::

    {
      "schema_version": 1,
      "atom": { ...inline atom model... } | {"file": "atom.json"},
      "reflector": {
        "model": "perfect-electric-mirror" | "perfect-magnetic-mirror"
                 | "drude-lorentz",
        "epsilon_oscillators": [
          {"strength": 1.0, "resonance_rad_s": 1e16,
           "damping_rad_s": 1e14, "sign": "absorbing" | "amplifying"},
          ...],
        "mu_oscillators": [ ... ]
      },
      "sweep": {"z_min_m": 1e-8, "z_max_m": 1e-6, "points": 50,
                "spacing": "linear" | "log"},
      "slab": {"thickness_m": 1e-7, "number_density_m3": 1e20},
      "units": "si" | "reduced",
      "tolerances": {"relative": 1e-9, "sommerfeld_relative": 1e-7,
                     "max_evaluations": 100000}
    }

Numbers must be finite JSON numbers (not strings, true/false or NaN);
"points" and "max_evaluations" are integers, with "points" at most
MAX_SWEEP_POINTS = 10000.  Unknown fields are rejected, and a malformed
field exits 2 naming its JSON path.  The atom model schema is the one
documented at :func:`planarcp.materials.atom_model_from_dict`.

Reduced units (selected with "units": "reduced" or --units reduced) use
the atom's first transition, w0 = |omega_nk|, d0^2 = dipole_sq:

    length     zt = 2 w0 z / c
    potential  U0 = mu0 w0^2 d0^2 / (24 pi)
    force      F0 = mu0 eta w0^3 d0^2 / (12 pi c)
    force/d    F0 * 2 w0 / c
    trace_e    c / w0          trace_m    (c / w0)^3

so that the reduced force is -dU~/dz~ of the reduced potential.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._constants import c as C_LIGHT
from ._constants import mu_0
from .forces import (
    PLATE_FORCE_TRACE_CONSTANT,
    SlabScenario,
    force_decomposition,
    mirror_force_bracket,
)
from .greens import (
    DEFAULT_SOMMERFELD_TOL,
    PlanarGeometry,
    halfspace_green_traces,
)
from .materials import (
    AtomModel,
    LorentzOscillator,
    MaterialResponse,
    atom_model_from_dict,
    config_object,
    config_value,
)
from .potentials import DEFAULT_POTENTIAL_TOL, total_potential
from .quadrature import DEFAULT_MAX_EVALUATIONS, QuadratureConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SCHEMA_VERSION = 1
MAX_SWEEP_POINTS = 10_000

_SCENARIO_KEYS = ("schema_version", "atom", "reflector", "sweep", "slab",
                  "units", "tolerances")
_REFLECTOR_KEYS = ("model", "epsilon_oscillators", "mu_oscillators")
_SLAB_KEYS = ("thickness_m", "number_density_m3")
_OSCILLATOR_KEYS = ("strength", "resonance_rad_s", "damping_rad_s", "sign")
_DEFAULT_TOLERANCES = {
    "relative": DEFAULT_POTENTIAL_TOL,
    "sommerfeld_relative": DEFAULT_SOMMERFELD_TOL,
    "max_evaluations": DEFAULT_MAX_EVALUATIONS,
}


class ScenarioError(ValueError):
    """Scenario file is missing, malformed, or inconsistent, or the
    output file cannot be written."""


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: everything a subcommand needs."""

    atom: AtomModel
    reflector: MaterialResponse
    sweep: tuple[float, ...]
    slab_thickness: float | None
    slab_density: float | None
    units: str
    tolerances: dict
    digest: str


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {what}: {exc}") from exc
    # RecursionError: nesting deeper than the JSON decoder's stack
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{what} is not valid JSON: {exc}") from exc


def _oscillator(entry, where):
    config_object(entry, where, _OSCILLATOR_KEYS)
    fields = [config_value(entry, key, where, float)
              for key in _OSCILLATOR_KEYS[:3]]
    sign = config_value(entry, "sign", where, str, "absorbing")
    if sign not in ("absorbing", "amplifying"):
        raise ScenarioError(
            f"{where}.sign: must be 'absorbing' or 'amplifying'")
    try:
        return LorentzOscillator(*fields, amplifying=sign == "amplifying")
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_sweep(cfg):
    config_object(cfg, "sweep", ("z_min_m", "z_max_m", "points", "spacing"))
    z_min, z_max = (config_value(cfg, key, "sweep", float)
                    for key in ("z_min_m", "z_max_m"))
    points = config_value(cfg, "points", "sweep", int)
    spacing = {"linear": np.linspace, "log": np.geomspace}.get(
        config_value(cfg, "spacing", "sweep", str, "linear"))
    if not 0.0 < z_min < z_max:
        raise ScenarioError(
            f"sweep: need 0 < z_min < z_max, got {z_min}, {z_max}")
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise ScenarioError(f"sweep.points: must be in [2, "
                            f"{MAX_SWEEP_POINTS}], got {points}")
    if spacing is None:
        raise ScenarioError("sweep.spacing: must be 'linear' or 'log'")
    return tuple(float(z) for z in spacing(z_min, z_max, points))


def load_scenario(path, tol_override=None, units_override=None):
    """Load and validate a scenario file, tol_override (a dict) replacing
    entries of its tolerances block; a malformed, non-finite or unknown
    field raises a ScenarioError naming its JSON path."""
    cfg = _read_json(path, "scenario file")
    try:
        return _scenario(cfg, os.path.dirname(os.path.abspath(path)),
                         tol_override, units_override)
    except ValueError as exc:  # config readers and dataclass checks
        raise ScenarioError(str(exc)) from exc


def _scenario(cfg, base, tol_override, units_override):
    config_object(cfg, "scenario", _SCENARIO_KEYS)
    version = config_value(cfg, "schema_version", "", int)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: this build reads version "
                            f"{SCHEMA_VERSION}, got {version}")

    atom_cfg = config_value(cfg, "atom", "", dict)
    if "file" in atom_cfg:
        config_object(atom_cfg, "atom", ("file",))
        atom_cfg = _read_json(os.path.join(
            base, config_value(atom_cfg, "file", "atom", str)), "atom file")
    atom = atom_model_from_dict(atom_cfg)

    refl = config_object(config_value(cfg, "reflector", "", dict),
                         "reflector", _REFLECTOR_KEYS)
    eps, mu = (tuple(_oscillator(entry, f"reflector.{key}[{i}]")
                     for i, entry in enumerate(
                         config_value(refl, key, "reflector", list, [])))
               for key in _REFLECTOR_KEYS[1:])
    reflector = MaterialResponse(
        config_value(refl, "model", "reflector", str), eps, mu)
    sweep = _parse_sweep(config_value(cfg, "sweep", "", dict))

    slab_thickness = slab_density = None
    if "slab" in cfg:
        slab = config_object(config_value(cfg, "slab", "", dict), "slab",
                             _SLAB_KEYS)
        slab_thickness, slab_density = (config_value(slab, key, "slab", float)
                                        for key in _SLAB_KEYS)
        if not (slab_thickness > 0.0 and slab_density > 0.0):
            raise ScenarioError("slab: thickness and density must be > 0")

    units = config_value(cfg, "units", "", str, "si")
    if units not in ("si", "reduced"):
        raise ScenarioError(f"units must be 'si' or 'reduced', got {units!r}")

    given = config_object(config_value(cfg, "tolerances", "", dict, {}),
                          "tolerances", _DEFAULT_TOLERANCES)
    tolerances = {key: config_value(given, key, "tolerances", type(default),
                                    default)
                  for key, default in _DEFAULT_TOLERANCES.items()}
    tolerances.update(tol_override or {})
    for key in ("relative", "sommerfeld_relative"):
        if not 0.0 < tolerances[key] < 1.0:
            raise ScenarioError(f"tolerances.{key}: must be in (0, 1), "
                                f"got {tolerances[key]!r}")
    if tolerances["max_evaluations"] < 1:
        raise ScenarioError("tolerances.max_evaluations: must be >= 1, "
                            f"got {tolerances['max_evaluations']}")

    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]

    return Scenario(atom=atom, reflector=reflector, sweep=sweep,
                    slab_thickness=slab_thickness,
                    slab_density=slab_density,
                    units=units_override or units,
                    tolerances=tolerances, digest=digest)


# --------------------------------------------------------------------------
# unit handling


def _make_units(scenario):
    """Factors from SI to the output unit system, by column kind; the
    kind None marks a column that is never converted."""
    if scenario.units == "si":
        return collections.defaultdict(lambda: 1.0)
    t = scenario.atom.transitions[0]
    w0, d0sq = abs(t.omega_nk), t.dipole_sq
    if d0sq == 0.0:
        raise ScenarioError(
            "reduced units need a nonzero dipole_sq on the atom's first "
            "transition")
    u0 = mu_0 * w0**2 * d0sq / (24.0 * np.pi)
    units = {None: 1.0, "length": 2.0 * w0 / C_LIGHT, "potential": 1.0 / u0,
             "trace_e": C_LIGHT / w0, "trace_m": (C_LIGHT / w0) ** 3}
    if scenario.slab_density is not None:  # force columns need a slab
        f0 = mu_0 * scenario.slab_density * w0**3 * d0sq \
            / (12.0 * np.pi * C_LIGHT)
        units.update(force=1.0 / f0,
                     per_thickness=C_LIGHT / (2.0 * w0 * f0))
    return units


# --------------------------------------------------------------------------
# CSV emission


def _check_writable(out_path):
    """Reject an --out path that cannot be written (None is stdout),
    before any work and without creating or truncating the file."""
    if out_path is None:
        return
    target = os.path.abspath(out_path)
    if not out_path or os.path.isdir(target) or not os.access(
            target if os.path.exists(target) else os.path.dirname(target),
            os.W_OK):
        raise ScenarioError(f"cannot write output file: {out_path!r} is "
                            "empty, a directory or not writable")


def _write_csv(out_path, comments, columns):
    """'#' comment lines, then (name, values) columns; None is stdout."""
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(buf, lineterminator="\n")
    names, values = zip(*columns)
    writer.writerow(names)
    writer.writerows([repr(float(x)) for x in row] for row in zip(*values))
    if out_path is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())


def _provenance(scenario, command):
    tol = scenario.tolerances
    return [
        f"planarcp {command}",
        f"schema_version = {SCHEMA_VERSION}",
        f"scenario_sha256 = {scenario.digest}",
        f"units = {scenario.units}",
        f"relative_tolerance = {tol['relative']!r}",
        f"sommerfeld_relative_tolerance = {tol['sommerfeld_relative']!r}",
        f"max_evaluations = {tol['max_evaluations']}",
    ]


# --------------------------------------------------------------------------
# subcommands: each scenario subcommand is a pure function of the Scenario
# that returns its comment lines after the provenance block and its columns
# as (name, unit kind, SI values); main converts the units and writes them.


def cmd_greens(scenario):
    """Traces at the reference real frequency and on the imaginary axis."""
    w0 = abs(scenario.atom.transitions[0].omega_nk)
    tol = scenario.tolerances
    geometry = PlanarGeometry(scenario.reflector, scenario.sweep[0])
    z = np.array(scenario.sweep)
    # one kernel call per frequency axis for the whole sweep
    real, imag = (halfspace_green_traces(
        geometry, freq, tol["sommerfeld_relative"], tol["max_evaluations"],
        z_atom=z) for freq in (w0, 1j * w0))
    comments = [
        f"reference_frequency_rad_s = {w0!r}",
        "imaginary-axis columns evaluated at xi = reference frequency",
        "trace_e_error bounds the error of re_trace_e and im_trace_e",
    ]
    return comments, [
        ("z", "length", z), ("z_tilde", None, 2.0 * w0 * z / C_LIGHT),
        ("re_trace_e", "trace_e", real.trace_e.real),
        ("im_trace_e", "trace_e", real.trace_e.imag),
        ("trace_e_imag_axis", "trace_e", imag.trace_e),
        ("trace_m_imag_axis", "trace_m", imag.trace_m),
        ("trace_e_error", "trace_e", real.err_e),
        ("trace_e_imag_axis_error", "trace_e", imag.err_e),
        ("trace_m_imag_axis_error", "trace_m", imag.err_m)]


def cmd_cp_potential(scenario):
    """Single-atom potential decomposition along the sweep."""
    tol = scenario.tolerances
    geometry = PlanarGeometry(scenario.reflector, scenario.sweep[0])
    z = np.array(scenario.sweep)
    res = total_potential(scenario.atom, geometry, z_atom=z,
                          rel_tol=tol["relative"],
                          max_evaluations=tol["max_evaluations"])
    return [], [("z", "length", z)] + [
        (name, "potential", getattr(res, name)) for name in (
            "u_nonresonant", "u_resonant", "u_total", "quadrature_error")]


def cmd_plate_force(scenario):
    """Slab force decomposition along the sweep grid."""
    if scenario.slab_thickness is None:
        raise ScenarioError("plate-force needs a 'slab' section")
    tol = scenario.tolerances
    base = SlabScenario(
        z=scenario.sweep[0], d=scenario.slab_thickness,
        eta=scenario.slab_density, atom=scenario.atom,
        geometry=PlanarGeometry(scenario.reflector, scenario.sweep[0]))
    results = force_decomposition(base, scenario.sweep,
                                  rel_tol=tol["relative"],
                                  max_evaluations=tol["max_evaluations"])
    comments = [
        f"closed_form_constant = {PLATE_FORCE_TRACE_CONSTANT!r}",
        f"slab_thickness_m = {scenario.slab_thickness!r}",
        f"slab_density_m3 = {scenario.slab_density!r}",
    ]
    return comments, [("z", "length", scenario.sweep)] + [
        (name, kind, [getattr(r, name) for r in results]) for name, kind in (
            ("f_resonant", "force"), ("f_nonresonant", "force"),
            ("f_total", "force"), ("per_thickness", "per_thickness"),
            ("quadrature_error", "force"))]


# --------------------------------------------------------------------------
# canonical slab experiment

_FIG3_OMEGA = 2.5e15       # rad/s
_FIG3_DIPOLE_SQ = 7.1882e-59  # C^2 m^2, of order (e a_0)^2
_FIG3_DENSITY = 1e20       # 1/m^3
_FIG3_THICKNESS_FACTORS = (0.1, 1.0, 5.0)  # d in units of c / w0
_FIG3_ZT_MIN, _FIG3_ZT_MAX, _FIG3_ZT_STEP = 0.05, 30.0, 0.025


def _fig3_curves():
    """Reduced per-thickness resonant force curves and the single-atom
    force-density curve on the canonical grid.

    In reduced units the slab curve is 2 [W(zt + dt) - W(zt)] / dt with
    W(zt) = bracket(zt)/zt^3 = Re e^{i zt} Q_0(zt), dt = 2 w0 d / c, and
    the single-atom curve is its dt -> 0 limit 2 W'(zt), both read from
    the mirror trace's closed form (mirror_force_bracket).
    """
    n = int(round((_FIG3_ZT_MAX - _FIG3_ZT_MIN) / _FIG3_ZT_STEP)) + 1
    zt = _FIG3_ZT_MIN + _FIG3_ZT_STEP * np.arange(n)

    def w_of(x):
        return mirror_force_bracket(x) / x**3

    curves = {}
    for fac in _FIG3_THICKNESS_FACTORS:
        dt = 2.0 * fac
        curves[fac] = 2.0 * (w_of(zt + dt) - w_of(zt)) / dt
    single = 2.0 * mirror_force_bracket(zt, order=1) / zt**4
    return zt, curves, single


def _sign_change_positions(zt, values, lo, hi):
    mask = (zt >= lo) & (zt <= hi)
    z = zt[mask]
    v = values[mask]
    pos = []
    for i in range(len(v) - 1):
        if v[i] == 0.0:
            pos.append(z[i])
        elif v[i] * v[i + 1] < 0.0:
            # linear interpolation of the crossing
            frac = v[i] / (v[i] - v[i + 1])
            pos.append(z[i] + frac * (z[i + 1] - z[i]))
    return pos


def fig3_summary():
    """Run the canonical-experiment checks; returns (lines, all_ok)."""
    zt, curves, _ = _fig3_curves()
    lines = []
    ok = True

    short = zt < 0.5
    for fac in _FIG3_THICKNESS_FACTORS:
        attracted = bool(np.all(curves[fac][short] < 0.0))
        ok &= attracted
        lines.append(
            f"short-range attraction (zt < 0.5), d = {fac} c/w0: "
            f"{'PASS' if attracted else 'FAIL'}")

    for fac in _FIG3_THICKNESS_FACTORS:
        pos = _sign_change_positions(zt, curves[fac], 5.0, 30.0)
        enough = len(pos) >= 6
        ok &= enough
        lines.append(
            f"sign changes on zt in [5, 30], d = {fac} c/w0: {len(pos)} "
            f"{'PASS' if enough else 'FAIL (need >= 6)'}")
        if len(pos) >= 2:
            spacing = pos[-1] - pos[-2]
            within = abs(spacing / np.pi - 1.0) <= 0.05
            ok &= within
            lines.append(
                f"asymptotic zero spacing, d = {fac} c/w0: "
                f"{spacing:.4f} vs pi "
                f"{'PASS' if within else 'FAIL (need pi +- 5%)'}")

    window = zt >= _FIG3_ZT_MAX - 2.0 * np.pi
    amps = [float(np.max(np.abs(curves[fac][window])))
            for fac in _FIG3_THICKNESS_FACTORS]
    decreasing = all(a > b for a, b in zip(amps, amps[1:]))
    ok &= decreasing
    lines.append(
        "oscillation amplitude decreases with thickness: "
        + " > ".join(f"{a:.4g}" for a in amps)
        + f" {'PASS' if decreasing else 'FAIL'}")
    return lines, ok


def cmd_fig3(out_path):
    """Emit the canonical slab curves and check their shape properties."""
    zt, curves, single = _fig3_curves()
    comments = [
        "planarcp fig3",
        f"schema_version = {SCHEMA_VERSION}",
        "canonical scenario: excited two-level purely electric gas, "
        "perfect electric mirror",
        f"omega_rad_s = {_FIG3_OMEGA!r}",
        f"dipole_sq_C2m2 = {_FIG3_DIPOLE_SQ!r}",
        f"number_density_m3 = {_FIG3_DENSITY!r}",
        f"closed_form_constant = {PLATE_FORCE_TRACE_CONSTANT!r}",
        "units: reduced; per-thickness resonant force in "
        "mu0 eta w0^4 d0^2 / (6 pi c^2), lengths in c / (2 w0)",
        "columns d in units of c / w0",
    ]
    _write_csv(out_path, comments, [("z_tilde", zt)] + [
        (f"per_thickness_d_{fac}", curves[fac])
        for fac in _FIG3_THICKNESS_FACTORS] + [("single_atom", single)])
    lines, ok = fig3_summary()
    for line in lines:
        print(line)
    print(f"fig3 summary: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


# --------------------------------------------------------------------------
# entry point


# scenario subcommands: the function and the tolerance that --tol overrides
_COMMANDS = {"greens": (cmd_greens, "sommerfeld_relative"),
             "cp-potential": (cmd_cp_potential, "relative"),
             "plate-force": (cmd_plate_force, "relative")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="planarcp",
        description="Casimir-Polder potentials near planar reflectors and "
                    "Casimir forces on dilute slabs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_COMMANDS, "fig3"]:
        p = sub.add_parser(name)
        if name in _COMMANDS:
            p.add_argument("--scenario", required=True,
                           help="path to the scenario JSON file")
            p.add_argument("--tol", type=float, default=None,
                           help=f"override tolerances.{_COMMANDS[name][1]}")
            p.add_argument("--units", choices=("si", "reduced"),
                           default=None, help="override the unit system")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_writable(args.out)
        if args.command == "fig3":
            return cmd_fig3(args.out)
        command, tol_key = _COMMANDS[args.command]
        tol = None if args.tol is None else {tol_key: args.tol}
        scenario = load_scenario(args.scenario, tol, args.units)
        units = _make_units(scenario)  # before any library call
        comments, columns = command(scenario)
        _write_csv(args.out, _provenance(scenario, args.command) + comments,
                   [(name, np.asarray(values) * units[kind])
                    for name, kind, values in columns])
        return EXIT_OK
    # first: a non-finite integrand is a QuadratureConvergenceError that
    # is also a ValueError, and a numerical failure
    except QuadratureConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ScenarioError; a failed write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
