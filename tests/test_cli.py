"""CLI: scenario handling, CSV provenance, units, exit codes."""

import ast
import copy
import csv
import json
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT
from scipy.constants import mu_0

import planarcp.cli as cli_module
import planarcp.greens as greens_module
import planarcp.potentials as potentials_module
from planarcp import (
    DEFAULT_MAX_EVALUATIONS,
    DEFAULT_POTENTIAL_TOL,
    DEFAULT_SOMMERFELD_TOL,
    PlanarGeometry,
    force_decomposition,
    halfspace_green_traces,
    mirror_green_components,
    total_potential,
)
from planarcp.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_SWEEP_POINTS,
    Scenario,
    ScenarioError,
    load_scenario,
    main,
)
from planarcp.forces import PLATE_FORCE_TRACE_CONSTANT
from planarcp.materials import (
    AtomModel,
    MaterialResponse,
    atom_model_from_dict,
    atom_model_to_dict,
)

from conftest import D2, ETA, W10, zt_to_z


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "atom": {
            "state_label": "excited",
            "transitions": [
                {"omega_nk_rad_s": W10, "dipole_sq_C2m2": D2},
            ],
        },
        "reflector": {"model": "perfect-electric-mirror"},
        "sweep": {"z_min_m": zt_to_z(0.05), "z_max_m": zt_to_z(0.5),
                  "points": 6, "spacing": "linear"},
        "slab": {"thickness_m": 0.5 * C_LIGHT / W10,
                 "number_density_m3": ETA},
        "units": "si",
        "tolerances": {"relative": 1e-9},
    }
    cfg.update(overrides)
    return cfg


def with_leaf(path, value, cfg=None):
    """A copy of `cfg` (default base_config()) with the node at `path`,
    a sequence of keys and list indices, replaced by `value`."""
    cfg = copy.deepcopy(cfg or base_config())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def reflector_config(material):
    """Scenario "reflector" section of an absorbing MaterialResponse."""
    return {"model": material.model, "epsilon_oscillators": [
        {"strength": o.strength, "resonance_rad_s": o.resonance,
         "damping_rad_s": o.damping} for o in material.eps_oscillators]}


@pytest.fixture
def write_scenario(tmp_path):
    def write(name="scenario.json", **overrides):
        path = tmp_path / name
        path.write_text(json.dumps(base_config(**overrides)))
        return str(path)
    return write


def read_csv(path):
    comments = []
    with open(path, newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                rows.append(line)
    parsed = list(csv.DictReader(rows))
    data = {k: np.array([float(r[k]) for r in parsed])
            for k in parsed[0].keys()}
    return comments, data


def test_scenario_annotations_resolve():
    # every annotated field names a type the cli module imports
    hints = typing.get_type_hints(Scenario)
    assert hints["atom"] is AtomModel
    assert hints["reflector"] is MaterialResponse


class TestGreensCommand:
    def test_pec_passthrough(self, write_scenario, tmp_path):
        out = tmp_path / "greens.csv"
        assert main(["greens", "--scenario", write_scenario(),
                     "--out", str(out)]) == EXIT_OK
        comments, data = read_csv(out)
        assert any("scenario_sha256" in c for c in comments)
        for i, z in enumerate(data["z"]):
            gxx, _, gzz = mirror_green_components(z, W10)
            trace = 2.0 * gxx + gzz
            assert data["re_trace_e"][i] == pytest.approx(trace.real,
                                                          rel=1e-12)
            assert data["im_trace_e"][i] == pytest.approx(trace.imag,
                                                          rel=1e-12)
            gi = mirror_green_components(z, 1j * W10)
            assert data["trace_e_imag_axis"][i] == pytest.approx(
                (2.0 * gi[0] + gi[2]).real, rel=1e-12)
            assert data["z_tilde"][i] == pytest.approx(
                2.0 * W10 * z / C_LIGHT, rel=1e-14)

    def test_vacuum_reflector_emits_zero_traces(self, write_scenario,
                                                tmp_path):
        out = tmp_path / "vac.csv"
        path = write_scenario(reflector={"model": "drude-lorentz"})
        assert main(["greens", "--scenario", path,
                     "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out)
        for col in ("re_trace_e", "im_trace_e", "trace_e_imag_axis",
                    "trace_m_imag_axis", "trace_e_error",
                    "trace_e_imag_axis_error", "trace_m_imag_axis_error"):
            assert np.all(data[col] == 0.0)

    def test_one_error_column_per_trace(self, write_scenario, tmp_path,
                                        lossy_halfspace):
        out = tmp_path / "hs.csv"
        path = write_scenario("hs.json",
                              reflector=reflector_config(lossy_halfspace))
        assert main(["greens", "--scenario", path,
                     "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out)
        assert "error_estimate" not in data
        trace_e = np.hypot(data["re_trace_e"], data["im_trace_e"])
        for trace, err in ((trace_e, "trace_e_error"),
                           (data["trace_e_imag_axis"],
                            "trace_e_imag_axis_error"),
                           (data["trace_m_imag_axis"],
                            "trace_m_imag_axis_error")):
            assert np.all((data[err] > 0.0) & (data[err] < np.abs(trace)))
        for i, z in enumerate(data["z"]):
            tr = halfspace_green_traces(PlanarGeometry(lossy_halfspace, z),
                                        1j * W10)
            assert data["trace_m_imag_axis_error"][i] == tr.err_m

    @pytest.mark.parametrize("reflector", ["pec", "lossy_halfspace"])
    def test_one_kernel_call_per_axis(self, request, monkeypatch,
                                      write_scenario, tmp_path, reflector):
        # the whole sweep is one real-axis and one imaginary-axis kernel
        # call; each row agrees with the point's own traces within the
        # row's error and the point's (0 for the mirror: the same bits)
        material = request.getfixturevalue(reflector)
        calls = []
        for name in ("_trace_e_real_axis", "_trace_e_imag_axis"):
            kernel = getattr(greens_module, name)
            monkeypatch.setattr(
                greens_module, name, lambda *a, _k=kernel, _n=name, **kw:
                calls.append(_n) or _k(*a, **kw))
        out = tmp_path / "sweep.csv"
        config = ({} if reflector == "pec"
                  else {"reflector": reflector_config(material)})
        assert main(["greens", "--scenario", write_scenario(**config),
                     "--out", str(out)]) == EXIT_OK
        assert sorted(calls) == ["_trace_e_imag_axis", "_trace_e_real_axis"]
        _, data = read_csv(out)
        for i, z in enumerate(data["z"]):
            geo = PlanarGeometry(material, z)
            tr_w = halfspace_green_traces(geo, W10)
            tr_ix = halfspace_green_traces(geo, 1j * W10)
            for got, want, err, want_err in (
                    (data["re_trace_e"][i], tr_w.trace_e.real,
                     data["trace_e_error"][i], tr_w.err_e),
                    (data["im_trace_e"][i], tr_w.trace_e.imag,
                     data["trace_e_error"][i], tr_w.err_e),
                    (data["trace_e_imag_axis"][i], tr_ix.trace_e,
                     data["trace_e_imag_axis_error"][i], tr_ix.err_e),
                    (data["trace_m_imag_axis"][i], tr_ix.trace_m,
                     data["trace_m_imag_axis_error"][i], tr_ix.err_m)):
                assert abs(got - want) <= err + want_err

    def test_big_eps_halfspace_matches_pec_sweep(self, write_scenario,
                                                 tmp_path):
        # near-field sweep: the eps = 1e8 half-space reproduces the
        # perfect-mirror columns to 1e-4 (mirror-limit oracle)
        reflector = {"model": "drude-lorentz", "epsilon_oscillators": [
            {"strength": 1e8, "resonance_rad_s": 1e3 * W10,
             "damping_rad_s": 1e-3 * W10, "sign": "absorbing"},
        ]}
        out_hs = tmp_path / "hs.csv"
        out_pec = tmp_path / "pec.csv"
        assert main(["greens", "--scenario",
                     write_scenario("hs.json", reflector=reflector),
                     "--out", str(out_hs)]) == EXIT_OK
        assert main(["greens", "--scenario", write_scenario("pec.json"),
                     "--out", str(out_pec)]) == EXIT_OK
        _, hs = read_csv(out_hs)
        _, pec = read_csv(out_pec)
        # the real-frequency trace deviates from the mirror limit in
        # proportion to its complex magnitude; at small zt the Im column
        # is a cancellation-level remainder, so each row is compared
        # against that magnitude rather than against the column alone
        row_scale = np.hypot(pec["re_trace_e"], pec["im_trace_e"])
        for col in ("re_trace_e", "im_trace_e"):
            assert np.all(np.abs(hs[col] - pec[col]) <= 1e-4 * row_scale)
        assert np.all(np.abs(hs["trace_e_imag_axis"]
                             - pec["trace_e_imag_axis"])
                      <= 1e-4 * np.abs(pec["trace_e_imag_axis"]))
        # the curl-curl trace of an electric-response wall approaches the
        # mirror limit only as 2<v>/sqrt(eps) with <v> ~ 3/zt: the
        # electrostatic image of a magnetic mirror has no counterpart in
        # a large-eps material.  Oracle-frozen bound for this sweep.
        dev_m = np.abs(hs["trace_m_imag_axis"] / pec["trace_m_imag_axis"]
                       - 1.0)
        assert np.all(dev_m <= 2e-2)
        assert np.all(np.diff(dev_m) < 0.0)  # improves away from the wall


class TestPotentialCommand:
    def test_matches_api(self, write_scenario, tmp_path, excited_atom,
                         pec):
        out = tmp_path / "cp.csv"
        assert main(["cp-potential", "--scenario", write_scenario(),
                     "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out)
        for i, z in enumerate(data["z"]):
            res = total_potential(excited_atom, PlanarGeometry(pec, z))
            assert data["u_nonresonant"][i] == pytest.approx(
                res.u_nonresonant, rel=1e-9)
            assert data["u_resonant"][i] == pytest.approx(
                res.u_resonant, rel=1e-12)
            assert data["u_total"][i] == pytest.approx(res.u_total,
                                                       rel=1e-9)

    @pytest.mark.parametrize("reflector", ["pmc", "lossy_halfspace"])
    def test_whole_sweep_matches_points(self, request, write_scenario,
                                        tmp_path, magnetoelectric_atom,
                                        reflector):
        # each part is taken once over the whole sweep: mirror rows equal
        # the per-point potentials exactly, half-space rows within their
        # errors (the resonant distances share Sommerfeld partitions)
        material = request.getfixturevalue(reflector)
        out = tmp_path / "cp.csv"
        path = write_scenario(atom=atom_model_to_dict(magnetoelectric_atom),
                              reflector=reflector_config(material),
                              tolerances={"relative": 1e-6})
        assert main(["cp-potential", "--scenario", path,
                     "--out", str(out)]) == EXIT_OK
        _, data = read_csv(out)
        for i, z in enumerate(data["z"]):
            res = total_potential(magnetoelectric_atom,
                                  PlanarGeometry(material, z), rel_tol=1e-6)
            row = (data["u_nonresonant"][i], data["u_resonant"][i],
                   data["u_total"][i], data["quadrature_error"][i])
            if material.is_perfect_mirror:
                assert row == (res.u_nonresonant, res.u_resonant,
                               res.u_total, res.quadrature_error)
            else:
                assert abs(row[2] - res.u_total) <= row[3]


class TestPlateForceCommand:
    def test_matches_api_and_records_constant(self, write_scenario,
                                              tmp_path, excited_atom, pec):
        out = tmp_path / "force.csv"
        path = write_scenario()
        assert main(["plate-force", "--scenario", path,
                     "--out", str(out)]) == EXIT_OK
        comments, data = read_csv(out)
        assert any(f"closed_form_constant = {PLATE_FORCE_TRACE_CONSTANT!r}"
                   in c for c in comments)
        cfg = json.loads(open(path).read())
        atom = atom_model_from_dict(cfg["atom"])
        from planarcp import SlabScenario
        sc = SlabScenario(z=data["z"][0], d=cfg["slab"]["thickness_m"],
                          eta=cfg["slab"]["number_density_m3"], atom=atom,
                          geometry=PlanarGeometry(pec, data["z"][0]))
        results = force_decomposition(sc, list(data["z"]))
        for i, r in enumerate(results):
            assert data["f_resonant"][i] == pytest.approx(r.f_resonant,
                                                          rel=1e-10)
            assert data["f_total"][i] == pytest.approx(r.f_total, rel=1e-9)
            assert data["per_thickness"][i] == pytest.approx(
                r.per_thickness, rel=1e-9)

    def test_requires_slab_section(self, tmp_path):
        cfg = base_config()
        del cfg["slab"]
        path = tmp_path / "noslab.json"
        path.write_text(json.dumps(cfg))
        assert main(["plate-force", "--scenario", str(path)]) == EXIT_CONFIG


class TestAtomFileReference:
    def test_atom_loaded_relative_to_scenario(self, tmp_path):
        atom_cfg = base_config()["atom"]
        (tmp_path / "atom.json").write_text(json.dumps(atom_cfg))
        cfg = base_config(atom={"file": "atom.json"})
        scenario = tmp_path / "scen.json"
        scenario.write_text(json.dumps(cfg))
        out_ref = tmp_path / "ref.csv"
        out_inline = tmp_path / "inline.csv"
        assert main(["cp-potential", "--scenario", str(scenario),
                     "--out", str(out_ref)]) == EXIT_OK
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps(base_config()))
        assert main(["cp-potential", "--scenario", str(inline),
                     "--out", str(out_inline)]) == EXIT_OK
        _, ref = read_csv(out_ref)
        _, direct = read_csv(out_inline)
        for col in ref:
            assert np.array_equal(ref[col], direct[col])

    def test_missing_atom_file(self, tmp_path):
        cfg = base_config(atom={"file": "absent.json"})
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(cfg))
        assert main(["cp-potential", "--scenario", str(path)]) == EXIT_CONFIG


class TestUnits:
    def test_reduced_round_trip(self, write_scenario, tmp_path):
        out_si = tmp_path / "si.csv"
        out_red = tmp_path / "red.csv"
        path = write_scenario()
        assert main(["plate-force", "--scenario", path, "--units", "si",
                     "--out", str(out_si)]) == EXIT_OK
        assert main(["plate-force", "--scenario", path, "--units",
                     "reduced", "--out", str(out_red)]) == EXIT_OK
        _, si = read_csv(out_si)
        _, red = read_csv(out_red)
        # documented conversion factors
        f0 = mu_0 * ETA * W10**3 * D2 / (12.0 * np.pi * C_LIGHT)
        length = 2.0 * W10 / C_LIGHT
        for i in range(len(si["z"])):
            assert red["z"][i] / length == pytest.approx(si["z"][i],
                                                         rel=1e-12)
            assert red["f_total"][i] * f0 == pytest.approx(si["f_total"][i],
                                                           rel=1e-12)
            assert red["per_thickness"][i] * f0 * length \
                == pytest.approx(si["per_thickness"][i], rel=1e-12)

    def test_determinism_byte_identical(self, write_scenario, tmp_path):
        path = write_scenario()
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["cp-potential", "--scenario", path,
                         "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tol_flag_recorded(self, write_scenario, tmp_path):
        out = tmp_path / "tol.csv"
        assert main(["cp-potential", "--scenario", write_scenario(),
                     "--tol", "1e-6", "--out", str(out)]) == EXIT_OK
        comments, _ = read_csv(out)
        assert any("relative_tolerance = 1e-06" in c for c in comments)

    def test_tolerances_default_to_the_library_constants(self, tmp_path):
        # a scenario without a tolerances block runs at the library's
        # defaults; the CLI keeps no copy of its own
        cfg = base_config()
        del cfg["tolerances"]
        path = tmp_path / "defaults.json"
        path.write_text(json.dumps(cfg))
        assert load_scenario(str(path)).tolerances == {
            "relative": DEFAULT_POTENTIAL_TOL,
            "sommerfeld_relative": DEFAULT_SOMMERFELD_TOL,
            "max_evaluations": DEFAULT_MAX_EVALUATIONS,
        }


# every field of the schema set once
_FULL_CONFIG = base_config(
    atom={"state_label": "excited", "transitions": [
        {"omega_nk_rad_s": W10, "dipole_sq_C2m2": D2,
         "magnetic_sq_A2m4": 1e-44}]},
    reflector={"model": "drude-lorentz", "epsilon_oscillators": [
        {"strength": 1.0, "resonance_rad_s": W10,
         "damping_rad_s": 0.1 * W10, "sign": "amplifying"}],
        "mu_oscillators": [{"strength": 0.5, "resonance_rad_s": 2.0 * W10,
                            "damping_rad_s": 0.2 * W10}]},
    tolerances={"relative": 1e-9, "sommerfeld_relative": 1e-7,
                "max_evaluations": 1000})


def _node_paths(node, path=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_NODE_PATHS = list(_node_paths(_FULL_CONFIG))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path):
        assert main(["greens", "--scenario",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["greens", "--scenario", str(path)]) == EXIT_CONFIG

    def test_wrong_schema_version(self, write_scenario):
        assert main(["greens", "--scenario",
                     write_scenario(schema_version=99)]) == EXIT_CONFIG

    def test_bad_sweep(self, write_scenario):
        path = write_scenario(sweep={"z_min_m": 1e-6, "z_max_m": 1e-7,
                                     "points": 5})
        assert main(["greens", "--scenario", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("section, key, value", [
        ("slab", "thickness_m", float("inf")),
        ("slab", "number_density_m3", float("nan")),
        ("sweep", "z_min_m", float("-inf")),
        ("sweep", "z_max_m", float("inf")),
    ])
    def test_non_finite_sizes_are_configuration_errors(
            self, write_scenario, section, key, value):
        # a slab thickness of Infinity once reached the quadrature and
        # exited as a non-finite integrand
        section_cfg = dict(base_config()[section], **{key: value})
        path = write_scenario(**{section: section_cfg})
        assert main(["plate-force", "--scenario", path]) == EXIT_CONFIG

    def test_bad_oscillator_sign(self, write_scenario):
        reflector = {"model": "drude-lorentz", "epsilon_oscillators": [
            {"strength": 1.0, "resonance_rad_s": W10,
             "damping_rad_s": 0.1 * W10, "sign": "gainy"},
        ]}
        assert main(["greens", "--scenario",
                     write_scenario(reflector=reflector)]) == EXIT_CONFIG

    @pytest.mark.parametrize("cfg, message", [
        pytest.param([base_config()], "scenario: expected an object",
                     id="list"),
        pytest.param(base_config(reflector={
            "model": "drude-lorentz", "epsilon_oscillators": [3]}),
            "reflector.epsilon_oscillators[0]: expected an object",
            id="oscillator"),
        pytest.param(base_config(tolerances=[1, 2]),
                     "tolerances: expected an object", id="tolerance-list"),
        pytest.param(base_config(tolerances={"relative": "tight"}),
                     "tolerances.relative: expected a finite number",
                     id="relative-string"),
        pytest.param(base_config(tolerances={"relative": 1.5}),
                     "tolerances.relative: must be in (0, 1)",
                     id="relative-above-one"),
        pytest.param(base_config(tolerances={"sommerfeld_relative": True}),
                     "tolerances.sommerfeld_relative: expected a finite",
                     id="sommerfeld-bool"),
        pytest.param(base_config(tolerances={"max_evaluations": "many"}),
                     "tolerances.max_evaluations: expected an integer",
                     id="budget-string"),
        pytest.param(base_config(tolerances={"max_evaluations": 0}),
                     "tolerances.max_evaluations: must be >= 1",
                     id="budget-zero"),
        pytest.param(with_leaf(("atom", "transitions", 0), 3),
                     "atom.transitions[0]: expected an object",
                     id="transition"),
        pytest.param(with_leaf(("slab", "thickness_m"), [1e-7]),
                     "slab.thickness_m: expected a finite number",
                     id="thickness-list"),
        pytest.param(with_leaf(("atom", "transitions", 0, "omega_nk_rad_s"),
                               [W10]),
                     "atom.transitions[0].omega_nk_rad_s: expected a finite",
                     id="omega-list"),
        pytest.param(with_leaf(("sweep", "points"), [3]),
                     "sweep.points: expected an integer", id="points-list"),
        pytest.param(with_leaf(("sweep", "z_min_m"), None),
                     "sweep.z_min_m: expected a finite number, got None",
                     id="z-min-null"),
        pytest.param(with_leaf(("sweep", "points"), float("inf")),
                     "sweep.points: expected an integer",
                     id="points-infinite"),
        pytest.param(with_leaf(("sweep", "points"), 3.7),
                     "sweep.points: expected an integer, got 3.7",
                     id="points-fraction"),
        pytest.param(with_leaf(("sweep", "points"), 1e12),
                     "sweep.points: expected an integer",
                     id="points-float-huge"),
        pytest.param(with_leaf(("sweep", "points"), 10**12),
                     f"sweep.points: must be in [2, {MAX_SWEEP_POINTS}]",
                     id="points-above-cap"),
        pytest.param(with_leaf(("sweep", "z_min_m"), "6e-9"),
                     "sweep.z_min_m: expected a finite number, got '6e-9'",
                     id="z-min-string"),
        pytest.param(with_leaf(("atom", "transitions", 0, "omega_nk_rad_s"),
                               True),
                     "atom.transitions[0].omega_nk_rad_s: expected a finite",
                     id="omega-bool"),
        pytest.param(with_leaf(("atom", "transitions", 0, "dipole_sq_C2m2"),
                               float("nan")),
                     "atom.transitions[0].dipole_sq_C2m2: expected a finite",
                     id="dipole-nan"),
        pytest.param(with_leaf(("atom", "transitions", 0, "dipole_sq_C2m2"),
                               -D2),
                     "atom.transitions[0]: squared matrix elements",
                     id="dipole-negative"),
        pytest.param(with_leaf(("atom", "state_label"), 3),
                     "atom.state_label: expected a string",
                     id="state-label-number"),
        pytest.param(base_config(reflector={
            "model": "drude-lorentz", "epsilon_oscillators": [
                {"strength": "1.0", "resonance_rad_s": W10,
                 "damping_rad_s": 0.1 * W10}]}),
            "reflector.epsilon_oscillators[0].strength: expected a finite",
            id="strength-string"),
        pytest.param(base_config(reflector={
            "model": "drude-lorentz", "mu_oscillators": [
                {"strength": 1.0, "resonance_rad_s": W10,
                 "damping_rad_s": float("inf")}]}),
            "reflector.mu_oscillators[0].damping_rad_s: expected a finite",
            id="damping-infinite"),
        pytest.param(base_config(tolerance={"relative": 1e-6}),
                     "scenario: unknown fields ['tolerance']",
                     id="tolerances-misspelt"),
        pytest.param(with_leaf(("sweep", "step"), 2),
                     "sweep: unknown fields ['step']", id="sweep-unknown"),
        pytest.param(base_config(schema_version=1.0),
                     "schema_version: expected an integer",
                     id="schema-version-float"),
        pytest.param(base_config(schema_version=True),
                     "schema_version: expected an integer",
                     id="schema-version-bool"),
    ])
    def test_malformed_shapes_are_configuration_errors(self, tmp_path,
                                                       capsys, cfg,
                                                       message):
        # rejected while parsing with one error line naming the JSON path;
        # once these escaped as a traceback (exit 1), ran on converted or
        # default values (exit 0), or failed in the quadrature (exit 3)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert main(["cp-potential", "--scenario", str(path)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("atom_file", [False, True],
                             ids=["inline", "atom-file"])
    def test_deep_nesting_is_a_configuration_error(self, tmp_path, capsys,
                                                   atom_file):
        # the JSON decoder raises RecursionError, once a traceback (exit 1)
        path = tmp_path / "scenario.json"
        deep = "[" * 100_000
        if atom_file:
            (tmp_path / "atom.json").write_text(deep)
            path.write_text(json.dumps(base_config(atom={"file": "atom.json"})))
        else:
            path.write_text(deep)
        assert main(["cp-potential", "--scenario", str(path)]) \
            == EXIT_CONFIG
        assert "is not valid JSON" in capsys.readouterr().err

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_replaced_node_loads_or_is_rejected(self, tmp_path_factory,
                                                    data):
        # one node of a valid scenario, a leaf or a whole section, becomes
        # an arbitrary JSON value: the scenario still loads or is rejected
        # as a configuration error, never with another exception
        path = data.draw(st.sampled_from(_NODE_PATHS))
        value = data.draw(_JSON_VALUES)
        scenario = tmp_path_factory.getbasetemp() / "replaced-node.json"
        scenario.write_text(json.dumps(with_leaf(path, value, _FULL_CONFIG)))
        try:
            assert isinstance(load_scenario(str(scenario)), Scenario)
        except ScenarioError:
            pass

    def test_numerical_failure_exit_code(self, write_scenario):
        # starve the quadrature budget on a half-space evaluation
        reflector = {"model": "drude-lorentz", "epsilon_oscillators": [
            {"strength": 2.0, "resonance_rad_s": W10,
             "damping_rad_s": 0.2 * W10, "sign": "absorbing"},
        ]}
        path = write_scenario(reflector=reflector,
                              tolerances={"relative": 1e-9,
                                          "sommerfeld_relative": 1e-12,
                                          "max_evaluations": 60})
        assert main(["greens", "--scenario", path]) == EXIT_NUMERICAL

    def test_non_finite_integrand_exit_code(self, write_scenario,
                                            monkeypatch):
        # a non-finite integrand is a numerical failure, not bad input
        monkeypatch.setattr(potentials_module, "_response_ixi",
                            lambda atom, xi, magnetic=False:
                            np.full_like(xi, np.nan))
        assert main(["cp-potential", "--scenario",
                     write_scenario()]) == EXIT_NUMERICAL


class TestFig3Command:
    def test_runs_and_passes_self_checks(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "fig3 summary: PASS" in printed
        assert "FAIL" not in printed.replace("PASS/FAIL", "")
        comments, data = read_csv(out)
        assert any("closed_form_constant" in c for c in comments)
        assert set(data.keys()) == {
            "z_tilde", "per_thickness_d_0.1", "per_thickness_d_1.0",
            "per_thickness_d_5.0", "single_atom"}
        # short range attractive in every thickness column
        short = data["z_tilde"] < 0.5
        for col in ("per_thickness_d_0.1", "per_thickness_d_1.0",
                    "per_thickness_d_5.0"):
            assert np.all(data[col][short] < 0.0)


class TestPublicNamesOnly:
    def test_cli_uses_no_private_name_of_another_module(self):
        # cli is a client of the package's public API: no underscored
        # name imported from another planarcp module, nor reached as an
        # attribute of one
        tree = ast.parse(Path(cli_module.__file__).read_text())
        imported, private = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.startswith("planarcp")):
                for alias in node.names:
                    imported.add(alias.asname or alias.name)
                    if alias.name.startswith("_"):
                        private.append(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names
                                if alias.name.startswith("planarcp"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in imported \
                    and node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
        assert private == []
