"""The package surface: the union of the modules' public names, the
physical constants and the runtime's imports."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

import planarcp
from planarcp import _constants
from planarcp import forces, greens, materials, potentials, quadrature


def test_package_exports_the_module_all_lists():
    names = planarcp.__all__
    assert len(names) == len(set(names))
    modules = (forces, greens, materials, potentials, quadrature)
    assert set(names) == {"__version__"}.union(
        *(module.__all__ for module in modules))
    for name in names:
        assert hasattr(planarcp, name), name
    # raised to users by every integrator; the one default budget
    from planarcp import DEFAULT_MAX_EVALUATIONS, NonFiniteIntegrandError
    assert NonFiniteIntegrandError is quadrature.NonFiniteIntegrandError
    assert DEFAULT_MAX_EVALUATIONS == 100_000


def test_constants_are_codata_2022_as_scipy_gives_them():
    # the package carries c, mu_0, hbar and epsilon_0 as CODATA 2022
    # literals, bit for bit the values of scipy.constants; a scipy with
    # another CODATA edition fails here
    for name in ("c", "mu_0", "hbar", "epsilon_0"):
        assert (getattr(_constants, name)
                == getattr(scipy.constants, name)), name


def test_import_loads_no_scipy():
    # the runtime needs numpy only: a fresh interpreter that imports the
    # package and its command line has no scipy module
    src = Path(planarcp.__file__).resolve().parents[1]
    code = ("import json, sys, planarcp, planarcp.cli; print(json.dumps("
            "[planarcp.__file__, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))]))")
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    where, loaded = json.loads(run.stdout)
    assert Path(where).resolve().parent == src / "planarcp"
    assert loaded == []


def test_benchmark_tracer_wraps_every_target_and_leaves_none(monkeypatch):
    # perfbench's tracer wraps the public functions it names; a name gone
    # from planarcp fails here rather than in a benchmark run
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import planarcp.cli  # noqa: F401  (the tracer wraps cli.main too)
    import tracing

    def resolve(path):
        owner = planarcp
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return vars(owner)[name] if isinstance(owner, type) \
            else getattr(owner, name)

    def bindings():
        owners = [m for name, m in sys.modules.items()
                  if name == "planarcp" or name.startswith("planarcp.")]
        owners.append(materials.MaterialResponse)
        return [value for owner in owners for value in vars(owner).values()]

    originals = [resolve(path) for _, path in tracing.TARGETS]
    tracer = tracing.Tracer(planarcp)
    tracer.install()
    try:
        for _, path in tracing.TARGETS:
            assert getattr(resolve(path), "__traced__", False), path
        # no module keeps an unwrapped binding of a traced function
        assert not any(value is original for value in bindings()
                       for original in originals)
    finally:
        tracer.remove()
    assert [resolve(path) for _, path in tracing.TARGETS] == originals
    assert not any(getattr(value, "__traced__", False)
                   for value in bindings())


def test_no_private_function_takes_an_evaluation_budget():
    # below the public functions a tolerance and a budget travel as one
    # quadrature._Request: no function of the package whose name starts
    # with an underscore, nested ones included, takes max_evaluations
    src = Path(planarcp.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) \
                    and node.name.startswith("_") \
                    and "max_evaluations" in {
                        a.arg for a in ast.walk(node.args)
                        if isinstance(a, ast.arg)}:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []



# every public function that integrates: its request is checked before
# any other work, on every reflector and for every atom, whether or not
# an integral runs
INTEGRATING = (
    "nonresonant_potential", "resonant_potential", "total_potential",
    "halfspace_green_traces", "d_dz_traces", "plate_force_quadrature",
    "force_decomposition", "integrate_finite", "integrate_semi_infinite",
)


def _parameters(name):
    return set(inspect.signature(getattr(planarcp, name)).parameters)


def test_the_integrating_functions_are_the_ones_with_a_request():
    assert set(INTEGRATING) == {
        name for name in planarcp.__all__
        if inspect.isfunction(getattr(planarcp, name))
        and {"rel_tol", "tol", "max_evaluations"} & _parameters(name)}


@pytest.mark.parametrize("tol, budget", [(5.0, 1000), (float("nan"), 1000),
                                         (1e-6, 0)])
@pytest.mark.parametrize("atom", ["ground_atom", "excited_atom"])
def test_every_integrating_function_checks_its_request_first(
        request, monkeypatch, pec, atom, tol, budget):
    def unreachable(*args):
        raise AssertionError("the quadrature rule was reached")

    monkeypatch.setattr(quadrature, "_gk15", unreachable)
    atom = request.getfixturevalue(atom)
    geo = planarcp.PlanarGeometry(pec, 1e-7)
    slab = planarcp.SlabScenario(1e-7, 1e-7, 1e20, atom, geo)
    args = {
        "nonresonant_potential": (atom, geo),
        "resonant_potential": (atom, geo),
        "total_potential": (atom, geo),
        "halfspace_green_traces": (geo, 1e15),
        "d_dz_traces": (geo, 1e15),
        "plate_force_quadrature": (slab,),
        "force_decomposition": (slab, [1e-7, 2e-7]),
        # a zero-width interval needs no integral
        "integrate_finite": (np.sin, 1.0, 1.0),
        "integrate_semi_infinite": (lambda x: np.exp(-x),),
    }
    message = ("relative tolerance must be in" if budget
               else "evaluation budget must be >= 1")
    for name in INTEGRATING:
        tol_name = "tol" if "tol" in _parameters(name) else "rel_tol"
        with pytest.raises(ValueError, match=message):
            getattr(planarcp, name)(*args[name], **{
                tol_name: tol, "max_evaluations": budget})
