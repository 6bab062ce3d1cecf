"""The package surface: the union of the modules' public names, the
physical constants and the runtime's imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
