"""The package surface: the union of the modules' public names."""

import planarcp
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
