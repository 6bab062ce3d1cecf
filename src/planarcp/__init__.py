"""Casimir-Polder potentials of magnetoelectric atoms near planar
reflectors, and the Casimir force on a dilute amplifying slab.

The package is organised along the computation chain:

- :mod:`planarcp.materials`  atomic response (polarisability,
  magnetisability, resonant line weights) and reflector materials
- :mod:`planarcp.greens`     coincident-point scattering Green-tensor
  traces for the planar geometries
- :mod:`planarcp.quadrature` adaptive integration with certified errors
- :mod:`planarcp.potentials` resonant + nonresonant single-atom
  potentials and the duality transform
- :mod:`planarcp.forces`     slab forces, closed form and quadrature
- :mod:`planarcp.cli`        scenario files, sweeps, CSV output

All functions are pure; values are immutable and freely shareable
across threads.

Each module's ``__all__`` is its public surface; the package exports
their union.
"""

from . import forces, greens, materials, potentials, quadrature
from .forces import *  # noqa: F401,F403
from .greens import *  # noqa: F401,F403
from .materials import *  # noqa: F401,F403
from .potentials import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*forces.__all__, *greens.__all__, *materials.__all__,
           *potentials.__all__, *quadrature.__all__, "__version__"]
