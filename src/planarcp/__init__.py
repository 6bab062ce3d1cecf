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
"""

from .forces import (
    PLATE_FORCE_TRACE_CONSTANT,
    ForceResult,
    SlabScenario,
    force_decomposition,
    mirror_force_bracket,
    plate_force_closed_form,
    plate_force_quadrature,
)
from .greens import (
    GreenTrace,
    PlanarGeometry,
    d_dz_traces,
    halfspace_green_traces,
    mirror_curlcurl_trace,
    mirror_green_components,
    mirror_trace_e,
)
from .materials import (
    AtomModel,
    DiluteLimitWarning,
    LorentzOscillator,
    MaterialResponse,
    ResonantLine,
    Transition,
    atom_model_from_dict,
    atom_model_to_dict,
    clausius_mossotti,
    load_atom_model,
    magnetizability,
    polarizability,
    resonant_weights,
)
from .potentials import (
    PotentialResult,
    duality_transform,
    nonresonant_potential,
    resonant_potential,
    total_potential,
)
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureResult,
    integrate_batch,
    integrate_finite,
    integrate_semi_infinite,
)

__version__ = "0.1.0"

__all__ = [
    "AtomModel",
    "DiluteLimitWarning",
    "ForceResult",
    "GreenTrace",
    "LorentzOscillator",
    "MaterialResponse",
    "PLATE_FORCE_TRACE_CONSTANT",
    "PlanarGeometry",
    "PotentialResult",
    "QuadratureConvergenceError",
    "QuadratureResult",
    "ResonantLine",
    "SlabScenario",
    "Transition",
    "atom_model_from_dict",
    "atom_model_to_dict",
    "clausius_mossotti",
    "d_dz_traces",
    "duality_transform",
    "force_decomposition",
    "halfspace_green_traces",
    "integrate_batch",
    "integrate_finite",
    "integrate_semi_infinite",
    "load_atom_model",
    "magnetizability",
    "mirror_curlcurl_trace",
    "mirror_force_bracket",
    "mirror_green_components",
    "mirror_trace_e",
    "nonresonant_potential",
    "plate_force_closed_form",
    "plate_force_quadrature",
    "polarizability",
    "resonant_potential",
    "resonant_weights",
    "total_potential",
    "__version__",
]
