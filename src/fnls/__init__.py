"""Pseudo-spectral laboratory for the fractional nonlinear Schrodinger equation."""

from .evolution import (
    EvolveConfig,
    Trajectory,
    evolve,
    final_state,
    linear_propagate,
    nonlinear_phase,
    snapshots,
)
from .exponents import (
    classify_regime,
    critical_exponents,
    is_admissible,
    verify_error_symbol_bound,
)
from .grid import ComplexField, Grid
from .io import read_field, write_field
from .model import ModelParams
from .observables import SpacetimeNormSpec, energy, mass, scattering_defects, spacetime_norm
from .profiles import ProfileSpec, gaussian
from .soliton import SolitonConfig, petviashvili_solve, traveling_wave_check
from .spectral import (
    HOMOGENEOUS,
    INHOMOGENEOUS,
    apply_multiplier,
    lebesgue_norm,
    modulate,
    rescale,
    resolvable_scales,
    round_velocity,
    sobolev_norm,
    spatial_shift,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexField",
    "EvolveConfig",
    "Grid",
    "HOMOGENEOUS",
    "INHOMOGENEOUS",
    "ModelParams",
    "ProfileSpec",
    "SolitonConfig",
    "SpacetimeNormSpec",
    "Trajectory",
    "apply_multiplier",
    "classify_regime",
    "critical_exponents",
    "energy",
    "evolve",
    "final_state",
    "gaussian",
    "is_admissible",
    "lebesgue_norm",
    "linear_propagate",
    "mass",
    "modulate",
    "nonlinear_phase",
    "petviashvili_solve",
    "read_field",
    "rescale",
    "resolvable_scales",
    "round_velocity",
    "scattering_defects",
    "snapshots",
    "sobolev_norm",
    "spacetime_norm",
    "spatial_shift",
    "traveling_wave_check",
    "verify_error_symbol_bound",
    "write_field",
]
