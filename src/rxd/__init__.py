"""Operator-splitting solver for the reaction-diffusion system A + B <=> C.

The scheme alternates an implicit cellwise reaction-trajectory solve with an
implicit Euler diffusion solve on a cell-centered periodic grid.  Both stages
dissipate the same logarithmic free energy and keep concentrations strictly
positive, and the composition is first-order accurate in time and
second-order in space.
"""

from .diffusion import build_operators, step_diffusion, step_diffusion_species
from .errors import ConvergenceError, PositivityError
from .grid import (
    DiffusionCoeffs,
    Field,
    Grid,
    ModelParams,
    State,
    apply_variable_laplacian,
    discrete_energy,
    face_coefficient,
    inner_product,
    mean_value,
    norm_max,
)
from .reaction import solve_reaction_cell, step_reaction
from .snapshots import read_field, write_field
from .splitting import (
    SolverOptions,
    TimeConfig,
    full_step,
    make_initial_condition,
    benchmark_initial_functions,
    run_simulation,
    write_diagnostics_csv,
)
from .study import (
    RefinementReport,
    cauchy_a_star,
    cauchy_orders,
    compare_fields,
    convergence_orders,
    benchmark_scene,
    spatial_cauchy_order,
    temporal_order,
)

__all__ = [
    "ConvergenceError",
    "DiffusionCoeffs",
    "Field",
    "Grid",
    "ModelParams",
    "PositivityError",
    "RefinementReport",
    "SolverOptions",
    "State",
    "TimeConfig",
    "apply_variable_laplacian",
    "cauchy_a_star",
    "cauchy_orders",
    "compare_fields",
    "convergence_orders",
    "discrete_energy",
    "face_coefficient",
    "full_step",
    "inner_product",
    "make_initial_condition",
    "mean_value",
    "norm_max",
    "benchmark_initial_functions",
    "benchmark_scene",
    "build_operators",
    "read_field",
    "run_simulation",
    "solve_reaction_cell",
    "spatial_cauchy_order",
    "step_diffusion",
    "step_diffusion_species",
    "step_reaction",
    "temporal_order",
    "write_diagnostics_csv",
    "write_field",
]

__version__ = "0.1.0"
