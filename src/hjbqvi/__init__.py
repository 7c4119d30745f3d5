"""Solvers for 1-D Hamilton-Jacobi-Bellman quasi-variational inequalities.

Implicit penalty scheme and semi-Lagrangian scheme for the dynamic
programming equation of combined stochastic and impulse control, an
iterated-optimal-stopping reference solver, and a verification harness for
the schemes' stability, monotonicity and matrix-structure guarantees.
"""

from .grid import (
    BOUNDARY_REFINED,
    GROWING_Q,
    UNIFORM,
    SpaceTimeGrid,
    as_growing_q,
    build_boundary_refined_grid,
    build_uniform_grid,
    grid_for_level,
)
from .problem import ProblemSpec, ValidationReport, builtin, validate
from .operators import (
    DiscreteControls,
    FrozenObstacle,
    InterventionTable,
    discretize_controls,
    generator_band,
)
from .penalty import (
    SparseSystem,
    penalty_timestep,
    residual,
    solve_finite_horizon,
    solve_infinite_horizon,
)
from .semilag import (
    assemble_A,
    overstep_threshold,
    sl_rhs,
    solve_semi_lagrangian,
    thomas_solve,
)
from .oracle import brute_force_residual, solve_iterated_optimal_stopping
from .harness import (
    ConvergenceReport,
    Window,
    check_monotonicity,
    check_stability_bound,
    extend_solution,
    observed_orders,
    run_refinement_study,
    sup_error,
)
from .solution import PenaltyPolicy, Solution, SolverConfig
from .exceptions import ConfigError, MatrixStructureError, NonConvergenceError, SolverError

__all__ = [
    "BOUNDARY_REFINED", "GROWING_Q", "UNIFORM",
    "SpaceTimeGrid", "as_growing_q", "build_boundary_refined_grid",
    "build_uniform_grid", "grid_for_level",
    "ProblemSpec", "ValidationReport", "builtin", "validate",
    "DiscreteControls", "FrozenObstacle", "InterventionTable", "discretize_controls",
    "generator_band",
    "SparseSystem", "penalty_timestep", "residual", "solve_finite_horizon",
    "solve_infinite_horizon",
    "assemble_A", "overstep_threshold", "sl_rhs",
    "solve_semi_lagrangian", "thomas_solve",
    "brute_force_residual", "solve_iterated_optimal_stopping",
    "ConvergenceReport", "Window", "check_monotonicity",
    "check_stability_bound", "extend_solution", "observed_orders",
    "run_refinement_study", "sup_error",
    "PenaltyPolicy", "Solution", "SolverConfig",
    "ConfigError", "MatrixStructureError", "NonConvergenceError", "SolverError",
]
