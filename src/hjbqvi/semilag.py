"""Semi-Lagrangian scheme for control-independent diffusion.

Advection is discretized along characteristics: the time-plus-drift part of
the generator is replaced by the difference quotient

    ( interp(u^{n+1}, x_j + drift(x_j, b) dt) - u^n_j ) / dt,

and the intervention maximum is taken from the already-known time level
n+1.  What remains implicit is only the diffusion, so each timestep reduces
to one sparse (tridiagonal) solve A u^n = rhs with

    (A u^n)_j = u^n_j - 1/2 diffusion(x_j)^2 (D2 u^n)_j dt,
    rhs_j     = max( max_b { interp(u^{n+1}, x_j + drift dt) + f dt },
                     (M u^{n+1})_j ).

The continuation candidates are one controls x nodes block from
:func:`_continuation` (numpy's clamped linear interpolation at the foot
points); the timestep takes their maximum with one argmax, and the
monotonicity row :func:`scheme_row` reads the same block.

A = I - dt L_0 is built from the same stencil core as the penalty systems
(:func:`operators.generator_band` with zero drift).  It has identity
boundary rows (zero boundary stencils) and is strictly diagonally dominant,
hence nonsingular; the solver checks this once per solve.

Foot points x_j + drift dt can leave [-Q, Q] on fixed-Q uniform grids; the
interpolant then clamps and the step is counted as an overstep.  Grids with
shrinking-sublinear boundary cells remove interior oversteps once rho drops
below ``overstep_threshold``; inward drift at both ends removes them on any
grid and is detected and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .exceptions import SolverError
from .grid import BOUNDARY_REFINED, UNIFORM, SpaceTimeGrid
from .matrices import analyze_matrix
from .operators import (
    DiscreteControls,
    InterventionTable,
    apply_band,
    discretize_controls,
    generator_band,
    implicit_matrix,
)
from .problem import ProblemSpec, eval_on
from .solution import (FINITE, PenaltyPolicy, SolveDiagnostics, Solution, SolverConfig,
                       default_epsilon)


def _variance(problem: ProblemSpec, grid: SpaceTimeGrid) -> np.ndarray:
    """diffusion^2 per node, read at the smallest control (it does not
    depend on the control)."""
    b_ref = problem.control_bounds[0]
    return eval_on(problem.diffusion, grid.nodes, b_ref) ** 2


def assemble_A(grid: SpaceTimeGrid, problem: ProblemSpec) -> sp.csr_matrix:
    """Implicit diffusion matrix I - dt L_0 in CSR form; identity rows at j = +-M."""
    if not problem.diffusion_control_independent:
        raise ValueError(
            "the semi-Lagrangian scheme requires a control-independent "
            "diffusion coefficient (diffusion(x, b) = diffusion(x))"
        )
    # dt scales the variance before the band divides by the cell widths.
    dt_band = generator_band(grid.nodes, 0.0, _variance(problem, grid) * grid.dt)
    return implicit_matrix(1.0, dt_band)


@dataclass
class SLStep:
    """Explicit right-hand side of one timestep, with its policy record and
    the clamped-foot-point counts."""

    rhs: np.ndarray
    policy: PenaltyPolicy
    oversteps: int
    interior_oversteps: int


def _continuation(u_next, t, grid: SpaceTimeGrid, problem: ProblemSpec, b):
    """Foot points x_j + drift(x_j, b) dt and continuation values
    interp(u^{n+1}, foot) + f(t, x_j, b) dt, shaped like the controls ``b``
    broadcast against the nodes (one row per control when ``b`` is a column)."""
    nodes = grid.nodes
    feet = nodes + eval_on(problem.drift, nodes, b) * grid.dt
    values = np.interp(feet, nodes, u_next) \
        + eval_on(problem.running_reward, t, nodes, b) * grid.dt
    return feet, values


def sl_rhs(u_next, t, grid: SpaceTimeGrid, problem: ProblemSpec,
           controls: DiscreteControls) -> SLStep:
    """max( best continuation along characteristics, best jump ) per node.

    Continuation and jump candidates both read u^{n+1}.  Ties inside either
    maximum go to the smallest control or impulse; a tie between the two
    branches counts as continuation, matching the strict-intervention rule
    of the penalty scheme.
    """
    u_next = np.asarray(u_next, dtype=float)
    feet, values = _continuation(u_next, t, grid, problem, controls.controls[:, np.newaxis])
    best = values.argmax(axis=0)
    best_cont = values[best, np.arange(grid.n_nodes)]
    outside = np.abs(feet) > grid.Q

    jump = InterventionTable(problem, grid, controls, t + grid.dt).apply(u_next)
    intervene = jump.values > best_cont
    rhs = np.where(intervene, jump.values, best_cont)
    policy = PenaltyPolicy(controls=controls.controls[best], intervene=intervene,
                           impulses=jump.impulses)
    return SLStep(rhs=rhs, policy=policy, oversteps=int(outside.sum()),
                  interior_oversteps=int(outside[:, 1:-1].sum()))


def thomas_solve(A: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse direct solve of A u = rhs (scipy's spsolve) with a residual guard.

    A singular matrix makes spsolve return NaN, which no residual comparison
    catches, so a non-finite solution is escalated as an internal error, as
    is a residual above 1e-10 * (1 + |rhs|).
    """
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size != n:
        raise ValueError(f"rhs length {rhs.size} does not match matrix size {n}")
    out = spsolve(A, rhs)
    if not np.all(np.isfinite(out)):
        raise SolverError("semi-Lagrangian solve returned non-finite values (singular matrix)")
    residual = float(np.abs(A @ out - rhs).max())
    if residual > 1e-10 * (1.0 + float(np.abs(rhs).max())):
        raise SolverError(f"semi-Lagrangian solve residual {residual:.3g} too large")
    return out


def norm_drift(problem: ProblemSpec, grid: SpaceTimeGrid,
               controls: DiscreteControls) -> float:
    """max |drift| over the grid nodes and the discrete control set."""
    drift = eval_on(problem.drift, grid.nodes, controls.controls[:, np.newaxis])
    return float(np.abs(drift).max())


def detect_inward_drift(problem: ProblemSpec, grid: SpaceTimeGrid,
                        controls: DiscreteControls) -> bool:
    """True when drift points inward at both ends for every discrete control,
    in which case no foot point can leave [-Q, Q] from an interior node."""
    left = eval_on(problem.drift, -grid.Q, controls.controls)
    right = eval_on(problem.drift, grid.Q, controls.controls)
    return bool(np.all(left >= 0.0) and np.all(right <= 0.0))


def overstep_threshold(problem: ProblemSpec, grid: SpaceTimeGrid,
                       controls: DiscreteControls) -> float:
    """Largest rho at which no interior foot point can leave [-Q, Q].

    Boundary-refined grids: the outer cell width c_b rho**(3/4) must beat the
    maximal step |drift| c_t rho, giving rho <= (c_b / (|drift| c_t))**4.
    Uniform grids: the margin is the rho-proportional cell itself, so the
    answer is all rho or none depending on whether |drift| c_t <= c_x.
    """
    mu_max = norm_drift(problem, grid, controls)
    if mu_max == 0.0:
        return np.inf
    if grid.mode == BOUNDARY_REFINED:
        return (grid.c_b / (mu_max * grid.c_t)) ** 4
    if grid.mode == UNIFORM:
        return np.inf if mu_max * grid.c_t <= grid.c_x else 0.0
    raise ValueError(f"no overstep threshold for grid mode {grid.mode!r}")


def solve_semi_lagrangian(problem: ProblemSpec, grid: SpaceTimeGrid,
                          controls: DiscreteControls | None = None,
                          cfg: SolverConfig | None = None) -> Solution:
    """Backward induction: one sparse solve per timestep from u^N = g."""
    if not problem.finite_horizon:
        raise ValueError("the semi-Lagrangian scheme is finite-horizon only")
    controls = controls or discretize_controls(problem, grid.rho)
    A = assemble_A(grid, problem)
    report = analyze_matrix(A)
    if not (report.passed and report.strictly_dominant_ok):
        raise SolverError(f"semi-Lagrangian matrix lost strict dominance: {report.witness}")

    diagnostics = SolveDiagnostics()
    diagnostics.matrix_systems_checked = 1
    diagnostics.matrix_systems_passed = 1
    diagnostics.min_dominance_margin = report.min_margin
    diagnostics.inward_drift = detect_inward_drift(problem, grid, controls)

    n_nodes = grid.n_nodes
    surface = np.empty((grid.N + 1, n_nodes))
    surface[grid.N] = eval_on(problem.terminal_reward, grid.nodes)
    policies: list[PenaltyPolicy | None] = [None] * (grid.N + 1)
    u = surface[grid.N]
    for n in range(grid.N - 1, -1, -1):
        step = sl_rhs(u, n * grid.dt, grid, problem, controls)
        u = thomas_solve(A, step.rhs)
        surface[n] = u
        policies[n] = step.policy
        diagnostics.oversteps += step.oversteps
        diagnostics.interior_oversteps += step.interior_oversteps
        diagnostics.step_min.append(float(u.min()))
        diagnostics.step_max.append(float(u.max()))
    epsilon = default_epsilon(grid, cfg or SolverConfig())
    return Solution(grid=grid, scheme="semilagrangian", horizon=FINITE,
                    surface=surface, policies=policies,
                    diagnostics=diagnostics, epsilon=epsilon)


def scheme_row(j, center, u_n, u_next, obstacle_value, t, grid, problem,
               controls) -> float:
    """Semi-Lagrangian scheme value at one node with node value and obstacle
    pinned; used by the monotonicity checker (min of the two branches).  The
    continuation is the solver's own (:func:`_continuation`)."""
    i = grid.offset(j)
    u_loc = np.array(u_n, dtype=float)
    u_loc[i] = center
    dt = grid.dt
    diffusion_band = generator_band(grid.nodes, 0.0, _variance(problem, grid))
    diffusion_term = float(apply_band(diffusion_band, u_loc)[i])
    _, values = _continuation(np.asarray(u_next, dtype=float), t, grid, problem,
                              controls.controls[:, np.newaxis])
    best = (float(values[:, i].max()) - center) / dt + diffusion_term
    return min(-best, center - obstacle_value - diffusion_term * dt)
