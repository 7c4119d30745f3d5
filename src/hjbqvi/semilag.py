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

The continuation candidates are one rows x nodes block from
:func:`_continuation` (the jump tables' clamped linear interpolation at the
foot points); the timestep takes their maximum with one argmax.  Which rows
is decided once per solve, in :func:`foot_points`: all B sampled controls,
or, when the reward ignores b (``ProblemSpec.separable_reward``), each
node's :func:`operators.candidate_rows` of its foot cells and weights, where
those exist (4 of the B controls per node for cash).  A solve's
step, run by :func:`solution.backward_induction`, is :func:`sl_rhs`, which
returns (rhs, policy), and one sparse solve.  The row of
:func:`monotonicity_row` is that step's own equation, (A u - rhs)_j, with
the solve's A and foot points and the obstacle pinned.

A = I - dt L_0 is built from the same stencil core as the penalty systems
(:func:`operators.generator_band` with zero drift) and the variance of
:func:`diffusion_variance`, which checks control independence on the data.
It has identity boundary rows (zero boundary stencils) and is strictly
diagonally dominant, hence nonsingular; the solver checks this and
factorises A once per solve.

drift(x, b) takes no t, so a solve also computes once what every step reads
of the foot points (:class:`FootPoints`): each kept foot's interpolation
cell and weights, and the overstep counts of every foot (the solve's are N
times the feet's).  A step then does only the work that depends on u^{n+1}
or on t: the continuation values, within about 2 ulps of ``np.interp``
(exact on nodes and beyond [-Q, Q]), the running reward at t, the jump
maximum, and the solve.
The jump table of a step is reused from the step before when the impulse
data at its level equal those the table was built from
(:meth:`InterventionTable.same_data_at`), so data that ignore t build one
table per solve.  For a declared reset (``ProblemSpec.reset_cost``, as in
``cash`` and ``heat``) that check is an O(n) comparison of the impulse
bounds; otherwise it evaluates the nodes x K costs and shifts at the new
level.

Foot points x_j + drift dt can leave [-Q, Q] on fixed-Q uniform grids; the
interpolant then clamps and each step counts it as an overstep.  Grids with
shrinking-sublinear boundary cells remove interior oversteps once rho drops
below ``overstep_threshold``; inward drift at both ends removes them on any
grid and is detected and reported.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .exceptions import SolverError
from .grid import BOUNDARY_REFINED, GROWING_Q, UNIFORM, SpaceTimeGrid
from .matrices import analyze_matrix, factorise
from .operators import (
    DiscreteControls,
    FrozenObstacle,
    InterventionTable,
    Interpolant,
    candidate_rows,
    discretize_controls,
    generator_band,
    implicit_matrix,
    interp_weights,
    row_at,
)
from .problem import ProblemSpec, eval_on
from .solution import (PenaltyPolicy, SolveDiagnostics, Solution, backward_induction,
                       require_time_axis)


def diffusion_variance(problem: ProblemSpec, grid: SpaceTimeGrid,
                       controls: DiscreteControls) -> np.ndarray:
    """diffusion^2 per node, read at the smallest control from the controls x
    nodes block; any entry of the block that differs from that row raises
    ValueError naming the first such (x, b) and both values."""
    sigma = eval_on(problem.diffusion, grid.nodes, controls.controls[:, np.newaxis])
    differs = np.flatnonzero(sigma != sigma[0])
    if differs.size:
        k, i = np.unravel_index(differs[0], sigma.shape)
        x, b, b0 = float(grid.nodes[i]), float(controls.controls[k]), float(controls.controls[0])
        raise ValueError(
            "the semi-Lagrangian scheme requires a control-independent diffusion "
            f"coefficient, but diffusion(x, b) = {float(sigma[k, i])!r} at (x, b) = {(x, b)} "
            f"and {float(sigma[0, i])!r} at {(x, b0)}"
        )
    return sigma[0] ** 2


def assemble_A(grid: SpaceTimeGrid, problem: ProblemSpec,
               controls: DiscreteControls) -> sp.csr_matrix:
    """Implicit diffusion matrix I - dt L_0 in CSR form; identity rows at j = +-M.
    Raises ValueError when the diffusion varies over ``controls``."""
    # dt scales the variance before the band divides by the cell widths.
    variance = diffusion_variance(problem, grid, controls)
    dt_band = generator_band(grid.nodes, 0.0, variance * grid.dt)
    return implicit_matrix(1.0, dt_band)


class FootPoints(Interpolant):
    """The interpolant of fixed points, with ``oversteps``, the number outside
    [-Q, Q], and ``interior_oversteps``, those in every column but the ends.

    ``index`` holds the rows of ``points`` the interpolant keeps: every row
    (a column of row numbers), or, with ``candidates``, the H x nodes rows of
    :func:`operators.candidate_rows` when those exist.  The counts are of
    every point.
    """

    def __init__(self, nodes: np.ndarray, points: np.ndarray, Q: float,
                 candidates: bool = False):
        outside = np.abs(points) > Q
        self.oversteps = int(outside.sum())
        self.interior_oversteps = int(outside[..., 1:-1].sum())
        k, alpha = interp_weights(nodes, points)
        index = candidate_rows(k, alpha) if candidates else None
        if index is None:
            index = np.arange(k.shape[0])[:, np.newaxis]
        else:
            k, alpha = np.take_along_axis(k, index, 0), np.take_along_axis(alpha, index, 0)
        self.index = index
        super().__init__(k, alpha)


def foot_points(grid: SpaceTimeGrid, problem: ProblemSpec,
                controls: DiscreteControls) -> FootPoints:
    """The controls x nodes foot points x_j + drift(x_j, b) dt, one row per
    control; drift takes no t, so they serve every step of a solve.  Their
    ``inward_drift`` is True when drift points inward at both ends for every
    control, in which case no foot point can leave [-Q, Q] from an interior node.

    When the reward ignores b (``ProblemSpec.separable_reward``), the feet
    keep only each node's :func:`operators.candidate_rows` where those
    exist; the overstep counts and ``inward_drift`` are of every foot.
    """
    nodes = grid.nodes
    drift = eval_on(problem.drift, nodes, controls.controls[:, np.newaxis])
    feet = FootPoints(nodes, nodes + drift * grid.dt, grid.Q,
                      candidates=problem.separable_reward is not None)
    feet.inward_drift = bool(np.all(drift[:, 0] >= 0.0) and np.all(drift[:, -1] <= 0.0))
    return feet


def _continuation(u_next, t, grid: SpaceTimeGrid, problem: ProblemSpec,
                  controls: DiscreteControls, feet: FootPoints) -> np.ndarray:
    """Continuation values interp(u^{n+1}, foot) + f(t, x_j, b) dt on the
    rows of ``feet``, the :func:`foot_points`: the controls x nodes block,
    or each node's candidate rows."""
    values = feet.interp(u_next)
    values += eval_on(problem.running_reward, t, grid.nodes,
                      controls.controls[feet.index]) * grid.dt
    return values


def sl_rhs(u_next, t, grid: SpaceTimeGrid, problem: ProblemSpec,
           controls: DiscreteControls, intervention, feet: FootPoints) -> tuple:
    """(rhs, policy): max( best continuation along characteristics, best jump )
    per node, and the argmax control, jump-won nodes and best impulses.

    Continuation and jump candidates both read u^{n+1}.  Ties inside either
    maximum go to the smallest control or impulse; a tie between the two
    branches counts as continuation, matching the strict-intervention rule
    of the penalty scheme.  ``intervention`` is the jump operator read at
    level n+1, such as the problem's table at t + dt, and ``feet`` are the
    :func:`foot_points`, whose ``index`` maps the argmax row to its control.
    """
    u_next = np.asarray(u_next, dtype=float)
    values = _continuation(u_next, t, grid, problem, controls, feet)
    best = values.argmax(axis=0)
    best_cont = values[best, np.arange(grid.n_nodes)]

    jump = intervention.apply(u_next)
    intervene = jump.values > best_cont
    rhs = np.where(intervene, jump.values, best_cont)
    policy = PenaltyPolicy(controls=controls.controls[row_at(feet.index, best)],
                           intervene=intervene, impulses=jump.impulses)
    return rhs, policy


def thomas_solve(A: sp.csr_matrix, rhs: np.ndarray, factor) -> np.ndarray:
    """Sparse direct solve of A u = rhs with a residual guard.

    ``factor`` is A's :func:`matrices.factorise` solve.  A non-finite
    solution is escalated as an internal error, as is a residual above
    1e-10 * (1 + |rhs|).
    """
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size != n:
        raise ValueError(f"rhs length {rhs.size} does not match matrix size {n}")
    out = factor(rhs)
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


def overstep_threshold(problem: ProblemSpec, grid: SpaceTimeGrid,
                       controls: DiscreteControls) -> float:
    """Largest rho at which no interior foot point can leave [-Q, Q].

    Boundary-refined grids: the outer cell width c_b rho**(3/4) must beat the
    maximal step |drift| c_t rho, giving rho <= (c_b / (|drift| c_t))**4.
    Uniform and growing_q grids, whose spacing is c_x rho: the margin is the
    rho-proportional cell itself, so the answer is all rho or none
    depending on whether |drift| c_t <= c_x.
    """
    mu_max = norm_drift(problem, grid, controls)
    if mu_max == 0.0:
        return np.inf
    if grid.mode == BOUNDARY_REFINED:
        return (grid.c_b / (mu_max * grid.c_t)) ** 4
    if grid.mode in (UNIFORM, GROWING_Q):
        return np.inf if mu_max * grid.c_t <= grid.c_x else 0.0
    raise ValueError(f"no overstep threshold for grid mode {grid.mode!r}")


def solve_semi_lagrangian(problem: ProblemSpec, grid: SpaceTimeGrid,
                          controls: DiscreteControls | None = None) -> Solution:
    """:func:`solution.backward_induction` from u^N = g: one factorisation of
    A and one set of foot points per solve, then one :func:`sl_rhs` and one
    sparse solve per timestep.  A step's jump table, at t + dt, is the
    previous step's when the impulse data there are the same.  The scheme
    has no penalty term, so the solution's ``epsilon`` is None; a declared
    reset's reuse check compares the impulse bounds alone."""
    require_time_axis(problem, grid)
    controls = controls or discretize_controls(problem, grid.rho)
    A = assemble_A(grid, problem, controls)
    report = analyze_matrix(A)
    if not (report.passed and report.strictly_dominant_ok):
        raise SolverError(f"semi-Lagrangian matrix lost strict dominance: {report.witness}")

    factor = factorise(A, "semi-Lagrangian matrix")
    feet = foot_points(grid, problem, controls)
    diagnostics = SolveDiagnostics(control_rows=feet.index.shape[0])
    diagnostics.matrix_systems_checked = 1
    diagnostics.min_dominance_margin = report.min_margin
    diagnostics.inward_drift = feet.inward_drift
    diagnostics.oversteps = grid.N * feet.oversteps
    diagnostics.interior_oversteps = grid.N * feet.interior_oversteps
    table = None

    def step(u_next, n):
        nonlocal table
        t = n * grid.dt
        if table is None or not table.same_data_at(t + grid.dt):
            table = InterventionTable(problem, grid, controls, t + grid.dt)
        rhs, policy = sl_rhs(u_next, t, grid, problem, controls, table, feet)
        return thomas_solve(A, rhs, factor), policy

    surface, policies = backward_induction(
        grid, eval_on(problem.terminal_reward, grid.nodes), step)
    return Solution(grid=grid, scheme="semilagrangian", surface=surface, policies=policies,
                    diagnostics=diagnostics)


def monotonicity_row(problem: ProblemSpec, grid: SpaceTimeGrid,
                     controls: DiscreteControls, t: float):
    """``row(j, u_n, u_next, obstacle_value)``: (A u_n - rhs)_j, the step's own
    equation at t with (M u^{n+1})_j = ``obstacle_value`` at every node, for the
    monotonicity checker.  A (:func:`assemble_A`) and the foot points of rhs
    (:func:`sl_rhs`) are built once, here."""
    feet = foot_points(grid, problem, controls)
    A = assemble_A(grid, problem, controls)

    def row(j, u_n, u_next, obstacle_value) -> float:
        i = grid.offset(j)
        obstacle = FrozenObstacle(np.full(grid.n_nodes, obstacle_value))
        rhs, _ = sl_rhs(u_next, t, grid, problem, controls, obstacle, feet)
        return float((A @ np.asarray(u_n, dtype=float))[i] - rhs[i])
    return row
