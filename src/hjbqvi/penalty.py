"""Implicit penalty scheme for the quasi-variational inequality.

Per timestep n < N the scheme solves, implicitly in u^n,

    -max_b { (u^{n+1}_j - u^n_j)/dt + (L_b u^n)_j + f(t_n, x_j, b) }
    - max( (Mu^n)_j - u^n_j, 0 ) / epsilon  =  0,        u^N_j = g(x_j),

where L_b is the upwinded discrete generator and (Mu)_j the discretized
intervention maximum.  For fixed per-node controls (b_j, penalty indicator
d_j, impulse z_j) the equations are linear with a weakly chained diagonally
dominant M-matrix, so each timestep is solved exactly by policy iteration
(greedy improvement alternating with a direct sparse solve), which
terminates in finitely many steps on such systems.  The generator
coefficients of the assembled systems, of the control argmax and of the
monotonicity row all come from :func:`operators.generator_band`.

The stationary (discounted) analogue replaces the time difference by
-beta u_j and solves a single such system.

The penalty parameter must vanish with the mesh; the default is
epsilon = c_eps * rho.

An optional frozen ``obstacle`` vector replaces (Mu^n)_j; this turns the
timestep into a plain variational inequality solve and is what the
iterated-optimal-stopping reference solver builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .exceptions import MatrixStructureError, NonConvergenceError, SolverError
from .grid import SpaceTimeGrid
from .matrices import MatrixReport, analyze_matrix
from .operators import (
    DiscreteControls,
    InterventionTable,
    apply_band,
    discretize_controls,
    generator_band,
    implicit_matrix,
    interp_weights,
)
from .problem import ProblemSpec, eval_on
from .solution import (
    FINITE,
    INFINITE,
    PenaltyPolicy,
    SolveDiagnostics,
    Solution,
    SolverConfig,
    TimestepDiagnostics,
)


@dataclass
class SparseSystem:
    """One linearized timestep: tridiagonal band plus the interpolation
    couplings of active penalty rows, with its structural report."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    report: MatrixReport


def default_epsilon(grid: SpaceTimeGrid, cfg: SolverConfig) -> float:
    return cfg.c_eps * grid.rho


def _obstacle_values(u, t, grid, problem, controls, obstacle, table):
    if obstacle is not None:
        return np.asarray(obstacle, dtype=float), None
    if table is None:
        table = InterventionTable(problem, grid, controls, t)
    res = table.apply(u)
    return res.values, res.impulses


def _band(grid, problem, b):
    """Band of L_b for per-node controls, or one band row per control when
    ``b`` is a column of controls."""
    nodes = grid.nodes
    return generator_band(nodes, eval_on(problem.drift, nodes, b),
                          eval_on(problem.diffusion, nodes, b) ** 2)


def _control_values(u, t, grid, problem, b):
    """(L_b u)_j + f(t, x_j, b), shaped like the controls ``b`` (see _band)."""
    return apply_band(_band(grid, problem, b), u) \
        + eval_on(problem.running_reward, t, grid.nodes, b)


def _best_control(u, t, grid, problem, controls):
    """Argmax over the discrete control set of (L_b u)_j + f(t, x_j, b).

    Returns (values, indices); ties go to the smallest control, the first
    index argmax meets.
    """
    vals = _control_values(u, t, grid, problem, controls.controls[:, np.newaxis])
    best_idx = vals.argmax(axis=0)
    return vals[best_idx, np.arange(grid.n_nodes)], best_idx


def policy_improve(u, u_next, t, grid, problem, controls,
                   obstacle=None, table=None) -> PenaltyPolicy:
    """Greedy policy at the current iterate.

    The control argmax ignores the time (or discount) term, which does not
    depend on b; the penalty indicator is strict, d_j = 1 iff the best jump
    value exceeds u_j, so at equality the penalty stays off.
    """
    _, best_idx = _best_control(u, t, grid, problem, controls)
    m_vals, impulses = _obstacle_values(u, t, grid, problem, controls, obstacle, table)
    if impulses is None:
        impulses = np.full(grid.n_nodes, np.nan)
    return PenaltyPolicy(
        controls=controls.controls[best_idx],
        intervene=m_vals - u > 0.0,
        impulses=impulses,
    )


def residual(u, rhs_base, time_weight, t, grid, problem, controls, epsilon,
             obstacle=None, table=None) -> np.ndarray:
    """Pointwise residual of the discrete penalty equations

        -max_b { rhs_base_j - time_weight u_j + (L_b u)_j + f_j(b) }
        - max( (Mu)_j - u_j, 0 ) / epsilon,

    with the (rhs_base, time_weight) pair of :func:`_assemble`:
    (u^{n+1}/dt, 1/dt) for a timestep, (0, beta) for the stationary equations.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    best_vals, _ = _best_control(u, t, grid, problem, controls)
    m_vals, _ = _obstacle_values(u, t, grid, problem, controls, obstacle, table)
    return -(best_vals + (rhs_base - time_weight * u)) - np.maximum(m_vals - u, 0.0) / epsilon


def _assemble(policy, rhs_base, time_weight, t, grid, problem, controls,
              epsilon, obstacle) -> SparseSystem:
    """Linear system of the penalty equations at a frozen policy.

    Row j:  time_weight*u_j - (L_{b_j} u)_j + (d_j/eps)(u_j - interp(u; jump_j))
            = rhs_base_j + f_j(b_j) + (d_j/eps) * cost_j,
    with zero stencils in the boundary rows.  Interpolation couplings that
    land on the row itself merge into the diagonal; the structural check
    rejects any configuration that loses the M-matrix sign pattern or WCDD.
    """
    nodes = grid.nodes
    band = _band(grid, problem, policy.controls)
    rhs = np.asarray(rhs_base, dtype=float) \
        + eval_on(problem.running_reward, t, nodes, policy.controls)

    # Penalty rows: one diagonal entry of 1/eps (less any coupling that lands
    # on the row itself), summed into the band's diagonal by implicit_matrix.
    rows, cols, data = [], [], []
    inv_eps = 1.0 / epsilon
    for i in np.flatnonzero(policy.intervene):
        on_diag = inv_eps
        if obstacle is not None:
            rhs[i] += inv_eps * float(obstacle[i])
        else:
            x = nodes[i]
            z = float(policy.impulses[i])
            target = x + float(problem.impulse_shift(t, x, z))
            k, alpha = interp_weights(nodes, target)
            couplings = [(k, inv_eps * (1.0 - alpha))]
            if alpha > 0.0:
                couplings.append((k + 1, inv_eps * alpha))
            for col, weight in couplings:
                if col == i:
                    on_diag -= weight
                else:
                    rows.append(i)
                    cols.append(col)
                    data.append(-weight)
            rhs[i] += inv_eps * float(problem.impulse_cost(t, x, z))
        rows.append(i)
        cols.append(i)
        data.append(on_diag)
    matrix = implicit_matrix(float(time_weight), band, rows, cols, data)

    report = analyze_matrix(matrix)
    if not report.passed:
        raise MatrixStructureError(
            f"assembled penalty system is outside the scheme's guarantees: {report.witness}",
            report=report,
        )
    return SparseSystem(matrix=matrix, rhs=rhs, report=report)


def assemble_policy_system(policy, u_next, t, grid, problem, controls,
                           epsilon, obstacle=None) -> SparseSystem:
    """Finite-horizon policy system: time weight 1/dt, source u^{n+1}/dt."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    return _assemble(policy, np.asarray(u_next) / grid.dt, 1.0 / grid.dt,
                     t, grid, problem, controls, epsilon, obstacle)


def _policy_iteration(u_start, rhs_base, time_weight, t, grid, problem,
                      controls, epsilon, cfg, obstacle, time_index) -> tuple[np.ndarray, TimestepDiagnostics]:
    table = InterventionTable(problem, grid, controls, t) if obstacle is None else None
    diag = TimestepDiagnostics(time_index=time_index, iterations=0)
    policy = policy_improve(u_start, None, t, grid, problem, controls,
                            obstacle=obstacle, table=table)
    u = np.asarray(u_start, dtype=float)
    for _ in range(cfg.max_iters):
        system = _assemble(policy, rhs_base, time_weight, t, grid, problem,
                           controls, epsilon, obstacle)
        diag.iterations += 1
        diag.matrix_systems += 1
        diag.min_dominance_margin = min(diag.min_dominance_margin, system.report.min_margin)
        u_new = spsolve(system.matrix, system.rhs)
        if not np.all(np.isfinite(u_new)):
            raise SolverError("policy system solve returned non-finite values")
        new_policy = policy_improve(u_new, None, t, grid, problem, controls,
                                    obstacle=obstacle, table=table)
        update = float(np.abs(u_new - u).max())
        diag.updates.append(update)
        unchanged = policy.same_as(new_policy)
        u, policy = u_new, new_policy
        if unchanged or update < cfg.tol:
            break
    else:
        raise NonConvergenceError(
            f"policy iteration hit max_iters={cfg.max_iters} at t index {time_index}",
            history=diag.updates,
        )
    diag.policy = policy
    return u, diag


def _check_residual(res_vec, diag, cfg, where):
    diag.final_residual = float(np.abs(res_vec).max())
    if diag.final_residual > cfg.residual_tol:
        raise NonConvergenceError(
            f"{where}: residual {diag.final_residual:.3g} exceeds "
            f"residual_tol {cfg.residual_tol:.3g}",
            history=diag.updates,
        )


def penalty_timestep(u_next, t, grid, problem, controls, epsilon,
                     cfg: SolverConfig | None = None,
                     obstacle=None) -> tuple[np.ndarray, TimestepDiagnostics]:
    """One implicit timestep by policy iteration, solved to residual tolerance."""
    cfg = cfg or SolverConfig()
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    u_next = np.asarray(u_next, dtype=float)
    rhs_base, time_weight = u_next / grid.dt, 1.0 / grid.dt
    u, diag = _policy_iteration(
        u_next, rhs_base, time_weight, t, grid, problem, controls,
        epsilon, cfg, obstacle, time_index=int(round(t / grid.dt)),
    )
    res = residual(u, rhs_base, time_weight, t, grid, problem, controls, epsilon,
                   obstacle=obstacle)
    _check_residual(res, diag, cfg, "penalty timestep")
    return u, diag


def solve_finite_horizon(problem: ProblemSpec, grid: SpaceTimeGrid,
                         controls: DiscreteControls | None = None,
                         epsilon: float | None = None,
                         cfg: SolverConfig | None = None) -> Solution:
    """Backward induction of the penalty scheme from u^N = g."""
    if not problem.finite_horizon:
        raise ValueError("solve_finite_horizon needs a finite-horizon problem")
    cfg = cfg or SolverConfig()
    controls = controls or discretize_controls(problem, grid.rho)
    epsilon = default_epsilon(grid, cfg) if epsilon is None else float(epsilon)

    n_nodes = grid.n_nodes
    surface = np.empty((grid.N + 1, n_nodes))
    surface[grid.N] = eval_on(problem.terminal_reward, grid.nodes)
    policies: list[PenaltyPolicy | None] = [None] * (grid.N + 1)
    diagnostics = SolveDiagnostics()
    u = surface[grid.N]
    for n in range(grid.N - 1, -1, -1):
        t = n * grid.dt
        u, step_diag = penalty_timestep(u, t, grid, problem, controls, epsilon, cfg)
        surface[n] = u
        policies[n] = step_diag.policy
        diagnostics.record_step(step_diag)
    return Solution(grid=grid, scheme="penalty", horizon=FINITE, surface=surface,
                    policies=policies, diagnostics=diagnostics, epsilon=epsilon)


def solve_infinite_horizon(problem: ProblemSpec, grid: SpaceTimeGrid,
                           controls: DiscreteControls | None = None,
                           epsilon: float | None = None,
                           cfg: SolverConfig | None = None) -> Solution:
    """Stationary discounted equations, solved by policy iteration from u = 0."""
    if problem.finite_horizon:
        raise ValueError("solve_infinite_horizon needs a discounted problem")
    cfg = cfg or SolverConfig()
    controls = controls or discretize_controls(problem, grid.rho)
    epsilon = default_epsilon(grid, cfg) if epsilon is None else float(epsilon)

    zeros = np.zeros(grid.n_nodes)
    u, step_diag = _policy_iteration(
        zeros, zeros, problem.discount, 0.0, grid, problem, controls,
        epsilon, cfg, obstacle=None, time_index=0,
    )
    res = residual(u, zeros, problem.discount, 0.0, grid, problem, controls, epsilon)
    _check_residual(res, step_diag, cfg, "stationary solve")
    diagnostics = SolveDiagnostics()
    diagnostics.record_step(step_diag)
    return Solution(grid=grid, scheme="penalty", horizon=INFINITE,
                    surface=u[np.newaxis, :], policies=[step_diag.policy],
                    diagnostics=diagnostics, epsilon=epsilon)


def scheme_row(j, center, u_n, u_next, obstacle_value, t, grid, problem,
               controls, epsilon) -> float:
    """Penalty residual at one node with the node value and obstacle pinned.

    This is the scheme read as a function of the off-node values, which is
    what the monotonicity property quantifies over.
    """
    i = grid.offset(j)
    u_loc = np.array(u_n, dtype=float)
    u_loc[i] = center
    vals = _control_values(u_loc, t, grid, problem, controls.controls[:, np.newaxis])[:, i]
    best = (float(u_next[i]) - center) / grid.dt + float(vals.max())
    return -best - max(obstacle_value - center, 0.0) / epsilon
