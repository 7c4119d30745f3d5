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

drift(x, b) and diffusion(x, b) take no t, so the controls x nodes band of
L_b that the control argmax reads is the same at every step and every policy
iteration: a caller builds it once (:func:`_control_band`) and passes it
down as ``band``.  The running reward f(t, x, b) is fixed within a step, so
a step evaluates it once on the same block (``reward``).  Each assembled
system reads row b_j of the band and of the reward block at node j, by the
control index the argmax chose, so the systems and the argmax read the same
numbers.  The residual gate reuses the argmax values of the last policy
improvement, which evaluated the same u.

The stationary (discounted) analogue replaces the time difference by
-beta u_j and solves a single such system.

The penalty parameter must vanish with the mesh; the default is
epsilon = c_eps * rho.

M enters through one ``intervention`` argument, any operator with the
interface of :mod:`operators` (``apply`` and ``jump_rows``); ``None`` means
the problem's own :class:`operators.InterventionTable` at the step's time.
Passing a :class:`operators.FrozenObstacle` turns the timestep into a plain
variational inequality solve: the iterated-optimal-stopping reference solver
builds on this, and so does the monotonicity row, whose jump value is pinned.
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
    FrozenObstacle,
    InterventionTable,
    apply_band,
    discretize_controls,
    generator_band,
    implicit_matrix,
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
    backward_induction,
    default_epsilon,
)


@dataclass
class SparseSystem:
    """One linearized timestep: tridiagonal band plus the interpolation
    couplings of active penalty rows, with its structural report."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    report: MatrixReport


def _require_epsilon(epsilon) -> None:
    """ValueError unless the penalty parameter is finite and positive."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")


def _intervention_at(intervention, t, grid, problem, controls):
    """The operator M to use at time t: the given one, else the problem's table."""
    return InterventionTable(problem, grid, controls, t) if intervention is None else intervention


def _control_band(grid, problem, controls):
    """Band of L_b with one row per discrete control (controls x nodes)."""
    nodes, b = grid.nodes, controls.controls[:, np.newaxis]
    return generator_band(nodes, eval_on(problem.drift, nodes, b),
                          eval_on(problem.diffusion, nodes, b) ** 2)


def _reward_block(t, grid, problem, controls):
    """f(t, x_j, b) with one row per discrete control (controls x nodes)."""
    return eval_on(problem.running_reward, t, grid.nodes, controls.controls[:, np.newaxis])


def _best_control(u, band, reward):
    """Argmax over the discrete control set of (L_b u)_j + f(t, x_j, b),
    ``band`` being the :func:`_control_band` of these controls and ``reward``
    their :func:`_reward_block` at t.

    Returns (values, indices); ties go to the smallest control, the first
    index argmax meets.
    """
    vals = apply_band(band, u) + reward
    best_idx = vals.argmax(axis=0)
    return vals[best_idx, np.arange(vals.shape[1])], best_idx


def _improve(u, controls, intervention, band, reward):
    """:func:`policy_improve` at a given operator, band and reward block, also
    returning the control argmax values and indices the policy was chosen by."""
    best_vals, best_idx = _best_control(u, band, reward)
    jump = intervention.apply(u)
    policy = PenaltyPolicy(
        controls=controls.controls[best_idx],
        intervene=jump.values - u > 0.0,
        impulses=jump.impulses,
    )
    return policy, best_vals, best_idx


def policy_improve(u, t, grid, problem, controls, band,
                   intervention=None) -> PenaltyPolicy:
    """Greedy policy at the current iterate.

    The control argmax ignores the time (or discount) term, which does not
    depend on b; the penalty indicator is strict, d_j = 1 iff the best jump
    value exceeds u_j, so at equality the penalty stays off.  ``band`` is the
    :func:`_control_band`.
    """
    operator = _intervention_at(intervention, t, grid, problem, controls)
    return _improve(u, controls, operator, band, _reward_block(t, grid, problem, controls))[0]


def residual(u, rhs_base, time_weight, t, grid, problem, controls, band, epsilon,
             intervention=None, best=None) -> np.ndarray:
    """Pointwise residual of the discrete penalty equations

        -max_b { rhs_base_j - time_weight u_j + (L_b u)_j + f_j(b) }
        - max( (Mu)_j - u_j, 0 ) / epsilon,

    with the (rhs_base, time_weight) pair of :func:`_assemble`:
    (u^{n+1}/dt, 1/dt) for a timestep, (0, beta) for the stationary equations.
    ``best`` is max_b { (L_b u)_j + f_j(b) } at this u, read off ``band``,
    the :func:`_control_band`, when not given.
    """
    _require_epsilon(epsilon)
    if best is None:
        best, _ = _best_control(u, band, _reward_block(t, grid, problem, controls))
    m_vals = _intervention_at(intervention, t, grid, problem, controls).apply(u).values
    return -(best + (rhs_base - time_weight * u)) - np.maximum(m_vals - u, 0.0) / epsilon


def _assemble(policy, rhs_base, time_weight, epsilon, intervention,
              control_band, reward, idx) -> SparseSystem:
    """Linear system of the penalty equations at a frozen policy.

    Row j:  time_weight*u_j - (L_{b_j} u)_j + (d_j/eps)(u_j - sum_c w_c u_c)
            = rhs_base_j + f_j(b_j) + (d_j/eps) * cost_j,
    with zero stencils in the boundary rows.  L_{b_j} and f_j(b_j) are row
    idx_j of the :func:`_control_band` and of the step's :func:`_reward_block`,
    ``idx`` holding the control index of b_j at each node.  The couplings
    (c, w_c) and the cost of each active row are read from
    ``intervention.jump_rows``, the operator that chose the policy:
    interpolation pairs for a jump table, none for a frozen obstacle.
    Couplings that land on the row itself merge into the diagonal; the
    structural check rejects any configuration that loses the M-matrix sign
    pattern or WCDD.
    """
    nodes = np.arange(idx.size)
    band = tuple(part[idx, nodes] for part in control_band)
    rhs = np.asarray(rhs_base, dtype=float) + reward[idx, nodes]

    # Penalty rows: one diagonal entry of 1/eps (less any coupling that lands
    # on the row itself), summed into the band's diagonal by implicit_matrix.
    # A zero weight (alpha == 0, or alpha == 1 at a target clamped to +Q) is
    # dropped: an explicit zero would add a false edge to the WCDD
    # reachability search.
    inv_eps = 1.0 / epsilon
    active = np.flatnonzero(policy.intervene)
    on_diag = np.full(active.size, inv_eps)
    rows, cols, data = [active], [active], [on_diag]
    couplings, cost = intervention.jump_rows(active, policy.impulses[active])
    for col, share in couplings:
        weight = inv_eps * share
        used = share > 0.0
        on_diag -= np.where(used & (col == active), weight, 0.0)
        off = used & (col != active)
        rows.append(active[off])
        cols.append(col[off])
        data.append(-weight[off])
    rhs[active] += inv_eps * cost
    matrix = implicit_matrix(float(time_weight), band, np.concatenate(rows),
                             np.concatenate(cols), np.concatenate(data))

    report = analyze_matrix(matrix)
    if not report.passed:
        raise MatrixStructureError(
            f"assembled penalty system is outside the scheme's guarantees: {report.witness}",
            report=report,
        )
    return SparseSystem(matrix=matrix, rhs=rhs, report=report)


def assemble_policy_system(policy, u_next, t, grid, problem, controls,
                           epsilon, intervention=None) -> SparseSystem:
    """Finite-horizon policy system: time weight 1/dt, source u^{n+1}/dt.

    Every control of the policy must be one of the discrete ``controls``, and
    with a jump table each active impulse must be a candidate at its node;
    ValueError names the first node where either fails.
    """
    _require_epsilon(epsilon)
    matches = policy.controls[:, np.newaxis] == controls.controls
    found = matches.any(axis=1)
    if not found.all():
        bad = int(np.argmin(found))
        raise ValueError(f"policy control {float(policy.controls[bad])!r} at node index "
                         f"{bad} is not one of the discrete controls")
    return _assemble(policy, np.asarray(u_next) / grid.dt, 1.0 / grid.dt, epsilon,
                     _intervention_at(intervention, t, grid, problem, controls),
                     _control_band(grid, problem, controls),
                     _reward_block(t, grid, problem, controls), matches.argmax(axis=1))


def _policy_iteration(u_start, rhs_base, time_weight, epsilon, cfg, controls,
                      intervention, band, reward,
                      time_index) -> tuple[np.ndarray, TimestepDiagnostics, np.ndarray]:
    """Policy iteration from ``u_start``; returns the solution, the step's
    diagnostics and the control argmax values of the last policy
    improvement, which evaluated the returned u."""
    diag = TimestepDiagnostics(time_index=time_index, iterations=0)
    policy, _, best_idx = _improve(u_start, controls, intervention, band, reward)
    u = np.asarray(u_start, dtype=float)
    for _ in range(cfg.max_iters):
        system = _assemble(policy, rhs_base, time_weight, epsilon, intervention,
                           band, reward, best_idx)
        diag.iterations += 1
        diag.min_dominance_margin = min(diag.min_dominance_margin, system.report.min_margin)
        u_new = spsolve(system.matrix, system.rhs)
        if not np.all(np.isfinite(u_new)):
            raise SolverError("policy system solve returned non-finite values")
        new_policy, best_vals, best_idx = _improve(u_new, controls, intervention, band, reward)
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
    return u, diag, best_vals


def _solve_step(u_start, rhs_base, time_weight, t, grid, problem, controls, band,
                epsilon, cfg, intervention, time_index,
                where) -> tuple[np.ndarray, TimestepDiagnostics]:
    """Solve one system of penalty equations (a timestep or the stationary
    equations) by policy iteration from ``u_start``, then gate the result on
    the pointwise :func:`residual`; ``band`` is the :func:`_control_band`, and
    the step evaluates the running reward once, as its :func:`_reward_block`."""
    _require_epsilon(epsilon)
    reward = _reward_block(t, grid, problem, controls)
    # Only policy iteration holds its table, which is freed before the gate,
    # given None, builds its own (one alive at a time); perfbench/selftest.py
    # pins these two builds a step.
    u, diag, best = _policy_iteration(
        u_start, rhs_base, time_weight, epsilon, cfg, controls,
        _intervention_at(intervention, t, grid, problem, controls), band, reward, time_index)
    res = residual(u, rhs_base, time_weight, t, grid, problem, controls, band, epsilon,
                   intervention, best)
    diag.final_residual = float(np.abs(res).max())
    if diag.final_residual > cfg.residual_tol:
        raise NonConvergenceError(
            f"{where}: residual {diag.final_residual:.3g} exceeds "
            f"residual_tol {cfg.residual_tol:.3g}",
            history=diag.updates,
        )
    return u, diag


def penalty_timestep(u_next, t, grid, problem, controls, band, epsilon,
                     cfg: SolverConfig | None = None,
                     intervention=None) -> tuple[np.ndarray, TimestepDiagnostics]:
    """One implicit timestep by policy iteration, solved to residual tolerance;
    ``band`` is the :func:`_control_band`."""
    u_next = np.asarray(u_next, dtype=float)
    return _solve_step(u_next, u_next / grid.dt, 1.0 / grid.dt, t, grid, problem, controls,
                       band, epsilon, cfg or SolverConfig(), intervention,
                       time_index=int(round(t / grid.dt)), where="penalty timestep")


def solve_finite_horizon(problem: ProblemSpec, grid: SpaceTimeGrid,
                         controls: DiscreteControls | None = None,
                         epsilon: float | None = None,
                         cfg: SolverConfig | None = None) -> Solution:
    """:func:`solution.backward_induction` of :func:`penalty_timestep` from
    u^N = g, with one :func:`_control_band` for every step."""
    if not problem.finite_horizon:
        raise ValueError("solve_finite_horizon needs a finite-horizon problem")
    cfg = cfg or SolverConfig()
    controls = controls or discretize_controls(problem, grid.rho)
    epsilon = default_epsilon(grid, cfg) if epsilon is None else float(epsilon)

    diagnostics = SolveDiagnostics()
    band = _control_band(grid, problem, controls)

    def step(u_next, n):
        u, step_diag = penalty_timestep(u_next, n * grid.dt, grid, problem, controls, band,
                                        epsilon, cfg)
        diagnostics.record_step(step_diag)
        return u, step_diag.policy

    surface, policies = backward_induction(
        grid, eval_on(problem.terminal_reward, grid.nodes), step)
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
    u, step_diag = _solve_step(zeros, zeros, problem.discount, 0.0, grid, problem, controls,
                               _control_band(grid, problem, controls), epsilon, cfg, None,
                               time_index=0, where="stationary solve")
    diagnostics = SolveDiagnostics()
    diagnostics.record_step(step_diag)
    return Solution(grid=grid, scheme="penalty", horizon=INFINITE,
                    surface=u[np.newaxis, :], policies=[step_diag.policy],
                    diagnostics=diagnostics, epsilon=epsilon)


def scheme_row(j, center, u_n, u_next, obstacle_value, t, grid, problem,
               controls, band, reward, epsilon) -> float:
    """Penalty residual at one node with the node value and obstacle pinned.

    This is the scheme read as a function of the off-node values, which is
    what the monotonicity property quantifies over; it is the :func:`residual`
    the solve is gated on (stationary, ``u_next`` unused, when discounted).
    ``band`` is the :func:`_control_band` and ``reward`` the
    :func:`_reward_block` at t.
    """
    i = grid.offset(j)
    u_loc = np.array(u_n, dtype=float)
    u_loc[i] = center
    if problem.finite_horizon:
        rhs_base, time_weight = np.asarray(u_next, dtype=float) / grid.dt, 1.0 / grid.dt
    else:
        rhs_base, time_weight = 0.0, problem.discount
    res = residual(u_loc, rhs_base, time_weight, t, grid, problem, controls, band, epsilon,
                   FrozenObstacle(np.full(grid.n_nodes, obstacle_value)),
                   _best_control(u_loc, band, reward)[0])
    return float(res[i])
