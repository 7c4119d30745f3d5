"""Reference computations used to audit the direct solvers.

Two independent routes:

* :func:`solve_iterated_optimal_stopping` solves the quasi-variational
  inequality as the monotone limit of variational inequalities: iterate k
  solves the problem with the obstacle frozen at the best-jump values of
  iterate k-1, so each pass is an optimal-stopping problem.  Iterates are
  pointwise nondecreasing.  A pass is the solvers' backward induction of
  the penalty timestep against its own frozen obstacles, read off jump
  tables the oracle builds itself.  Every iterate keeps its full surface,
  O(M^2) memory, while each level's jump table is built again, one at a
  time, in every pass that applies it: time traded for memory, since
  keeping all N+1 tables costs O(M^3).

* :func:`brute_force_residual` re-evaluates the discrete penalty equations
  with plain scalar loops that share no code with the solver's assembled
  systems, only the problem data and the discrete control sets.  It shares
  the sampled candidate sets: each time level's impulse candidates come
  from one ``impulse_values`` block, in which a node with fewer candidates
  repeats its last z, leaving the maximum over candidates unchanged.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .exceptions import NonConvergenceError
from .grid import SpaceTimeGrid
from .operators import DiscreteControls, FrozenObstacle, InterventionTable, discretize_controls
from .penalty import SystemMemo, _control_band, penalty_timestep
from .problem import ProblemSpec, eval_on
from .solution import (SolveDiagnostics, Solution, SolverConfig, backward_induction,
                       default_epsilon, require_time_axis)

#: Iterated optimal stopping stops once a pass changes the surface by less
#: than OUTER_TOL in sup norm, and fails after K_MAX passes.
OUTER_TOL = 1e-6
K_MAX = 50


def solve_iterated_optimal_stopping(problem: ProblemSpec, grid: SpaceTimeGrid,
                                    controls: DiscreteControls | None = None,
                                    cfg: SolverConfig | None = None) -> Solution:
    """Iterated optimal stopping up to sup-norm change OUTER_TOL between iterates.

    The textbook iteration starts from minus infinity; numerically the first
    iterate is the no-intervention solve (a frozen obstacle of -inf), which
    still lies below the solution, so the monotone bracketing survives.  The
    terminal row of each pass is max(g, frozen obstacle at T), which under
    the terminal no-gain hypothesis is just g.  Every inner step of every
    pass reads one controls x nodes generator band and passes its policy
    systems through one :class:`penalty.SystemMemo`, both kept for the call,
    so a step whose system repeats the one solved before reuses it.
    A pass builds each level's jump table when it applies it and drops it
    after, so one table is alive at a time; no table is reused across
    levels or passes.
    """
    require_time_axis(problem, grid)
    controls = controls or discretize_controls(problem, grid.rho)
    epsilon = default_epsilon(grid, cfg or SolverConfig())

    dt = grid.dt
    band = _control_band(grid, problem, controls)
    g_vals = eval_on(problem.terminal_reward, grid.nodes)
    diagnostics = SolveDiagnostics()
    memo = SystemMemo()

    def step(u_next, n):
        # Reads the current pass's ``obstacles``.
        u, step_diag = penalty_timestep(u_next, n * dt, grid, problem, controls, band, epsilon,
                                        intervention=FrozenObstacle(obstacles[n]), memo=memo)
        diagnostics.record_step(step_diag)
        return u, step_diag.policy

    obstacles = [np.full(grid.n_nodes, -np.inf)] * grid.N
    surface, policies = backward_induction(grid, g_vals, step)

    converged = False
    for _ in range(K_MAX):
        obstacles = [InterventionTable(problem, grid, controls, n * dt).apply(surface[n]).values
                     for n in range(grid.N + 1)]
        new_surface, policies = backward_induction(
            grid, np.maximum(g_vals, obstacles[grid.N]), step)
        diff = new_surface - surface
        diagnostics.outer_changes.append(float(np.abs(diff).max()))
        diagnostics.outer_min_increments.append(float(diff.min()))
        surface = new_surface
        if diagnostics.outer_changes[-1] < OUTER_TOL:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"iterated optimal stopping: K_MAX={K_MAX} passes left a sup change "
            f"of {diagnostics.outer_changes[-1]:.3g} (OUTER_TOL {OUTER_TOL:.3g})",
            history=diagnostics.outer_changes,
        )
    return Solution(grid=grid, scheme="ios", surface=surface, policies=policies,
                    diagnostics=diagnostics, epsilon=epsilon)


def _interp_scalar(nodes, values, x):
    if x <= nodes[0]:
        return values[0]
    if x >= nodes[-1]:
        return values[-1]
    k = bisect_right(nodes, x) - 1
    weight = (x - nodes[k]) / (nodes[k + 1] - nodes[k])
    return (1.0 - weight) * values[k] + weight * values[k + 1]


def _row_residual(problem, nodes, n_nodes, zs, t, dt_term, i, x, u, u_next, bs, epsilon):
    best = -np.inf
    for b in bs:
        mu = float(problem.drift(x, b))
        sg = float(problem.diffusion(x, b))
        if 0 < i < n_nodes - 1:
            if mu >= 0.0:
                first = (u[i + 1] - u[i]) / (nodes[i + 1] - nodes[i])
            else:
                first = (u[i] - u[i - 1]) / (nodes[i] - nodes[i - 1])
            hm = nodes[i] - nodes[i - 1]
            hp = nodes[i + 1] - nodes[i]
            second = 2.0 * (u[i - 1] / (hm * (hm + hp))
                            - u[i] / (hm * hp)
                            + u[i + 1] / (hp * (hm + hp)))
        else:
            first = second = 0.0
        if dt_term is not None:
            time_part = (u_next[i] - u[i]) / dt_term
        else:
            time_part = -problem.discount * u[i]
        val = time_part + mu * first + 0.5 * sg * sg * second \
            + float(problem.running_reward(t, x, b))
        if val > best:
            best = val
    jump_best = -np.inf
    for z in zs:
        z = float(z)
        target = x + float(problem.impulse_shift(t, x, z))
        gain = _interp_scalar(nodes, u, target) + float(problem.impulse_cost(t, x, z))
        if gain > jump_best:
            jump_best = gain
    penalty_part = max(jump_best - u[i], 0.0) / epsilon
    return -best - penalty_part


def brute_force_residual(sol, problem: ProblemSpec, grid: SpaceTimeGrid,
                         controls: DiscreteControls, epsilon: float) -> float:
    """Loop-based re-evaluation of the penalty equations over a full surface.

    For a finite-horizon problem, returns the worst residual over all
    interior-time rows plus the worst terminal mismatch |u^N_j - g(x_j)|;
    for a discounted problem, the worst residual of the stationary rows at
    t = 0.  Accepts a Solution or a bare surface array; a non-finite entry
    anywhere in it makes the residual NaN.
    """
    surface = np.atleast_2d(getattr(sol, "surface", sol))
    if not np.isfinite(surface).all():
        return float("nan")
    nodes = [float(x) for x in grid.nodes]
    n_nodes = len(nodes)
    bs = [float(b) for b in controls.controls]

    terminal_gap = 0.0
    if problem.finite_horizon:
        dt = float(grid.dt)
        rows = [(n * dt, surface[n], surface[n + 1]) for n in range(surface.shape[0] - 1)]
        for x, v in zip(nodes, surface[-1]):
            terminal_gap = max(terminal_gap, abs(float(v) - float(problem.terminal_reward(x))))
    else:
        dt, rows = None, [(0.0, surface[0], surface[0])]

    worst = 0.0
    for t, u_row, next_row in rows:
        u = [float(v) for v in u_row]
        u_next = [float(v) for v in next_row]
        candidates = controls.impulse_values(t, grid.nodes).tolist()
        for i, x in enumerate(nodes):
            row = _row_residual(problem, nodes, n_nodes, candidates[i], t, dt, i, x,
                                u, u_next, bs, epsilon)
            worst = max(worst, abs(row))
    return worst + terminal_gap
