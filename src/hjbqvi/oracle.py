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
  :func:`brute_force_sl_residual` does the same for the semi-Lagrangian
  equations, sharing no code with :mod:`semilag`.  Both maximise over every
  sampled control, so they audit the solvers' reduced control maxima.

  Both audits read once what they already hold exactly, and evaluate at
  every point what depends on t.  Drift and diffusion take no t, so each
  call evaluates them once per (node, control), before the time loop.
  Within one time level, u at a jump target is a function of the target
  alone, so each distinct target is interpolated once per level.  The
  running reward is evaluated at every (t, x, b), and the impulse shift and
  cost at every (t, x, z).
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
    diagnostics = SolveDiagnostics(control_rows=band.index.size)
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


def _second_difference(nodes, u, i):
    """The three-point second difference of u at interior node i."""
    hm = nodes[i] - nodes[i - 1]
    hp = nodes[i + 1] - nodes[i]
    return 2.0 * (u[i - 1] / (hm * (hm + hp))
                  - u[i] / (hm * hp)
                  + u[i + 1] / (hp * (hm + hp)))


def _coefficients(problem, x, bs):
    """(b, drift(x, b), diffusion(x, b)) for every control b in bs.

    Drift and diffusion take no t: an audit reads each node's list once and
    uses it in every time row."""
    return [(b, float(problem.drift(x, b)), float(problem.diffusion(x, b))) for b in bs]


def _best_jump(problem, nodes, zs, t, x, u, reads):
    """max over the candidates zs of u(x + shift) + cost, u read by _interp_scalar.

    ``reads`` holds u(target) for each target already read at this level: a
    target shared by several (x, z) is interpolated once.  (0.0 and -0.0
    share an entry; their reads differ at most in the sign of a zero.)"""
    best = -np.inf
    for z in zs:
        target = x + float(problem.impulse_shift(t, x, z))
        value = reads.get(target)
        if value is None:
            value = reads[target] = _interp_scalar(nodes, u, target)
        gain = value + float(problem.impulse_cost(t, x, z))
        if gain > best:
            best = gain
    return best


def _row_residual(problem, nodes, n_nodes, zs, t, dt_term, i, x, u, u_next, coefficients,
                  epsilon, reads):
    # The terms free of b, once per row; the loop picks the one-sided
    # difference on the sign of the drift.  ``coefficients`` is the node's
    # _coefficients list; ``reads`` is _best_jump's.
    if 0 < i < n_nodes - 1:
        forward = (u[i + 1] - u[i]) / (nodes[i + 1] - nodes[i])
        backward = (u[i] - u[i - 1]) / (nodes[i] - nodes[i - 1])
        second = _second_difference(nodes, u, i)
    else:
        forward = backward = second = 0.0
    if dt_term is not None:
        time_part = (u_next[i] - u[i]) / dt_term
    else:
        time_part = -problem.discount * u[i]
    best = -np.inf
    for b, mu, sg in coefficients:
        first = forward if mu >= 0.0 else backward
        val = time_part + mu * first + 0.5 * sg * sg * second \
            + float(problem.running_reward(t, x, b))
        if val > best:
            best = val
    penalty_part = max(_best_jump(problem, nodes, zs, t, x, u, reads) - u[i], 0.0) / epsilon
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
    nodes = grid.nodes.tolist()
    n_nodes = len(nodes)
    bs = controls.controls.tolist()
    coefficients = [_coefficients(problem, x, bs) for x in nodes]

    terminal_gap = 0.0
    if problem.finite_horizon:
        dt = float(grid.dt)
        rows = [(n * dt, surface[n], surface[n + 1]) for n in range(surface.shape[0] - 1)]
        for x, v in zip(nodes, surface[-1].tolist()):
            terminal_gap = max(terminal_gap, abs(v - float(problem.terminal_reward(x))))
    else:
        dt, rows = None, [(0.0, surface[0], surface[0])]

    worst = 0.0
    for t, u_row, next_row in rows:
        u = u_row.tolist()
        u_next = next_row.tolist()
        candidates = controls.impulse_values(t, grid.nodes).tolist()
        reads = {}
        for i, x in enumerate(nodes):
            row = _row_residual(problem, nodes, n_nodes, candidates[i], t, dt, i, x,
                                u, u_next, coefficients[i], epsilon, reads)
            worst = max(worst, abs(row))
    return worst + terminal_gap


def brute_force_sl_residual(sol, problem: ProblemSpec, grid: SpaceTimeGrid,
                            controls: DiscreteControls) -> float:
    """Loop-based re-evaluation of the semi-Lagrangian equations over a full
    surface, sharing no code with :mod:`semilag`.

    Row j of step n, at t = n dt, is u_j - dt/2 diffusion(x_j, b_0)^2
    (D2 u)_j (u_j at either end), b_0 the smallest control; its right-hand
    side is the larger of the best continuation over every sampled control,
    u^{n+1} at the foot x_j + drift(x_j, b) dt plus f(t, x_j, b) dt, and the
    best jump at level n+1 over that level's ``impulse_values`` candidates.
    Feet and jump targets are read by clamped linear interpolation.  Returns
    the worst |row - rhs| plus the worst terminal mismatch |u^N_j - g(x_j)|.
    Accepts a Solution or a bare surface array; a non-finite entry anywhere
    in it makes the residual NaN.
    """
    surface = np.atleast_2d(getattr(sol, "surface", sol))
    if not np.isfinite(surface).all():
        return float("nan")
    nodes = grid.nodes.tolist()
    n_nodes = len(nodes)
    dt = float(grid.dt)
    # Per node, the diffusion row's weight and each control's foot: neither
    # depends on t.
    bs = controls.controls.tolist()
    weights, feet = [], []
    for x in nodes:
        row = _coefficients(problem, x, bs)
        sg = row[0][2]
        weights.append(0.5 * dt * sg * sg)
        feet.append([(b, x + mu * dt) for b, mu, _ in row])

    terminal_gap = 0.0
    for x, v in zip(nodes, surface[-1].tolist()):
        terminal_gap = max(terminal_gap, abs(v - float(problem.terminal_reward(x))))

    worst = 0.0
    for n in range(surface.shape[0] - 1):
        t = n * dt
        u = surface[n].tolist()
        u_next = surface[n + 1].tolist()
        candidates = controls.impulse_values(t + dt, grid.nodes).tolist()
        reads = {}
        for i, x in enumerate(nodes):
            row = u[i]
            if 0 < i < n_nodes - 1:
                row -= weights[i] * _second_difference(nodes, u, i)
            best = -np.inf
            for b, foot in feet[i]:
                value = _interp_scalar(nodes, u_next, foot) \
                    + float(problem.running_reward(t, x, b)) * dt
                if value > best:
                    best = value
            rhs = max(best, _best_jump(problem, nodes, candidates[i], t + dt, x, u_next, reads))
            worst = max(worst, abs(row - rhs))
    return worst + terminal_gap
