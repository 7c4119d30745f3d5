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
  every point what may change.  Drift and diffusion take no t, so each
  call evaluates them once per (node, control), before the time loop.
  Within one time level, u at a jump target is a function of the target
  alone, so each distinct target is interpolated once per level.  A
  declared :class:`problem.SeparableReward` ignores b, so the running
  reward is evaluated once per (t, x).  A declared reset
  (``ProblemSpec.reset_cost``) takes no t, so each node's (target, cost)
  pairs are evaluated once per call and rebuilt only at a level whose
  impulse candidates differ, byte for byte, from those they were built
  from.  An undeclared problem's reward is evaluated at every (t, x, b),
  and its impulse shift and cost at every (t, x, z).  A non-finite value
  wherever an audit evaluates one makes its residual NaN.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from math import isfinite

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
    diagnostics = SolveDiagnostics(control_rows=band.index.shape[0])
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
    """(b, drift(x, b), diffusion(x, b)) for every control b in bs, or None
    when a value is not finite.

    Drift and diffusion take no t: an audit reads each node's list once and
    uses it in every time row."""
    row = [(b, float(problem.drift(x, b)), float(problem.diffusion(x, b))) for b in bs]
    return row if all(isfinite(mu) and isfinite(sg) for _, mu, sg in row) else None


def _reward_reader(problem, bs):
    """A function of (t, x) giving f(t, x, b) for the controls bs in order,
    or None when a value is not finite.

    A declared :class:`problem.SeparableReward` ignores b, so it is
    evaluated once per (t, x), at bs[0], and that value stands for every b;
    an undeclared reward is evaluated at every (t, x, b)."""
    reward = problem.running_reward
    if problem.separable_reward is not None:
        b0 = bs[0]

        def read(t, x):
            f = float(reward(t, x, b0))
            return repeat(f) if isfinite(f) else None
    else:
        def read(t, x):
            fs = [float(reward(t, x, b)) for b in bs]
            return fs if all(map(isfinite, fs)) else None
    return read


def _jump_reader(problem, grid, controls):
    """A function of t giving each node's (x + impulse_shift, impulse_cost)
    pairs over its candidates in level t's ``impulse_values`` block, or None
    when a target or a cost is not finite.

    A declared reset (``problem.reset_cost``) takes no t, so its pairs are
    kept, evaluated once, while a level's block is byte for byte the block
    they were built from, and rebuilt when it is not; an undeclared impulse
    is evaluated at every (t, x, z).  The comparison is on values, not on
    the block's identity."""
    shift, cost = problem.impulse_shift, problem.impulse_cost
    nodes = grid.nodes.tolist()
    declared = problem.reset_cost is not None
    kept_key = kept = None

    def build(t, block):
        pairs = []
        for x, zs in zip(nodes, block.tolist()):
            row = [(x + float(shift(t, x, z)), float(cost(t, x, z))) for z in zs]
            if not all(isfinite(target) and isfinite(c) for target, c in row):
                return None
            pairs.append(row)
        return pairs

    def read(t):
        nonlocal kept_key, kept
        block = controls.impulse_values(t, grid.nodes)
        if not declared:
            return build(t, block)
        key = (block.shape, block.tobytes())
        if key != kept_key:
            kept_key, kept = key, build(t, block)
        return kept
    return read


def _best_jump(nodes, pairs, u, reads):
    """max over a node's (target, cost) pairs of u(target) + cost, u read by
    _interp_scalar.

    ``pairs`` is the node's list from :func:`_jump_reader`: a declared
    reset's, built once while the level's candidates stay the same, or an
    undeclared impulse's, evaluated at this level.  ``reads`` holds
    u(target) for each target already read at this level: a target shared
    by several (x, z) is interpolated once.  (0.0 and -0.0 share an entry;
    their reads differ at most in the sign of a zero.)"""
    best = -np.inf
    for target, cost in pairs:
        value = reads.get(target)
        if value is None:
            value = reads[target] = _interp_scalar(nodes, u, target)
        gain = value + cost
        if gain > best:
            best = gain
    return best


def _row_residual(problem, nodes, n_nodes, pairs, dt_term, i, u, u_next, coefficients,
                  rewards, epsilon, reads):
    # The terms free of b, once per row; the loop picks the one-sided
    # difference on the sign of the drift.  ``coefficients`` is the node's
    # _coefficients list, ``rewards`` its _reward_reader values in the same
    # control order; ``pairs`` and ``reads`` are _best_jump's.
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
    for (_, mu, sg), f in zip(coefficients, rewards):
        first = forward if mu >= 0.0 else backward
        val = time_part + mu * first + 0.5 * sg * sg * second + f
        if val > best:
            best = val
    penalty_part = max(_best_jump(nodes, pairs, u, reads) - u[i], 0.0) / epsilon
    return -best - penalty_part


def _terminal_gap(problem, nodes, last_row):
    """The worst |u^N_j - g(x_j)|, or None when a g(x_j) is not finite."""
    gap = 0.0
    for x, v in zip(nodes, last_row.tolist()):
        g = float(problem.terminal_reward(x))
        if not isfinite(g):
            return None
        gap = max(gap, abs(v - g))
    return gap


def brute_force_residual(sol, problem: ProblemSpec, grid: SpaceTimeGrid,
                         controls: DiscreteControls, epsilon: float) -> float:
    """Loop-based re-evaluation of the penalty equations over a full surface.

    For a finite-horizon problem, returns the worst residual over all
    interior-time rows plus the worst terminal mismatch |u^N_j - g(x_j)|;
    for a discounted problem, the worst residual of the stationary rows at
    t = 0.  Accepts a Solution or a bare surface array; a non-finite entry
    anywhere in it, or a non-finite coefficient, reward, impulse shift,
    impulse cost or jump target wherever the audit evaluates one, makes
    the residual NaN.
    """
    surface = np.atleast_2d(getattr(sol, "surface", sol))
    if not np.isfinite(surface).all():
        return float("nan")
    nodes = grid.nodes.tolist()
    n_nodes = len(nodes)
    bs = controls.controls.tolist()
    coefficients = [_coefficients(problem, x, bs) for x in nodes]
    if None in coefficients:
        return float("nan")
    read_rewards = _reward_reader(problem, bs)
    read_jumps = _jump_reader(problem, grid, controls)

    terminal_gap = 0.0
    if problem.finite_horizon:
        dt = float(grid.dt)
        rows = [(n * dt, surface[n], surface[n + 1]) for n in range(surface.shape[0] - 1)]
        terminal_gap = _terminal_gap(problem, nodes, surface[-1])
        if terminal_gap is None:
            return float("nan")
    else:
        dt, rows = None, [(0.0, surface[0], surface[0])]

    worst = 0.0
    for t, u_row, next_row in rows:
        u = u_row.tolist()
        u_next = next_row.tolist()
        jumps = read_jumps(t)
        if jumps is None:
            return float("nan")
        reads = {}
        for i, x in enumerate(nodes):
            rewards = read_rewards(t, x)
            if rewards is None:
                return float("nan")
            row = _row_residual(problem, nodes, n_nodes, jumps[i], dt, i, u, u_next,
                                coefficients[i], rewards, epsilon, reads)
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
    in it, or a non-finite coefficient, reward, impulse shift, impulse cost
    or jump target wherever the audit evaluates one, makes the residual NaN.
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
        if row is None:
            return float("nan")
        sg = row[0][2]
        weights.append(0.5 * dt * sg * sg)
        feet.append([x + mu * dt for _, mu, _ in row])
    read_rewards = _reward_reader(problem, bs)
    read_jumps = _jump_reader(problem, grid, controls)

    terminal_gap = _terminal_gap(problem, nodes, surface[-1])
    if terminal_gap is None:
        return float("nan")

    worst = 0.0
    for n in range(surface.shape[0] - 1):
        t = n * dt
        u = surface[n].tolist()
        u_next = surface[n + 1].tolist()
        jumps = read_jumps(t + dt)
        if jumps is None:
            return float("nan")
        reads = {}
        for i, x in enumerate(nodes):
            rewards = read_rewards(t, x)
            if rewards is None:
                return float("nan")
            row = u[i]
            if 0 < i < n_nodes - 1:
                row -= weights[i] * _second_difference(nodes, u, i)
            best = -np.inf
            for foot, f in zip(feet[i], rewards):
                value = _interp_scalar(nodes, u_next, foot) + f * dt
                if value > best:
                    best = value
            rhs = max(best, _best_jump(nodes, jumps[i], u_next, reads))
            worst = max(worst, abs(row - rhs))
    return worst + terminal_gap
