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

* :func:`brute_force_residual` and :func:`brute_force_sl_residual`
  re-evaluate the discrete penalty and semi-Lagrangian equations with
  plain scalar loops that share no code with the solvers, only the problem
  data and the discrete control sets.  Both run through one loop,
  :func:`_audit`, over (time row, node); each scheme supplies only its row
  equation.  They share the sampled candidate sets: each time level's
  impulse candidates come from one ``impulse_values`` block, in which a
  node with fewer candidates repeats its last z, leaving the maximum over
  candidates unchanged.  Both maximise over every sampled control, so they
  audit the solvers' reduced control maxima.

  The loop reads once what it already holds exactly and evaluates at
  every point what may change: drift and diffusion once per (node,
  control), u at each distinct jump target once per level, a declared
  :class:`problem.SeparableReward` once per (t, x), and a declared reset's
  (target, cost) pairs once per call and again only at a level whose
  impulse candidates differ.  An undeclared reward, impulse shift and cost
  are evaluated at every point.  A non-finite value wherever an audit
  evaluates one makes its residual NaN; a surface whose shape is not the
  grid's raises ValueError.
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
    """(drift(x, b), diffusion(x, b)) for every control b in bs, or None when
    a value is not finite.

    Drift and diffusion take no t: an audit reads each node's list once and
    uses it in every time row."""
    row = [(float(problem.drift(x, b)), float(problem.diffusion(x, b))) for b in bs]
    return row if all(isfinite(mu) and isfinite(sg) for mu, sg in row) else None


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


def _terminal_gap(problem, nodes, last_row):
    """The worst |u^N_j - g(x_j)|, or None when a g(x_j) is not finite."""
    gap = 0.0
    for x, v in zip(nodes, last_row.tolist()):
        g = float(problem.terminal_reward(x))
        if not isfinite(g):
            return None
        gap = max(gap, abs(v - g))
    return gap


def _audit(sol, problem, grid, controls, row, jump_lag=0.0):
    """The worst |row| over every time row and node, plus, for a finite
    horizon, the worst terminal mismatch |u^N_j - g(x_j)|.

    The rows (t, u, u_next) are (n dt, u^n, u^{n+1}) for n < N, or the one
    row (0, u, u) when discounted; the surface must be (N+1) x n, or 1 x n
    when discounted.  ``row(i, u, u_next, coefficients, rewards, pairs,
    reads)`` is the scheme's equation at node i: the node's _coefficients,
    its rewards at t, its jump pairs at level t + jump_lag and the row's
    _best_jump cache.
    """
    surface = np.atleast_2d(getattr(sol, "surface", sol))
    nodes = grid.nodes.tolist()
    shape = (grid.N + 1 if problem.finite_horizon else 1, len(nodes))
    if surface.shape != shape:
        raise ValueError(f"the audit needs a surface of shape {shape}, got {surface.shape}")
    if not np.isfinite(surface).all():
        return float("nan")
    bs = controls.controls.tolist()
    coefficients = [_coefficients(problem, x, bs) for x in nodes]
    if None in coefficients:
        return float("nan")
    read_rewards = _reward_reader(problem, bs)
    read_jumps = _jump_reader(problem, grid, controls)

    terminal_gap = 0.0
    if problem.finite_horizon:
        dt = float(grid.dt)
        rows = [(n * dt, surface[n], surface[n + 1]) for n in range(grid.N)]
        terminal_gap = _terminal_gap(problem, nodes, surface[-1])
        if terminal_gap is None:
            return float("nan")
    else:
        rows = [(0.0, surface[0], surface[0])]

    worst = 0.0
    for t, u_row, next_row in rows:
        u = u_row.tolist()
        u_next = next_row.tolist()
        jumps = read_jumps(t + jump_lag)
        if jumps is None:
            return float("nan")
        reads = {}
        for i, x in enumerate(nodes):
            rewards = read_rewards(t, x)
            if rewards is None:
                return float("nan")
            worst = max(worst, abs(row(i, u, u_next, coefficients[i], rewards, jumps[i], reads)))
    return worst + terminal_gap


def _penalty_row(problem, nodes, dt, epsilon):
    """The penalty scheme's row equation for :func:`_audit`: minus the best
    over controls of the time, drift, diffusion and reward terms, minus the
    penalised gain of the best jump.  The time term is (u^{n+1}_i - u^n_i)/dt
    for a finite horizon and -discount u_i when discounted."""
    last = len(nodes) - 1
    finite = problem.finite_horizon

    def row(i, u, u_next, coefficients, rewards, pairs, reads):
        # The terms free of b, once per row; the loop picks the one-sided
        # difference on the sign of the drift.
        if 0 < i < last:
            forward = (u[i + 1] - u[i]) / (nodes[i + 1] - nodes[i])
            backward = (u[i] - u[i - 1]) / (nodes[i] - nodes[i - 1])
            second = _second_difference(nodes, u, i)
        else:
            forward = backward = second = 0.0
        if finite:
            time_part = (u_next[i] - u[i]) / dt
        else:
            time_part = -problem.discount * u[i]
        best = -np.inf
        for (mu, sg), f in zip(coefficients, rewards):
            first = forward if mu >= 0.0 else backward
            val = time_part + mu * first + 0.5 * sg * sg * second + f
            if val > best:
                best = val
        penalty_part = max(_best_jump(nodes, pairs, u, reads) - u[i], 0.0) / epsilon
        return -best - penalty_part
    return row


def _sl_row(nodes, dt):
    """The row equation of :func:`brute_force_sl_residual` for :func:`_audit`:
    row - rhs, the row and the rhs as that docstring states them."""
    last = len(nodes) - 1

    def row(i, u, u_next, coefficients, rewards, pairs, reads):
        value = u[i]
        if 0 < i < last:
            sg = coefficients[0][1]
            value -= 0.5 * dt * sg * sg * _second_difference(nodes, u, i)
        x = nodes[i]
        best = -np.inf
        for (mu, _), f in zip(coefficients, rewards):
            continuation = _interp_scalar(nodes, u_next, x + mu * dt) + f * dt
            if continuation > best:
                best = continuation
        return value - max(best, _best_jump(nodes, pairs, u_next, reads))
    return row


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
    row = _penalty_row(problem, grid.nodes.tolist(), float(grid.dt), epsilon)
    return _audit(sol, problem, grid, controls, row)


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
    if not problem.finite_horizon:
        raise ValueError("the semi-Lagrangian audit needs a finite horizon, not a discount")
    dt = float(grid.dt)
    return _audit(sol, problem, grid, controls, _sl_row(grid.nodes.tolist(), dt), jump_lag=dt)
