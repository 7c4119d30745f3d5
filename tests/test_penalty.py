from dataclasses import replace

import numpy as np
import pytest

from hjbqvi import penalty as penalty_mod
from hjbqvi.exceptions import MatrixStructureError
from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid
from hjbqvi.harness import RESIDUAL_ORACLE_TOL, check_solution_matrices, check_stability_bound
from hjbqvi.oracle import brute_force_residual, solve_iterated_optimal_stopping
from hjbqvi.matrices import analyze_matrix
from hjbqvi.operators import (
    FrozenObstacle,
    InterventionTable,
    discretize_controls,
    generator_band,
    interp_weights,
)
from hjbqvi.penalty import (
    SystemMemo,
    _assemble,
    _best_control,
    _control_band,
    _improve,
    _reward_block,
    penalty_timestep,
    residual,
    solve_finite_horizon,
    solve_infinite_horizon,
)
from hjbqvi.problem import ProblemSpec, SeparableReward, builtin, eval_on, uniform_sample
from hjbqvi.solution import PenaltyPolicy


def value_policy(controls, intervene, impulses):
    """A policy whose value tables are its own per-node values: node j reads
    row j of the controls and column 0 of row j of the impulses."""
    n = len(intervene)
    return PenaltyPolicy(control_rows=np.arange(n), intervene=intervene,
                         impulse_columns=np.zeros(n, dtype=int),
                         control_values=np.asarray(controls, dtype=float),
                         candidates=np.asarray(impulses, dtype=float)[:, np.newaxis])


def terminal_values(problem, grid):
    return eval_on(problem.terminal_reward, grid.nodes)


def operands(problem, grid, controls, t):
    """What a penalty step builds once: the control band, and the reward
    block and jump table at t."""
    band = _control_band(grid, problem, controls)
    return (band, _reward_block(t, grid, problem, controls, band),
            InterventionTable(problem, grid, controls, t))


def timestep_system(policy, idx, u_next, grid, epsilon, operator, band, reward):
    """(matrix, rhs) of the finite-horizon policy system: time weight 1/dt,
    source u^{n+1}/dt; ``idx`` holds each node's control index."""
    memo = SystemMemo()
    rhs = _assemble(policy, np.asarray(u_next) / grid.dt, 1.0 / grid.dt, epsilon, operator,
                    band, reward, idx, memo)
    return memo.matrix, rhs


def gate_residual(u, rhs_base, time_weight, t, grid, problem, controls, epsilon):
    """residual(u) as the step's gate reads it: the argmax values of the
    control band and reward block at t, and (Mu)_j of the jump table at t."""
    band, reward, table = operands(problem, grid, controls, t)
    best = _best_control(u, band.parts, reward)[0]
    return residual(u, rhs_base, time_weight, best, table.apply(u).values, epsilon)


def brute_residual_row(problem, grid, controls, epsilon, t, i, u, u_next):
    """Independent per-row re-evaluation used as the randomized oracle."""
    x = float(grid.nodes[i])
    best = -np.inf
    for b in controls.controls:
        b = float(b)
        mu = float(problem.drift(x, b))
        sg = float(problem.diffusion(x, b))
        if 0 < i < grid.n_nodes - 1:
            if mu >= 0:
                first = (u[i + 1] - u[i]) / (grid.nodes[i + 1] - grid.nodes[i])
            else:
                first = (u[i] - u[i - 1]) / (grid.nodes[i] - grid.nodes[i - 1])
            hm = grid.nodes[i] - grid.nodes[i - 1]
            hp = grid.nodes[i + 1] - grid.nodes[i]
            second = 2 * (u[i - 1] / (hm * (hm + hp)) - u[i] / (hm * hp)
                          + u[i + 1] / (hp * (hm + hp)))
        else:
            first = second = 0.0
        val = (u_next[i] - u[i]) / grid.dt + mu * first + 0.5 * sg * sg * second \
            + float(problem.running_reward(t, x, b))
        best = max(best, val)
    jump = -np.inf
    for z in uniform_sample(*problem.impulse_bounds(t, x), controls.rho):
        z = float(z)
        target = x + float(problem.impulse_shift(t, x, z))
        jump = max(jump, float(np.interp(target, grid.nodes, u))
                   + float(problem.impulse_cost(t, x, z)))
    return -best - max(jump - u[i], 0.0) / epsilon


class TestResidual:
    def test_constant_solution_has_zero_residual(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        u = np.full(g.n_nodes, 5.0)
        r = gate_residual(u, u / g.dt, 1 / g.dt, 0.5, g, p, c, epsilon=0.25)
        assert np.abs(r).max() == 0.0

    def test_pure_time_term(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        u = np.full(g.n_nodes, 5.0)
        r = gate_residual(u, (u + g.dt) / g.dt, 1 / g.dt, 0.5, g, p, c, epsilon=0.25)
        assert np.allclose(r, -1.0)

    def test_matches_brute_force_on_random_data(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = rng.normal(size=g.n_nodes)
            u_next = rng.normal(size=g.n_nodes)
            t = float(rng.uniform(0, 3))
            eps = float(rng.uniform(0.05, 0.5))
            r = gate_residual(u, u_next / g.dt, 1 / g.dt, t, g, p, c, eps)
            ref = [brute_residual_row(p, g, c, eps, t, i, u, u_next)
                   for i in range(g.n_nodes)]
            assert np.allclose(r, ref, atol=1e-10)

    def test_epsilon_must_be_positive(self):
        u = np.zeros(9)
        with pytest.raises(ValueError):
            residual(u, u, 1.0, u, 0.0, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan, -1.0])
    def test_epsilon_must_be_finite_at_every_entry_point(self, epsilon):
        # An infinite epsilon would zero the penalty term and drop the obstacle.
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=4, T=3)
        c = discretize_controls(p, g.rho)
        u = terminal_values(p, g)
        entry_points = [
            lambda: residual(u, u / g.dt, 1 / g.dt, np.zeros_like(u), 0.0, epsilon),
            lambda: penalty_timestep(u, 0.0, g, p, c, _control_band(g, p, c), epsilon),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                call()


class TestAssemblePolicySystem:
    def test_pure_diffusion_tridiagonal(self):
        p = builtin("heat")
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        c = discretize_controls(p, g.rho)
        n = g.n_nodes
        policy = value_policy(np.zeros(n), np.zeros(n, dtype=bool), np.full(n, np.nan))
        band, reward, table = operands(p, g, c, 0.0)
        matrix, _ = timestep_system(policy, np.zeros(n, dtype=int), np.zeros(n), g, 0.25, table,
                                    band, reward)
        dense = matrix.toarray()
        dx, dt = 0.5, 0.25
        for i in range(1, n - 1):
            assert dense[i, i] == pytest.approx(1 / dt + 1.0 / dx ** 2)
            assert dense[i, i - 1] == pytest.approx(-0.5 / dx ** 2)
            assert dense[i, i + 1] == pytest.approx(-0.5 / dx ** 2)
        assert dense[0, 0] == pytest.approx(1 / dt)
        assert np.count_nonzero(dense[0]) == 1

    def test_jump_on_node_gives_single_coupling(self):
        # Displacement z - x lands exactly on the node z, so the coupling is
        # one entry of weight -1/eps in that column.
        p = builtin("heat")
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        c = discretize_controls(p, g.rho)
        n = g.n_nodes
        intervene = np.zeros(n, dtype=bool)
        intervene[g.offset(-2)] = True          # node x = -1
        impulses = np.full(n, np.nan)
        impulses[g.offset(-2)] = 1.0            # jump target z = 1, a grid node
        policy = value_policy(np.zeros(n), intervene, impulses)
        eps = 0.2
        band, reward, table = operands(p, g, c, 0.0)
        matrix, _ = timestep_system(policy, np.zeros(n, dtype=int), np.zeros(n), g, eps, table,
                                    band, reward)
        dense = matrix.toarray()
        row = g.offset(-2)
        assert dense[row, g.offset(2)] == pytest.approx(-1 / eps)
        assert dense[row, row] == pytest.approx(1 / g.dt + 1 / eps + 1 / 0.5 ** 2)

    def test_cash_system_is_wcdd(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)   # rho = 0.25
        c = discretize_controls(p, 0.25)
        # Terminal data never triggers intervention (that is the terminal
        # no-gain hypothesis); scale it so the wings are deep enough to jump.
        u = 4.0 * terminal_values(p, g)
        band, reward, table = operands(p, g, c, (g.N - 1) * g.dt)
        policy, _, idx, _ = _improve(u, c, table, band, reward)
        assert policy.intervene.any()
        matrix, _ = timestep_system(policy, idx, u, g, 0.25, table, band, reward)
        report = analyze_matrix(matrix)
        assert report.passed
        assert report.sign_pattern_ok and report.wcdd_ok


    def test_impulse_outside_candidates_is_named(self):
        # The heat impulse set at rho = 0.5 is {-1, -0.5, 0, 0.5, 1}; 0.3 is
        # not a candidate, so no jump row can be built for it.
        p = builtin("heat")
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        c = discretize_controls(p, g.rho)
        n = g.n_nodes
        intervene = np.zeros(n, dtype=bool)
        intervene[[1, 6]] = True
        impulses = np.full(n, np.nan)
        impulses[[1, 6]] = [0.5, 0.3]
        policy = value_policy(np.zeros(n), intervene, impulses)
        band, reward, table = operands(p, g, c, 0.0)
        with pytest.raises(ValueError, match=r"impulse 0\.3 at node index 6 .*not one of"):
            timestep_system(policy, np.zeros(n, dtype=int), np.zeros(n), g, 0.25, table,
                            band, reward)

    def test_prebuilt_table_makes_no_jump_coefficient_calls(self):
        calls = {"shift": 0, "cost": 0}
        cash = builtin("cash")

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        p = replace(cash, impulse_shift=counted("shift", cash.impulse_shift),
                    impulse_cost=counted("cost", cash.impulse_cost))
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)
        c = discretize_controls(p, g.rho)
        t = (g.N - 1) * g.dt
        band, reward, table = operands(p, g, c, t)
        u = 4.0 * terminal_values(p, g)
        policy, _, idx, _ = _improve(u, c, table, band, reward)
        assert policy.intervene.any()
        calls.update(shift=0, cost=0)
        matrix, _ = timestep_system(policy, idx, u, g, 0.25, table, band, reward)
        assert calls == {"shift": 0, "cost": 0}
        fresh = InterventionTable(p, g, c, t)
        assert np.array_equal(matrix.toarray(), timestep_system(
            policy, idx, u, g, 0.25, fresh, band, reward)[0].toarray())


class TestAssembledSystemMatchesResidual:
    """At the greedy policy the assembled system reproduces the residual:
    A u - rhs == residual(u), which ties _assemble's jump rows to the
    intervention operator that chose them (a jump table, or a frozen
    obstacle, whose active rows must hold no couplings)."""

    # Short relative jumps whose candidates fall between nodes, so couplings
    # land on their own row, and reach past +-Q from the outer nodes.
    PROBLEM = replace(builtin("cash"),
                      impulse_shift=lambda t, x, z: z + 0.0 * x,
                      impulse_cost=lambda t, x, z: -0.1 - 0.1 * np.abs(z),
                      impulse_bounds=lambda t, x: (-0.5, 0.5))

    @pytest.mark.parametrize("grid, frozen", [
        (build_uniform_grid(Q=2, M=8, N=4, T=1.0), False),
        (build_boundary_refined_grid(Q=2, rho=0.25, c_b=1.0, N=4, T=1.0), False),
        (build_uniform_grid(Q=2, M=8, N=4, T=1.0), True),
    ], ids=["uniform", "refined", "frozen-obstacle"])
    def test_random_iterates(self, grid, frozen):
        p = self.PROBLEM
        c = discretize_controls(p, rho=0.2)
        t, eps = 0.0, 0.05
        band, reward, table = operands(p, grid, c, t)
        rng = np.random.default_rng(0)
        own = clamped = 0
        for _ in range(5):
            u = rng.normal(size=grid.n_nodes)
            u[[0, -1]] = 3.0            # draws the outer nodes' jumps past +-Q
            u_next = rng.normal(size=grid.n_nodes)
            operator = FrozenObstacle(rng.normal(size=grid.n_nodes)) if frozen else table
            policy, best, idx, _ = _improve(u, c, operator, band, reward)
            matrix, rhs = timestep_system(policy, idx, u_next, grid, eps, operator, band, reward)
            res = residual(u, u_next / grid.dt, 1 / grid.dt, best, operator.apply(u).values,
                           eps)
            gap = np.abs(matrix @ u - rhs - res).max()
            assert gap <= 1e-12 * np.abs(res).max()

            rows = np.flatnonzero(policy.intervene)
            if frozen:
                # Active rows differ from the penalty-free rows on the diagonal only.
                free = replace(policy, intervene=np.zeros(grid.n_nodes, dtype=bool))
                extra = (matrix - timestep_system(
                    free, idx, u_next, grid, eps, operator, band, reward)[0]).toarray()
                np.fill_diagonal(extra, 0.0)
                assert rows.size > 0 and not extra.any()
            else:
                targets = grid.nodes[rows] + policy.impulses[rows]
                k, alpha = interp_weights(grid.nodes, targets)
                own += int(np.sum(((k == rows) & (alpha < 1.0))
                                  | ((k + 1 == rows) & (alpha > 0.0))))
                clamped += int(np.sum(np.abs(targets) >= grid.Q))
        assert frozen or (own >= 1 and clamped >= 1)


class TestPolicyImprove:
    def test_no_intervention_at_exact_constant_solution(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        u = np.full(g.n_nodes, 5.0)
        band, reward, table = operands(p, g, c, 0.5)
        assert not _improve(u, c, table, band, reward)[0].intervene.any()

    def test_drift_control_follows_slope(self):
        # Two controls +-0.5 steering the drift; on an increasing profile the
        # forward slope is positive, so the larger control wins at interior
        # nodes.  Brute force over the two candidates confirms.
        p = ProblemSpec(
            drift=lambda x, b: b + 0.0 * x,
            diffusion=lambda x, b: 1.0,
            running_reward=lambda t, x, b: 0.0,
            terminal_reward=lambda x: 0.0 * x,
            impulse_shift=lambda t, x, z: 0.0 * z,
            impulse_cost=lambda t, x, z: -1.0 + 0.0 * z,
            impulse_bounds=lambda t, x: (0.0, 1.0),
            control_bounds=(-0.5, 0.5),
            horizon=1.0,
        )
        g = build_uniform_grid(Q=2, M=6, N=4, T=1)
        c = discretize_controls(p, rho=1.0)   # controls {-0.5, 0, 0.5}... width 1 -> {-0.5, 0.5}
        assert np.array_equal(c.controls, [-0.5, 0.5])
        u = np.exp(g.nodes)   # strictly increasing
        band, reward, table = operands(p, g, c, 0.0)
        policy = _improve(u, c, table, band, reward)[0]
        interior = slice(1, g.n_nodes - 1)
        assert np.all(policy.controls[interior] == 0.5)

    def test_equality_keeps_penalty_off(self):
        # Zero impulse cost and zero shift make the jump value equal u, so
        # the strict rule leaves the indicator off everywhere.
        p = replace(builtin("constant"), impulse_cost=lambda t, x, z: 0.0 * z)
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        c = discretize_controls(p, g.rho)
        u = np.full(g.n_nodes, 3.0)
        band, reward, table = operands(p, g, c, 0.0)
        assert not _improve(u, c, table, band, reward)[0].intervene.any()

    def test_near_tie_keeps_the_previous_control(self):
        # A zero band leaves the reward rows as the control values.  Node 0:
        # control 1 is one ulp above control 0; node 1: 1e-9 above; node 2:
        # an exact three-way tie; node 3: control 2 wins outright.
        band = tuple(np.zeros((3, 4)) for _ in range(3))
        up = np.nextafter(1.0, 2.0)
        reward = np.array([[1.0, 1.0, 1.0, 0.0],
                           [up, 1.0 + 1e-9, 1.0, 0.0],
                           [0.0, 0.0, 1.0, 1.0]])
        u = np.zeros(4)
        best, idx, first = _best_control(u, band, reward)
        assert list(idx) == [1, 1, 0, 2]
        kept, kept_idx, kept_first = _best_control(u, band, reward,
                                                   previous=np.array([0, 0, 2, 0]))
        assert list(kept_idx) == [0, 1, 2, 2]
        # The argmax's own indices ignore the previous ones.
        assert first is idx and np.array_equal(kept_first, idx)
        # The values stay the true maximum, which the residual gate reads.
        assert np.array_equal(kept, best) and kept[0] == up


class TestPenaltyTimestep:
    def test_constant_fixed_point_in_one_iteration(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        u_next = np.full(g.n_nodes, 5.0)
        u, _, diag, _ = penalty_timestep(u_next, 0.5, g, p, c, _control_band(g, p, c),
                                         epsilon=0.125)
        assert np.allclose(u, u_next, atol=1e-12)
        assert diag.iterations == 1

    def test_single_step_tracks_heat_closed_form(self):
        # One implicit step from the terminal data; the closed form
        # exp(-s^2 dt / 2) sin(x) is the oracle, compared away from the
        # boundary where the artificial Neumann condition pollutes.
        p = builtin("heat")
        g = build_uniform_grid(Q=4, M=80, N=20, T=1)   # rho = 0.05
        c = discretize_controls(p, g.rho)
        u_next = terminal_values(p, g)
        t = (g.N - 1) * g.dt
        u, _, _, _ = penalty_timestep(u_next, t, g, p, c, _control_band(g, p, c), epsilon=0.05)
        window = np.abs(g.nodes) <= 2.0
        oracle = np.exp(-0.5 * g.dt) * np.sin(g.nodes[window])
        assert np.abs(u[window] - oracle).max() <= g.rho

    def test_residual_of_returned_step(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)
        c = discretize_controls(p, g.rho)
        u_next = terminal_values(p, g)
        eps = 0.25
        u, _, diag, _ = penalty_timestep(u_next, (g.N - 1) * g.dt, g, p, c,
                                         _control_band(g, p, c), eps)
        assert diag.final_residual <= 1e-8
        r = gate_residual(u, u_next / g.dt, 1 / g.dt, (g.N - 1) * g.dt, g, p, c, eps)
        assert np.abs(r).max() <= 1e-8


class TestSolveFiniteHorizon:
    @pytest.mark.parametrize("N, T", [(0, 0.0), (6, 1.0)], ids=["no-time-axis", "T-not-horizon"])
    def test_grid_must_step_to_the_horizon(self, N, T):
        # cash has horizon 3: a grid with no time axis, or one ending at T = 1, is refused.
        g = build_uniform_grid(Q=4, M=8, N=N, T=T)
        with pytest.raises(ValueError, match=f"horizon 3.0, got N = {N}, T = {T}"):
            solve_finite_horizon(builtin("cash"), g)

    def test_constant_surface(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        sol = solve_finite_horizon(p, g)
        assert np.abs(sol.surface - 5.0).max() <= 1e-12

    def test_terminal_row_is_reward(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        sol = solve_finite_horizon(p, g)
        assert np.array_equal(sol.terminal, terminal_values(p, g))

    def test_stability_bound_all_builtins(self):
        for name in ("constant", "heat", "cash"):
            p = builtin(name)
            g = build_uniform_grid(Q=3, M=12, N=8, T=p.horizon)
            c = discretize_controls(p, g.rho)
            sol = solve_finite_horizon(p, g, c)
            g_norm = np.abs(terminal_values(p, g)).max()
            f_norm = max(
                float(np.abs(eval_on(p.running_reward, t, g.nodes, b)).max())
                for b in c.controls for t in g.times()
            )
            assert sol.sup_norm() <= g_norm + f_norm * p.horizon + 1e-8

    def test_shift_equivariance(self):
        # Shifting the terminal data shifts the whole surface: every term of
        # the scheme is difference- or shift-covariant.
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        base = solve_finite_horizon(p, g, c)
        shifted_problem = replace(p, terminal_reward=lambda x: -np.minimum(x * x, 2.0) + 3.0)
        shifted = solve_finite_horizon(shifted_problem, g, c)
        assert np.abs(shifted.surface - base.surface - 3.0).max() <= 1e-9

    @pytest.mark.parametrize("ratio", [0.1, 100.0])
    def test_no_timestep_restriction(self, ratio):
        # dt/dx^2 far on either side of an explicit scheme's stability limit.
        p = builtin("heat", {"T": 2.0})
        dx = 0.1
        n_steps = max(1, int(round(2.0 / (ratio * dx * dx))))
        g = build_uniform_grid(Q=2, M=20, N=n_steps, T=2.0)
        sol = solve_finite_horizon(p, g)
        bound = np.abs(terminal_values(p, g)).max()
        assert sol.sup_norm() <= bound + 1e-8

    def test_matrix_systems_all_checked(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        sol = solve_finite_horizon(p, g)
        d = sol.diagnostics
        assert d.matrix_systems_checked >= g.N
        # One system per policy iteration, each checked before its solve.
        assert d.matrix_systems_checked == sum(s.iterations for s in d.timesteps)
        assert d.min_dominance_margin > 0

    @pytest.mark.parametrize("M", [20, 40, 80])
    def test_iteration_counts_do_not_depend_on_the_table_path(self, M):
        # Cash declares its resets, so its tables take the reset layout (two
        # running maxima); the same shift as a plain lambda is no declaration
        # and takes the block layout.  Both solve the same equations up to
        # rounding: the same iterations, interventions and impulses.
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=M, N=3 * M // 4, T=3)
        c = discretize_controls(p, g.rho)
        undeclared = replace(p, impulse_shift=lambda t, x, z: z - x)
        assert InterventionTable(p, g, c, 0.0)._reset is p.impulse_cost
        assert InterventionTable(undeclared, g, c, 0.0)._reset is None
        reset = solve_finite_horizon(p, g, c)
        block = solve_finite_horizon(undeclared, g, c)
        assert ([s.iterations for s in reset.diagnostics.timesteps]
                == [s.iterations for s in block.diagnostics.timesteps])
        assert np.abs(reset.surface - block.surface).max() <= 1e-12
        for a, b in zip(reset.policies[:-1], block.policies[:-1]):
            assert np.array_equal(a.intervene, b.intervene)
            assert np.array_equal(a.impulses[a.intervene], b.impulses[b.intervene])

    def test_clamped_jump_targets(self):
        # Jumps of 3z leave [-Q, Q] from |x| > 1; the clamped couplings keep
        # every system a WCDD M-matrix and the surface within its bound.
        p = replace(builtin("cash"), impulse_shift=lambda t, x, z: 3.0 * z)
        g = build_uniform_grid(Q=4, M=20, N=15, T=p.horizon)
        c = discretize_controls(p, g.rho)
        sol = solve_finite_horizon(p, g, c)
        assert check_stability_bound(sol, p, c).passed
        assert check_solution_matrices(sol).passed
        assert sol.diagnostics.matrix_systems_checked == sum(
            s.iterations for s in sol.diagnostics.timesteps)
        assert any(policy.intervene.any() for policy in sol.policies[:-1])


class TestSolveInfiniteHorizon:
    def test_zero_reward_gives_zero(self):
        p = builtin("constant", {"beta": 0.7})
        g = build_uniform_grid(Q=2, M=8)
        sol = solve_infinite_horizon(p, g)
        assert np.abs(sol.surface).max() <= 1e-12

    def test_time_axis_grid_rejected(self):
        p = builtin("constant", {"beta": 0.7})
        with pytest.raises(ValueError, match=r"\(N = T = 0\), got horizon None and N = 1"):
            solve_infinite_horizon(p, build_uniform_grid(Q=2, M=8, N=1, T=0.25))

    def test_flat_reward_fixed_point(self):
        p = ProblemSpec(
            drift=lambda x, b: 0.0,
            diffusion=lambda x, b: 0.0,
            running_reward=lambda t, x, b: 1.0,
            terminal_reward=lambda x: 0.0 * x,
            impulse_shift=lambda t, x, z: 0.0 * z,
            impulse_cost=lambda t, x, z: -50.0 + 0.0 * z,
            impulse_bounds=lambda t, x: (0.0, 1.0),
            control_bounds=(0.0, 0.0),
            discount=0.5,
        )
        g = build_uniform_grid(Q=2, M=8)
        sol = solve_infinite_horizon(p, g)
        assert np.abs(sol.surface - 2.0).max() <= 1e-12

    def test_discounted_bound_on_random_instances(self):
        rng = np.random.default_rng(23)
        for trial in range(3):
            amp = float(rng.uniform(0.5, 2.0))
            freq = float(rng.uniform(0.5, 3.0))
            beta = float(rng.uniform(0.3, 1.5))
            p = ProblemSpec(
                drift=lambda x, b, a=amp: a * np.sin(x),
                diffusion=lambda x, b: 0.5,
                running_reward=lambda t, x, b, a=amp, w=freq: a * np.cos(w * x),
                terminal_reward=lambda x: 0.0 * x,
                impulse_shift=lambda t, x, z: z - x,
                impulse_cost=lambda t, x, z: -1.0 + 0.0 * z,
                impulse_bounds=lambda t, x: (-1.0, 1.0),
                control_bounds=(0.0, 0.0),
                discount=beta,
            )
            g = build_uniform_grid(Q=3, M=24)
            c = discretize_controls(p, g.rho)
            sol = solve_infinite_horizon(p, g, c)
            assert sol.sup_norm() <= amp / beta + 1e-8
            u = sol.surface[0]
            r = gate_residual(u, np.zeros_like(u), beta, 0.0, g, p, c, sol.epsilon)
            assert np.abs(r).max() <= 1e-8


class TestControlBandPerSolve:
    """drift(x, b) and diffusion(x, b) take no t, so a solve evaluates them on
    the controls x nodes block once; the control argmax reads that band."""

    PROBLEMS = [(name, params) for name in ("constant", "heat", "cash")
                for params in ({}, {"beta": 0.5})]

    @staticmethod
    def counted(problem):
        """The problem with drift and diffusion recording each call's shape."""
        shapes = {"drift": [], "diffusion": []}

        def wrap(name, fn):
            def counted_fn(x, b):
                shapes[name].append(np.broadcast(x, b).shape)
                return fn(x, b)
            return counted_fn

        return replace(problem, drift=wrap("drift", problem.drift),
                       diffusion=wrap("diffusion", problem.diffusion)), shapes

    @staticmethod
    def grid(problem, Q, M, N):
        """N steps up to the horizon, or no time axis for a discounted problem."""
        if problem.finite_horizon:
            return build_uniform_grid(Q=Q, M=M, N=N, T=problem.horizon)
        return build_uniform_grid(Q=Q, M=M)

    @staticmethod
    def solve(problem, grid, controls):
        if problem.finite_horizon:
            return solve_finite_horizon(problem, grid, controls)
        return solve_infinite_horizon(problem, grid, controls)

    @pytest.mark.parametrize("name, params", PROBLEMS)
    def test_one_block_evaluation_per_solve(self, name, params):
        p, shapes = self.counted(builtin(name, params))
        g = self.grid(p, Q=3, M=10, N=6)
        c = discretize_controls(p, g.rho)
        sol = self.solve(p, g, c)
        block = (c.controls.size, g.n_nodes)
        assert sol.diagnostics.matrix_systems_checked >= 1
        for calls in shapes.values():
            # One block call; each assembled system reads rows of that band.
            assert calls == [block]

    @pytest.mark.parametrize("name, params", PROBLEMS)
    def test_surfaces_equal_per_call_band(self, name, params, monkeypatch):
        p = builtin(name, params)
        g = self.grid(p, Q=3, M=10, N=6)
        c = discretize_controls(p, g.rho)
        hoisted = self.solve(p, g, c).surface

        best_control = penalty_mod._best_control

        rows = _control_band(g, p, c).index

        def per_call_band(u, band, reward, previous=None):
            # The argmax as it was before the band was hoisted: its own band each call.
            b = c.controls[rows]
            own = generator_band(g.nodes, eval_on(p.drift, g.nodes, b),
                                 eval_on(p.diffusion, g.nodes, b) ** 2)
            return best_control(u, own, reward, previous)

        monkeypatch.setattr(penalty_mod, "_best_control", per_call_band)
        assert np.array_equal(self.solve(p, g, c).surface, hoisted)


class TestStepReuse:
    """A step evaluates the running reward once on the controls x nodes
    block, and its residual gate reuses the last policy improvement's argmax."""

    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_reward_block_once_per_step(self, beta):
        shapes = []
        cash = builtin("cash", {} if beta is None else {"beta": beta})

        def reward(t, x, b):
            shapes.append(np.broadcast(t, x, b).shape)
            return cash.running_reward(t, x, b)

        p = replace(cash, running_reward=reward)
        g = TestControlBandPerSolve.grid(p, Q=4, M=10, N=6)
        c = discretize_controls(p, g.rho)
        sol = TestControlBandPerSolve.solve(p, g, c)
        assert shapes == [(c.controls.size, g.n_nodes)] * len(sol.diagnostics.timesteps)

    @staticmethod
    def argmax_calls(problem, monkeypatch):
        """(control argmaxes, step diagnostics) of a solve whose every step's
        final residual is the one the gate reads at the solution."""
        g = build_uniform_grid(Q=4, M=20, N=15, T=3)
        c = discretize_controls(problem, g.rho)
        with monkeypatch.context() as m:
            calls = count_best_control(m)
            sol = solve_finite_horizon(problem, g, c)
        steps = sol.diagnostics.timesteps
        for step in steps:
            n = step.time_index
            res = gate_residual(sol.surface[n], sol.surface[n + 1] / g.dt, 1.0 / g.dt,
                                n * g.dt, g, problem, c, sol.epsilon)
            assert step.final_residual == float(np.abs(res).max())
        return len(calls), steps

    def test_gate_reuses_last_argmax(self, monkeypatch):
        calls, steps = self.argmax_calls(builtin("cash"), monkeypatch)
        # One argmax per policy improvement: one per iteration, and the
        # initial one of the first step, whose successors start from the
        # last improvement before them (StepStart).
        assert calls == 1 + sum(step.iterations for step in steps)

    def test_dated_reward_improves_every_step_afresh(self, monkeypatch):
        # A reward evaluated at every t starts no step from the one before:
        # each step has its initial argmax.
        calls, steps = self.argmax_calls(dated_reward(builtin("cash")), monkeypatch)
        assert calls == sum(step.iterations + 1 for step in steps)


def count_best_control(monkeypatch) -> list:
    """A list that gains an entry at every control argmax."""
    calls = []
    best_control = penalty_mod._best_control

    def counted(*args):
        calls.append(None)
        return best_control(*args)

    monkeypatch.setattr(penalty_mod, "_best_control", counted)
    return calls


def dated_reward(problem):
    """``problem`` with the same separable reward, its state no longer
    declared to ignore t: evaluated at every step."""
    state = problem.running_reward.state
    return replace(problem, running_reward=SeparableReward(lambda t, x: state(t, x)))


def never_hit(monkeypatch):
    """Make every SystemMemo miss, as a solve without the memo would."""
    monkeypatch.setattr(penalty_mod.SystemMemo, "holds", lambda self, band, key: False)


def solve_record(sol):
    """Everything a finite-horizon penalty (or IOS) solve returns, as
    comparable values."""
    d = sol.diagnostics
    steps = [(s.time_index, s.iterations, s.updates, s.final_residual, s.min_dominance_margin)
             for s in d.timesteps]
    policies = [None if p is None else (p.controls.tobytes(), p.intervene.tobytes(),
                                        p.impulses.tobytes()) for p in sol.policies]
    return (sol.surface.tobytes(), policies, steps, d.matrix_systems_checked,
            d.min_dominance_margin)


def step_operands(problem, grid):
    """A solved step of ``problem`` with active penalty rows, as the
    operands of :func:`_assemble`: (policy, rhs_base, time weight, epsilon,
    table, band, reward, control indices)."""
    c = discretize_controls(problem, grid.rho)
    sol = solve_finite_horizon(problem, grid, c)
    n = next(n for n, p in enumerate(sol.policies[:-1]) if p.intervene.any())
    policy, t = sol.policies[n], n * grid.dt
    band, reward, table = operands(problem, grid, c, t)
    idx = (c.controls[np.broadcast_to(band.index, reward.shape)] == policy.controls).argmax(0)
    return (policy, sol.surface[n + 1] / grid.dt, 1.0 / grid.dt, sol.epsilon, table, band,
            reward, idx)


def moving_bounds():
    """Cash whose impulse bounds, hence candidates and couplings, move with t."""
    return replace(builtin("cash"), impulse_bounds=lambda t, x: (-1.0 + 0.1 * t, 1.0 - 0.05 * t))


class TestSystemMemo:
    """A solve assembles, checks and factorises each distinct policy system
    once; a system equal to the one before reuses its matrix, report and
    factors, and changes no bit of the solve."""

    CASES = [(builtin("cash"), M) for M in (20, 40, 80)] + [
        (builtin("cash", {"G": 1.95, "c0": 2.08, "lam": 0.52, "s": 0.97}), M)
        for M in (20, 40, 80)] + [(builtin("heat"), 20), (moving_bounds(), 40)]

    @pytest.mark.parametrize("problem, M", CASES)
    def test_solve_equals_a_never_hit_memo(self, problem, M, monkeypatch):
        g = build_uniform_grid(Q=4, M=M, N=3 * M // 4, T=problem.horizon)
        c = discretize_controls(problem, g.rho)
        memo = solve_record(solve_finite_horizon(problem, g, c))
        never_hit(monkeypatch)
        assert memo == solve_record(solve_finite_horizon(problem, g, c))

    def test_iterated_optimal_stopping_equals_a_never_hit_memo(self, monkeypatch):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=20, N=15, T=p.horizon)
        c = discretize_controls(p, g.rho)

        def record():
            sol = solve_iterated_optimal_stopping(p, g, c)
            return solve_record(sol), sol.diagnostics.outer_changes

        memo = record()
        never_hit(monkeypatch)
        assert memo == record()

    @staticmethod
    def changes(problem, grid, monkeypatch):
        """(systems, systems differing from the one before) of a never-hit solve."""
        matrices = []
        implicit = penalty_mod.implicit_matrix

        def recorded(*args):
            m = implicit(*args)
            matrices.append((m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()))
            return m

        with monkeypatch.context() as m:
            never_hit(m)
            m.setattr(penalty_mod, "implicit_matrix", recorded)
            solve_finite_horizon(problem, grid, discretize_controls(problem, grid.rho))
        return len(matrices), sum(a != b for a, b in zip([None] + matrices, matrices))

    @pytest.mark.parametrize("problem, mostly_repeats", [(builtin("cash"), True),
                                                         (moving_bounds(), False)])
    def test_one_check_and_one_first_solve_per_distinct_system(self, problem, mostly_repeats,
                                                                monkeypatch):
        g = build_uniform_grid(Q=4, M=40, N=30, T=problem.horizon)
        systems, distinct = self.changes(problem, g, monkeypatch)
        calls = {"analyze": 0, "spsolve": 0, "factorise": 0, "factor solve": 0}

        def counted(name, fn):
            def counted_fn(*args):
                calls[name] += 1
                return fn(*args)
            return counted_fn

        factorise = penalty_mod.factorise
        monkeypatch.setattr(penalty_mod, "analyze_matrix",
                            counted("analyze", penalty_mod.analyze_matrix))
        monkeypatch.setattr(penalty_mod, "spsolve", counted("spsolve", penalty_mod.spsolve))
        monkeypatch.setattr(penalty_mod, "factorise", counted(
            "factorise", lambda *args: counted("factor solve", factorise(*args))))
        sol = solve_finite_horizon(problem, g, discretize_controls(problem, g.rho))
        iterations = sum(s.iterations for s in sol.diagnostics.timesteps)
        assert sol.diagnostics.matrix_systems_checked == iterations == systems
        assert calls["analyze"] == calls["spsolve"] == distinct
        assert calls["spsolve"] + calls["factor solve"] == iterations
        assert calls["factorise"] <= calls["analyze"]
        if mostly_repeats:
            assert 2 * distinct < systems and calls["factorise"] >= 1

    @staticmethod
    def nudged(table, share):
        """``table`` with the first active row's first coupling weight one ulp
        nearer to ``share``."""
        class Nudged:
            def jump_rows(self, rows, impulses):
                ((k0, w0), pair), cost = table.jump_rows(rows, impulses)
                w0 = w0.copy()
                w0[0] = np.nextafter(w0[0], share)
                return ((k0, w0), pair), cost
        return Nudged()

    @pytest.mark.parametrize("change", ["time weight", "control index", "coupling weight"])
    def test_a_changed_operand_is_checked_again(self, change, monkeypatch):
        p = builtin("cash")
        policy, rhs_base, weight, eps, table, band, reward, idx = step_operands(
            p, build_uniform_grid(Q=4, M=40, N=30, T=p.horizon))
        memo = SystemMemo()
        kept_rhs = _assemble(policy, rhs_base, weight, eps, table, band, reward, idx, memo)
        kept_matrix, kept_report = memo.matrix, memo.report
        analyze = penalty_mod.analyze_matrix
        monkeypatch.setattr(penalty_mod, "analyze_matrix",
                            lambda m: replace(analyze(m), sign_pattern_ok=False, witness="patched"))
        # The same operands: the kept matrix and report, not checked again.
        again_rhs = _assemble(policy, rhs_base, weight, eps, table, band, reward, idx, memo)
        assert memo.matrix is kept_matrix and memo.report is kept_report
        assert np.array_equal(again_rhs, kept_rhs)

        # Each change is the smallest one: one ulp, or one index.
        if change == "time weight":
            weight = np.nextafter(weight, np.inf)
        elif change == "control index":
            idx = idx.copy()
            j = idx.size // 2
            idx[j] = (idx[j] + 1) % band.index.shape[0]
        else:
            active = np.flatnonzero(policy.intervene)
            couplings, _ = table.jump_rows(active, policy.impulses[active])
            w0 = couplings[0][1][0]
            table = self.nudged(table, 0.0 if w0 > 0.5 else 1.0)
        with pytest.raises(MatrixStructureError, match="patched"):
            _assemble(policy, rhs_base, weight, eps, table, band, reward, idx, memo)


def undeclared(problem):
    """``problem`` with the same values and no declared reward: a new reward
    callable that calls the declared one."""
    reward = problem.running_reward
    return replace(problem, running_reward=lambda t, x, b: reward(t, x, b))


def undeclared_shift(problem):
    """``problem`` with the same impulse shift, no longer a declared reset:
    its tables take the block layout."""
    shift = problem.impulse_shift
    return replace(problem, impulse_shift=lambda t, x, z: shift(t, x, z))


def never_carry(monkeypatch):
    """Give every step no StepStart, as a solve whose steps each improve
    afresh would."""
    timestep = penalty_mod.penalty_timestep
    monkeypatch.setattr(penalty_mod, "penalty_timestep",
                        lambda *args, start=None, **kwargs: timestep(*args, **kwargs))


class TestStepStart:
    """A step starts from the last policy improvement of the step before
    when that is the improvement it would make: at the same u, on the same
    reward rows, with a reset-layout table of the same data.  Every solve
    equals one whose steps each improve afresh, bit for bit."""

    TWINS = {
        "undeclared reward": undeclared(builtin("cash")),
        "dated reward": dated_reward(builtin("cash")),
        "undeclared shift": undeclared_shift(builtin("cash")),
    }

    @staticmethod
    def records(problem, M, monkeypatch):
        """(argmax calls, policy improvements, steps, record) of a solve, and
        the record of the same solve without StepStart."""
        g = build_uniform_grid(Q=4, M=M, N=3 * M // 4, T=problem.horizon)
        c = discretize_controls(problem, g.rho)
        with monkeypatch.context() as m:
            calls = count_best_control(m)
            sol = solve_finite_horizon(problem, g, c)
        steps = sol.diagnostics.timesteps
        improvements = sum(step.iterations + 1 for step in steps)
        with monkeypatch.context() as m:
            never_carry(m)
            fresh = solve_record(solve_finite_horizon(problem, g, c))
        return len(calls), improvements, len(steps), solve_record(sol), fresh

    @pytest.mark.parametrize("problem, M", TestSystemMemo.CASES)
    def test_solve_equals_an_uncarried_solve(self, problem, M, monkeypatch):
        # Time-free bounds carry every step after the first; cash whose
        # bounds move with t carries none.
        calls, improvements, steps, record, fresh = self.records(problem, M, monkeypatch)
        carried = steps - 1 if problem.time_free_bounds is not None else 0
        assert calls == improvements - carried
        assert record == fresh

    @pytest.mark.parametrize("name", TWINS)
    def test_twin_never_carries(self, name, monkeypatch):
        # A reward evaluated at every step is a new block at each; a block
        # layout table is never checked.
        calls, improvements, _, record, fresh = self.records(self.TWINS[name], 20, monkeypatch)
        assert calls == improvements
        assert record == fresh


class TestSeparableControl:
    """A reward declared to ignore b, with a diffusion that ignores b,
    maximises over each node's operators.candidate_rows of the drift, where
    those exist; any other problem over every sampled control.  Either way
    the surfaces and policies are those of the full sample, bit for bit."""

    @staticmethod
    def grids(problem, M):
        if problem.finite_horizon:
            return build_uniform_grid(Q=4, M=M, N=3 * M // 4, T=problem.horizon)
        return build_uniform_grid(Q=4, M=M)

    @pytest.mark.parametrize("M", [20, 40, 80, 160])
    def test_cash_reads_four_rows(self, M):
        p = builtin("cash")
        g = self.grids(p, M)
        c = discretize_controls(p, g.rho)
        assert c.controls.size > 4
        assert solve_finite_horizon(p, g, c).diagnostics.control_rows == 4
        s = builtin("cash", {"beta": 0.2})
        assert solve_infinite_horizon(s, self.grids(s, M)).diagnostics.control_rows == 4
        if M == 20:
            assert solve_iterated_optimal_stopping(p, g, c).diagnostics.control_rows == 4

    @pytest.mark.parametrize("bounds, rows", [
        ((-0.5, 0.5), [0, 4, 5, 10]),       # b = -0.1 and 0.0 end the halves
        ((0.0, 0.5), [0, 5]),
        ((-0.5, -0.1), [0, 4]),
        ((0.2, 0.2), [0]),
    ])
    def test_keeps_the_ends_of_each_sign_half(self, bounds, rows):
        p = replace(builtin("cash"), control_bounds=bounds)
        g = self.grids(p, 40)
        index = _control_band(g, p, discretize_controls(p, g.rho)).index
        assert index.shape == (len(rows), g.n_nodes)
        assert all(column == rows for column in index.T.tolist())

    @pytest.mark.parametrize("change, reduced", [
        ("drift, same values", True),
        ("drift", True),
        ("drift -b", False),
        ("reward", False),
        ("diffusion", False),
        ("controls out of order", False),
    ])
    def test_a_changed_problem_falls_back_to_every_control(self, change, reduced):
        # The drift and diffusion are checked on their values, so a new
        # callable with the same values, or a drift b + 0.1 x that still
        # rises in b, keeps the reduction; the reward is declared by its
        # callable.
        p = builtin("cash")
        g = self.grids(p, 40)
        c = discretize_controls(p, g.rho)
        if change == "drift, same values":
            p = replace(p, drift=lambda x, b: b + 0.0 * x)
        elif change == "drift":
            p = replace(p, drift=lambda x, b: b + 0.1 * x)
        elif change == "drift -b":
            p = replace(p, drift=lambda x, b: -b + 0.0 * x)
        elif change == "reward":
            p = undeclared(p)
        elif change == "diffusion":
            p = replace(p, diffusion=lambda x, b: 1.0 + 0.1 * b * b + 0.0 * x)
        else:
            c = replace(c, controls=c.controls[::-1].copy())
        rows = solve_finite_horizon(p, g, c).diagnostics.control_rows
        assert rows == (4 if reduced else c.controls.size)

    @staticmethod
    def solves(problem, M):
        """The penalty, stationary (beta = 0.2) and IOS solves of ``problem``
        at M, each as (solution, its problem, its controls)."""
        out = []
        for q in (problem, replace(problem, horizon=None, discount=0.2)):
            g = TestSeparableControl.grids(q, M)
            c = discretize_controls(q, g.rho)
            solve = solve_finite_horizon if q.finite_horizon else solve_infinite_horizon
            out.append((solve(q, g, c), q, c))
        g, c = out[0][0].grid, out[0][2]
        return out + [(solve_iterated_optimal_stopping(problem, g, c), problem, c)]

    @pytest.mark.parametrize("M, bounds", [(20, None), (40, None), (80, None),
                                           (40, (0.0, 0.5))])
    def test_cash_equals_its_undeclared_twin(self, M, bounds):
        # Diagnostics included.
        p = builtin("cash")
        if bounds is not None:
            p = replace(p, control_bounds=bounds)
        solves = self.solves(p, M)
        twins = self.solves(undeclared(p), M)
        for (sol, _, c), (twin, _, _) in zip(solves, twins):
            assert (sol.diagnostics.control_rows, twin.diagnostics.control_rows) == \
                (4 if bounds is None else 2, c.controls.size)
            assert solve_record(sol) == solve_record(twin)
        # The audit maximises over every sampled control.
        if M == 40:
            for sol, problem, controls in solves[:2]:
                assert brute_force_residual(sol, problem, sol.grid, controls,
                                            sol.epsilon) <= RESIDUAL_ORACLE_TOL

    def test_a_drift_in_b_and_x_equals_its_undeclared_twin(self):
        # Each node's rows are the ends of its own sign halves of b + 0.1 x.
        p = replace(builtin("cash"), drift=lambda x, b: b + 0.1 * x)
        for (sol, _, c), (twin, _, _) in zip(self.solves(p, 40), self.solves(undeclared(p), 40)):
            assert (sol.diagnostics.control_rows, twin.diagnostics.control_rows) == \
                (4, c.controls.size)
            assert solve_record(sol) == solve_record(twin)

    def test_monotonicity_row_equals_its_undeclared_twin(self):
        p = builtin("cash")
        g = self.grids(p, 40)
        c = discretize_controls(p, g.rho)
        rows = [penalty_mod.monotonicity_row(q, g, c, 0.1, 1.5) for q in (p, undeclared(p))]
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, u_next = rng.normal(size=(2, g.n_nodes))
            j = int(rng.integers(-g.M, g.M + 1))
            obstacle = float(rng.normal())
            assert rows[0](j, u, u_next, obstacle) == rows[1](j, u, u_next, obstacle)
