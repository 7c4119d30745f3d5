from dataclasses import replace

import numpy as np
import pytest

from hjbqvi import penalty as penalty_mod
from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid
from hjbqvi.harness import check_solution_matrices, check_stability_bound
from hjbqvi.matrices import analyze_matrix
from hjbqvi.operators import (
    FrozenObstacle,
    InterventionTable,
    apply_band,
    discretize_controls,
    generator_band,
    interp_weights,
)
from hjbqvi.penalty import (
    _control_band,
    assemble_policy_system,
    penalty_timestep,
    policy_improve,
    residual,
    solve_finite_horizon,
    solve_infinite_horizon,
)
from hjbqvi.problem import ProblemSpec, builtin, eval_on, uniform_sample
from hjbqvi.solution import PenaltyPolicy


def terminal_values(problem, grid):
    return eval_on(problem.terminal_reward, grid.nodes)


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
        r = residual(u, u / g.dt, 1 / g.dt, 0.5, g, p, c, _control_band(g, p, c), epsilon=0.25)
        assert np.abs(r).max() == 0.0

    def test_pure_time_term(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        u = np.full(g.n_nodes, 5.0)
        r = residual(u, (u + g.dt) / g.dt, 1 / g.dt, 0.5, g, p, c, _control_band(g, p, c),
                     epsilon=0.25)
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
            r = residual(u, u_next / g.dt, 1 / g.dt, t, g, p, c, _control_band(g, p, c), eps)
            ref = [brute_residual_row(p, g, c, eps, t, i, u, u_next)
                   for i in range(g.n_nodes)]
            assert np.allclose(r, ref, atol=1e-10)

    def test_epsilon_must_be_positive(self):
        p = builtin("constant")
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        c = discretize_controls(p, g.rho)
        u = np.zeros(g.n_nodes)
        with pytest.raises(ValueError):
            residual(u, u / g.dt, 1 / g.dt, 0.0, g, p, c, _control_band(g, p, c), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan, -1.0])
    def test_epsilon_must_be_finite_at_every_entry_point(self, epsilon):
        # An infinite epsilon would zero the penalty term and drop the obstacle.
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=4, T=3)
        c = discretize_controls(p, g.rho)
        u = terminal_values(p, g)
        policy = PenaltyPolicy(controls=np.zeros(g.n_nodes),
                               intervene=np.zeros(g.n_nodes, dtype=bool),
                               impulses=np.zeros(g.n_nodes))
        entry_points = [
            lambda: residual(u, u / g.dt, 1 / g.dt, 0.0, g, p, c, _control_band(g, p, c), epsilon),
            lambda: assemble_policy_system(policy, u, 0.0, g, p, c, epsilon),
            lambda: penalty_timestep(u, 0.0, g, p, c, _control_band(g, p, c), epsilon),
            lambda: solve_finite_horizon(p, g, c, epsilon),
            lambda: solve_infinite_horizon(builtin("cash", {"beta": 0.5}), g, c, epsilon),
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
        policy = PenaltyPolicy(controls=np.zeros(n),
                               intervene=np.zeros(n, dtype=bool),
                               impulses=np.full(n, np.nan))
        system = assemble_policy_system(policy, np.zeros(n), 0.0, g, p, c, epsilon=0.25)
        dense = system.matrix.toarray()
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
        policy = PenaltyPolicy(controls=np.zeros(n), intervene=intervene,
                               impulses=impulses)
        eps = 0.2
        system = assemble_policy_system(policy, np.zeros(n), 0.0, g, p, c, eps)
        dense = system.matrix.toarray()
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
        policy = policy_improve(u, (g.N - 1) * g.dt, g, p, c, _control_band(g, p, c))
        assert policy.intervene.any()
        system = assemble_policy_system(policy, u, (g.N - 1) * g.dt, g, p, c,
                                        epsilon=0.25)
        report = analyze_matrix(system.matrix)
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
        policy = PenaltyPolicy(controls=np.zeros(n), intervene=intervene, impulses=impulses)
        with pytest.raises(ValueError, match=r"impulse 0\.3 at node index 6 .*not one of"):
            assemble_policy_system(policy, np.zeros(n), 0.0, g, p, c, epsilon=0.25)

    def test_control_outside_discrete_set_is_named(self):
        # The cash controls at rho = 0.5 are {-0.5, 0, 0.5}; 0.25 is not one,
        # so the system has no band row for it.
        p = builtin("cash")
        g = build_uniform_grid(Q=2, M=4, N=4, T=2)
        c = discretize_controls(p, g.rho)
        assert np.array_equal(c.controls, [-0.5, 0.0, 0.5])
        n = g.n_nodes
        controls = np.zeros(n)
        controls[[3, 5]] = [0.5, 0.25]
        policy = PenaltyPolicy(controls=controls, intervene=np.zeros(n, dtype=bool),
                               impulses=np.full(n, np.nan))
        with pytest.raises(ValueError, match=r"control 0\.25 at node index 5 .*not one of"):
            assemble_policy_system(policy, np.zeros(n), 0.0, g, p, c, epsilon=0.25)

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
        table = InterventionTable(p, g, c, t)
        u = 4.0 * terminal_values(p, g)
        policy = policy_improve(u, t, g, p, c, _control_band(g, p, c), intervention=table)
        assert policy.intervene.any()
        calls.update(shift=0, cost=0)
        system = assemble_policy_system(policy, u, t, g, p, c, 0.25, intervention=table)
        assert calls == {"shift": 0, "cost": 0}
        assert np.array_equal(system.matrix.toarray(), assemble_policy_system(
            policy, u, t, g, p, c, epsilon=0.25).matrix.toarray())


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
        table = InterventionTable(p, grid, c, t)
        band = _control_band(grid, p, c)
        rng = np.random.default_rng(0)
        own = clamped = 0
        for _ in range(5):
            u = rng.normal(size=grid.n_nodes)
            u[[0, -1]] = 3.0            # draws the outer nodes' jumps past +-Q
            u_next = rng.normal(size=grid.n_nodes)
            operator = FrozenObstacle(rng.normal(size=grid.n_nodes)) if frozen else table
            policy = policy_improve(u, t, grid, p, c, band, intervention=operator)
            system = assemble_policy_system(policy, u_next, t, grid, p, c, eps,
                                            intervention=operator if frozen else None)
            res = residual(u, u_next / grid.dt, 1 / grid.dt, t, grid, p, c, band, eps,
                           intervention=operator)
            gap = np.abs(system.matrix @ u - system.rhs - res).max()
            assert gap <= 1e-12 * np.abs(res).max()

            rows = np.flatnonzero(policy.intervene)
            if frozen:
                # Active rows differ from the penalty-free rows on the diagonal only.
                free = PenaltyPolicy(controls=policy.controls,
                                     intervene=np.zeros(grid.n_nodes, dtype=bool),
                                     impulses=policy.impulses)
                extra = (system.matrix - assemble_policy_system(
                    free, u_next, t, grid, p, c, eps, intervention=operator).matrix).toarray()
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
        policy = policy_improve(u, 0.5, g, p, c, _control_band(g, p, c))
        assert not policy.intervene.any()

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
        policy = policy_improve(u, 0.0, g, p, c, _control_band(g, p, c))
        interior = slice(1, g.n_nodes - 1)
        assert np.all(policy.controls[interior] == 0.5)

    def test_equality_keeps_penalty_off(self):
        # Zero impulse cost and zero shift make the jump value equal u, so
        # the strict rule leaves the indicator off everywhere.
        p = replace(builtin("constant"), impulse_cost=lambda t, x, z: 0.0 * z)
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        c = discretize_controls(p, g.rho)
        u = np.full(g.n_nodes, 3.0)
        policy = policy_improve(u, 0.0, g, p, c, _control_band(g, p, c))
        assert not policy.intervene.any()


class TestPenaltyTimestep:
    def test_constant_fixed_point_in_one_iteration(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        u_next = np.full(g.n_nodes, 5.0)
        u, diag = penalty_timestep(u_next, 0.5, g, p, c, _control_band(g, p, c), epsilon=0.125)
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
        u, _ = penalty_timestep(u_next, t, g, p, c, _control_band(g, p, c), epsilon=0.05)
        window = np.abs(g.nodes) <= 2.0
        oracle = np.exp(-0.5 * g.dt) * np.sin(g.nodes[window])
        assert np.abs(u[window] - oracle).max() <= g.rho

    def test_residual_of_returned_step(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)
        c = discretize_controls(p, g.rho)
        u_next = terminal_values(p, g)
        eps = 0.25
        u, diag = penalty_timestep(u_next, (g.N - 1) * g.dt, g, p, c, _control_band(g, p, c), eps)
        assert diag.final_residual <= 1e-8
        r = residual(u, u_next / g.dt, 1 / g.dt, (g.N - 1) * g.dt, g, p, c,
                     _control_band(g, p, c), eps)
        assert np.abs(r).max() <= 1e-8


class TestSolveFiniteHorizon:
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
        assert any(s.policy.intervene.any() for s in sol.diagnostics.timesteps)


class TestSolveInfiniteHorizon:
    def test_zero_reward_gives_zero(self):
        p = builtin("constant", {"beta": 0.7})
        g = build_uniform_grid(Q=2, M=8, N=1, T=0.25)
        sol = solve_infinite_horizon(p, g)
        assert np.abs(sol.surface).max() <= 1e-12

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
        g = build_uniform_grid(Q=2, M=8, N=1, T=0.25)
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
            g = build_uniform_grid(Q=3, M=24, N=1, T=0.125)
            c = discretize_controls(p, g.rho)
            sol = solve_infinite_horizon(p, g, c)
            assert sol.sup_norm() <= amp / beta + 1e-8
            u = sol.surface[0]
            r = residual(u, np.zeros_like(u), beta, 0.0, g, p, c, _control_band(g, p, c),
                         sol.epsilon)
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
    def solve(problem, grid, controls):
        if problem.finite_horizon:
            return solve_finite_horizon(problem, grid, controls)
        return solve_infinite_horizon(problem, grid, controls)

    @pytest.mark.parametrize("name, params", PROBLEMS)
    def test_one_block_evaluation_per_solve(self, name, params):
        p, shapes = self.counted(builtin(name, params))
        g = build_uniform_grid(Q=3, M=10, N=6, T=1.0)
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
        g = build_uniform_grid(Q=3, M=10, N=6, T=1.0)
        c = discretize_controls(p, g.rho)
        hoisted = self.solve(p, g, c).surface

        def per_call_band(u, band, reward):
            # The argmax as it was before the band was hoisted: its own band each call.
            b = c.controls[:, np.newaxis]
            vals = apply_band(generator_band(g.nodes, eval_on(p.drift, g.nodes, b),
                                             eval_on(p.diffusion, g.nodes, b) ** 2), u) + reward
            best_idx = vals.argmax(axis=0)
            return vals[best_idx, np.arange(g.n_nodes)], best_idx

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
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        sol = TestControlBandPerSolve.solve(p, g, c)
        assert shapes == [(c.controls.size, g.n_nodes)] * len(sol.diagnostics.timesteps)

    def test_gate_reuses_last_argmax(self, monkeypatch):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=20, N=15, T=3)
        c = discretize_controls(p, g.rho)
        calls = []
        best_control = penalty_mod._best_control

        def counted(*args):
            calls.append(None)
            return best_control(*args)

        monkeypatch.setattr(penalty_mod, "_best_control", counted)
        sol = solve_finite_horizon(p, g, c)
        steps = sol.diagnostics.timesteps
        # One argmax per policy improvement: the initial one and one per iteration.
        assert len(calls) == sum(step.iterations + 1 for step in steps)
        monkeypatch.undo()
        for step in steps:
            n = step.time_index
            res = residual(sol.surface[n], sol.surface[n + 1] / g.dt, 1.0 / g.dt, n * g.dt,
                           g, p, c, _control_band(g, p, c), sol.epsilon)
            assert step.final_residual == float(np.abs(res).max())
