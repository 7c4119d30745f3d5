from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hjbqvi import cli, harness
from hjbqvi import penalty as penalty_mod
from hjbqvi import semilag as semilag_mod
from hjbqvi.exceptions import MatrixStructureError
from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid, grid_for_level
from hjbqvi.harness import (
    RESIDUAL_ORACLE_TOL,
    Window,
    check_monotonicity,
    check_solution_matrices,
    check_stability_bound,
    default_window,
    extend_solution,
    observed_orders,
    run_refinement_study,
    sup_error,
)
from hjbqvi.matrices import analyze_matrix
from hjbqvi.operators import InterventionTable, discretize_controls, generator_band
from hjbqvi.oracle import brute_force_residual
from hjbqvi.penalty import solve_finite_horizon, solve_infinite_horizon
from hjbqvi.problem import ProblemSpec, SeparableReward, TimeFree, builtin, uniform_sample
from hjbqvi.semilag import assemble_A, solve_semi_lagrangian
from hjbqvi.solution import PenaltyPolicy, SolverConfig
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def flipped_upwind_band(nodes, drift, variance):
    """The stencil core with the upwind direction flipped on purpose:
    backward differences for drift >= 0, forward for drift < 0."""
    diffusion = generator_band(nodes, 0.0, variance)
    advection = generator_band(nodes, -np.asarray(drift, dtype=float), 0.0)
    return tuple(d - a for d, a in zip(diffusion, advection))


# Weakly dominant rows chained in a loop with no strictly dominant row:
# singular, and the checker must say why.
NON_WCDD_3X3 = np.array([
    [1.0, -1.0, 0.0],
    [-1.0, 2.0, -1.0],
    [0.0, -1.0, 1.0],
])


@pytest.fixture(scope="module")
def heat_solution():
    p = builtin("heat")
    g = build_uniform_grid(Q=4, M=16, N=8, T=1)
    return solve_finite_horizon(p, g)


class TestExtendSolution:
    def test_grid_point_is_cell_value(self, heat_solution):
        sol = heat_solution
        g = sol.grid
        assert extend_solution(sol, 3 * g.dt, g.node(2)) == sol.surface[3][g.offset(2)]

    def test_half_cell_stays_in_cell(self, heat_solution):
        sol = heat_solution
        g = sol.grid
        t = 3 * g.dt + 0.49 * g.dt
        assert extend_solution(sol, t, g.node(2)) == sol.surface[3][g.offset(2)]

    def test_outside_domain_clamps_to_nearest_cell(self, heat_solution):
        sol = heat_solution
        g = sol.grid
        assert extend_solution(sol, -5.0, 100.0) == sol.surface[0][-1]
        assert extend_solution(sol, 99.0, -100.0) == sol.surface[g.N][0]

    def test_scalar_call_returns_float(self, heat_solution):
        assert type(extend_solution(heat_solution, 0.3, 0.7)) is float

    @pytest.mark.parametrize("stationary", [False, True], ids=["finite", "stationary"])
    def test_array_form_matches_scalar_calls(self, heat_solution, stationary):
        if stationary:
            p = builtin("heat", {"beta": 1.0})
            sol = solve_infinite_horizon(p, build_uniform_grid(Q=4, M=16))
        else:
            sol = heat_solution
        g = sol.grid
        # Off-node points, cell edges and points outside [0, T] x [-Q, Q].
        ts = np.array([-1.0, 0.0, 0.49 * g.dt, 0.5 * g.dt, 0.37, g.T, g.T + 2.0])
        xs = np.array([-9.0, -g.Q, 0.5 * (g.nodes[0] + g.nodes[1]), 0.0, 0.3, g.Q, 12.5])
        mesh = extend_solution(sol, ts[:, np.newaxis], xs)
        assert mesh.shape == (ts.size, xs.size)
        expected = [[extend_solution(sol, t, x) for x in xs] for t in ts]
        assert np.array_equal(mesh, expected)


class TestSupError:
    def test_solution_against_itself(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        sol = solve_finite_horizon(p, g)
        assert sup_error(sol, sol, default_window(g)) == 0.0

    @pytest.mark.parametrize("t_range", [(0.25, 0.75), (2.0, 3.0)])
    def test_empty_window_raises(self, t_range):
        # Between the timesteps of the finer grid, or past its horizon.
        p = builtin("constant", {"c": 5})
        sol = solve_finite_horizon(p, build_uniform_grid(Q=2, M=8, N=1, T=1))
        with pytest.raises(ValueError, match=rf"window t \[{t_range[0]}, {t_range[1]}\]"):
            sup_error(sol, p.exact, Window(t_range, (-1.0, 1.0)))

    def test_constant_against_closed_form(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        sol = solve_finite_horizon(p, g)
        assert sup_error(sol, p.exact, default_window(g)) <= 1e-12

    def test_heat_baseline_error_is_finite_positive(self):
        p = builtin("heat")
        g = build_uniform_grid(Q=4, M=40, N=10, T=1)   # rho = 0.1
        sol = solve_finite_horizon(p, g)
        err = sup_error(sol, p.exact, Window((0, 1), (-2, 2)))
        assert 1e-4 < err < 0.1

    def test_coarse_vs_fine_uses_finer_points(self):
        p = builtin("heat")
        coarse = solve_finite_horizon(p, build_uniform_grid(Q=4, M=16, N=4, T=1))
        fine = solve_finite_horizon(p, build_uniform_grid(Q=4, M=32, N=8, T=1))
        w = Window((0, 1), (-2, 2))
        assert sup_error(coarse, fine, w) == sup_error(fine, coarse, w) > 0

    def test_matches_pointwise_maximum(self):
        p = builtin("heat")
        coarse = solve_finite_horizon(p, build_uniform_grid(Q=4, M=16, N=4, T=1))
        fine = solve_finite_horizon(p, build_uniform_grid(Q=4, M=32, N=8, T=1))
        w = Window((0.2, 1), (-2, 1))
        g = fine.grid
        points = [(t, x) for t in g.times() if t >= 0.2 for x in g.nodes if -2 <= x <= 1]
        expected = max(abs(extend_solution(coarse, t, x) - extend_solution(fine, t, x))
                       for t, x in points)
        assert sup_error(coarse, fine, w) == expected
        expected_exact = max(abs(extend_solution(fine, t, x) - p.exact(t, x)) for t, x in points)
        assert sup_error(fine, p.exact, w) == expected_exact


class TestObservedOrders:
    def test_exact_on_halving_sequence(self):
        errors = [0.5 * 2.0 ** (-k) for k in range(5)]
        orders = observed_orders(errors)
        assert all(o == pytest.approx(1.0, abs=1e-12) for o in orders)

    def test_resolved_levels_flagged(self):
        assert observed_orders([1e-15, 1e-16]) == [None]
        assert observed_orders([0.5, None, 0.1]) == [None, None]

    def test_second_order_sequence(self):
        orders = observed_orders([1.0, 0.25, 0.0625])
        assert orders == [pytest.approx(2.0), pytest.approx(2.0)]


class TestStabilityCheck:
    def test_constant_passes(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        check = check_stability_bound(solve_finite_horizon(p, g), p)
        assert check.passed and check.value == pytest.approx(5.0)

    def test_heat_bound_is_terminal_norm(self):
        p = builtin("heat")
        g = build_uniform_grid(Q=4, M=24, N=8, T=1)
        check = check_stability_bound(solve_finite_horizon(p, g), p)
        assert check.passed
        assert check.value <= 1.0 + 1e-8

    def test_discounted_bound(self):
        p = ProblemSpec(
            drift=lambda x, b: 0.0,
            diffusion=lambda x, b: 0.0,
            running_reward=lambda t, x, b: 1.0,
            terminal_reward=lambda x: 0.0 * x,
            impulse_shift=lambda t, x, z: 0.0 * z,
            impulse_cost=lambda t, x, z: -9.0 + 0.0 * z,
            impulse_bounds=lambda t, x: (0.0, 1.0),
            control_bounds=(0.0, 0.0),
            discount=0.5,
        )
        g = build_uniform_grid(Q=2, M=8)
        check = check_stability_bound(solve_infinite_horizon(p, g), p)
        assert check.passed
        assert check.value == pytest.approx(2.0)
        assert "bound 2" in check.witness

    def test_time_free_reward_is_read_once(self):
        # A reward declared to ignore t is evaluated at one grid time, its
        # dated twin at all N+1, and both give the same bound.
        cash = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=cash.horizon)
        sol = solve_finite_horizon(cash, g)
        holding = cash.running_reward.state.fn
        calls = []

        def counted_holding(x):
            calls.append(None)
            return holding(x)

        checks = []
        for state, reads in ((TimeFree(counted_holding), 1),
                             (lambda t, x: counted_holding(x), g.N + 1)):
            calls.clear()
            p = replace(cash, running_reward=SeparableReward(state))
            checks.append(check_stability_bound(sol, p))
            assert len(calls) == reads
        assert checks[0] == checks[1] and checks[0].passed


class TestMatrixChecks:
    def test_semi_lagrangian_matrix_passes(self):
        p = builtin("heat")
        g = build_uniform_grid(Q=4, M=16, N=8, T=1)
        report = analyze_matrix(assemble_A(g, p, discretize_controls(p, g.rho)))
        assert report.passed and report.strictly_dominant_ok

    def test_penalty_diagonal_dominance(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=12, N=9, T=3)
        sol = solve_finite_horizon(p, g)
        check = check_solution_matrices(sol)
        assert check.passed
        assert sol.diagnostics.min_dominance_margin == pytest.approx(1 / g.dt, rel=1e-9)

    def test_non_wcdd_fixture_rejected_with_witness(self):
        report = analyze_matrix(NON_WCDD_3X3)
        assert not report.passed
        assert report.weakly_dominant_ok          # rows are weakly dominant
        assert not report.wcdd_ok                 # but no chain to a strict row
        assert "strictly dominant" in report.witness
        # The fixture is genuinely singular, which is the point.
        assert abs(np.linalg.det(NON_WCDD_3X3)) < 1e-12

    def test_positive_offdiagonal_rejected(self):
        bad = np.array([[2.0, 0.5], [0.0, 2.0]])
        report = analyze_matrix(bad)
        assert not report.sign_pattern_ok
        assert "positive off-diagonal" in report.witness


class TestMonotonicity:
    def setup_method(self):
        self.problem = builtin("cash")
        self.grid = build_uniform_grid(Q=4, M=10, N=6, T=3)
        self.controls = discretize_controls(self.problem, self.grid.rho)

    def test_penalty_row_clean(self):
        row = penalty_mod.monotonicity_row(self.problem, self.grid, self.controls, 0.25, t=0.0)
        report = check_monotonicity(row, self.grid, seed=7)
        assert report.value == 0

    def test_penalty_row_clean_on_heat(self):
        problem = builtin("heat")
        grid = build_uniform_grid(Q=4, M=16, N=8, T=1)
        controls = discretize_controls(problem, grid.rho)
        row = penalty_mod.monotonicity_row(problem, grid, controls, 0.25, t=0.0)
        assert check_monotonicity(row, grid, seed=7).value == 0

    def test_semilagrangian_row_clean(self):
        row = semilag_mod.monotonicity_row(self.problem, self.grid, self.controls, t=0.0)
        report = check_monotonicity(row, self.grid, seed=7)
        assert report.value == 0

    def test_flipped_matrix_detected_on_semilagrangian_row(self, monkeypatch):
        # The row reads the solve's A: with A's lower off-diagonals negated,
        # raising u_{j-1} raises the row, and the checker says so.
        p, g, c = self.problem, self.grid, self.controls
        A = assemble_A(g, p, c)
        clean = semilag_mod.monotonicity_row(p, g, c, t=0.0)
        assert check_monotonicity(clean, g, seed=7).value == 0
        monkeypatch.setattr(semilag_mod, "assemble_A",
                            lambda *args: (A - 2.0 * sp.tril(A, k=-1)).tocsr())
        mutant = semilag_mod.monotonicity_row(p, g, c, t=0.0)
        report = check_monotonicity(mutant, g, seed=7)
        assert report.value >= 1 and report.witness is not None

    def test_hand_pair_single_bump(self):
        row = penalty_mod.monotonicity_row(self.problem, self.grid, self.controls, 0.25, t=0.0)
        g = self.grid
        w_n = np.zeros(g.n_nodes)
        u_n = np.ones(g.n_nodes)
        probe = 0
        u_n[g.offset(probe)] = 0.0
        ell = -0.3
        assert row(probe, u_n, np.ones(g.n_nodes), ell) \
            <= row(probe, w_n, np.zeros(g.n_nodes), ell) + 1e-12

    def test_deterministic_given_seed(self):
        row = penalty_mod.monotonicity_row(self.problem, self.grid, self.controls, 0.25, t=0.0)
        a = check_monotonicity(row, self.grid, seed=3)
        b = check_monotonicity(row, self.grid, seed=3)
        assert a == b

    def test_flipped_upwind_detected_on_advection(self, monkeypatch):
        # Pure advection keeps the diffusion term from masking the broken
        # drift stencil, so the checker must flag the mutant.  The mutant is
        # the stencil core itself with its upwind direction flipped, so the
        # row checked is the one the solver assembles.
        problem = ProblemSpec(
            drift=lambda x, b: b + 0.0 * x,
            diffusion=lambda x, b: 0.0,
            running_reward=lambda t, x, b: 0.0,
            terminal_reward=lambda x: 0.0 * x,
            impulse_shift=lambda t, x, z: 0.0 * z,
            impulse_cost=lambda t, x, z: -1.0 + 0.0 * z,
            impulse_bounds=lambda t, x: (0.0, 1.0),
            control_bounds=(-1.0, 1.0),
            horizon=1.0,
        )
        grid = build_uniform_grid(Q=2, M=8, N=4, T=1)
        controls = discretize_controls(problem, rho=1.0)

        clean = penalty_mod.monotonicity_row(problem, grid, controls, 0.25, t=0.0)
        assert check_monotonicity(clean, grid, seed=11).value == 0

        monkeypatch.setattr(penalty_mod, "generator_band", flipped_upwind_band)
        mutant = penalty_mod.monotonicity_row(problem, grid, controls, 0.25, t=0.0)
        report = check_monotonicity(mutant, grid, seed=11)
        assert report.value >= 1
        assert report.witness is not None
        # The system assembled from the same mutant loses the M-matrix structure.
        n = grid.n_nodes
        policy = PenaltyPolicy(control_rows=np.zeros(n, dtype=int),
                               intervene=np.zeros(n, dtype=bool),
                               impulse_columns=np.full(n, -1), control_values=np.ones(1),
                               candidates=np.empty((n, 0)))
        band = penalty_mod._control_band(grid, problem, controls)
        idx = np.full(n, int(np.flatnonzero(controls.controls[band.index] == 1.0)[0]))
        reward = penalty_mod._reward_block(0.0, grid, problem, controls, band)
        with pytest.raises(MatrixStructureError):
            penalty_mod._assemble(policy, np.zeros(n), 1.0 / grid.dt, 0.25,
                                  InterventionTable(problem, grid, controls, 0.0), band, reward,
                                  idx, penalty_mod.SystemMemo())


class TestSchemeRowsAtSolutions:
    """The monotonicity rows are the solvers' own: at a solved pair
    (u^n, u^{n+1}) they vanish at every node."""

    def setup_method(self):
        self.problem = builtin("cash")
        self.grid = build_uniform_grid(Q=4, M=12, N=9, T=3.0)
        self.controls = discretize_controls(self.problem, self.grid.rho)

    def worst_row(self, sol, row_at, ahead):
        """Largest |row| over all nodes and steps, ``row_at(t)`` being the row
        at t, with the obstacle M(u^{n+ahead}) taken from the table at
        t + ahead * dt."""
        g, worst = self.grid, 0.0
        for n in range(g.N):
            t = n * g.dt
            u_n, u_next = sol.surface[n], sol.surface[n + 1]
            table = InterventionTable(self.problem, g, self.controls, t + ahead * g.dt)
            obstacle = table.apply(sol.surface[n + ahead]).values
            row = row_at(t)
            for j in range(-g.M, g.M + 1):
                worst = max(worst, abs(row(j, u_n, u_next, obstacle[g.offset(j)])))
        return worst

    def test_penalty_row(self):
        p, g, c = self.problem, self.grid, self.controls
        sol = solve_finite_horizon(p, g, c)
        row_at = partial(penalty_mod.monotonicity_row, p, g, c, sol.epsilon)
        assert self.worst_row(sol, row_at, ahead=0) <= 1e-9

    def test_penalty_row_discounted(self):
        # A discounted solve is gated on the stationary equations, so the row
        # must vanish at its solution whatever u_next is passed.
        p = builtin("cash", {"beta": 0.5})
        g = build_uniform_grid(Q=4, M=12)       # self.grid's spacing, no time axis
        c = discretize_controls(p, g.rho)
        sol = solve_infinite_horizon(p, g, c)
        u = sol.surface[0]
        obstacle = InterventionTable(p, g, c, 0.0).apply(u).values
        row = penalty_mod.monotonicity_row(p, g, c, sol.epsilon, 0.0)
        rng = np.random.default_rng(0)
        worst = max(abs(row(j, u, rng.uniform(-1, 1, u.size), obstacle[g.offset(j)]))
                    for j in range(-g.M, g.M + 1))
        assert worst <= 1e-9

    def test_semilagrangian_row(self):
        p, g, c = self.problem, self.grid, self.controls
        sol = solve_semi_lagrangian(p, g, c)
        row_at = partial(semilag_mod.monotonicity_row, p, g, c)
        assert self.worst_row(sol, row_at, ahead=1) <= 1e-9

    def test_penalty_check_builds_one_band_and_reward(self, monkeypatch):
        # The monotonicity check evaluates the control band and the reward
        # block once, not per probe, whether the band keeps a reward that
        # ignores t or the reward is evaluated at the row's t.
        g, c = self.grid, self.controls
        holding = self.problem.running_reward.state.fn
        calls = {"_control_band": 0, "_reward_block": 0, "running_reward": 0}

        def counted(name):
            fn = getattr(penalty_mod, name)

            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        def counted_holding(x):
            calls["running_reward"] += 1
            return holding(x)

        for name in ("_control_band", "_reward_block"):
            monkeypatch.setattr(penalty_mod, name, counted(name))
        for state in (TimeFree(counted_holding), lambda t, x: counted_holding(x)):
            p = replace(self.problem, running_reward=SeparableReward(state))
            calls.update(dict.fromkeys(calls, 0))
            check_monotonicity(penalty_mod.monotonicity_row(p, g, c, 0.25, t=0.0), g, 0)
            assert calls == {"_control_band": 1, "_reward_block": 1, "running_reward": 1}

    def test_semilagrangian_check_builds_one_band(self, monkeypatch):
        # The monotonicity check builds A, and so reads the diffusion, once,
        # not per probe.
        p, g, c = self.problem, self.grid, self.controls
        calls = []
        variance = semilag_mod.diffusion_variance

        def counted(*args):
            calls.append(args)
            return variance(*args)

        monkeypatch.setattr(semilag_mod, "diffusion_variance", counted)
        check_monotonicity(semilag_mod.monotonicity_row(p, g, c, t=0.0), g, 0)
        assert len(calls) == 1


class TestRaggedImpulseSets:
    """Impulse bounds that widen with |x| give nodes different candidate
    counts; both solvers run end to end on the padded candidate block."""

    PROBLEM = replace(builtin("cash"),
                      impulse_bounds=lambda t, x: (-1.0 - 0.1 * abs(x), 1.0 + 0.1 * abs(x)))

    def test_penalty_passes_brute_force_audit(self):
        g = build_uniform_grid(Q=4, M=20, N=15, T=3.0)
        c = discretize_controls(self.PROBLEM, g.rho)
        sizes = {uniform_sample(*self.PROBLEM.impulse_bounds(0.0, float(x)), c.rho).size
                 for x in g.nodes}
        assert len(sizes) > 1
        sol = solve_finite_horizon(self.PROBLEM, g, c)
        assert any(p.intervene.any() for p in sol.policies if p is not None)
        assert brute_force_residual(sol, self.PROBLEM, g, c, sol.epsilon) <= RESIDUAL_ORACLE_TOL

    def test_semilagrangian_stability(self):
        g = build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=30, T=3.0)
        sol = solve_semi_lagrangian(self.PROBLEM, g)
        assert any(p.intervene.any() for p in sol.policies if p is not None)
        assert check_stability_bound(sol, self.PROBLEM).passed


class TestSchemeRecords:
    """The studies, the checks and the CLI act on a scheme's record in
    ``harness.SCHEMES``, not on its name."""

    def solve(self, name):
        p, g = builtin("cash"), build_uniform_grid(Q=4, M=4, N=3, T=3)
        c = discretize_controls(p, g.rho)
        return harness._solve_for_study(p, g, name, c, SolverConfig()), p, c

    @pytest.mark.parametrize("name", list(harness.SCHEMES))
    def test_record_drives_solve_checks_and_config(self, name, tmp_path, capsys):
        scheme = harness.SCHEMES[name]
        sol, p, c = self.solve(name)
        assert sol.scheme == name
        names = harness.default_checks(name) + ("monotonicity",)
        harness.require_runnable(p, sol.grid, name, names)
        checks = {chk.name: chk for chk in harness.run_checks(names, sol, p, c)}
        assert ("residual_oracle" in checks) == scheme.audited
        assert all(chk.passed for chk in checks.values()) and "monotonicity" in checks
        if not scheme.audited:
            # Requested anyway, the audit is refused rather than skipped.
            with pytest.raises(ValueError, match=f"'residual_oracle' does not apply to "
                                                 f"scheme {name!r}"):
                harness.require_runnable(p, sol.grid, name, harness.CHECKS)

        config = tmp_path / "run.yaml"
        config.write_text(f"problem: {{name: cash}}\nscheme: {name}\n"
                          "grid: {Q: 4.0, M: 4, N: 3}\n", encoding="utf-8")
        assert cli.parse_config(config).checks == harness.default_checks(name)
        assert ("residual_oracle" in cli.parse_config(config).checks) == scheme.audited

        config.write_text(f"problem: {{name: cash, params: {{beta: 0.5}}}}\nscheme: {name}\n"
                          "grid: {Q: 4.0, M: 4}\n", encoding="utf-8")
        out = tmp_path / "out"
        status = cli.main(["solve", "--config", str(config), "--out", str(out)])
        if scheme.stationary is None:
            err = capsys.readouterr().err
            assert status == 2 and not out.exists()
            assert err.startswith("config error: ") and f"{name!r} is finite-horizon only" in err
        else:
            assert status == 0

    @pytest.mark.parametrize("name, calls", [("penalty", (1, 0)), ("semilagrangian", (0, 1)),
                                             ("ios", (0, 0))])
    def test_audit_calls_the_harness_binding(self, name, calls, monkeypatch):
        # The benchmark's tracer counts the audit by wrapping harness's
        # module-level brute_force_residual, so run_checks must call it there,
        # and the semi-Lagrangian oracle likewise through its binding.
        # A scheme that is not audited never reaches either: the request is refused.
        seen = {"brute_force_residual": [], "brute_force_sl_residual": []}
        for attr, args in seen.items():
            def counted(*a, audit=getattr(harness, attr), args=args):
                args.append(a)
                return audit(*a)
            monkeypatch.setattr(harness, attr, counted)
        sol, p, c = self.solve(name)
        if harness.SCHEMES[name].audited:
            harness.require_runnable(p, sol.grid, name, ["residual_oracle"])
            [check] = harness.run_checks(["residual_oracle"], sol, p, c)
            assert check.passed
        else:
            with pytest.raises(ValueError, match="'residual_oracle'"):
                harness.require_runnable(p, sol.grid, name, ["residual_oracle"])
        assert tuple(len(args) for args in seen.values()) == calls


class TestRequireRunnable:
    def test_returns_each_levels_controls(self):
        p, g = builtin("cash"), build_uniform_grid(Q=4, M=4, N=3, T=3)
        controls = harness.require_runnable(p, g, "semilagrangian", ["stability"], levels=3)
        assert [c.rho for c in controls] == [grid_for_level(g, lv).rho for lv in range(3)]


class TestRefinementStudy:
    def test_heat_orders_near_one(self):
        p = builtin("heat")
        base = build_uniform_grid(Q=4, M=20, N=5, T=1)
        report = run_refinement_study(p, base, "penalty", levels=3,
                                      window=Window((0, 1), (-2, 2)))
        errors = report.errors()
        assert report.reference == "exact"
        assert errors[0] > errors[1] > errors[2] > 0
        assert report.levels[-1].observed_order == pytest.approx(1.0, abs=0.3)
        assert report.passed

    def test_growing_q_removes_the_truncation_floor(self):
        # configs/heat_growing_q_study.yaml: the zero boundary stencils at
        # +-Q cost heat an O(1) error near the boundary.  On a fixed Q = 4
        # it reaches |x| <= 3.5 and stalls there near 0.13; growing Q with
        # the mesh (Q = 4, 4.8, 5.65, 6.73) brings back first order.
        spec = cli.parse_config(CONFIGS / "heat_growing_q_study.yaml")
        p = cli.build_problem(spec)
        growing = cli.build_grid(spec, p)
        assert growing.mode == "growing_q" and spec.window.x_range == (-3.5, 3.5)
        fixed = build_uniform_grid(growing.Q, growing.M, growing.N, growing.T)
        inner, outer = Window((0.0, 1.0), (-2.0, 2.0)), spec.window

        def errors(base, window):
            report = run_refinement_study(p, base, "penalty", spec.levels, checks=(),
                                          window=window)
            return report.errors(), [lv.observed_order for lv in report.levels]

        for window in (inner, outer):
            errs, orders = errors(growing, window)
            assert all(a > b for a, b in zip(errs, errs[1:]))
            assert orders[-1] == pytest.approx(1.0, abs=0.15)
        errs, orders = errors(fixed, outer)
        assert all(0.1 <= e <= 0.15 for e in errs[1:])
        assert abs(orders[-1]) <= 0.05

    def test_constant_errors_resolved_and_flagged(self):
        p = builtin("constant", {"c": 5})
        base = build_uniform_grid(Q=2, M=8, N=8, T=1)
        report = run_refinement_study(p, base, "penalty", levels=2)
        assert all(e <= 1e-12 for e in report.errors())
        assert report.levels[1].observed_order is None

    def test_self_convergence_reference_when_no_closed_form(self):
        p = builtin("cash")
        base = build_uniform_grid(Q=4, M=10, N=8, T=3)
        report = run_refinement_study(p, base, "semilagrangian", levels=3,
                                      checks=("stability", "matrices"))
        assert report.reference == "self"
        assert report.levels[-1].error is None
        assert report.errors()[0] > report.errors()[1] > 0
        # The report keeps each level's solution, and its dict leaves them out.
        assert [s.grid.rho for s in report.solutions] == [lv.rho for lv in report.levels]
        assert report.errors()[0] == sup_error(report.solutions[0], report.solutions[-1],
                                               report.window)
        assert "solutions" not in report.to_dict()

    def test_needs_two_levels(self):
        p = builtin("constant")
        base = build_uniform_grid(Q=2, M=4, N=4, T=1)
        with pytest.raises(ValueError):
            run_refinement_study(p, base, "penalty", levels=1)

    def test_misspelled_check_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved")
        monkeypatch.setattr(harness, "_solve_for_study", no_solve)
        p = builtin("constant")
        base = build_uniform_grid(Q=2, M=4, N=4, T=1)
        with pytest.raises(ValueError, match="'stabilty'"):
            run_refinement_study(p, base, "penalty", levels=2, checks=("stabilty",))

    @pytest.mark.parametrize("scheme", ["penalty", "semilagrangian"])
    def test_window_missing_a_level_rejected_before_any_solve(self, scheme, monkeypatch):
        # Boundary-refined levels are not nested: x in [3.40, 3.41] holds a
        # node of levels 0 and 1 (3.4054, 3.4034) and none of level 2.
        base = build_boundary_refined_grid(Q=4, rho=0.5, c_b=1.0, N=6, T=3)
        window = Window((0.0, 3.0), (3.40, 3.41))
        for level in (0, 1):
            harness.window_points(grid_for_level(base, level), window)

        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved")
        monkeypatch.setattr(harness, "_solve_for_study", no_solve)
        with pytest.raises(ValueError, match=r"window t \[0.0, 3.0\], x \[3.4, 3.41\]"):
            run_refinement_study(builtin("cash"), base, scheme, levels=3, window=window)

    def test_monotonicity_runs_at_every_level_with_the_seed(self, monkeypatch):
        seeds = []
        probe = harness.check_monotonicity

        def recorded(row_fn, grid, seed):
            seeds.append(seed)
            return probe(row_fn, grid, seed)

        monkeypatch.setattr(harness, "check_monotonicity", recorded)
        p = builtin("cash")
        base = build_uniform_grid(Q=4, M=8, N=6, T=3)
        report = run_refinement_study(p, base, "penalty", levels=2,
                                      checks=("stability", "monotonicity"), seed=7)
        assert [[c.name for c in lv.checks] for lv in report.levels] == [
            ["stability_bound", "monotonicity"]] * 2
        assert seeds == [7, 7] and report.passed

    def test_solver_failure_recorded_and_study_continues(self, monkeypatch):
        # A one-iteration budget starves policy iteration on the cash
        # problem; each level must be recorded as failed without aborting
        # the study.
        monkeypatch.setattr(penalty_mod, "MAX_ITERS", 1)
        p = builtin("cash")
        base = build_uniform_grid(Q=4, M=10, N=8, T=3)
        report = run_refinement_study(p, base, "penalty", levels=2)
        assert len(report.levels) == 2
        assert all(lv.solve_failed for lv in report.levels)
        assert all(any(c.name == "solve" and not c.passed for c in lv.checks)
                   for lv in report.levels)
        assert all("policy iteration hit MAX_ITERS=1" in lv.message for lv in report.levels)
        assert report.solutions == [None, None]
        assert not report.passed

    def test_level_grids_follow_halving(self):
        base = build_uniform_grid(Q=4, M=10, N=8, T=3)
        assert grid_for_level(base, 1).rho == base.rho / 2
