import ast
import inspect
import re
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hjbqvi import cli, oracle, semilag
from hjbqvi import problem as problem_module
from hjbqvi.exceptions import NonConvergenceError
from hjbqvi.grid import build_uniform_grid
from hjbqvi.harness import RESIDUAL_ORACLE_TOL, run_checks
from hjbqvi.operators import discretize_controls
from hjbqvi.oracle import (OUTER_TOL, brute_force_residual, brute_force_sl_residual,
                           solve_iterated_optimal_stopping)
from hjbqvi.penalty import solve_finite_horizon, solve_infinite_horizon
from hjbqvi.problem import ResetCost, SeparableReward, TimeFree, builtin
from hjbqvi.solution import SolverConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestIteratedOptimalStopping:
    @pytest.mark.parametrize("N, T", [(0, 0.0), (6, 1.0)], ids=["no-time-axis", "T-not-horizon"])
    def test_grid_must_step_to_the_horizon(self, N, T):
        # cash has horizon 3: a grid with no time axis, or one ending at T = 1, is refused.
        g = build_uniform_grid(Q=4, M=8, N=N, T=T)
        with pytest.raises(ValueError, match=f"horizon 3.0, got N = {N}, T = {T}"):
            solve_iterated_optimal_stopping(builtin("cash"), g)

    def test_constant_converges_at_first_pass(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        sol = solve_iterated_optimal_stopping(p, g)
        # The obstacle c - 1 never binds, so the first obstacle pass changes
        # nothing and the outer loop stops immediately.
        assert sol.diagnostics.outer_iterations == 1
        assert np.abs(sol.surface - 5.0).max() <= 1e-12

    def test_heat_matches_direct_solve(self):
        p = builtin("heat")
        g = build_uniform_grid(Q=4, M=32, N=8, T=1)
        c = discretize_controls(p, g.rho)
        sol_ios = solve_iterated_optimal_stopping(p, g, c)
        sol_pen = solve_finite_horizon(p, g, c)
        assert sol_ios.diagnostics.outer_iterations == 1
        assert np.abs(sol_ios.surface - sol_pen.surface).max() <= OUTER_TOL

    def test_cash_monotone_iterates_and_agreement(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)   # rho = 0.25 = epsilon
        c = discretize_controls(p, g.rho)
        sol_ios = solve_iterated_optimal_stopping(p, g, c)
        assert sol_ios.diagnostics.outer_iterations >= 2
        assert min(sol_ios.diagnostics.outer_min_increments) >= -1e-8
        sol_pen = solve_finite_horizon(p, g, c)
        assert sol_pen.epsilon == sol_ios.epsilon == 0.25
        gap = np.abs(sol_ios.surface - sol_pen.surface).max()
        assert gap <= 10 * (sol_pen.epsilon + OUTER_TOL)

    def test_exhausted_outer_budget_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "OUTER_TOL", 1e-14)
        monkeypatch.setattr(oracle, "K_MAX", 1)
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        with pytest.raises(NonConvergenceError, match="K_MAX=1"):
            solve_iterated_optimal_stopping(p, g)

    def test_requires_finite_horizon(self):
        p = builtin("constant", {"beta": 0.5})
        g = build_uniform_grid(Q=2, M=4, N=1, T=1)
        with pytest.raises(ValueError, match="finite-horizon"):
            solve_iterated_optimal_stopping(p, g)


class TestControlBandPerSolve:
    """Every inner step of every outer pass reads one controls x nodes band."""

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

    @pytest.mark.parametrize("name", ["heat", "cash"])
    def test_one_block_evaluation_per_solve(self, name):
        p, shapes = self.counted(builtin(name))
        g = build_uniform_grid(Q=4, M=10, N=6, T=p.horizon)
        c = discretize_controls(p, g.rho)
        sol = solve_iterated_optimal_stopping(p, g, c)
        assert sol.diagnostics.outer_iterations >= 1
        assert sol.diagnostics.matrix_systems_checked >= 1
        block = (c.controls.size, g.n_nodes)
        for calls in shapes.values():
            # One block call; each assembled system reads rows of that band.
            assert calls == [block]

    def test_surfaces_equal_per_step_band(self, monkeypatch):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        hoisted = solve_iterated_optimal_stopping(p, g, c)
        timestep = oracle.penalty_timestep

        def own_band(u_next, t, grid, problem, controls, band, *rest, **kwargs):
            # Each step builds its own band, as it did before the solve shared one.
            return timestep(u_next, t, grid, problem, controls,
                            oracle._control_band(grid, problem, controls), *rest, **kwargs)

        monkeypatch.setattr(oracle, "penalty_timestep", own_band)
        per_step = solve_iterated_optimal_stopping(p, g, c)
        assert np.array_equal(per_step.surface, hoisted.surface)
        assert per_step.diagnostics.outer_changes == hoisted.diagnostics.outer_changes


class TestTableReuse:
    """A call keeps one jump table and builds another only at a level whose
    data differ from the kept table's; the solve is that of a build at every
    level, bit for bit."""

    PROBLEMS = {
        "cash": builtin("cash"),
        "heat": builtin("heat"),
        "moving bounds": replace(builtin("cash"),
                                 impulse_bounds=lambda t, x: (-1.0 + 0.1 * t, 1.0 - 0.05 * t)),
    }

    @staticmethod
    def solve(problem, monkeypatch, same_data=True):
        """(record, table build times, passes) of an IOS solve at M=20; with
        ``same_data`` False no kept table is ever reused."""
        builds = []
        table = oracle.InterventionTable

        class Counted(table):
            def __init__(self, problem, grid, controls, t):
                builds.append(t)
                super().__init__(problem, grid, controls, t)

            def same_data_at(self, t):
                return same_data and super().same_data_at(t)

        g = build_uniform_grid(Q=4, M=20, N=15, T=problem.horizon)
        with monkeypatch.context() as m:
            m.setattr(oracle, "InterventionTable", Counted)
            sol = solve_iterated_optimal_stopping(problem, g)
        policies = [None if p is None else (p.controls.tobytes(), p.intervene.tobytes(),
                                            p.impulses.tobytes()) for p in sol.policies]
        record = (sol.surface.tobytes(), policies, repr(sol.diagnostics))
        return record, builds, sol.diagnostics.outer_iterations

    def test_time_free_bounds_build_one_table(self, monkeypatch):
        # One table serves every level of every pass.
        _, builds, passes = self.solve(self.PROBLEMS["cash"], monkeypatch)
        assert passes >= 2 and builds == [0.0]

    def test_dated_bounds_build_every_level(self, monkeypatch):
        _, builds, passes = self.solve(self.PROBLEMS["moving bounds"], monkeypatch)
        assert passes >= 2 and len(builds) == 16 * passes

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_solve_equals_a_build_per_level(self, name, monkeypatch):
        kept, _, passes = self.solve(self.PROBLEMS[name], monkeypatch)
        rebuilt, builds, _ = self.solve(self.PROBLEMS[name], monkeypatch, same_data=False)
        assert kept == rebuilt and len(builds) == 16 * passes


class TestBruteForceResidual:
    def test_penalty_solution_within_tolerance(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=12, N=9, T=3)
        c = discretize_controls(p, g.rho)
        sol = solve_finite_horizon(p, g, c, cfg=SolverConfig(c_eps=0.6))
        assert brute_force_residual(sol, p, g, c, sol.epsilon) <= 1e-8

    def test_constant_exact_surface_is_zero(self):
        # Dyadic spacing keeps every stencil cancellation exact in floats.
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=4, T=1)
        c = discretize_controls(p, g.rho)
        surface = np.full((g.N + 1, g.n_nodes), 5.0)
        assert brute_force_residual(surface, p, g, c, 0.25) == 0.0

    def test_perturbation_is_detected_at_time_scale(self):
        # Bumping one entry shifts the time-difference term of the previous
        # row by 0.1/dt exactly; everything else is O(1).
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=12, N=9, T=3)
        c = discretize_controls(p, g.rho)
        sol = solve_finite_horizon(p, g, c, cfg=SolverConfig(c_eps=0.6))
        surface = sol.surface.copy()
        surface[4][g.offset(0)] += 0.1
        value = brute_force_residual(surface, p, g, c, sol.epsilon)
        assert value >= 0.1 / g.dt - 1.0

    def test_stationary_variant(self):
        p = builtin("constant", {"beta": 0.5})
        g = build_uniform_grid(Q=2, M=8)
        c = discretize_controls(p, g.rho)
        sol = solve_infinite_horizon(p, g, c)
        assert brute_force_residual(sol, p, g, c, sol.epsilon) <= 1e-8

    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_non_finite_surface_is_nan_and_fails_the_check(self, beta):
        # Python's max() never keeps a NaN it is handed second, so without
        # an explicit guard an all-NaN surface would audit as 0.0.
        p = builtin("cash", {"beta": beta})
        g = build_uniform_grid(Q=4, M=8, N=6, T=3) if beta is None else build_uniform_grid(Q=4, M=8)
        c = discretize_controls(p, g.rho)
        solve = solve_finite_horizon if beta is None else solve_infinite_horizon
        sol = solve(p, g, c)
        nan_surface = np.full(sol.surface.shape, np.nan)
        assert np.isnan(brute_force_residual(nan_surface, p, g, c, sol.epsilon))
        one_nan = sol.surface.copy()
        one_nan[0, 3] = np.inf
        assert np.isnan(brute_force_residual(one_nan, p, g, c, sol.epsilon))
        [check] = run_checks(("residual_oracle",), replace(sol, surface=nan_surface), p, c)
        assert check.name == "residual_oracle" and not check.passed

    def test_terminal_mismatch_contributes(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=6, N=4, T=1)
        c = discretize_controls(p, g.rho)
        surface = np.full((g.N + 1, g.n_nodes), 5.0)
        surface[g.N][0] = 4.0
        assert brute_force_residual(surface, p, g, c, 0.25) >= 1.0


class TestBruteForceSlResidual:
    """The semi-Lagrangian audit reads every sampled control, so it checks a
    solve whose control maximum reads each node's candidate rows only."""

    GRIDS = {
        "uniform": lambda p: build_uniform_grid(Q=4, M=40, N=30, T=3),
        "refined-config": lambda p: cli.build_grid(
            cli.parse_config(CONFIGS / "cash_semilagrangian_refined.yaml"), p),
    }

    @pytest.mark.parametrize("mode", GRIDS)
    def test_reduced_solve_passes(self, mode):
        p = builtin("cash")
        g = self.GRIDS[mode](p)
        c = discretize_controls(p, g.rho)
        sol = semilag.solve_semi_lagrangian(p, g, c)
        assert sol.diagnostics.control_rows == 4 < c.controls.size
        assert brute_force_sl_residual(sol, p, g, c) <= RESIDUAL_ORACLE_TOL

    @pytest.mark.parametrize("mode", GRIDS)
    def test_tripled_foot_step_fails(self, mode, monkeypatch):
        # Feet at x_j + 3 drift dt move the t = 0 surface by about 2.4; the
        # audit, which traces its own feet, sees each step's equation broken.
        p = builtin("cash")
        g = self.GRIDS[mode](p)
        c = discretize_controls(p, g.rho)
        true_feet = semilag.foot_points

        def tripled(grid, problem, controls):
            return true_feet(grid, replace(problem, drift=lambda x, b: 3.0 * problem.drift(x, b)),
                             controls)

        monkeypatch.setattr(semilag, "foot_points", tripled)
        assert brute_force_sl_residual(semilag.solve_semi_lagrangian(p, g, c), p, g, c) > 0.1

    def test_jump_is_read_at_the_next_level(self):
        # A cost that grows with t makes the jump at level n differ from
        # the one at n + 1, which the solve reads.
        p = replace(builtin("cash"),
                    impulse_cost=lambda t, x, z: -2.0 - 0.5 * np.abs(z - x) - 0.2 * t)
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        sol = semilag.solve_semi_lagrangian(p, g, c)
        assert sol.policies[0].intervene.any()
        assert brute_force_sl_residual(sol, p, g, c) <= RESIDUAL_ORACLE_TOL

    def test_terminal_mismatch_and_non_finite_surface(self):
        # Dyadic spacing keeps every stencil cancellation exact in floats.
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=4, T=1)
        c = discretize_controls(p, g.rho)
        surface = np.full((g.N + 1, g.n_nodes), 5.0)
        assert brute_force_sl_residual(surface, p, g, c) == 0.0
        surface[g.N][0] = 4.0
        assert brute_force_sl_residual(surface, p, g, c) >= 1.0
        surface[0, 3] = np.nan
        assert np.isnan(brute_force_sl_residual(surface, p, g, c))


class TestAuditRejects:
    """An audit raises on what it cannot audit, where it would otherwise
    return a small residual with little or nothing audited."""

    @pytest.mark.parametrize("scheme", ["penalty", "semilagrangian"])
    def test_surface_of_the_wrong_shape(self, scheme):
        p, g, c, sol, audit = cash_case(scheme)
        expected = re.escape(f"{(g.N + 1, g.n_nodes)}")
        for surface in (sol.surface[-3:], sol.surface[-1:], sol.surface[-1],
                        sol.surface[:, :-1]):
            shape = re.escape(f"{np.atleast_2d(surface).shape}")
            with pytest.raises(ValueError, match=f"{expected}.*{shape}"):
                audit(surface, p)

    def test_discounted_surface_of_the_wrong_shape(self):
        p, g, c, sol, audit = cash_case("penalty", {"beta": 0.2})
        assert audit(sol.surface, p) <= RESIDUAL_ORACLE_TOL
        for surface in (np.vstack([sol.surface, sol.surface]), sol.surface[..., 1:]):
            with pytest.raises(ValueError, match=re.escape(f"{(1, g.n_nodes)}")):
                audit(surface, p)

    def test_semilagrangian_audit_needs_a_finite_horizon(self):
        p, g, c, sol, _ = cash_case("penalty", {"beta": 0.2})
        with pytest.raises(ValueError, match="finite horizon"):
            brute_force_sl_residual(sol, p, g, c)


class TestAuditEvaluations:
    """Counting wrappers pin what the audits evaluate: a later speed-up that
    drops an evaluation fails here rather than silently."""

    COUNTED = ("drift", "diffusion", "running_reward", "impulse_shift", "impulse_cost")

    @classmethod
    def counted(cls, problem):
        calls = dict.fromkeys(cls.COUNTED, 0)

        def wrap(name, fn):
            def counted_fn(*args):
                calls[name] += 1
                return fn(*args)
            return counted_fn

        return replace(problem, **{name: wrap(name, getattr(problem, name))
                                   for name in cls.COUNTED}), calls

    @pytest.mark.parametrize("scheme", ["penalty", "semilagrangian"])
    def test_every_point_is_evaluated(self, scheme):
        # The solve reads the declared problem; the audit reads the wrapped
        # callables, which give the same values.
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        c = discretize_controls(p, g.rho)
        counted, calls = self.counted(p)
        if scheme == "penalty":
            sol = solve_finite_horizon(p, g, c)
            audit = lambda problem: brute_force_residual(sol, problem, g, c, sol.epsilon)
        else:
            sol = semilag.solve_semi_lagrangian(p, g, c)
            audit = lambda problem: brute_force_sl_residual(sol, problem, g, c)
        value = audit(counted)
        assert value == audit(p) <= RESIDUAL_ORACLE_TOL
        N, n, B = g.N, g.n_nodes, c.controls.size
        K = c.impulse_values(0.0, g.nodes).shape[1]
        assert B >= 3 and K >= 3
        assert calls == {"drift": n * B, "diffusion": n * B, "running_reward": N * n * B,
                         "impulse_shift": N * n * K, "impulse_cost": N * n * K}

    def test_each_jump_target_is_read_once_per_level(self, monkeypatch):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        c = discretize_controls(p, g.rho)
        sol = solve_finite_horizon(p, g, c)
        read = []
        interp = oracle._interp_scalar

        def counted(nodes, values, x):
            read.append(x)
            return interp(nodes, values, x)

        monkeypatch.setattr(oracle, "_interp_scalar", counted)
        brute_force_residual(sol, p, g, c, sol.epsilon)
        expected = []
        for n in range(g.N):
            zs = c.impulse_values(n * g.dt, g.nodes)
            targets = g.nodes[:, np.newaxis] + (zs - g.nodes[:, np.newaxis])
            expected.append(len(set(targets.ravel().tolist())))
        assert len(read) == sum(expected) < g.N * zs.size


def cash_case(scheme, params=None, problem=None):
    """(problem, grid, controls, solution, audit) for cash at M=8, N=6; the
    audit is a function of (surface, problem)."""
    p = problem or builtin("cash", params)
    if p.finite_horizon:
        g = build_uniform_grid(Q=4, M=8, N=6, T=p.horizon)
    else:
        g = build_uniform_grid(Q=4, M=8)
    c = discretize_controls(p, g.rho)
    if scheme == "semilagrangian":
        sol = semilag.solve_semi_lagrangian(p, g, c)
        return p, g, c, sol, lambda s, q: brute_force_sl_residual(s, q, g, c)
    sol = (solve_finite_horizon if p.finite_horizon else solve_infinite_horizon)(p, g, c)
    return p, g, c, sol, lambda s, q: brute_force_residual(s, q, g, c, sol.epsilon)


def value_where(fn, hit, value=np.nan):
    """fn, except that it returns ``value`` wherever ``hit`` holds."""
    def poisoned(*args):
        return value if hit(*args) else fn(*args)
    return poisoned


class NanResetCost(ResetCost):
    """A declared reset cost that is NaN for z > 0.5."""

    def __call__(self, t, x, z):
        return np.nan if z > 0.5 else super().__call__(t, x, z)


def poisoned_problem(p, coefficient, where=lambda t, x: t > 0.9 and x > 0.5):
    """p with one coefficient non-finite at the points the audits read
    where ``where(t, x)`` holds (and x > 0.5 for those that take no t)."""
    at = lambda t, x, _: where(t, x)
    if coefficient == "reward":
        return replace(p, running_reward=value_where(
            p.running_reward, lambda t, x, b: b > 0 and where(t, x)))
    if coefficient == "declared reward":
        return replace(p, running_reward=SeparableReward(value_where(p.running_reward.state,
                                                                     where)))
    if coefficient == "shift":
        return replace(p, impulse_shift=value_where(p.impulse_shift, at))
    if coefficient == "jump target":
        return replace(p, impulse_shift=value_where(p.impulse_shift, at, np.inf))
    if coefficient == "cost":
        return replace(p, impulse_cost=value_where(p.impulse_cost, at))
    if coefficient == "declared cost":
        return replace(p, impulse_cost=NanResetCost(p.reset_cost.c0, p.reset_cost.lam))
    if coefficient == "drift":
        return replace(p, drift=value_where(p.drift, lambda x, b: x > 0.5 and b > 0))
    if coefficient == "diffusion":
        return replace(p, diffusion=value_where(p.diffusion, lambda x, b: x > 0.5))
    assert coefficient == "terminal reward"
    return replace(p, terminal_reward=value_where(p.terminal_reward, lambda x: x > 0.5))


class TestNonFiniteCoefficients:
    """A non-finite value the audit evaluates makes its residual NaN, which
    fails ``residual_oracle``, where ``val > best`` and ``max`` would skip
    it and a NaN shift would index past the nodes."""

    COEFFICIENTS = ("reward", "declared reward", "shift", "jump target", "cost",
                    "declared cost", "drift", "diffusion", "terminal reward")

    @pytest.mark.parametrize("coefficient", COEFFICIENTS)
    @pytest.mark.parametrize("scheme", ["penalty", "semilagrangian"])
    def test_audit_is_nan(self, scheme, coefficient):
        p, g, c, sol, audit = cash_case(scheme)
        bad = poisoned_problem(p, coefficient)
        if coefficient.startswith("declared"):
            assert bad.separable_reward is not None and bad.reset_cost is not None
        assert audit(sol, p) <= RESIDUAL_ORACLE_TOL
        assert np.isnan(audit(sol, bad))

    @pytest.mark.parametrize("coefficient", ["reward", "declared reward", "shift", "cost"])
    def test_discounted_audit_is_nan(self, coefficient):
        # The stationary rows read t = 0 only.
        p, g, c, sol, audit = cash_case("penalty", {"beta": 0.2})
        bad = poisoned_problem(p, coefficient, where=lambda t, x: x > 0.5)
        assert audit(sol, p) <= RESIDUAL_ORACLE_TOL
        assert np.isnan(audit(sol, bad))

    @pytest.mark.parametrize("scheme", ["penalty", "semilagrangian"])
    def test_run_checks_reports_the_failure(self, scheme):
        p, g, c, sol, _ = cash_case(scheme)
        [good] = run_checks(("residual_oracle",), sol, p, c)
        [check] = run_checks(("residual_oracle",), sol, poisoned_problem(p, "reward"), c)
        assert good.passed
        assert check.name == "residual_oracle" and not check.passed and np.isnan(check.value)


class TestDeclaredAuditEvaluations:
    """Beside TestAuditEvaluations, which pins the undeclared path: counters
    that keep the declarations pin what the audits read once.  A declared
    reward is evaluated once per (t, x); a declared reset's shifts and costs
    once per call, and once more per change of the impulse candidates.  A
    reward and impulse bounds declared to ignore t are read as often as
    undeclared ones: at every (t, x), and at every level."""

    @staticmethod
    def counted(problem, monkeypatch):
        calls = dict.fromkeys(("running_reward", "impulse_bounds", "impulse_shift",
                               "impulse_cost"), 0)
        holding, shift = problem.running_reward.state.fn, problem_module.reset_shift
        bounds = problem.impulse_bounds

        def counted_holding(x):
            calls["running_reward"] += 1
            return holding(x)

        def counted_bounds(*args):
            calls["impulse_bounds"] += 1
            return (bounds.fn if isinstance(bounds, TimeFree) else bounds)(*args)

        def counted_shift(t, x, z):
            calls["impulse_shift"] += 1
            return shift(t, x, z)

        class CountedResetCost(ResetCost):
            def __call__(self, t, x, z):
                calls["impulse_cost"] += 1
                return super().__call__(t, x, z)

        # ProblemSpec.reset_cost recognises the patched reset_shift.
        cost = problem.reset_cost
        monkeypatch.setattr(problem_module, "reset_shift", counted_shift)
        counted = replace(problem, running_reward=SeparableReward(TimeFree(counted_holding)),
                          impulse_shift=counted_shift,
                          impulse_cost=CountedResetCost(cost.c0, cost.lam),
                          impulse_bounds=TimeFree(counted_bounds)
                          if isinstance(bounds, TimeFree) else counted_bounds)
        assert counted.declarations[:3] == ("reset", "separable reward", "time-free reward")
        return counted, calls

    @pytest.mark.parametrize("bounds", ["fixed", "step"])
    @pytest.mark.parametrize("scheme", ["penalty", "semilagrangian"])
    def test_declared_values_are_read_once(self, scheme, bounds, monkeypatch):
        p = builtin("cash")
        if bounds == "step":
            # Both audits see one change of candidates, at t = 1.5.
            p = replace(p, impulse_bounds=lambda t, x: (-1.0, 1.0) if t < 1.4 else (-0.9, 1.1))
        p, g, c, sol, audit = cash_case(scheme, problem=p)
        N, n = g.N, g.n_nodes
        K = c.impulse_values(0.0, g.nodes).shape[1]
        assert c.impulse_values(g.T, g.nodes).shape[1] == K >= 3
        counted, calls = self.counted(p, monkeypatch)
        assert (counted.time_free_bounds is not None) == (bounds == "fixed")
        # The audit reads each level's candidates from controls of its own,
        # which sample the counted bounds.
        fresh = discretize_controls(counted, g.rho)
        if scheme == "penalty":
            value = brute_force_residual(sol, counted, g, fresh, sol.epsilon)
        else:
            value = brute_force_sl_residual(sol, counted, g, fresh)
        assert value == audit(sol, p) <= RESIDUAL_ORACLE_TOL
        builds = 1 if bounds == "fixed" else 2
        assert calls == {"running_reward": N * n, "impulse_bounds": N,
                         "impulse_shift": builds * n * K, "impulse_cost": builds * n * K}


def undeclared_twin(p):
    """p with the same values through callables that declare nothing."""
    twin = replace(p, running_reward=lambda t, x, b: p.running_reward(t, x, b),
                   impulse_shift=lambda t, x, z: p.impulse_shift(t, x, z),
                   impulse_cost=lambda t, x, z: p.impulse_cost(t, x, z))
    assert twin.separable_reward is None and twin.reset_cost is None
    return twin


class TestDeclaredTwinsAgree:
    """Reading a declaration once gives residuals repr-equal to evaluating
    its undeclared twin everywhere, on passing and failing surfaces alike."""

    PROBLEMS = {
        "cash": lambda: builtin("cash"),
        "heat": lambda: builtin("heat"),
        "cash-moving-bounds": lambda: replace(
            builtin("cash"), impulse_bounds=lambda t, x: (-1.0 + 0.1 * t, 1.0 - 0.05 * t)),
        "cash-discounted": lambda: builtin("cash", {"beta": 0.2}),
        "heat-discounted": lambda: builtin("heat", {"beta": 0.2}),
    }
    FINITE = ("cash", "heat", "cash-moving-bounds")
    CASES = [("penalty", name) for name in PROBLEMS] + [("semilagrangian", name) for name in FINITE]

    @pytest.mark.parametrize("scheme, name", CASES)
    def test_true_and_perturbed_surfaces(self, scheme, name):
        p, g, c, sol, audit = cash_case(scheme, problem=self.PROBLEMS[name]())
        if name.startswith("cash"):
            assert sol.policies[0].intervene.any()     # the jump binds
        twin = undeclared_twin(p)
        perturbed = sol.surface + 1e-3 * np.random.default_rng(0).standard_normal(
            sol.surface.shape)
        for tag, surface in (("true", sol.surface), ("perturbed", perturbed)):
            declared = audit(surface, p)
            assert repr(declared) == repr(audit(surface, twin)), tag
            assert (declared <= RESIDUAL_ORACLE_TOL) == (tag == "true"), tag

    @pytest.mark.parametrize("name", FINITE)
    def test_tripled_feet(self, name, monkeypatch):
        p = self.PROBLEMS[name]()
        true_feet = semilag.foot_points

        def tripled(grid, problem, controls):
            return true_feet(grid, replace(problem, drift=lambda x, b: 3.0 * problem.drift(x, b)),
                             controls)

        monkeypatch.setattr(semilag, "foot_points", tripled)
        p, g, c, sol, audit = cash_case("semilagrangian", problem=p)
        declared = audit(sol, p)
        assert repr(declared) == repr(audit(sol, undeclared_twin(p)))
        if name != "heat":      # heat has no drift to triple
            assert declared > RESIDUAL_ORACLE_TOL


SOLVER_MODULES = ("operators", "penalty", "semilag")


def names_imported_from_solvers(module) -> set[str]:
    """Names a module binds with ``from .operators/.penalty/.semilag import``
    (or ``from . import operators`` and the like)."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module in SOLVER_MODULES or (
                        node.module is None and alias.name in SOLVER_MODULES):
                    names.add(alias.asname or alias.name)
    return names


def global_names(code) -> set[str]:
    """Every name a code object (and any nested code) looks up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= global_names(const)
    return names


class TestAuditIndependence:
    def test_audit_uses_nothing_imported_from_the_solvers(self):
        # The audit must re-derive the scheme from the problem data alone;
        # wiring the solvers' stencil core (or anything else they export)
        # into it would let a shared bug pass the audit.
        imported = names_imported_from_solvers(oracle)
        assert {"InterventionTable", "penalty_timestep"} <= imported
        audit = (oracle.brute_force_residual, oracle.brute_force_sl_residual, oracle._audit,
                 oracle._penalty_row, oracle._sl_row, oracle._interp_scalar,
                 oracle._second_difference, oracle._best_jump, oracle._coefficients)
        for fn in audit:
            shared = global_names(fn.__code__) & imported
            assert not shared, f"{fn.__name__} uses {sorted(shared)} from the solvers"


    def test_audit_reads_no_time_free_declaration(self):
        # The audits evaluate the reward and the impulse bounds wherever
        # they read them, declared time-free or not, and so check the values
        # a solve keeps for every step.
        names = global_names(compile(inspect.getsource(oracle), oracle.__file__, "exec"))
        assert {"separable_reward", "reset_cost"} <= names
        assert not {name for name in names if "time_free" in name or name == "TimeFree"}


def test_every_audit_helper_uses_nothing_from_the_solvers():
    # TestAuditIndependence names the audit's functions one by one; this
    # reads every function of the module but the iterated optimal stopping
    # solve, which is a solver and uses them.
    imported = names_imported_from_solvers(oracle)
    helpers = [fn for name, fn in vars(oracle).items()
               if isinstance(fn, types.FunctionType) and fn.__module__ == oracle.__name__
               and name != "solve_iterated_optimal_stopping"]
    assert {oracle._reward_reader, oracle._jump_reader, oracle._best_jump} <= set(helpers)
    for fn in helpers:
        shared = global_names(fn.__code__) & imported
        assert not shared, f"{fn.__name__} uses {sorted(shared)} from the solvers"
