from dataclasses import replace

import numpy as np
import pytest

from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid
from hjbqvi.harness import check_solution_matrices
from hjbqvi.oracle import solve_iterated_optimal_stopping
from hjbqvi.penalty import solve_finite_horizon, solve_infinite_horizon
from hjbqvi.problem import (
    ProblemSpec,
    ResetCost,
    SeparableReward,
    TimeFree,
    builtin,
    eval_on,
    impulse_bounds_on,
    reset_impulse,
    reset_shift,
    validate,
    VALIDATE_SAMPLES,
)
from hjbqvi.semilag import solve_semi_lagrangian


def flat_problem(impulse_cost=-1.0, **overrides):
    fields = dict(
        drift=lambda x, b: 0.0,
        diffusion=lambda x, b: 1.0,
        running_reward=lambda t, x, b: 0.0,
        terminal_reward=lambda x: 5.0 + 0.0 * x,
        impulse_shift=lambda t, x, z: 0.0 * z,
        impulse_cost=lambda t, x, z: impulse_cost + 0.0 * z,
        impulse_bounds=lambda t, x: (0.0, 1.0),
        control_bounds=(0.0, 0.0),
        horizon=1.0,
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


class TestEvalOn:
    def test_vectorized_callable(self):
        out = eval_on(lambda x, b: x * b, np.array([1.0, 2.0]), 3.0)
        assert np.array_equal(out, [3.0, 6.0])

    def test_constant_return_broadcasts(self):
        out = eval_on(lambda x, b: -1.0, np.array([1.0, 2.0, 3.0]), 0.0)
        assert np.array_equal(out, [-1.0, -1.0, -1.0])

    def test_scalar_only_callable_falls_back(self):
        def picky(x, b):
            if x > 0:
                return 1.0
            return -1.0
        out = eval_on(picky, np.array([-2.0, 3.0]), 0.0)
        assert np.array_equal(out, [-1.0, 1.0])

    def test_non_finite_vectorized_value_named(self):
        drift = lambda x, b: np.where(x == 1.0, np.nan, b + 0.0 * x)
        with pytest.raises(ValueError, match=r"nan at arguments \(1\.0, 0\.5\)"):
            eval_on(drift, np.array([0.0, 1.0, 2.0]), 0.5)

    def test_non_finite_scalar_fallback_value_named(self):
        def picky(x, b):
            if x > 0:
                return float("inf")
            return 1.0
        with pytest.raises(ValueError, match=r"inf at arguments \(3\.0, 0\.0\)"):
            eval_on(picky, np.array([-2.0, 3.0, 4.0]), 0.0)

    def test_non_finite_scalar_argument_named(self):
        with pytest.raises(ValueError, match=r"nan at arguments \(2\.0,\)"):
            eval_on(lambda x: np.nan, 2.0)

    def test_other_errors_are_not_swallowed(self):
        # Only TypeError and ValueError mean "not array-aware"; any other
        # error from the vectorised call is a bug and must surface, even
        # when the scalar fallback would have produced values.
        def broken_on_arrays(x, b):
            if np.ndim(x) > 0:
                raise RuntimeError("array path is broken")
            return 1.0
        with pytest.raises(RuntimeError, match="array path"):
            eval_on(broken_on_arrays, np.array([1.0, 2.0]), 0.0)
        assert float(eval_on(broken_on_arrays, 1.0, 0.0)) == 1.0

    def test_an_ignored_argument_gives_a_read_only_view(self):
        # The callable sees its arguments unbroadcast and ignores b: one
        # call on the nodes, viewed as the controls x nodes block.
        shapes = []

        def reward(t, x, b):
            shapes.append(np.shape(x))
            return -np.minimum(x * x, 2.0)

        x, b = np.linspace(-2.0, 2.0, 5), np.array([[-0.5], [0.0], [0.5]])
        out = eval_on(reward, 1.0, x, b)
        assert shapes == [(5,)] and out.shape == (3, 5)
        block = np.array([[reward(1.0, xi, bi) for xi in x] for bi in b[:, 0]])
        assert out.tobytes() == block.tobytes()
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 1.0

    def test_non_finite_broadcast_value_names_its_arguments(self):
        # The NaN at x = 1 repeats down the b axis; the first is at b = -1.
        fn = lambda t, x, b: np.where(x == 1.0, np.nan, 0.0 * x)
        with pytest.raises(ValueError, match=r"nan at arguments \(0\.5, 1\.0, -1\.0\)"):
            eval_on(fn, 0.5, np.array([0.0, 1.0, 2.0]), np.array([[-1.0], [1.0]]))

    def test_a_result_that_does_not_broadcast_takes_the_scalar_loop(self):
        def wrong_shape(x, b):
            if np.ndim(x) or np.ndim(b):
                return np.zeros(7)
            return x * b
        x, b = np.array([1.0, 2.0, 3.0]), np.array([[1.0], [-2.0]])
        out = eval_on(wrong_shape, x, b)
        assert out.tobytes() == (x * b).tobytes()


def cash_with_nan(field):
    """builtin("cash") with one coefficient NaN at the node x = 1."""
    cash = builtin("cash")
    if field == "drift":
        return replace(cash, drift=lambda x, b: np.where(x == 1.0, np.nan, b + 0.0 * x))
    return replace(cash, running_reward=lambda t, x, b: np.where(
        x == 1.0, np.nan, -np.minimum(x * x, 2.0)))


class TestNonFiniteCoefficients:
    """A NaN coefficient at one node stops both solvers with the named error
    (a NaN drift would otherwise be read as zero drift)."""

    @pytest.mark.parametrize("solve", [solve_finite_horizon, solve_semi_lagrangian])
    @pytest.mark.parametrize("field", ["drift", "running_reward"])
    def test_solver_raises(self, solve, field):
        grid = build_uniform_grid(Q=4, M=20, N=15, T=3.0)
        assert 1.0 in grid.nodes
        with pytest.raises(ValueError, match=r"returned nan at arguments \(.*1\.0, "):
            solve(cash_with_nan(field), grid)


class TestValidate:
    def test_non_finite_terminal_reward_raises(self):
        problem = flat_problem(terminal_reward=lambda x: np.where(x > 0, np.nan, 0.0 * x))
        with pytest.raises(ValueError, match="returned nan"):
            validate(problem, build_uniform_grid(Q=2, M=4, N=4, T=1))

    def test_constant_problem_passes(self):
        grid = build_uniform_grid(Q=2, M=8, N=8, T=1)
        report = validate(flat_problem(), grid)
        assert report.passed
        cost = next(c for c in report.checks if c.name == "impulse_cost_negative")
        assert cost.worst_value == -1.0

    def test_zero_impulse_cost_fails_with_witness(self):
        grid = build_uniform_grid(Q=2, M=8, N=8, T=1)
        report = validate(flat_problem(impulse_cost=0.0), grid)
        failed = report.failures()
        assert [c.name for c in failed] == ["impulse_cost_negative"]
        assert failed[0].worst_value == 0.0
        assert len(failed[0].witness) == 3

    def test_heat_terminal_margin(self):
        # Brute-force check of the intervention-vs-terminal margin: jumping
        # lands anywhere in [-1, 1] at cost -3, so the gain over g = sin is
        # at most sin(1) - 3 + 1 <= -1 on every sampled node.
        problem = builtin("heat")
        grid = build_uniform_grid(Q=4, M=16, N=8, T=1)
        report = validate(problem, grid)
        assert report.passed
        margin = next(c for c in report.checks if c.name == "terminal_intervention_no_gain")
        assert margin.worst_value <= -1.0

    def test_cash_passes(self):
        problem = builtin("cash")
        grid = build_uniform_grid(Q=4, M=16, N=12, T=3)
        report = validate(problem, grid)
        assert report.passed
        assert report.lipschitz_estimate < 100.0

    def test_control_dependent_diffusion_is_a_valid_problem(self):
        # The standing hypotheses allow a diffusion that depends on b: validate
        # passes it, and the penalty scheme solves it within its guarantees.
        spreading = replace(builtin("cash"), diffusion=lambda x, b: 1.0 + 2.0 * b + 0.0 * x)
        grid = build_uniform_grid(Q=4, M=16, N=12, T=3)
        report = validate(spreading, grid)
        assert report.passed, [str(c) for c in report.failures()]
        assert [c.name for c in report.checks] == [
            "impulse_cost_negative", "terminal_intervention_no_gain",
            "impulse_set_nonempty", "diffusion_nonnegative"]
        sol = solve_finite_horizon(spreading, grid)
        assert check_solution_matrices(sol).passed
        assert sol.sup_norm() <= 2.0 + 2.0 * 3.0   # |g| <= 2, |f| <= 2, T = 3

    def test_non_finite_impulse_bound_is_named(self):
        cash = builtin("cash")
        broken = replace(cash, impulse_bounds=lambda t, x: (-1.0, np.nan if x > 1.0 else 1.0))
        grid = build_uniform_grid(Q=4, M=16, N=12, T=3)
        named = r"non-finite impulse bounds at \(t=0\.0, x=1\.25\): \[-1\.0, nan\]"
        with pytest.raises(ValueError, match=named):
            validate(broken, grid)

    @pytest.mark.parametrize("name", ["constant", "heat", "cash"])
    @pytest.mark.parametrize("make_grid", [
        lambda T: build_uniform_grid(Q=2, M=8, N=8, T=T),
        lambda T: build_uniform_grid(Q=4, M=20, N=12, T=T),
    ])
    def test_every_builtin_passes_on_every_grid(self, name, make_grid):
        problem = builtin(name)
        report = validate(problem, make_grid(problem.horizon))
        assert report.passed, [str(c) for c in report.failures()]

    @pytest.mark.parametrize("problem", [
        builtin("cash"),
        builtin("heat", {"beta": 0.5}),
        replace(builtin("cash"),
                impulse_bounds=lambda t, x: (-1.0 - 0.1 * np.abs(x), 1.0 - np.abs(x) + t),
                impulse_cost=lambda t, x, z: 0.1 * t - z * z + 0.0 * x),
        replace(builtin("cash"), impulse_bounds=lambda t, x: (0.5, 0.5 + max(x, 0.0)),
                impulse_cost=lambda t, x, z: -0.01 + 0.0 * z),
    ], ids=["cash", "heat-discounted", "ragged-with-empty-sets", "scalar-bounds"])
    def test_impulse_checks_match_the_per_point_loop(self, problem):
        # 81 nodes and 98 times: validate subsamples both.
        grid = (build_uniform_grid(Q=4, M=40, N=97, T=problem.horizon) if problem.finite_horizon
                else build_uniform_grid(Q=4, M=40))
        checks = {c.name: (c.worst_value, c.witness) for c in validate(problem, grid).checks}
        for name, expected in loop_impulse_checks(problem, grid).items():
            assert checks[name] == expected, name


def loop_impulse_checks(problem, grid):
    """validate's impulse checks as one scalar loop over (t, x) and np.linspace
    candidates, the reference its array blocks must reproduce exactly."""
    def sample(lo, hi):
        if hi <= lo:
            return [lo]
        width = hi - lo
        return np.linspace(lo, hi, max(int(np.ceil(width / grid.rho)), 1) + 1).tolist()

    xs, ts = grid.nodes, grid.times()
    xs = xs[np.unique(np.linspace(0, xs.size - 1, VALIDATE_SAMPLES).round().astype(int))]
    ts = ts[np.unique(np.linspace(0, ts.size - 1, VALIDATE_SAMPLES).round().astype(int))]
    cost = (-np.inf, ())
    width = (np.inf, ())
    for t in ts.tolist():
        for x in xs.tolist():
            lo, hi = (float(b) for b in problem.impulse_bounds(t, x))
            if hi - lo < width[0]:
                width = (hi - lo, (t, x))
            for z in sample(lo, hi) if hi >= lo else []:
                if float(problem.impulse_cost(t, x, z)) > cost[0]:
                    cost = (float(problem.impulse_cost(t, x, z)), (t, x, z))
    t = problem.horizon if problem.finite_horizon else 0.0
    gain = (-np.inf, ())
    for x in xs.tolist():
        lo, hi = (float(b) for b in problem.impulse_bounds(t, x))
        jumps = [float(problem.terminal_reward(x + float(problem.impulse_shift(t, x, z))))
                 + float(problem.impulse_cost(t, x, z)) for z in sample(lo, hi) if hi >= lo]
        gap = max(jumps, default=-np.inf) - float(problem.terminal_reward(x))
        if gap > gain[0]:
            gain = (gap, (t, x))
    return {"impulse_cost_negative": cost, "impulse_set_nonempty": width,
            "terminal_intervention_no_gain": gain}


class TestResetCost:
    @pytest.mark.parametrize("c0, lam", [(0.0, 0.5), (-1.0, 0.5), (2.0, -0.1), (np.inf, 0.5),
                                         (2.0, np.inf), (np.nan, 0.5), (2.0, np.nan)])
    def test_needs_finite_positive_c0_and_nonnegative_lam(self, c0, lam):
        with pytest.raises(ValueError, match="a reset cost needs finite c0 > 0 and lam >= 0"):
            ResetCost(c0, lam)

    def test_a_bad_cash_reset_is_rejected_on_construction(self):
        with pytest.raises(ValueError, match="a reset cost needs"):
            builtin("cash", {"lam": -0.5})

    def test_is_the_reset_cost_it_declares(self):
        cost = ResetCost(2.0, 0.5)
        x, z = np.array([-4.0, 0.0, 0.3]), np.array([1.0, -1.0, 0.3])
        assert eval_on(cost, 0.0, x, z).tobytes() == (-2.0 - 0.5 * np.abs(z - x)).tobytes()
        assert np.array_equal(eval_on(reset_shift, 0.0, x, z), z - x)
        # A scalar call stays a Python float, with the same value.
        assert type(cost(0.0, 0.3, -1.0)) is float
        assert cost(0.0, 0.3, -1.0) == -2.0 - 0.5 * float(np.abs(-1.0 - 0.3))

    @pytest.mark.parametrize("params", [{}, {"beta": 0.5}])
    @pytest.mark.parametrize("name, declared", [("constant", None), ("heat", (3.0, 0.0)),
                                                ("cash", (2.0, 0.5))])
    def test_builtins_declare_their_resets(self, name, declared, params):
        problem = builtin(name, params)
        if declared is None:
            assert problem.reset_cost is None
        else:
            assert problem.reset_cost is problem.impulse_cost == ResetCost(*declared)
            assert problem.impulse_shift is reset_shift

    def test_the_declaration_is_the_pair_of_callables(self):
        # Replacing either callable, even by one with the same values, drops
        # it; a problem made from reset_impulse has it.
        cash = builtin("cash")
        assert replace(cash, impulse_shift=lambda t, x, z: z - x).reset_cost is None
        assert replace(cash, impulse_cost=lambda t, x, z: cash.impulse_cost(t, x, z)).reset_cost \
            is None
        other = replace(cash, **reset_impulse(3.0, 0.25))
        assert other.reset_cost == ResetCost(3.0, 0.25)


class TestSeparableReward:
    def test_is_its_state_part_whatever_b(self):
        state = lambda t, x: t - x * x
        x, b = np.array([-1.0, 0.5, 2.0]), np.array([[-0.5], [0.25]])
        assert eval_on(SeparableReward(state), 2.0, x, b).tobytes() == \
            np.broadcast_to(2.0 - x * x, (2, 3)).tobytes()
        assert SeparableReward(state)(2.0, 0.5, 0.25) == 2.0 - 0.25

    @pytest.mark.parametrize("params", [{}, {"beta": 0.5}])
    def test_cash_declares_it_with_its_old_values(self, params):
        cash = builtin("cash", params)
        assert cash.separable_reward is cash.running_reward
        G = 2.0
        x, b = np.linspace(-4.0, 4.0, 17), np.linspace(-0.5, 0.5, 5)[:, np.newaxis]
        assert eval_on(cash.running_reward, 1.0, x, b).tobytes() == \
            np.broadcast_to(-np.minimum(x * x, G), (5, 17)).tobytes()
        assert builtin("heat", params).separable_reward is None

    def test_the_declaration_is_the_callable(self):
        # Replacing the reward, even by one with the same values, drops it.
        cash = builtin("cash")
        assert replace(cash, running_reward=lambda t, x, b: cash.running_reward(t, x, b)) \
            .separable_reward is None
        declared = SeparableReward(lambda t, x: 0.0 * x)
        assert replace(cash, running_reward=declared).separable_reward is declared


class TestTimeFree:
    def test_passes_every_argument_but_t(self):
        seen = []

        def fn(*args):
            seen.append(args)
            return sum(args)

        assert TimeFree(fn)(7.0, 2.0, 3.0) == 5.0
        assert TimeFree(fn)(7.0, 2.0) == 2.0
        assert seen == [(2.0, 3.0), (2.0,)]

    def test_through_eval_on_array_call_and_scalar_fallback(self):
        x, b = np.array([-1.0, 0.5, 2.0]), np.array([[-0.5], [0.25]])
        calls = []

        def array_aware(x, b):
            calls.append(np.shape(x))
            return x * b

        def scalar_only(x, b):
            calls.append(np.shape(x))
            return x * b if x > 0 else -x      # `if` on an array raises ValueError

        out = eval_on(TimeFree(array_aware), 9.0, x, b)
        assert out.tobytes() == (x * b).tobytes() and calls == [(3,)]
        calls.clear()
        out = eval_on(TimeFree(scalar_only), 9.0, x, b)
        assert out.tobytes() == np.where(x > 0, x * b, -x + 0.0 * b).tobytes()
        assert calls == [(3,)] + [()] * 6

    def test_impulse_bounds_through_the_array_call_and_the_per_node_loop(self):
        nodes = np.linspace(-2.0, 2.0, 9)
        for bounds, expected in ((lambda x: (x - 1.0, x + 1.0), (nodes - 1.0, nodes + 1.0)),
                                 (lambda x: (-1.0, max(x, 0.0)),
                                  (np.full(9, -1.0), np.maximum(nodes, 0.0)))):
            problem = replace(flat_problem(), impulse_bounds=TimeFree(bounds))
            lo, hi = impulse_bounds_on(problem, 0.75, nodes)
            assert np.array_equal(lo, expected[0]) and np.array_equal(hi, expected[1])

    def test_the_declarations_are_the_callables(self):
        # Replacing the reward or the bounds, even by a callable with the
        # same values, drops that declaration and keeps the other.
        cash = builtin("cash")
        assert cash.time_free_reward is cash.running_reward
        assert cash.time_free_bounds is cash.impulse_bounds
        reward = replace(cash, running_reward=lambda t, x, b: cash.running_reward(t, x, b))
        assert reward.time_free_reward is None and reward.time_free_bounds is cash.impulse_bounds
        bounds = replace(cash, impulse_bounds=lambda t, x: cash.impulse_bounds(t, x))
        assert bounds.time_free_bounds is None and bounds.time_free_reward is cash.running_reward
        # A separable state that takes t declares no time-free reward.
        dated = replace(cash, running_reward=SeparableReward(lambda t, x: t - x * x))
        assert dated.separable_reward is not None and dated.time_free_reward is None
        plain = TimeFree(lambda x, b: b - x * x)
        assert replace(cash, running_reward=plain).time_free_reward is plain
        assert replace(cash, running_reward=plain).separable_reward is None

    def test_a_separable_time_free_reward_reads_back_as_both(self):
        reward = SeparableReward(TimeFree(lambda x: -x * x))
        problem = replace(flat_problem(), running_reward=reward)
        assert problem.separable_reward is reward and problem.time_free_reward is reward
        assert problem.declarations == ("separable reward", "time-free reward")
        assert reward(5.0, 3.0, 0.25) == -9.0
        assert flat_problem().declarations == ()

    # What each builtin can declare: constant's impulses move nothing, so
    # they are no reset, and heat and constant have one control, so a
    # reward that ignores b would reduce nothing.
    BUILTIN_DECLARATIONS = {
        "cash": ("reset", "separable reward", "time-free reward", "time-free impulse bounds"),
        "heat": ("reset", "time-free reward", "time-free impulse bounds"),
        "constant": ("time-free reward", "time-free impulse bounds"),
    }

    @pytest.mark.parametrize("params", [{}, {"beta": 0.5}])
    @pytest.mark.parametrize("name", BUILTIN_DECLARATIONS)
    def test_builtins_carry_every_declaration_they_can(self, name, params):
        # A builtin that loses one would still solve, to the same values,
        # on a slower path; this fails instead.
        problem = builtin(name, params)
        assert problem.declarations == self.BUILTIN_DECLARATIONS[name]
        lo, hi = problem.control_bounds
        assert (lo == hi) == (name != "cash")


def dated_twin(p):
    """p with its time-free reward and impulse bounds called through plain
    callables of (t, ...): the same functions and values, no time-free
    declaration, so a solve reads them at every step."""
    reward, bounds = p.running_reward, p.impulse_bounds
    if p.separable_reward is not None:
        state = reward.state
        dated = SeparableReward(lambda t, x: state(t, x))
    else:
        dated = lambda t, x, b: reward(t, x, b)
    twin = replace(p, running_reward=dated, impulse_bounds=lambda t, x: bounds(t, x))
    assert twin.declarations == tuple(d for d in p.declarations if not d.startswith("time-free"))
    return twin


def solve_bits(sol):
    """A solve's surface, policies and diagnostics, as comparable values."""
    policies = [None if q is None else (q.controls.tobytes(), q.intervene.tobytes(),
                                        q.impulses.tobytes()) for q in sol.policies]
    return sol.surface.tobytes(), policies, repr(sol.diagnostics)


def uniform(p):
    return build_uniform_grid(Q=4, M=20, N=15, T=p.horizon)


class TestTimeFreeSolves:
    """A solve reads time-free data once, not at every step, and changes no
    bit of what it returns."""

    SOLVES = {
        "penalty": ({}, lambda p: solve_finite_horizon(p, uniform(p))),
        "stationary": ({"beta": 0.2}, lambda p: solve_infinite_horizon(
            p, build_uniform_grid(Q=4, M=20))),
        "semilagrangian": ({}, lambda p: solve_semi_lagrangian(p, uniform(p))),
        "semilagrangian-refined": ({}, lambda p: solve_semi_lagrangian(
            p, build_boundary_refined_grid(Q=4, rho=0.2, c_b=1.0, N=15, T=p.horizon))),
        "ios": ({}, lambda p: solve_iterated_optimal_stopping(p, uniform(p))),
    }

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("name", ["cash", "heat", "constant"])
    def test_bit_identical_to_the_dated_twin(self, name, solve):
        params, run = self.SOLVES[solve]
        p = builtin(name, params)
        assert solve_bits(run(p)) == solve_bits(run(dated_twin(p)))

    @staticmethod
    def counted(dated):
        """cash whose reward and impulse bounds count their calls, declared
        time-free, or with ``dated`` through :func:`dated_twin`."""
        cash = builtin("cash")
        holding, bounds = cash.running_reward.state.fn, cash.impulse_bounds.fn
        calls = {"running_reward": 0, "impulse_bounds": 0}

        def counted_holding(x):
            calls["running_reward"] += 1
            return holding(x)

        def counted_bounds(x):
            calls["impulse_bounds"] += 1
            return bounds(x)

        p = replace(cash, running_reward=SeparableReward(TimeFree(counted_holding)),
                    impulse_bounds=TimeFree(counted_bounds))
        return (dated_twin(p) if dated else p), calls

    @pytest.mark.parametrize("solve", ["semilagrangian", "semilagrangian-refined"])
    def test_semilagrangian_reads_reward_and_bounds_once(self, solve):
        # The one table build reads the bounds; the dated twin reads both
        # at every step, the bounds to check the table it reuses.
        run = self.SOLVES[solve][1]
        p, calls = self.counted(dated=False)
        sol = run(p)
        assert calls == {"running_reward": 1, "impulse_bounds": 1}
        twin, calls = self.counted(dated=True)
        run(twin)
        assert calls == {"running_reward": sol.grid.N, "impulse_bounds": sol.grid.N}

    @pytest.mark.parametrize("solve", ["penalty", "ios"])
    def test_penalty_evaluates_the_reward_block_once(self, solve):
        run = self.SOLVES[solve][1]
        p, calls = self.counted(dated=False)
        run(p)
        assert calls["running_reward"] == 1
        twin, calls = self.counted(dated=True)
        sol = run(twin)
        assert calls["running_reward"] == len(sol.diagnostics.timesteps) >= sol.grid.N


def old_cash(params=None):
    """cash with the np.minimum rewards it had before its float path."""
    cash = builtin("cash", params)
    G = 2.0
    return replace(cash, running_reward=SeparableReward(lambda t, x: -np.minimum(x * x, G)),
                   terminal_reward=lambda x: -np.minimum(x * x, G))


class TestCashFloatPath:
    """cash's rewards take the builtin min on a float and np.minimum on an
    array; both paths give the same bits."""

    G = 2.0
    ROOT = float(np.sqrt(2.0))

    def points(self):
        grid = build_uniform_grid(Q=4, M=40, N=30, T=3)
        edges = [0.0, -0.0, self.ROOT, -self.ROOT, np.nextafter(self.ROOT, 0.0),
                 np.nextafter(self.ROOT, 3.0), -np.nextafter(self.ROOT, 3.0), 1.5, -3.75, 10.0]
        return [float(x) for x in edges] + grid.nodes.tolist()

    def test_float_path_equals_array_path_bit_for_bit(self):
        cash = builtin("cash")
        xs = self.points()
        for reward in (cash.terminal_reward, lambda x: cash.running_reward(0.7, x, -0.25)):
            floats = [reward(x) for x in xs]
            assert all(type(v) is float for v in floats)
            array = reward(np.array(xs))
            assert isinstance(array, np.ndarray)
            assert np.array(floats).tobytes() == array.tobytes()
            # The sign of -min(0, G) survives both paths.
            assert np.signbit(floats[0]) and np.signbit(array[1])

    def test_values_are_the_old_ones(self):
        cash, old = builtin("cash"), old_cash()
        xs = self.points()
        assert np.array([cash.terminal_reward(x) for x in xs]).tobytes() == \
            np.array([old.terminal_reward(x) for x in xs]).tobytes()
        assert np.array([cash.running_reward(0.0, x, 0.5) for x in xs]).tobytes() == \
            np.array([old.running_reward(0.0, x, 0.5) for x in xs]).tobytes()

    @pytest.mark.parametrize("params", [{}, {"beta": 0.5}])
    def test_validate_and_solves_are_unchanged(self, params):
        cash, old = builtin("cash", params), old_cash(params)
        grid = build_uniform_grid(Q=4, M=20, N=15, T=3) if not params else \
            build_uniform_grid(Q=4, M=20)
        assert repr(validate(cash, grid)) == repr(validate(old, grid))
        if not params:
            for solve in (solve_finite_horizon, solve_semi_lagrangian):
                assert solve(cash, grid).surface.tobytes() == solve(old, grid).surface.tobytes()


class TestBuiltins:
    def test_constant_exact_value(self):
        problem = builtin("constant", {"c": 5})
        assert problem.exact(0.3, 0.7) == 5.0
        # u = c forces the variational form: the best jump is worth c - 1,
        # so min(0, u - best jump) = min(0, 1) = 0.
        assert problem.impulse_cost(0.0, 0.0, 0.5) == -1.0

    def test_heat_closed_form_values(self):
        problem = builtin("heat", {"s": 1.0, "T": 1.0})
        assert problem.exact(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert problem.exact(0.0, np.pi / 2) == pytest.approx(0.6065306597126334, abs=1e-15)

    def test_heat_closed_form_solves_pde(self):
        # Oracle self-check: finite differences of the closed form against
        # u_t + (s^2/2) u_xx at pseudo-random points.
        problem = builtin("heat", {"s": 1.3, "T": 2.0})
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(25):
            t = rng.uniform(0.1, 1.9)
            x = rng.uniform(-3, 3)
            u = problem.exact
            u_t = (u(t + h, x) - u(t - h, x)) / (2 * h)
            u_xx = (u(t, x - h) - 2 * u(t, x) + u(t, x + h)) / (h * h)
            assert abs(u_t + 0.5 * 1.3 ** 2 * u_xx) < 1e-5

    def test_cash_defaults(self):
        problem = builtin("cash")
        assert problem.horizon == 3.0
        assert problem.control_bounds == (-0.5, 0.5)
        assert problem.running_reward(0.0, 3.0, 0.0) == -2.0  # clipped at G
        assert problem.impulse_cost(0.0, 1.0, 0.0) == -2.5    # c0 + lam * |z - x|

    def test_cash_rejects_profitable_terminal_jump(self):
        with pytest.raises(ValueError, match="c0 >= G"):
            builtin("cash", {"c0": 1.0, "G": 2.0})

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown problem parameters"):
            builtin("heat", {"sigma": 2.0})

    @pytest.mark.parametrize("name, params", [
        ("constant", {"c": np.nan}), ("heat", {"T": np.inf}), ("cash", {"beta": np.inf}),
        ("cash", {"s": -np.inf}),
    ])
    def test_non_finite_parameter(self, name, params):
        with pytest.raises(ValueError, match=f"parameter {next(iter(params))} must be finite"):
            builtin(name, params)

    def test_beta_switches_to_discounted(self):
        problem = builtin("constant", {"c": 5, "beta": 0.5})
        assert not problem.finite_horizon
        assert problem.discount == 0.5


class TestProblemSpecInvariants:
    def test_exactly_one_horizon(self):
        with pytest.raises(ValueError):
            flat_problem(horizon=None)
        with pytest.raises(ValueError):
            flat_problem(discount=0.5)  # both set

    @pytest.mark.parametrize("overrides", [
        dict(horizon=np.inf), dict(horizon=np.nan), dict(horizon=0.0),
        dict(horizon=None, discount=np.inf), dict(horizon=None, discount=np.nan),
    ])
    def test_horizon_and_discount_finite_and_positive(self, overrides):
        with pytest.raises(ValueError, match="must be finite and positive"):
            flat_problem(**overrides)

    def test_empty_control_interval_rejected(self):
        with pytest.raises(ValueError):
            flat_problem(control_bounds=(1.0, -1.0))
