from dataclasses import replace

import numpy as np
import pytest

from hjbqvi.grid import build_uniform_grid
from hjbqvi.harness import check_solution_matrices
from hjbqvi.penalty import solve_finite_horizon
from hjbqvi.problem import ProblemSpec, builtin, eval_on, validate
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
        report = validate(flat_problem(), grid, samples=16)
        assert report.passed
        cost = next(c for c in report.checks if c.name == "impulse_cost_negative")
        assert cost.worst_value == -1.0

    def test_zero_impulse_cost_fails_with_witness(self):
        grid = build_uniform_grid(Q=2, M=8, N=8, T=1)
        report = validate(flat_problem(impulse_cost=0.0), grid, samples=16)
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
        report = validate(problem, grid, samples=32)
        assert report.passed
        margin = next(c for c in report.checks if c.name == "terminal_intervention_no_gain")
        assert margin.worst_value <= -1.0

    def test_cash_passes(self):
        problem = builtin("cash")
        grid = build_uniform_grid(Q=4, M=16, N=12, T=3)
        report = validate(problem, grid, samples=32)
        assert report.passed
        assert report.lipschitz_estimate < 100.0

    def test_samples_precondition(self):
        grid = build_uniform_grid(Q=2, M=4, N=4, T=1)
        with pytest.raises(ValueError):
            validate(flat_problem(), grid, samples=0)

    def test_control_dependent_diffusion_is_a_valid_problem(self):
        # The standing hypotheses allow a diffusion that depends on b: validate
        # passes it, and the penalty scheme solves it within its guarantees.
        spreading = replace(builtin("cash"), diffusion=lambda x, b: 1.0 + 2.0 * b + 0.0 * x)
        grid = build_uniform_grid(Q=4, M=16, N=12, T=3)
        report = validate(spreading, grid, samples=32)
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
            validate(broken, grid, samples=32)

    @pytest.mark.parametrize("name", ["constant", "heat", "cash"])
    @pytest.mark.parametrize("make_grid", [
        lambda T: build_uniform_grid(Q=2, M=8, N=8, T=T),
        lambda T: build_uniform_grid(Q=4, M=20, N=12, T=T),
    ])
    def test_every_builtin_passes_on_every_grid(self, name, make_grid):
        problem = builtin(name)
        report = validate(problem, make_grid(problem.horizon), samples=24)
        assert report.passed, [str(c) for c in report.failures()]


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
