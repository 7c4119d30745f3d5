import ast
import inspect
import types
from dataclasses import replace

import numpy as np
import pytest

from hjbqvi import oracle
from hjbqvi.exceptions import NonConvergenceError
from hjbqvi.grid import build_uniform_grid
from hjbqvi.harness import run_checks
from hjbqvi.operators import discretize_controls
from hjbqvi.oracle import brute_force_residual, solve_iterated_optimal_stopping
from hjbqvi.penalty import solve_finite_horizon, solve_infinite_horizon
from hjbqvi.problem import builtin

OUTER_TOL = 1e-6


class TestIteratedOptimalStopping:
    def test_constant_converges_at_first_pass(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        sol = solve_iterated_optimal_stopping(p, g, outer_tol=OUTER_TOL)
        # The obstacle c - 1 never binds, so the first obstacle pass changes
        # nothing and the outer loop stops immediately.
        assert sol.diagnostics.outer_iterations == 1
        assert np.abs(sol.surface - 5.0).max() <= 1e-12

    def test_heat_matches_direct_solve(self):
        p = builtin("heat")
        g = build_uniform_grid(Q=4, M=32, N=8, T=1)
        c = discretize_controls(p, g.rho)
        sol_ios = solve_iterated_optimal_stopping(p, g, c, outer_tol=OUTER_TOL)
        sol_pen = solve_finite_horizon(p, g, c)
        assert sol_ios.diagnostics.outer_iterations == 1
        assert np.abs(sol_ios.surface - sol_pen.surface).max() <= OUTER_TOL

    def test_cash_monotone_iterates_and_agreement(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)   # rho = 0.25
        c = discretize_controls(p, g.rho)
        eps = 0.25
        sol_ios = solve_iterated_optimal_stopping(p, g, c, epsilon=eps,
                                                  outer_tol=OUTER_TOL)
        assert sol_ios.diagnostics.outer_iterations >= 2
        assert min(sol_ios.diagnostics.outer_min_increments) >= -1e-8
        sol_pen = solve_finite_horizon(p, g, c, epsilon=eps)
        gap = np.abs(sol_ios.surface - sol_pen.surface).max()
        assert gap <= 10 * (eps + OUTER_TOL)

    def test_exhausted_outer_budget_raises(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        with pytest.raises(NonConvergenceError, match="k_max"):
            solve_iterated_optimal_stopping(p, g, outer_tol=1e-14, k_max=1)

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
        sol = solve_iterated_optimal_stopping(p, g, c, outer_tol=OUTER_TOL)
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
        hoisted = solve_iterated_optimal_stopping(p, g, c, outer_tol=OUTER_TOL)
        timestep = oracle.penalty_timestep

        def own_band(u_next, t, grid, problem, controls, band, *rest):
            # Each step builds its own band, as it did before the solve shared one.
            return timestep(u_next, t, grid, problem, controls,
                            oracle._control_band(grid, problem, controls), *rest)

        monkeypatch.setattr(oracle, "penalty_timestep", own_band)
        per_step = solve_iterated_optimal_stopping(p, g, c, outer_tol=OUTER_TOL)
        assert np.array_equal(per_step.surface, hoisted.surface)
        assert per_step.diagnostics.outer_changes == hoisted.diagnostics.outer_changes


class TestBruteForceResidual:
    def test_penalty_solution_within_tolerance(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=12, N=9, T=3)
        c = discretize_controls(p, g.rho)
        sol = solve_finite_horizon(p, g, c, epsilon=0.2)
        assert brute_force_residual(sol, p, g, c, 0.2) <= 1e-8

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
        sol = solve_finite_horizon(p, g, c, epsilon=0.2)
        surface = sol.surface.copy()
        surface[4][g.offset(0)] += 0.1
        value = brute_force_residual(surface, p, g, c, 0.2)
        assert value >= 0.1 / g.dt - 1.0

    def test_stationary_variant(self):
        p = builtin("constant", {"beta": 0.5})
        g = build_uniform_grid(Q=2, M=8, N=1, T=0.25)
        c = discretize_controls(p, g.rho)
        sol = solve_infinite_horizon(p, g, c)
        assert brute_force_residual(sol, p, g, c, sol.epsilon) <= 1e-8

    @pytest.mark.parametrize("beta", [None, 0.5])
    def test_non_finite_surface_is_nan_and_fails_the_check(self, beta):
        # Python's max() never keeps a NaN it is handed second, so without
        # an explicit guard an all-NaN surface would audit as 0.0.
        p = builtin("cash", {"beta": beta})
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
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
        audit = (oracle.brute_force_residual, oracle._row_residual, oracle._interp_scalar)
        for fn in audit:
            shared = global_names(fn.__code__) & imported
            assert not shared, f"{fn.__name__} uses {sorted(shared)} from the solvers"
