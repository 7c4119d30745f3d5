import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from hjbqvi import cli, matrices, semilag
from hjbqvi.exceptions import SolverError
from hjbqvi.grid import (as_growing_q, build_boundary_refined_grid, build_uniform_grid,
                         grid_for_level)
from hjbqvi.harness import Window, check_solution_matrices, check_stability_bound, sup_error
from hjbqvi.matrices import (TridiagonalFactor, analyze_matrix, factorise,
                             factorise_tridiagonal)
from hjbqvi.operators import InterventionTable, Interpolant, discretize_controls, interp_weights
from hjbqvi.penalty import (SystemMemo, _assemble, _control_band, _reward_block,
                            solve_finite_horizon)
from hjbqvi.problem import ProblemSpec, builtin, eval_on, uniform_sample
from hjbqvi.semilag import (
    FootPoints,
    assemble_A,
    overstep_threshold,
    sl_rhs,
    solve_semi_lagrangian,
    thomas_solve,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sl_factor(A):
    """A's factorised solve, named as the semi-Lagrangian solve names it."""
    return factorise_tridiagonal(A, "semi-Lagrangian matrix")


def drift_problem(drift, diffusion=1.0, b_bounds=(0.0, 0.0)):
    return ProblemSpec(
        drift=drift,
        diffusion=lambda x, b, s=diffusion: s + 0.0 * x,
        running_reward=lambda t, x, b: 0.0,
        terminal_reward=lambda x: 0.0 * x,
        impulse_shift=lambda t, x, z: z - x,
        impulse_cost=lambda t, x, z: -2.0 + 0.0 * z,
        impulse_bounds=lambda t, x: (-1.0, 1.0),
        control_bounds=b_bounds,
        horizon=1.0,
    )


def cash_with_dated_cost():
    """builtin("cash") whose impulse cost grows with t: the jump table differs
    at every time level, so no step may reuse the one before."""
    return replace(builtin("cash"),
                   impulse_cost=lambda t, x, z: -2.0 - 0.5 * np.abs(z - x) - 0.2 * t)


def brute_force_rhs(u_next, t, g, p, c):
    """Per-node max of the continuation and jump candidates, with the jump
    data read at t + dt, by scalar loops."""
    rhs = np.empty(g.n_nodes)
    for i, x in enumerate(g.nodes):
        best = -np.inf
        for b in c.controls:
            foot = x + float(p.drift(x, float(b))) * g.dt
            best = max(best, float(np.interp(foot, g.nodes, u_next))
                       + float(p.running_reward(t, x, float(b))) * g.dt)
        jump = -np.inf
        for z in uniform_sample(*p.impulse_bounds(t + g.dt, float(x)), c.rho):
            target = x + float(p.impulse_shift(t + g.dt, x, float(z)))
            jump = max(jump, float(np.interp(target, g.nodes, u_next))
                       + float(p.impulse_cost(t + g.dt, x, float(z))))
        rhs[i] = max(best, jump)
    return rhs


def level_rhs(u_next, t, g, p, c):
    """:func:`sl_rhs` with the problem's jump table at t + dt and the foot points."""
    return sl_rhs(u_next, t, g, p, c, InterventionTable(p, g, c, t + g.dt),
                  semilag.foot_points(g, p, c))


class TestAssembleA:
    def test_zero_diffusion_gives_identity(self):
        p = drift_problem(lambda x, b: 0.0, diffusion=0.0)
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        A = assemble_A(g, p, discretize_controls(p, g.rho))
        assert A.format == "csr"
        assert np.array_equal(A.toarray(), np.eye(g.n_nodes))

    def test_unit_coefficients_three_node(self):
        p = drift_problem(lambda x, b: 0.0, diffusion=1.0)
        g = build_uniform_grid(Q=1, M=1, N=1, T=1)   # dt = dx = 1
        A = assemble_A(g, p, discretize_controls(p, g.rho))
        expected = np.array([
            [1.0, 0.0, 0.0],
            [-0.5, 2.0, -0.5],
            [0.0, 0.0, 1.0],
        ])
        assert np.allclose(A.toarray(), expected)

    def test_always_strictly_dominant(self):
        p = builtin("cash")
        for M, N in [(8, 6), (16, 12), (32, 24)]:
            g = build_uniform_grid(Q=4, M=M, N=N, T=3)
            report = analyze_matrix(assemble_A(g, p, discretize_controls(p, g.rho)))
            assert report.strictly_dominant_ok and report.passed

    def test_rejects_control_dependent_diffusion(self):
        # diffusion 1 + 2b is 0 at the smallest control b = -0.5 and 2 at
        # the largest; the solve must not silently run with the former.
        p = replace(builtin("cash"), diffusion=lambda x, b: 1.0 + 2.0 * b + 0.0 * x)
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        c = discretize_controls(p, g.rho)
        assert c.controls.tolist() == [-0.5, 0.0, 0.5]
        named = re.escape("requires a control-independent diffusion coefficient, but "
                          "diffusion(x, b) = 1.0 at (x, b) = (-4.0, 0.0) and 0.0 at (-4.0, -0.5)")
        with pytest.raises(ValueError, match=named):
            assemble_A(g, p, c)
        with pytest.raises(ValueError, match=named):
            solve_semi_lagrangian(p, g, c)
        with pytest.raises(ValueError, match="requires a control-independent diffusion"):
            solve_semi_lagrangian(p, g)

    def test_check_is_exact_not_sampled(self):
        # The diffusion differs from the smallest control's at one interior
        # node and one interior control only: every entry of the controls x
        # nodes block is compared, so that single pair is found and named.
        p0 = builtin("cash")
        g = build_uniform_grid(Q=4, M=40, N=30, T=3)
        c = discretize_controls(p0, g.rho)
        x_star, b_star = float(g.nodes[5]), float(c.controls[c.controls.size // 2 + 1])
        assert c.controls.size > 9 and b_star not in np.linspace(-0.5, 0.5, 9)
        p = replace(p0, diffusion=lambda x, b: np.where((x == x_star) & (b == b_star),
                                                        1.0 + 1e-12, 1.0) + 0.0 * x)
        with pytest.raises(ValueError, match=re.escape(f"at (x, b) = {(x_star, b_star)}")):
            solve_semi_lagrangian(p, g, c)
        # Without that control the block is constant in b: the matrix is the builtin's.
        others = replace(c, controls=c.controls[c.controls != b_star])
        assert (assemble_A(g, p, others) != assemble_A(g, p0, c)).nnz == 0

    def test_inverse_is_nonnegative(self):
        # Monotonicity of the implicit step: solving against every basis
        # vector recovers the columns of the inverse.
        p = drift_problem(lambda x, b: 0.0, diffusion=1.3)
        g = build_uniform_grid(Q=2, M=5, N=4, T=1)
        A = assemble_A(g, p, discretize_controls(p, g.rho))
        for k in range(g.n_nodes):
            e = np.zeros(g.n_nodes)
            e[k] = 1.0
            col = thomas_solve(A, e, sl_factor(A))
            assert col.min() >= -1e-14


class TestSlRhs:
    def test_constant_data(self):
        p = builtin("constant", {"c": 7})
        g = build_uniform_grid(Q=2, M=8, N=8, T=1)
        c = discretize_controls(p, g.rho)
        rhs, policy = level_rhs(np.full(g.n_nodes, 7.0), 0.0, g, p, c)
        assert np.allclose(rhs, 7.0)
        assert not policy.intervene.any()

    def test_overstepping_clamps_and_counts(self):
        # Strong outward drift at the right edge: every foot point past Q
        # clamps to the boundary value and is counted.
        p = drift_problem(lambda x, b: 4.0 + 0.0 * x, diffusion=0.0)
        g = build_uniform_grid(Q=1, M=4, N=2, T=1)   # dt = 0.5, feet move +2
        c = discretize_controls(p, g.rho)
        u_next = g.nodes.copy()
        feet = semilag.foot_points(g, p, c)
        assert feet.oversteps > 0
        assert feet.interior_oversteps > 0
        rhs, _ = level_rhs(u_next, 0.0, g, p, c)
        # Foot of the right boundary node clamps to u at Q exactly.
        assert rhs[-1] == pytest.approx(max(1.0, -2.0 + u_next.max()))

    def test_matches_brute_force(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u_next = rng.normal(size=g.n_nodes)
            t = float(rng.uniform(0, 2.5))
            rhs, _ = level_rhs(u_next, t, g, p, c)
            assert np.abs(rhs - brute_force_rhs(u_next, t, g, p, c)).max() <= 1e-12

    def test_time_dependent_cost_matches_brute_force(self):
        # The jump data are those of the table at t + dt.
        p = cash_with_dated_cost()
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        rng = np.random.default_rng(10)
        for _ in range(5):
            u_next = rng.normal(size=g.n_nodes)
            t = float(rng.uniform(0, 2.5))
            rhs, _ = level_rhs(u_next, t, g, p, c)
            assert np.abs(rhs - brute_force_rhs(u_next, t, g, p, c)).max() <= 1e-12

    def test_monotone_in_next_values(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        rng = np.random.default_rng(31)
        for _ in range(10):
            lo = rng.normal(size=g.n_nodes)
            hi = lo + rng.uniform(0, 1, size=g.n_nodes)
            assert np.all(level_rhs(lo, 0.0, g, p, c)[0]
                          <= level_rhs(hi, 0.0, g, p, c)[0] + 1e-12)


def tridiagonal(lower, diag, upper):
    """CSR matrix with lower[i] at (i, i-1) and upper[i] at (i, i+1)."""
    return sp.diags([lower[1:], diag, upper[:-1]], [-1, 0, 1], format="csr")


class TestThomasSolve:
    def test_identity(self):
        n = 7
        A = sp.identity(n, format="csr")
        rhs = np.arange(n, dtype=float)
        assert np.array_equal(thomas_solve(A, rhs, sl_factor(A)), rhs)

    def test_constant_vector_preserved(self):
        # Interior row sums equal one, so constants are reproduced exactly.
        p = drift_problem(lambda x, b: 0.0, diffusion=1.0)
        g = build_uniform_grid(Q=1, M=1, N=1, T=1)
        A = assemble_A(g, p, discretize_controls(p, g.rho))
        assert np.allclose(thomas_solve(A, np.ones(3), sl_factor(A)), 1.0)

    def test_against_dense_solver(self):
        rng = np.random.default_rng(12)
        for n in (3, 9, 33):
            lower = np.concatenate(([0.0], rng.uniform(-1, 0, n - 1)))
            upper = np.concatenate((rng.uniform(-1, 0, n - 1), [0.0]))
            diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.5, 2.0, n)
            A = tridiagonal(lower, diag, upper)
            rhs = rng.normal(size=n)
            x = thomas_solve(A, rhs, sl_factor(A))
            ref = np.linalg.solve(A.toarray(), rhs)
            assert np.abs(x - ref).max() <= 1e-12

    def test_singular_matrix_is_internal_error(self):
        # Weakly dominant rows with no strictly dominant one: exactly
        # singular, so the factorisation meets a zero pivot, which must not
        # pass as a solution.
        A = tridiagonal(np.array([0.0, -1.0, -1.0]), np.array([1.0, 2.0, 1.0]),
                        np.array([-1.0, -1.0, 0.0]))
        with pytest.raises(SolverError, match="non-finite"):
            thomas_solve(A, np.ones(3), sl_factor(A))

    def test_size_mismatch(self):
        A = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            thomas_solve(A, np.ones(4), sl_factor(A))

    def test_perturbed_solution_is_residual_error(self):
        # The guard reads the residual from the diagonals, so a solve that
        # is off by 1e-6 at one node does not pass.
        class Perturbed(TridiagonalFactor):
            def __call__(self, rhs):
                out = super().__call__(rhs)
                out[4] += 1e-6
                return out

        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        A = assemble_A(g, p, discretize_controls(p, g.rho))
        factor = Perturbed(A.diagonal(-1), A.diagonal(), A.diagonal(1), "matrix")
        rhs = np.random.default_rng(13).normal(size=g.n_nodes)
        thomas_solve(A, rhs, sl_factor(A))
        with pytest.raises(SolverError, match="residual .* too large"):
            thomas_solve(A, rhs, factor)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rhs_is_non_finite_error(self, bad):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        A = assemble_A(g, p, discretize_controls(p, g.rho))
        rhs = np.ones(g.n_nodes)
        rhs[5] = bad
        with pytest.raises(SolverError, match="non-finite"):
            thomas_solve(A, rhs, sl_factor(A))

    @staticmethod
    def penalty_system(problem, grid):
        """The matrix and rhs of a solved penalty step with active rows."""
        c = discretize_controls(problem, grid.rho)
        sol = solve_finite_horizon(problem, grid, c)
        n = next(n for n, p in enumerate(sol.policies[:-1]) if p.intervene.any())
        policy, t = sol.policies[n], n * grid.dt
        band = _control_band(grid, problem, c)
        reward = _reward_block(t, grid, problem, c, band)
        rows = c.controls[np.broadcast_to(band.index, reward.shape)]
        memo = SystemMemo()
        rhs = _assemble(policy, sol.surface[n + 1] / grid.dt, 1.0 / grid.dt, sol.epsilon,
                        InterventionTable(problem, grid, c, t), band, reward,
                        (rows == policy.controls).argmax(axis=0), memo)
        return memo.matrix, rhs

    def test_reused_factor_matches_spsolve_bit_for_bit(self):
        # factorise(A), the penalty memo's factor of a recurring system,
        # factors A^T as spsolve does for a CSR matrix, so a factor reused
        # across right-hand sides changes no bit of a solve: for penalty
        # systems whose active rows couple off the band, in the reset and in
        # the block layout, and for a plain tridiagonal matrix (the SL one,
        # which the SL solve factorises with factorise_tridiagonal instead).
        p = builtin("cash")
        g = build_boundary_refined_grid(Q=4, rho=0.05, c_b=1.0, N=60, T=3)
        systems = [(assemble_A(g, p, discretize_controls(p, g.rho)), [])]
        uniform = build_uniform_grid(Q=4, M=40, N=30, T=3)
        undeclared = replace(p, impulse_shift=lambda t, x, z: z - x)
        assert undeclared.reset_cost is None
        for problem in (p, undeclared):
            A, rhs = self.penalty_system(problem, uniform)
            rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
            assert (np.abs(A.indices - rows) > 1).any()
            systems.append((A, [rhs]))
        rng = np.random.default_rng(5)
        for A, rhss in systems:
            factor = factorise(A, "matrix")
            for rhs in rhss + [rng.normal(size=A.shape[0]) for _ in range(4)]:
                assert np.array_equal(factor(rhs), spsolve(A, rhs))


def per_step_solve(p, g, c):
    """Surfaces and policies of the backward induction with a fresh jump
    table and fresh foot points at every step and a fresh factorisation and
    solve of A."""
    A = assemble_A(g, p, c)
    u = eval_on(p.terminal_reward, g.nodes)
    surface, policies = [u], []
    for n in range(g.N - 1, -1, -1):
        rhs, policy = level_rhs(u, n * g.dt, g, p, c)
        u = factorise_tridiagonal(A, "semi-Lagrangian matrix")(rhs)
        surface.append(u)
        policies.append(policy)
    return np.array(surface[::-1]), policies[::-1]


class TestTableReuse:
    """A step reuses the previous step's jump table only when the impulse
    data at its level are the same; the surfaces and policies then equal a
    solve that builds a table at every step."""

    def build_times(self, monkeypatch, p, g, c):
        times = []

        class CountingTable(InterventionTable):
            def __init__(self, problem, grid, controls, t):
                times.append(t)
                super().__init__(problem, grid, controls, t)

        monkeypatch.setattr(semilag, "InterventionTable", CountingTable)
        return solve_semi_lagrangian(p, g, c), times

    def assert_matches_per_step(self, sol, p, g, c):
        surface, policies = per_step_solve(p, g, c)
        assert np.array_equal(sol.surface, surface)
        for a, b in zip(sol.policies[:-1], policies):
            assert np.array_equal(a.intervene, b.intervene)
            assert np.array_equal(a.impulses, b.impulses)
            assert np.array_equal(a.controls, b.controls)

    def test_builds_once_when_data_ignore_t(self, monkeypatch):
        p = builtin("cash")
        g = build_boundary_refined_grid(Q=4, rho=0.2, c_b=1.0, N=15, T=3)
        c = discretize_controls(p, g.rho)
        sol, times = self.build_times(monkeypatch, p, g, c)
        assert times == [(g.N - 1) * g.dt + g.dt]
        self.assert_matches_per_step(sol, p, g, c)

    @pytest.mark.parametrize("grid", [
        lambda T: build_uniform_grid(Q=4, M=20, N=15, T=T),
        lambda T: build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=30, T=T),
    ], ids=["uniform", "refined"])
    @pytest.mark.parametrize("name", ["cash", "heat", "constant"])
    def test_time_free_builtins_build_once(self, monkeypatch, name, grid):
        # Every builtin's reward and impulse bounds ignore t: the feet keep
        # the reward, one table serves the solve, and the solve equals one
        # that rebuilds feet and table at every step.
        p = builtin(name)
        assert p.time_free_reward is not None and p.time_free_bounds is not None
        g = grid(p.horizon)
        c = discretize_controls(p, g.rho)
        sol, times = self.build_times(monkeypatch, p, g, c)
        assert times == [(g.N - 1) * g.dt + g.dt]
        assert semilag.foot_points(g, p, c).reward_dt is not None
        self.assert_matches_per_step(sol, p, g, c)

    def test_time_dependent_cost_rebuilds_every_step(self, monkeypatch):
        p = cash_with_dated_cost()
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        sol, times = self.build_times(monkeypatch, p, g, c)
        assert times == [n * g.dt + g.dt for n in range(g.N - 1, -1, -1)]
        self.assert_matches_per_step(sol, p, g, c)
        A = assemble_A(g, p, c)
        for n in range(g.N):
            rhs = brute_force_rhs(sol.surface[n + 1], n * g.dt, g, p, c)
            assert np.abs(A @ sol.surface[n] - rhs).max() <= 1e-10
        # The dated cost never exceeds the builtin's, so by monotonicity the
        # t = 0 surface lies below the builtin's.
        assert np.all(sol.surface[0] <= solve_semi_lagrangian(builtin("cash"), g, c).surface[0])

    @pytest.mark.parametrize("field, value", [
        ("impulse_bounds", lambda t, x: (-1.0, 1.0) if t > 1.5 else (-0.5, 1.0)),
        ("impulse_shift", lambda t, x, z: z - x + (0.0 if t > 1.5 else 0.25)),
        ("impulse_cost", lambda t, x, z: -2.0 - 0.5 * np.abs(z - x) - (0.0 if t > 1.5 else 1.0)),
    ])
    def test_data_switching_once_builds_twice(self, monkeypatch, field, value):
        p = replace(builtin("cash"), **{field: value})
        g = build_uniform_grid(Q=4, M=10, N=6, T=3)
        c = discretize_controls(p, g.rho)
        sol, times = self.build_times(monkeypatch, p, g, c)
        assert times == [g.N * g.dt, 2 * g.dt + g.dt]
        self.assert_matches_per_step(sol, p, g, c)


class SpsolveFactor(TridiagonalFactor):
    """A's factor, with each solve by ``spsolve`` on A itself."""

    def __init__(self, A, name):
        super().__init__(A.diagonal(-1), A.diagonal(), A.diagonal(1), name)
        self.A = A

    def __call__(self, rhs):
        return spsolve(self.A, rhs)


class TestRoundingAgainstSpsolve:
    """The solve's dgttrs rounds differently from spsolve, which factors A^T
    under a COLAMD column order where dgttrf eliminates A in natural order
    with partial pivoting.  Every surface stays within 1e-11 (1 + |u|) of the
    same backward induction solved by spsolve at every step; the worst seen
    is 7.1e-13, on constant with boundary refinement.  Policies are not
    compared: the continuation argmax has no tie rule, so near-tied controls
    can flip with the rounding."""

    @pytest.mark.parametrize("grid", [
        lambda T: build_uniform_grid(Q=4, M=160, N=120, T=T),
        lambda T: build_boundary_refined_grid(Q=4, rho=0.0125, c_b=1.0, N=240, T=T),
        lambda T: grid_for_level(as_growing_q(build_uniform_grid(Q=4, M=20, N=15, T=T)), 3),
    ], ids=["uniform", "refined", "growing_q"])
    @pytest.mark.parametrize("name", ["cash", "heat", "constant"])
    def test_surface_within_bound(self, monkeypatch, name, grid):
        p = builtin(name)
        g = grid(p.horizon)
        c = discretize_controls(p, g.rho)
        sol = solve_semi_lagrangian(p, g, c)
        monkeypatch.setattr(semilag, "factorise_tridiagonal", SpsolveFactor)
        ref = solve_semi_lagrangian(p, g, c)
        assert np.all(np.abs(sol.surface - ref.surface) <= 1e-11 * (1.0 + np.abs(ref.surface)))


class TestWhereSuperLURuns:
    """SuperLU factorises only the penalty memo's recurring systems."""

    @staticmethod
    def count_splu(monkeypatch):
        calls = []
        splu = matrices.splu

        def counting(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(matrices, "splu", counting)
        return calls

    def test_semi_lagrangian_solve_makes_no_call(self, monkeypatch):
        calls = self.count_splu(monkeypatch)
        p = builtin("cash")
        g = build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=30, T=p.horizon)
        solve_semi_lagrangian(p, g, discretize_controls(p, g.rho))
        assert calls == []

    def test_penalty_solve_with_a_recurring_system_calls_it(self, monkeypatch):
        # The wrapper does count: the memo factorises a system that recurs.
        calls = self.count_splu(monkeypatch)
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=20, N=15, T=p.horizon)
        solve_finite_horizon(p, g, discretize_controls(p, g.rho))
        assert len(calls) >= 1


def per_step_continuation(u_next, t, grid, problem, controls, feet):
    """The continuation with the drift, the foot points and their
    interpolation weights rebuilt at every step on the full controls x nodes
    block, of which the rows the solve's ``feet`` keep are returned."""
    nodes, b = grid.nodes, controls.controls[:, np.newaxis]
    foot = nodes + eval_on(problem.drift, nodes, b) * grid.dt
    values = Interpolant(*interp_weights(nodes, foot)).interp(u_next) \
        + eval_on(problem.running_reward, t, nodes, b) * grid.dt
    return np.take_along_axis(values, feet.index, axis=0)


class TestFootPointsPerSolve:
    """drift(x, b) takes no t, so a solve computes its foot points, their
    interpolation cells and weights and their overstep counts once."""

    GRIDS = {
        "uniform": lambda: build_uniform_grid(Q=4, M=20, N=15, T=3),
        "refined": lambda: build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=30, T=3),
    }

    @pytest.mark.parametrize("mode", GRIDS)
    def test_interp_within_ulps_of_np_interp(self, mode):
        # (1 - a) u_k + a u_{k+1} rounds differently from np.interp's
        # slope (x - x_k) + u_k, but not where a is 0 or 1.
        g = self.GRIDS[mode]()
        nodes, Q = g.nodes, g.Q
        rng = np.random.default_rng(4)
        points = np.concatenate([
            nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
            [-Q, Q, -Q - 0.5, Q + 0.5, np.nextafter(-Q, -np.inf), np.nextafter(Q, np.inf)],
            rng.uniform(-Q - 1.0, Q + 1.0, 500),
        ])
        points = np.stack([points, rng.permutation(points)])
        feet = FootPoints(nodes, points, Q)
        exact = np.isin(points, nodes) | (np.abs(points) >= Q)
        for u in (rng.normal(size=nodes.size), np.sin(nodes),
                  np.where(rng.random(nodes.size) < 0.5, -0.0, 0.0)):
            values, reference = feet.interp(u), np.interp(points, nodes, u)
            assert values.shape == points.shape
            assert np.array_equal(values[exact], reference[exact])
            scale = np.maximum(np.abs(u[feet.k]), np.abs(u[feet.k_next]))
            assert np.all(np.abs(values - reference) <= 4 * np.finfo(float).eps * scale)
        outside = np.abs(points) > Q
        assert feet.oversteps == int(outside.sum()) > 0
        assert feet.interior_oversteps == int(outside[:, 1:-1].sum())

    @pytest.mark.parametrize("mode", GRIDS)
    def test_drift_block_once_per_solve(self, mode):
        shapes = []

        def drift(x, b):
            shapes.append(np.broadcast(x, b).shape)
            return b + 0.0 * x

        p = replace(builtin("cash"), drift=drift)
        g = self.GRIDS[mode]()
        c = discretize_controls(p, g.rho)
        solve_semi_lagrangian(p, g, c)
        assert shapes.count((c.controls.size, g.n_nodes)) == 1
        assert len(shapes) == 1

    @pytest.mark.parametrize("name, grid", [
        ("cash", lambda: build_uniform_grid(Q=4, M=80, N=20, T=3)),
        ("heat", lambda: build_uniform_grid(Q=4, M=40, N=10, T=1)),
        ("constant", lambda: build_uniform_grid(Q=2, M=16, N=8, T=1)),
        ("cash", lambda: build_boundary_refined_grid(Q=4, rho=0.05, c_b=1.0, N=60, T=3)),
    ])
    def test_surfaces_equal_per_step_continuation(self, name, grid, monkeypatch):
        p, g = builtin(name), grid()
        c = discretize_controls(p, g.rho)
        hoisted = solve_semi_lagrangian(p, g, c)
        monkeypatch.setattr(semilag, "_continuation", per_step_continuation)
        per_step = solve_semi_lagrangian(p, g, c)
        assert per_step.surface.tobytes() == hoisted.surface.tobytes()
        for a, b in zip(hoisted.policies[:-1], per_step.policies[:-1]):
            assert a.same_as(b)
        outside = np.abs(g.nodes + eval_on(p.drift, g.nodes, c.controls[:, np.newaxis])
                         * g.dt) > g.Q
        assert hoisted.diagnostics.oversteps == g.N * int(outside.sum())
        assert hoisted.diagnostics.interior_oversteps == g.N * int(outside[:, 1:-1].sum())
        if name == "cash" and g.mode == "uniform":
            assert (hoisted.diagnostics.oversteps, hoisted.diagnostics.interior_oversteps) \
                == (240, 80)


def undeclared_twin(p):
    """p with the same reward values from a callable that is no
    :class:`problem.SeparableReward`, so its solve reads every control."""
    state = p.separable_reward.state
    return replace(p, running_reward=lambda t, x, b: state(t, x))


class TestCandidateRows:
    """A declared reward that ignores b and feet nondecreasing in b let the
    continuation maximum read each node's candidate rows only; the solve
    stays the full sample's up to rounding."""

    GRIDS = {
        "uniform": lambda: (build_uniform_grid(Q=4, M=40, N=30, T=3), None),
        "refined-config": lambda: (cli.build_grid(
            cli.parse_config(CONFIGS / "cash_semilagrangian_refined.yaml"), builtin("cash")), None),
        # b_max dt = 0.1875 spans 3.75 cells, sampled by 101 controls.
        "wide-window": lambda: (build_uniform_grid(Q=4, M=80, N=8, T=3), 0.01),
    }

    @pytest.mark.parametrize("mode", GRIDS)
    def test_matches_the_full_sample(self, mode):
        p = builtin("cash")
        g, rho = self.GRIDS[mode]()
        c = discretize_controls(p, rho or g.rho)
        twin = undeclared_twin(p)
        sol = solve_semi_lagrangian(p, g, c)
        full = solve_semi_lagrangian(twin, g, c)
        B = c.controls.size
        assert full.diagnostics.control_rows == B
        if rho is None:
            assert sol.diagnostics.control_rows == 4
        else:
            assert 4 < sol.diagnostics.control_rows < B
        assert np.abs(sol.surface - full.surface).max() <= 1e-13
        for name in ("oversteps", "interior_oversteps", "inward_drift"):
            assert getattr(sol.diagnostics, name) == getattr(full.diagnostics, name)
        feet = semilag.foot_points(g, twin, c)
        eps = np.finfo(float).eps
        for n, (a, b) in enumerate(zip(sol.policies[:-1], full.policies[:-1])):
            assert np.array_equal(a.intervene, b.intervene)
            assert np.array_equal(a.impulses, b.impulses)
            differ = np.flatnonzero(a.controls != b.controls)
            if differ.size:
                values = semilag._continuation(full.surface[n + 1], n * g.dt, g, twin, c, feet)
                ra = np.searchsorted(c.controls, a.controls[differ])
                rb = np.searchsorted(c.controls, b.controls[differ])
                gap = np.abs(values[ra, differ] - values[rb, differ])
                assert np.all(gap <= 4 * eps * np.abs(values[:, differ]).max(axis=0))

    def test_feet_hold_the_candidate_rows(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=40, N=30, T=3)
        c = discretize_controls(p, g.rho)
        feet = semilag.foot_points(g, p, c)
        full = semilag.foot_points(g, undeclared_twin(p), c)
        shape = (4, g.n_nodes)
        assert [a.shape for a in (feet.index, feet.k, feet.alpha, feet.stay, feet.k_next)] \
            == [shape] * 5
        assert full.k.shape == (c.controls.size, g.n_nodes)
        assert full.index.ravel().tolist() == list(range(c.controls.size))
        # Each kept row is that control's row of the full block.
        assert np.array_equal(feet.k, np.take_along_axis(full.k, feet.index, axis=0))
        assert np.array_equal(feet.alpha, np.take_along_axis(full.alpha, feet.index, axis=0))
        assert (feet.oversteps, feet.interior_oversteps) \
            == (full.oversteps, full.interior_oversteps)

    def test_feet_falling_in_b_keep_every_row(self):
        # Drift -b puts the feet in decreasing order down the control
        # sample: the rows are not checked to be runs, so all are read.
        p = replace(builtin("cash"), drift=lambda x, b: -b + 0.0 * x)
        assert p.separable_reward is not None
        g = build_uniform_grid(Q=4, M=40, N=30, T=3)
        c = discretize_controls(p, g.rho)
        sol = solve_semi_lagrangian(p, g, c)
        assert sol.diagnostics.control_rows == c.controls.size
        assert semilag.foot_points(g, p, c).k.shape == (c.controls.size, g.n_nodes)


class TestSolveSemiLagrangian:
    @pytest.mark.parametrize("N, T", [(0, 0.0), (6, 1.0)], ids=["no-time-axis", "T-not-horizon"])
    def test_grid_must_step_to_the_horizon(self, N, T):
        # cash has horizon 3: a grid with no time axis, or one ending at T = 1, is refused.
        g = build_uniform_grid(Q=4, M=8, N=N, T=T)
        with pytest.raises(ValueError, match=f"horizon 3.0, got N = {N}, T = {T}"):
            solve_semi_lagrangian(builtin("cash"), g)

    def test_constant_surface_exact(self):
        p = builtin("constant", {"c": 5})
        g = build_uniform_grid(Q=2, M=16, N=16, T=1)
        sol = solve_semi_lagrangian(p, g)
        assert np.abs(sol.surface - 5.0).max() <= 1e-12

    def test_heat_first_order(self):
        p = builtin("heat")
        window = Window((0.0, 1.0), (-2.0, 2.0))
        errors = []
        for M, N in [(40, 10), (80, 20)]:
            g = build_uniform_grid(Q=4, M=M, N=N, T=1)
            sol = solve_semi_lagrangian(p, g)
            errors.append(sup_error(sol, p.exact, window))
        assert errors[1] < errors[0]
        assert np.log2(errors[0] / errors[1]) == pytest.approx(1.0, abs=0.35)

    def test_stability_bound_every_step(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=16, N=12, T=3)
        sol = solve_semi_lagrangian(p, g)
        bound = 2.0 + 2.0 * 3.0   # |g| <= 2, |f| <= 2, T = 3
        assert np.abs(sol.surface[:-1]).max() <= bound + 1e-8

    def test_reports_no_penalty_parameter(self):
        # The scheme has no penalty term, so there is no epsilon to report.
        p = builtin("cash")
        sol = solve_semi_lagrangian(p, build_uniform_grid(Q=4, M=8, N=6, T=3))
        assert sol.epsilon is None

    def test_agrees_with_penalty_under_refinement(self):
        # Both schemes are first order, so their gap at t=0 away from the
        # boundary halves with rho: 0.167, 0.086 and 0.0435 on |x| <= 3 at
        # M = 40, 80 and 160.  At x = +-Q it need not: penalty's boundary rows
        # have a zero stencil, and SL clamps the feet that leave [-Q, Q].
        p = builtin("cash")
        diffs = []
        for M in (40, 80, 160):
            g = build_uniform_grid(Q=4, M=M, N=3 * M // 4, T=3)
            c = discretize_controls(p, g.rho)
            u_penalty = solve_finite_horizon(p, g, c).surface[0]
            u_sl = solve_semi_lagrangian(p, g, c).surface[0]
            diffs.append(float(np.abs(u_penalty - u_sl)[np.abs(g.nodes) <= 3.0].max()))
        ratios = [coarse / fine for coarse, fine in zip(diffs, diffs[1:])]
        assert all(1.7 <= r <= 2.3 for r in ratios), (diffs, ratios)

    def test_clamped_jump_targets(self):
        # Jumps of 3z leave [-Q, Q] from |x| > 1; the matrix check and the
        # stability bound hold on the boundary-refined grid.
        p = replace(builtin("cash"), impulse_shift=lambda t, x, z: 3.0 * z)
        g = build_boundary_refined_grid(Q=4, rho=0.2, c_b=1.0, N=16, T=p.horizon)
        c = discretize_controls(p, g.rho)
        sol = solve_semi_lagrangian(p, g, c)
        assert check_stability_bound(sol, p, c).passed
        assert check_solution_matrices(sol).passed
        assert sol.diagnostics.interior_oversteps == 0

    def test_requires_finite_horizon(self):
        p = builtin("cash", {"beta": 0.5})
        g = build_uniform_grid(Q=4, M=8, N=1, T=1)
        with pytest.raises(ValueError, match="finite-horizon"):
            solve_semi_lagrangian(p, g)


class TestOverstepping:
    def test_uniform_grid_boundary_feet_clamp(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=20, N=15, T=3)
        sol = solve_semi_lagrangian(p, g)
        assert sol.diagnostics.oversteps >= 1
        assert sol.diagnostics.interior_oversteps == 0

    def test_refined_grid_has_no_interior_oversteps_below_threshold(self):
        p = builtin("cash")
        for rho in (0.2, 0.1, 0.05):
            g = build_boundary_refined_grid(Q=4, rho=rho, c_b=1.0,
                                            N=int(3 / rho), T=3)
            c = discretize_controls(p, g.rho)
            threshold = overstep_threshold(p, g, c)
            assert rho <= threshold
            sol = solve_semi_lagrangian(p, g, c)
            assert sol.diagnostics.interior_oversteps == 0

    def test_threshold_formula(self):
        # c_b rho^{3/4} >= |drift| c_t rho  <=>  rho <= (c_b / (|drift| c_t))^4.
        p = builtin("cash")   # |drift| = b_max = 0.5
        g = build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=30, T=3)
        c = discretize_controls(p, g.rho)
        assert overstep_threshold(p, g, c) == pytest.approx((1.0 / (0.5 * g.c_t)) ** 4)

    @pytest.mark.parametrize("N, threshold", [(30, np.inf), (1, 0.0)])
    def test_growing_q_grid_takes_the_uniform_rule(self, N, threshold):
        # growing_q spacing is c_x rho, as on a uniform grid: every rho when
        # |drift| c_t <= c_x (0.125 <= 1 at N = 30), none otherwise (0.5 > 0.13
        # at N = 1, where interior feet do leave [-Q, Q]).
        p = builtin("cash")
        g = as_growing_q(build_uniform_grid(Q=4, M=10, N=N, T=3))
        c = discretize_controls(p, g.rho)
        assert overstep_threshold(p, g, c) == threshold
        sol = solve_semi_lagrangian(p, g, c)
        assert (sol.diagnostics.interior_oversteps == 0) == (threshold == np.inf)

    def test_inward_drift_detected(self):
        pulled_in = drift_problem(lambda x, b: -x, diffusion=1.0)
        g = build_uniform_grid(Q=2, M=8, N=4, T=1)
        c = discretize_controls(pulled_in, g.rho)
        assert semilag.foot_points(g, pulled_in, c).inward_drift
        sol = solve_semi_lagrangian(pulled_in, g, c)
        assert sol.diagnostics.inward_drift is True
        assert sol.diagnostics.oversteps == 0

    def test_outward_drift_not_inward(self):
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=8, N=6, T=3)
        c = discretize_controls(p, g.rho)
        assert not semilag.foot_points(g, p, c).inward_drift
