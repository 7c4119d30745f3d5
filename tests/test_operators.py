from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbqvi import operators as operators_mod
from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid
from hjbqvi.operators import (
    DiscreteControls,
    InterventionTable,
    Interpolant,
    apply_band,
    candidate_rows,
    discretize_controls,
    generator_band,
    impulse_bounds_on,
    interp_weights,
    row_at,
)
from hjbqvi.oracle import _coefficients, _penalty_row
from hjbqvi.penalty import solve_finite_horizon
from hjbqvi.problem import (
    ProblemSpec,
    ResetCost,
    builtin,
    eval_on,
    reset_impulse,
    uniform_sample,
)
from hjbqvi.semilag import solve_semi_lagrangian


def jump_problem(shift, cost, bounds=(-1.0, 1.0)):
    return ProblemSpec(
        drift=lambda x, b: 0.0,
        diffusion=lambda x, b: 1.0,
        running_reward=lambda t, x, b: 0.0,
        terminal_reward=lambda x: 0.0 * x,
        impulse_shift=shift,
        impulse_cost=cost,
        impulse_bounds=lambda t, x: bounds,
        control_bounds=(0.0, 0.0),
        horizon=1.0,
    )


GRID3 = build_uniform_grid(Q=1, M=1, N=1, T=1)          # nodes -1, 0, 1
GRID5 = build_uniform_grid(Q=2, M=2, N=2, T=1)          # spacing 1


def second_difference(u, grid):
    """D2 u read off the core: variance 2 makes L = 1/2 * 2 * D2."""
    return apply_band(generator_band(grid.nodes, 0.0, 2.0), u)


def upwind_term(u, grid, drift):
    """drift * D_upwind u read off the core with zero variance."""
    return apply_band(generator_band(grid.nodes, drift, 0.0), u)


class TestSecondDifference:
    def test_interior_three_point(self):
        u = np.array([1.0, 2.0, 4.0])
        assert second_difference(u, GRID3)[GRID3.offset(0)] == pytest.approx(1.0)

    @pytest.mark.parametrize("j", [-2, 2])
    def test_zero_at_boundary(self, j):
        u = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        i = GRID5.offset(j)
        assert second_difference(u, GRID5)[i] == 0.0
        band = generator_band(GRID5.nodes, 2.0 + 0.0 * GRID5.nodes, 3.0)
        assert all(coeffs[i] == 0.0 for coeffs in band)

    def test_annihilates_affine(self):
        g = build_uniform_grid(Q=2, M=4, N=2, T=1)
        u = 3.0 + 2.0 * g.nodes
        assert np.abs(second_difference(u, g)).max() == pytest.approx(0.0, abs=1e-13)

    def test_exact_on_quadratics_uniform(self):
        g = build_uniform_grid(Q=2, M=8, N=2, T=1)
        u = 1.7 * g.nodes ** 2
        assert np.allclose(second_difference(u, g)[1:-1], 2 * 1.7, rtol=0.0, atol=1e-10)

    def test_exact_on_quadratics_nonuniform(self):
        g = build_boundary_refined_grid(Q=2, rho=0.1, c_b=1.0, N=4, T=1)
        assert np.ptp(np.diff(g.nodes)) > 0.01
        u = 1.7 * g.nodes ** 2 - 0.3 * g.nodes
        assert np.allclose(second_difference(u, g)[1:-1], 2 * 1.7, rtol=0.0, atol=1e-9)

    def test_annihilates_affine_nonuniform(self):
        g = build_boundary_refined_grid(Q=2, rho=0.1, c_b=1.0, N=4, T=1)
        u = -1.0 + 0.5 * g.nodes
        assert np.abs(second_difference(u, g)).max() == pytest.approx(0.0, abs=1e-11)


class TestUpwindFirstDifference:
    def test_forward_for_positive_drift(self):
        u = np.array([0.0, 1.0, 3.0])
        lower, _, upper = generator_band(GRID3.nodes, 1.0, 0.0)
        assert (lower[1], upper[1]) == (0.0, 1.0)
        assert upwind_term(u, GRID3, 1.0)[1] == pytest.approx(2.0)

    def test_backward_for_negative_drift(self):
        u = np.array([0.0, 1.0, 3.0])
        lower, _, upper = generator_band(GRID3.nodes, -1.0, 0.0)
        assert (lower[1], upper[1]) == (1.0, 0.0)
        assert upwind_term(u, GRID3, -1.0)[1] == pytest.approx(-1.0)

    def test_zero_at_boundary(self):
        u = np.array([0.0, 1.0, 3.0])
        assert upwind_term(u, GRID3, 1.0)[2] == 0.0
        assert upwind_term(u, GRID3, -1.0)[0] == 0.0

    def test_zero_drift_uses_forward(self):
        # Zero drift takes the forward branch, whose coefficient vanishes:
        # the band is exactly the pure-diffusion band.
        zero = generator_band(GRID5.nodes, 0.0, 1.5)
        diffusion_only = generator_band(GRID5.nodes, np.zeros(GRID5.n_nodes), 1.5)
        for a, b in zip(zero, diffusion_only):
            assert np.array_equal(a, b)
        assert np.all(upwind_term(np.array([0.0, 1.0, 3.0]), GRID3, 0.0) == 0.0)

    def test_rows_per_control(self):
        # A (controls, nodes) drift gives one band row per control, each the
        # band of that control alone.
        g = build_boundary_refined_grid(Q=2, rho=0.2, c_b=1.0, N=2, T=1)
        drift = np.array([-0.5, 0.0, 0.5])[:, np.newaxis] + 0.1 * g.nodes
        stacked = generator_band(g.nodes, drift, 0.7)
        for row in range(3):
            single = generator_band(g.nodes, drift[row], 0.7)
            for a, b in zip(stacked, single):
                assert np.array_equal(a[row], b)


class TestApplyGenerator:
    def test_constant_function(self):
        u = np.full(5, 3.0)
        band = generator_band(GRID5.nodes, np.array([-2.0, 1.0, -0.5, 0.0, 3.0]), 1.0)
        assert np.all(apply_band(band, u) == 0.0)

    def test_pure_diffusion_value(self):
        u = np.array([1.0, 2.0, 4.0])
        assert apply_band(generator_band(GRID3.nodes, 0.0, 1.0), u)[1] == pytest.approx(0.5)

    def test_zero_at_boundaries(self):
        u = np.array([5.0, -1.0, 2.0])
        out = apply_band(generator_band(GRID3.nodes, 2.0, 1.0), u)
        assert out[0] == 0.0 and out[-1] == 0.0

    def test_matches_oracle_row_formula(self):
        # The audit's scalar row formula is written independently of the
        # core; with one control, no reward, no time term and a jump that can
        # never pay, its row residual is -(L u)_j.
        p = ProblemSpec(
            drift=lambda x, b: x + b,                  # both signs on [-2, 2]
            diffusion=lambda x, b: 0.5 + 0.2 * np.cos(x),
            running_reward=lambda t, x, b: 0.0,
            terminal_reward=lambda x: 0.0 * x,
            impulse_shift=lambda t, x, z: 0.0 * z,
            impulse_cost=lambda t, x, z: -1e6 + 0.0 * z,
            impulse_bounds=lambda t, x: (0.0, 0.0),
            control_bounds=(0.1, 0.1),
            horizon=1.0,
        )
        g = build_boundary_refined_grid(Q=2, rho=0.1, c_b=1.0, N=2, T=1)
        assert np.ptp(np.diff(g.nodes)) > 0.01
        nodes = [float(x) for x in g.nodes]
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rng.normal(size=g.n_nodes)
            band = generator_band(g.nodes, p.drift(g.nodes, 0.1), p.diffusion(g.nodes, 0.1) ** 2)
            core = apply_band(band, u)
            u_list = [float(v) for v in u]
            row = _penalty_row(p, nodes, 1.0, 1.0)
            oracle_rows = [
                -row(i, u_list, u_list, _coefficients(p, x, [0.1]),
                     [p.running_reward(0.0, x, 0.1)], [(x, p.impulse_cost(0.0, x, 0.0))], {})
                for i, x in enumerate(nodes)
            ]
            assert np.allclose(core, oracle_rows, rtol=1e-12, atol=1e-9)


def interp(u, grid, xs):
    """The Interpolant of the points, read once."""
    return Interpolant(*interp_weights(grid.nodes, xs)).interp(u)


class TestInterp:
    """Clamped linear interpolation: the vectorised interp_weights and the
    Interpolant gather that tables and foot points read them through."""

    U5 = np.array([0.0, 0.0, 0.0, 10.0, 20.0])  # on GRID5 (nodes -2..2); linear on [0, 2]

    def test_midpoint(self):
        k, alpha = interp_weights(GRID5.nodes, np.array([0.5]))
        assert k[0] == GRID5.offset(0) and alpha[0] == pytest.approx(0.5)
        assert interp(self.U5, GRID5, np.array([0.5]))[0] == pytest.approx(5.0)

    def test_clamps_beyond_grid(self):
        # Clamp first: at or beyond the right end the point reads the last
        # cell at full weight, (n - 2, 1); at or beyond the left end (0, 0).
        k, alpha = interp_weights(GRID5.nodes, np.array([5.0, -5.0, 2.0, -2.0]))
        assert np.array_equal(k, [3, 0, 3, 0])
        assert np.array_equal(alpha, [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(interp(self.U5, GRID5, np.array([5.0, -5.0])), [20.0, 0.0])

    def test_nodal_exactness(self):
        k, alpha = interp_weights(GRID5.nodes, GRID5.nodes)
        last = GRID5.n_nodes - 1
        assert np.array_equal(k, [*range(last), last - 1])
        assert np.array_equal(alpha, [*([0.0] * last), 1.0])
        assert np.array_equal(interp(self.U5, GRID5, GRID5.nodes), self.U5)

    def test_reproduces_affine_inside(self):
        g = build_uniform_grid(Q=3, M=6, N=2, T=1)
        u = -2.0 + 0.7 * g.nodes
        xs = np.linspace(-3, 3, 41)
        assert np.allclose(interp(u, g, xs), -2.0 + 0.7 * xs, rtol=0, atol=1e-12)

    def test_matches_numpy_reference(self):
        g = build_boundary_refined_grid(Q=2, rho=0.2, c_b=1.0, N=2, T=1)
        rng = np.random.default_rng(3)
        u = rng.normal(size=g.n_nodes)
        xs = rng.uniform(-2.5, 2.5, 50)
        assert np.allclose(interp(u, g, xs), np.interp(xs, g.nodes, u), rtol=0, atol=1e-12)

    @staticmethod
    def clipped_search(nodes, xs):
        """Clamp first, then a search over all nodes, less one, clipped to a cell."""
        xs = np.clip(np.asarray(xs, dtype=float), nodes[0], nodes[-1])
        k = np.searchsorted(nodes, xs, side="right") - 1
        k = np.clip(k, 0, nodes.size - 2)
        alpha = (xs - nodes[k]) / (nodes[k + 1] - nodes[k])
        return k, alpha

    @pytest.mark.parametrize("nodes", [
        build_uniform_grid(Q=3, M=6, N=1, T=1).nodes,
        build_boundary_refined_grid(Q=2, rho=0.2, c_b=1.0, N=1, T=1).nodes,
        np.array([-1.5, 0.5]),
    ], ids=["uniform", "boundary-refined", "two-node"])
    def test_matches_clipped_search_bit_for_bit(self, nodes):
        h = np.diff(nodes)
        q = float(np.abs(nodes).max())
        xs = np.concatenate([
            nodes,                                      # at nodes
            np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
            nodes[:-1] + 0.5 * h, nodes[:-1] + 0.3 * h,  # between nodes
            [-q - 1.0, q + 1.0, -1e300, 1e300],         # outside [-Q, Q]
            [np.nan, np.inf, -np.inf, np.finfo(float).max, -np.finfo(float).max],
        ])
        k, alpha = interp_weights(nodes, xs)   # filterwarnings = error fails on any warning
        k_ref, alpha_ref = self.clipped_search(nodes, xs)
        assert k.dtype == k_ref.dtype and alpha.dtype == alpha_ref.dtype
        assert k.min() >= 0 and k.max() <= nodes.size - 2    # NaN and +-inf included
        assert np.array_equal(k, k_ref)
        assert np.array_equal(alpha, alpha_ref, equal_nan=True)

    def test_any_shape(self):
        g = build_boundary_refined_grid(Q=2, rho=0.2, c_b=1.0, N=2, T=1)
        xs = np.random.default_rng(4).uniform(-2.5, 2.5, (3, 7))
        k, alpha = interp_weights(g.nodes, xs)
        k_flat, alpha_flat = interp_weights(g.nodes, xs.ravel())
        assert k.shape == alpha.shape == (3, 7)
        assert np.array_equal(k.ravel(), k_flat) and np.array_equal(alpha.ravel(), alpha_flat)
        assert np.all((alpha >= 0.0) & (alpha <= 1.0))
        u = np.sin(g.nodes)
        values = Interpolant(k, alpha).interp(u)
        assert values.shape == (3, 7)
        assert np.array_equal(values.ravel(), Interpolant(k_flat, alpha_flat).interp(u))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=5),
           st.lists(st.floats(0, 5), min_size=5, max_size=5),
           st.floats(-3, 3))
    def test_monotone_in_values(self, base, bumps, x):
        lo = np.array(base)
        hi = lo + np.array(bumps)
        xs = np.array([x])
        assert interp(lo, GRID5, xs)[0] <= interp(hi, GRID5, xs)[0] + 1e-12


class TestCandidateRows:
    """The rows a control maximum reads: each run of one piece's first row
    and the first row of its last param, per node, as an H x nodes index."""

    def test_rows_of_a_block(self):
        # Node 0: cells 0 then 1, each with rising weights.  Node 1: one
        # cell whose last weight repeats (a clamped foot), so the run's end
        # is the first row of that weight, and the node pads to H = 4.
        k = np.array([[0, 2], [0, 2], [0, 2], [1, 2], [1, 2], [1, 2]])
        alpha = np.array([[0.0, 0.1], [0.2, 0.1], [0.4, 0.3], [0.0, 1.0], [0.5, 1.0],
                          [0.6, 1.0]])
        assert candidate_rows(k, alpha).T.tolist() == [[0, 2, 3, 5], [0, 3, 3, 3]]
        assert candidate_rows(k[::-1], alpha[::-1]) is None
        falling = alpha.copy()
        falling[4, 0] = 0.7
        assert candidate_rows(k, falling) is None

    def test_row_at_reads_each_nodes_pick(self):
        index = np.array([[0, 0], [2, 3], [3, 3], [5, 3]])
        assert row_at(index, np.array([1, 3])).tolist() == [2, 3]
        # A column of every row serves each node.
        assert row_at(np.arange(6)[:, np.newaxis], np.array([4, 1, 0])).tolist() == [4, 1, 0]

    @pytest.mark.parametrize("bounds, rows", [
        ((-0.5, 0.5), [0, 4, 5, 10]),       # b = 0 is the first row of b >= 0
        ((0.0, 0.5), [0, 5]),
        ((-0.5, -0.1), [0, 4]),
        ((0.2, 0.2), [0]),
    ])
    def test_the_ends_of_each_sign_half_of_a_drift(self, bounds, rows):
        # The penalty band's inputs: the piece is drift >= 0, the param the drift.
        b = uniform_sample(*bounds, 0.1)
        drift = np.broadcast_to(b[:, np.newaxis], (b.size, 5))
        index = candidate_rows(drift >= 0.0, drift)
        assert index.shape == (len(rows), 5)
        assert all(column == rows for column in index.T.tolist())
        if b.size > 1:
            assert candidate_rows(drift[::-1] >= 0.0, drift[::-1]) is None

    def test_a_drift_that_ignores_b_keeps_row_zero(self):
        drift = np.broadcast_to(np.array([-0.3, 0.0, 0.3]), (7, 3))
        assert candidate_rows(drift >= 0.0, drift).tolist() == [[0, 0, 0]]

    def test_a_drift_in_b_and_x_keeps_per_node_rows(self):
        b = uniform_sample(-0.5, 0.5, 0.1)[:, np.newaxis]
        x = np.array([-4.0, 0.0, 2.0, 4.0])
        index = candidate_rows(b + 0.1 * x >= 0.0, b + 0.1 * x)
        # x = -4: b >= 0.4 from row 9; x = 4: every b >= -0.4 but the first.
        assert index.T.tolist() == [[0, 8, 9, 10], [0, 4, 5, 10], [0, 2, 3, 10],
                                    [0, 1, 10, 10]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_the_maximum_and_first_maximiser_of_a_piecewise_affine_block(self, B, n, seed):
        # Integer data keep every value exact: each run's value is
        # slope * param + intercept, the slope and intercept per piece.
        rng = np.random.default_rng(seed)
        piece = np.sort(rng.integers(0, 3, (B, n)), axis=0)
        param = np.sort(rng.integers(-3, 4, (B, n)), axis=0)
        slope, intercept = rng.integers(-3, 4, (2, 3, n))
        nodes = np.arange(n)
        values = (slope[piece, nodes] * param + intercept[piece, nodes]).astype(float)
        index = candidate_rows(piece, param)
        kept = np.take_along_axis(values, index, axis=0)
        assert np.array_equal(kept.max(axis=0), values.max(axis=0))
        assert np.array_equal(index[kept.argmax(axis=0), nodes], values.argmax(axis=0))


class TestDiscretizeControls:
    def test_three_point_interval(self):
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    control_bounds=(-1.0, 1.0))
        c = discretize_controls(p, rho=1.0)
        assert np.array_equal(c.controls, [-1.0, 0.0, 1.0])

    def test_degenerate_singleton(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z)
        c = discretize_controls(p, rho=0.3)
        assert np.array_equal(c.controls, [0.0])

    def test_impulse_sampling_hausdorff(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z)
        c = discretize_controls(p, rho=0.5)
        zs = uniform_sample(*p.impulse_bounds(0.0, 0.0), c.rho)  # interval [-1, 1]
        assert zs[0] == -1.0 and zs[-1] == 1.0
        assert np.diff(zs).max() <= 0.5 + 1e-15

    def test_five_point_impulse_set(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z,
                         bounds=(-1.0, 1.0))
        c = discretize_controls(p, rho=0.5)
        zs = uniform_sample(*p.impulse_bounds(0.0, 0.0), c.rho)
        assert np.array_equal(zs, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # Hausdorff distance to the continuous interval is half the spacing.
        assert np.diff(zs).max() / 2 == pytest.approx(0.25)

    def test_rejects_nonpositive_rho(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z)
        with pytest.raises(ValueError):
            discretize_controls(p, rho=0.0)


TINY = 5e-324   # the smallest subnormal double


SAMPLER_CASES = [
    (lambda t, x: (-1.0 - 0.1 * abs(x), 1.0 + 0.1 * abs(x)), 0.2),    # ragged
    (lambda t, x: (0.5, 0.5 + max(x, 0.0)), 0.3),                     # hi == lo for x <= 0
    (lambda t, x: (0.7, 0.7), 0.3),                                    # hi == lo everywhere
    (lambda t, x: (-3 * TINY, (4 + abs(x)) * TINY), 2 * TINY),        # denormal width
    (lambda t, x: (0.0, TINY * (1 + (x > 0))), 10.0),                 # width / rho underflows
    (lambda t, x: (-1.0, 1.0 + (x > 0)), 0.25),                       # width a multiple of rho
]


def linspace_sample(lo, hi, rho):
    """np.linspace with ceil(width / rho) + 1 points, at least 2 on a nonempty
    width, and [lo] on an empty or zero one: the reference sampler."""
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, max(int(np.ceil((hi - lo) / rho)), 1) + 1)


class TestImpulseSampler:
    """``impulse_values`` and ``uniform_sample`` against plain ``np.linspace``."""

    @pytest.mark.parametrize("bounds, rho", SAMPLER_CASES)
    def test_rows_match_uniform_sample_bit_for_bit(self, bounds, rho):
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    impulse_bounds=bounds)
        g = build_uniform_grid(Q=4, M=20, N=1, T=1)
        c = discretize_controls(p, rho=rho)
        block = c.impulse_values(0.25, g.nodes)
        expected = []
        for i, x in enumerate(g.nodes):
            lo, hi = p.impulse_bounds(0.25, float(x))
            ref = linspace_sample(lo, hi, rho)
            assert uniform_sample(lo, hi, rho).tobytes() == ref.tobytes()
            expected.append(np.pad(ref, (0, block.shape[1] - ref.size), mode="edge"))
            assert np.array_equal(block[i], expected[i])
        assert block.tobytes() == np.array(expected).tobytes()
        # Both endpoints are candidates at every node, also where the width
        # is nonzero but width / rho underflows to 0.
        lo, hi = np.array([p.impulse_bounds(0.25, float(x)) for x in g.nodes]).T
        assert np.array_equal(block[:, 0], lo) and np.array_equal(block[:, -1], hi)

    def test_block_is_shared_and_read_only(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z)
        c = discretize_controls(p, rho=0.5)
        block = c.impulse_values(0.0, GRID5.nodes)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 3.0
        assert c.impulse_values(0.0, GRID5.nodes.copy()) is block
        # The bounds ignore t: a later level shares the block under its own
        # memo entry, also after a level of another node count.
        assert c.impulse_values(0.5, GRID5.nodes) is block
        assert c.impulse_values(0.0, GRID3.nodes).shape == (GRID3.n_nodes, 5)
        assert c.impulse_values(0.75, GRID5.nodes) is block
        assert list(c._impulse_cache) == [(0.0, GRID5.nodes.tobytes()),
                                          (0.5, GRID5.nodes.tobytes()),
                                          (0.0, GRID3.nodes.tobytes()),
                                          (0.75, GRID5.nodes.tobytes())]
        assert InterventionTable(p, GRID5, c, 0.0)._impulse_grid is block

    @pytest.mark.parametrize("bounds", [
        lambda t, x: (-1.0, np.nextafter(1.0, 2.0) if x == 1.0 and t > 0.0 else 1.0),
        lambda t, x: (-1.0, 1.0 + t),
    ], ids=["one-node", "every-node"])
    def test_bounds_that_differ_get_a_new_block(self, bounds):
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    impulse_bounds=bounds)
        c = discretize_controls(p, rho=0.5)
        first = c.impulse_values(0.0, GRID5.nodes)
        later = c.impulse_values(0.5, GRID5.nodes)
        assert later is not first
        fresh = discretize_controls(p, rho=0.5).impulse_values(0.5, GRID5.nodes)
        assert later.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("bounds, rho, distinct", [
        *((bounds, rho, 1) for bounds, rho in SAMPLER_CASES),
        (lambda t, x: (-0.0, 1.0), 0.25, 1),                        # first column reads +0.0
        (lambda t, x: (-0.0 if t < 0.5 else 0.0, 1.0), 0.25, 1),    # ... so +0.0 shares it
        (lambda t, x: (0.0 * x, max(x, 0.0)), 0.25, 1),             # -0.0 lo, +0.0 hi at x < 0
        (lambda t, x: (-0.0 if x > 0 and t < 0.5 else 0.0, 1.0 + (x > 0)), 0.25, 1),
        (lambda t, x: (-0.0, 0.0 if t < 0.5 else -0.0), 0.3, 1),     # zero width, row is lo
        (lambda t, x: (0.0, -0.0 if t < 0.5 else 0.0), 0.3, 1),
        (lambda t, x: (0.0, 0.0) if t < 0.5 else (-0.0, -0.0), 0.3, 2),
    ])
    def test_shared_block_is_the_fresh_sample(self, bounds, rho, distinct):
        # A level that shares a block gets, byte for byte, the block a fresh
        # sampler draws at that level, signed zeros included.
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    impulse_bounds=bounds)
        g = build_uniform_grid(Q=4, M=20, N=1, T=1)
        c = discretize_controls(p, rho=rho)
        for t in (0.25, 0.5, 0.75):
            fresh = discretize_controls(p, rho=rho).impulse_values(t, g.nodes)
            block = c.impulse_values(t, g.nodes)
            assert block.shape == fresh.shape and block.tobytes() == fresh.tobytes()
        assert len({id(b) for b in c._impulse_cache.values()}) == distinct

    @pytest.mark.parametrize("bad, message", [
        ((-1.0, np.nan), "non-finite impulse bounds"),
        ((-np.inf, 1.0), "non-finite impulse bounds"),
        ((1.0, -1.0), "empty impulse set"),
    ])
    def test_bad_bounds_name_t_and_x(self, bad, message):
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    impulse_bounds=lambda t, x: bad if (t > 0.5 and x == 1.0) else (-1.0, 1.0))
        c = discretize_controls(p, rho=0.5)
        table = InterventionTable(p, GRID5, c, 0.0)
        where = r"\(t=0\.75, x=1\.0\)"
        with pytest.raises(ValueError, match=f"{message} at {where}"):
            InterventionTable(p, GRID5, c, 0.75)
        with pytest.raises(ValueError, match=f"{message} at {where}"):
            table.same_data_at(0.75)

    @pytest.fixture
    def impulse_calls(self, monkeypatch):
        calls = []
        sample = DiscreteControls.impulse_values

        def counted(controls, t, nodes):
            calls.append(t)
            return sample(controls, t, nodes)

        monkeypatch.setattr(DiscreteControls, "impulse_values", counted)
        return calls

    def test_one_sample_per_time_level(self, impulse_calls):
        # Penalty: two table builds per step (the step and its residual
        # gate) share one sample, so 2 * 8 calls fill 8 memo entries.
        p = builtin("cash")
        g = build_uniform_grid(Q=4, M=10, N=8, T=p.horizon)
        c = discretize_controls(p, g.rho)
        solve_finite_horizon(p, g, c)
        assert len(impulse_calls) == 16
        assert len(c._impulse_cache) == 8

    @pytest.mark.parametrize("bounds, distinct", [
        (None, 1),
        (lambda t, x: (-1.0, 1.0 - 0.1 * t), 30),
    ], ids=["cash", "t-dependent"])
    def test_penalty_solve_keeps_one_block_per_distinct_bounds(self, bounds, distinct):
        # One memo entry per level; levels with equal bounds hold one array.
        p = builtin("cash")
        if bounds is not None:
            p = replace(p, impulse_bounds=bounds)
        g = build_uniform_grid(Q=4, M=40, N=30, T=p.horizon)
        c = discretize_controls(p, g.rho)
        solve_finite_horizon(p, g, c)
        assert len(c._impulse_cache) == g.N
        assert len({id(b) for b in c._impulse_cache.values()}) == distinct

    def test_one_sample_per_semilagrangian_solve(self, impulse_calls):
        # The impulse data of cash ignore t, so one table serves every step.
        p = builtin("cash")
        g = build_boundary_refined_grid(Q=4, rho=0.2, c_b=1.0, N=16, T=p.horizon)
        c = discretize_controls(p, g.rho)
        solve_semi_lagrangian(p, g, c)
        assert len(impulse_calls) == 1
        assert len(c._impulse_cache) == 1


# Cash with its reset replaced by a relative jump of 3z, z in [-1, 1]: from
# |x| > 1 some targets leave [-Q, Q], which no builtin does.
WIDE_CASH = replace(builtin("cash"), impulse_shift=lambda t, x, z: 3.0 * z)


def clamped_interp(nodes, u, y):
    """Scalar clamped linear interpolation by a walk over the cells."""
    y = min(max(y, nodes[0]), nodes[-1])
    i = 0
    while i < len(nodes) - 2 and y >= nodes[i + 1]:
        i += 1
    return u[i] + (y - nodes[i]) / (nodes[i + 1] - nodes[i]) * (u[i + 1] - u[i])


class TestClampedJumpTargets:
    GRIDS = [build_uniform_grid(Q=4, M=10, N=1, T=1),
             build_boundary_refined_grid(Q=4, rho=0.3, c_b=1.0, N=1, T=1)]

    @pytest.mark.parametrize("g", GRIDS, ids=["uniform", "refined"])
    def test_jump_rows_stay_on_the_grid(self, g):
        table = InterventionTable(WIDE_CASH, g, discretize_controls(WIDE_CASH, g.rho), 0.0)
        zs = table._impulse_grid
        targets = g.nodes[:, np.newaxis] + 3.0 * zs
        assert (targets > g.Q).any() and (targets < -g.Q).any()
        rows = np.repeat(np.arange(g.n_nodes), zs.shape[1])
        ((k, w_k), (k_next, w_next)), _ = table.jump_rows(rows, zs.ravel())
        assert k.min() >= 0 and k_next.max() < g.n_nodes
        assert np.all(w_k >= 0.0) and np.all(w_next >= 0.0)
        assert np.abs(w_k + w_next - 1.0).max() <= 1e-15
        beyond = targets.ravel() >= g.Q
        assert np.all(k_next[beyond] == g.n_nodes - 1) and np.all(w_next[beyond] == 1.0)
        below = targets.ravel() <= -g.Q
        assert np.all(k[below] == 0) and np.all(w_k[below] == 1.0)

    @pytest.mark.parametrize("g", GRIDS, ids=["uniform", "refined"])
    def test_apply_matches_scalar_clamped_reference(self, g):
        p = WIDE_CASH
        c = discretize_controls(p, g.rho)
        table = InterventionTable(p, g, c, 0.0)
        nodes = g.nodes.tolist()
        for seed in range(3):
            u = np.random.default_rng(seed).normal(size=g.n_nodes)
            res = table.apply(u)
            for i, x in enumerate(nodes):
                zs = uniform_sample(*p.impulse_bounds(0.0, x), c.rho).tolist()
                vals = [clamped_interp(nodes, u, x + 3.0 * z) + float(p.impulse_cost(0.0, x, z))
                        for z in zs]
                best = int(np.argmax(vals))
                assert res.values[i] == pytest.approx(vals[best], rel=0, abs=1e-12)
                assert res.impulses[i] == zs[best]


def per_row_reference(problem, grid, controls, t, evaluate=eval_on):
    """The explicit per-row interpolant of a table's targets x_j + shift."""
    x_col = grid.nodes[:, np.newaxis]
    zs = controls.impulse_values(t, grid.nodes)
    return Interpolant(*interp_weights(grid.nodes,
                                       x_col + evaluate(problem.impulse_shift, t, x_col, zs)))


def layout_bound(u, nodes, z, c0, lam):
    """How far the reset and block layouts' values may be apart: rounding in
    the sweeps' sums (8 ulps of the largest term) plus the block targets'
    x + (z - x) != z (4 ulps of the largest position, times the largest cell
    slope of u)."""
    eps = np.finfo(float).eps
    reach = max(np.abs(nodes).max(), np.abs(z).max())
    slope = np.abs(np.diff(u) / np.diff(nodes)).max()
    return 8 * eps * (np.abs(u).max() + c0 + lam * 2 * reach) + 4 * eps * reach * slope


class TestSharedTargetRow:
    """A reset table interpolates its one candidate row z for every node,
    whose targets x_j + (z - x_j) are z up to rounding; any other keeps one
    interpolant per node, bit for bit."""

    GRIDS = TestClampedJumpTargets.GRIDS
    RAGGED = replace(builtin("cash"),
                     impulse_bounds=lambda t, x: (-1.0 - 0.1 * np.abs(x), 1.0 + 0.1 * np.abs(x)))

    @pytest.mark.parametrize("g", GRIDS, ids=["uniform", "refined"])
    @pytest.mark.parametrize("name", ["cash", "heat"])
    def test_reset_tables_hold_one_target_row(self, name, g):
        p = builtin(name)
        c = discretize_controls(p, g.rho)
        table = InterventionTable(p, g, c, 0.0)
        width = table._impulse_grid.shape[1]
        for part in (table.k, table.alpha, table.stay, table.k_next):
            assert part.shape == (1, width)
        ref = per_row_reference(p, g, c, 0.0)
        x_col = g.nodes[:, np.newaxis]
        costs = eval_on(p.impulse_cost, 0.0, x_col, table._impulse_grid)
        rows = np.arange(g.n_nodes)
        tol = 4 * np.finfo(float).eps * np.abs(g.nodes).max()
        for seed in range(3):
            u = np.random.default_rng(seed).normal(size=g.n_nodes)
            slope = np.abs(np.diff(u) / np.diff(g.nodes)).max()
            assert np.abs(table.interp(u) - ref.interp(u)).max() <= slope * tol
            res = table.apply(u)
            bound = layout_bound(u, g.nodes, table._z, p.impulse_cost.c0, p.impulse_cost.lam)
            assert np.abs(res.values - (costs + ref.interp(u)).max(axis=1)).max() <= bound
            ((k, w_k), (k_next, w_next)), cost = table.jump_rows(rows, res.impulses)
            assert np.array_equal(w_k * u[k] + w_next * u[k_next] + cost, res.values)

    @pytest.mark.parametrize("p", [
        builtin("constant"),   # shift 0 z: the target is x
        WIDE_CASH,             # shift 3 z
        RAGGED,                # x-dependent bounds: padded rows differ
    ], ids=["constant", "wide", "ragged"])
    def test_other_targets_keep_the_per_row_interpolant(self, p):
        g = self.GRIDS[0]
        c = discretize_controls(p, g.rho)
        self.assert_per_row(InterventionTable(p, g, c, 0.0), per_row_reference(p, g, c, 0.0), g)

    def test_nan_target_keeps_the_per_row_interpolant(self, monkeypatch):
        # eval_on rejects a non-finite shift, so put the NaN in past it; an
        # undeclared reset shift keeps the table in the block layout.
        p = replace(builtin("cash"), impulse_shift=lambda t, x, z: z - x)
        g = self.GRIDS[0]
        c = discretize_controls(p, g.rho)
        checked = operators_mod.eval_on

        def nan_shift(fn, *args):
            out = np.array(checked(fn, *args))     # eval_on's result is read-only
            if fn is p.impulse_shift:
                out[3, 2] = np.nan
            return out

        monkeypatch.setattr(operators_mod, "eval_on", nan_shift)
        table = InterventionTable(p, g, c, 0.0)
        ref = per_row_reference(p, g, c, 0.0, nan_shift)
        assert np.isnan(table.alpha[3, 2])
        self.assert_per_row(table, ref, g)

    @staticmethod
    def assert_per_row(table, ref, g):
        assert table.k.shape == table._impulse_grid.shape
        for name in ("k", "alpha", "stay", "k_next"):
            assert getattr(table, name).tobytes() == getattr(ref, name).tobytes()
        u = np.random.default_rng(0).normal(size=g.n_nodes)
        assert table.interp(u).tobytes() == ref.interp(u).tobytes()


def reset_problem(c0, lam, bounds=(-1.0, 1.0), **fields):
    """A problem with a declared reset at cost -c0 - lam |z - x|."""
    return replace(jump_problem(None, None, bounds), **reset_impulse(c0, lam), **fields)


def undeclared(problem):
    """The same impulses through a plain shift: no declared reset."""
    return replace(problem, impulse_shift=lambda t, x, z: z - x)


def top_two_gap(block):
    """Per row, the best value less the second best (inf for one candidate)."""
    if block.shape[1] < 2:
        return np.full(block.shape[0], np.inf)
    top = np.sort(block, axis=1)
    return top[:, -1] - top[:, -2]


class TestResetLayout:
    """A declared reset with the same bounds at every node takes the impulse
    maximum as two running maxima over the 1 x K candidate row; it agrees
    with the block layout of the same, undeclared, problem."""

    GRIDS = TestClampedJumpTargets.GRIDS

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["uniform", "refined"]),
           st.integers(2, 30),
           st.floats(0.5, 6.0),
           st.floats(1e-3, 10.0),
           st.floats(0.0, 5.0),
           st.floats(-7.0, 7.0), st.floats(0.0, 8.0),
           st.floats(0.02, 1.0),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 1e-12, 1.0, 100.0]))
    def test_matches_the_block_layout(self, mode, M, Q, c0, lam, lo, width, rho, seed, step):
        if mode == "uniform":
            g = build_uniform_grid(Q=Q, M=M, N=1, T=1)
        else:
            g = build_boundary_refined_grid(Q=Q, rho=Q / M, c_b=1.0, N=1, T=1)
        declared = reset_problem(c0, lam, bounds=(lo, lo + width))
        c = discretize_controls(declared, rho)
        reset = InterventionTable(declared, g, c, 0.0)
        block = InterventionTable(undeclared(declared), g, c, 0.0)
        assert reset._reset == ResetCost(c0, lam) and block._reset is None
        rng = np.random.default_rng(seed)
        # Smooth, rough, and rounded (tied) iterates.
        for u in (step * np.sin(g.nodes) + rng.normal(size=g.n_nodes),
                  np.round(rng.normal(size=g.n_nodes), 1) * step):
            a, b = reset.apply(u), block.apply(u)
            bound = layout_bound(u, g.nodes, reset._z, c0, lam)
            assert np.abs(a.values - b.values).max() <= bound
            values = block.costs + block.interp(u)
            clear = top_two_gap(values) > bound
            assert np.array_equal(a.impulses[clear], b.impulses[clear])
            # Every impulse is a candidate, and its value is that candidate's.
            rows = np.arange(g.n_nodes)
            ((k, w_k), (k_next, w_next)), cost = reset.jump_rows(rows, a.impulses)
            assert np.array_equal(w_k * u[k] + w_next * u[k_next] + cost, a.values)

    @pytest.mark.parametrize("g", GRIDS, ids=["uniform", "refined"])
    @pytest.mark.parametrize("name", ["cash", "heat"])
    def test_builtins_take_the_reset_layout(self, name, g):
        p = builtin(name)
        c = discretize_controls(p, g.rho)
        table = InterventionTable(p, g, c, 0.0)
        assert table._reset is p.impulse_cost
        assert table.costs is None and table.offsets is None
        assert table._impulse_grid is c.impulse_values(0.0, g.nodes)
        assert np.array_equal(table._z, uniform_sample(-1.0, 1.0, c.rho))

    @pytest.mark.parametrize("field, value", [
        ("impulse_shift", lambda t, x, z: z - x),
        ("impulse_cost", lambda t, x, z: -2.0 - 0.5 * np.abs(z - x)),
        ("impulse_cost", lambda t, x, z: -2.0 - 0.6 * np.abs(z - x)),
        ("impulse_shift", lambda t, x, z: 3.0 * z),
    ], ids=["same-shift", "same-cost", "other-cost", "other-shift"])
    def test_replacing_either_callable_drops_the_declaration(self, field, value):
        # The declaration is the pair of callables, so any replacement, even
        # one with the same values, solves through the block layout.
        p = replace(builtin("cash"), **{field: value})
        g = self.GRIDS[0]
        assert p.reset_cost is None
        table = InterventionTable(p, g, discretize_controls(p, g.rho), 0.0)
        assert table._reset is None and table.offsets is None
        assert table.costs.shape == table._impulse_grid.shape

    def test_bounds_that_vary_with_x_take_the_block_layout(self):
        p = reset_problem(2.0, 0.5, impulse_bounds=lambda t, x: (-1.0 - 0.1 * np.abs(x), 1.0))
        g = self.GRIDS[0]
        table = InterventionTable(p, g, discretize_controls(p, g.rho), 0.0)
        assert table._reset is None and table.offsets is None
        assert table.costs.shape == table._impulse_grid.shape

    def test_ties_go_to_the_smallest_impulse(self):
        g = build_uniform_grid(Q=2, M=8, N=1, T=1)
        # lam = 0 and a constant u: every candidate ties at every node.
        flat = InterventionTable(builtin("heat"), g, discretize_controls(builtin("heat"), 0.25),
                                 0.0)
        res = flat.apply(np.full(g.n_nodes, 0.5))
        assert np.all(res.impulses == -1.0) and np.all(res.values == 0.5 - 3.0)
        # u = x^2: at x = 0 the candidates z = -1 and z = 1 tie exactly, one
        # in each sweep, and the forward sweep's (the smaller z) wins.
        p = reset_problem(1.0, 0.5)
        c = discretize_controls(p, 0.25)
        res = InterventionTable(p, g, c, 0.0).apply(g.nodes ** 2)
        assert res.impulses[g.offset(0)] == -1.0 and res.values[g.offset(0)] == -0.5
        block = InterventionTable(undeclared(p), g, c, 0.0).apply(g.nodes ** 2)
        assert np.array_equal(res.impulses, block.impulses)
        assert np.array_equal(res.values, block.values)

    @pytest.mark.parametrize("g", GRIDS, ids=["uniform", "refined"])
    def test_jump_rows_read_back_the_chosen_candidates(self, g):
        p = builtin("cash")
        table = InterventionTable(p, g, discretize_controls(p, g.rho), 0.0)
        u = 4.0 * -np.minimum(g.nodes ** 2, 2.0) + np.random.default_rng(1).normal(size=g.n_nodes)
        res = table.apply(u)
        rows = np.flatnonzero(res.values > u)[::-1]      # any subset, any order
        assert rows.size
        ((k, w_k), (k_next, w_next)), cost = table.jump_rows(rows, res.impulses[rows])
        assert k.shape == cost.shape == rows.shape
        assert np.array_equal(k_next, k + 1) and k_next.max() < g.n_nodes
        assert np.all(w_k >= 0.0) and np.all(w_next >= 0.0)
        assert np.array_equal(w_k * u[k] + w_next * u[k_next] + cost, res.values[rows])
        assert np.array_equal(cost, p.impulse_cost(0.0, g.nodes[rows], res.impulses[rows]))
        with pytest.raises(ValueError, match=r"impulse 0\.123 at node index 3 "):
            table.jump_rows([3], [0.123])
        with pytest.raises(ValueError, match=r"impulse 1\.5 at node index 0 "):
            table.jump_rows([0], [1.5])

    def test_build_and_reuse_check_evaluate_no_impulse_callable(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the reset layout evaluated an impulse callable")

        seen = []
        checked = operators_mod.eval_on

        def spy(fn, *args):
            seen.append(fn)
            return checked(fn, *args)

        monkeypatch.setattr(ResetCost, "__call__", refuse)
        monkeypatch.setattr(operators_mod, "eval_on", spy)
        bounds_calls = []
        p = replace(builtin("cash"), impulse_bounds=counted_bounds(
            lambda t, x: (-1.0, 1.0 - 0.5 * (t > 1.0)), bounds_calls))
        g = self.GRIDS[1]
        c = discretize_controls(p, g.rho)
        table = InterventionTable(p, g, c, 0.0)
        assert table._reset is p.impulse_cost
        assert table.same_data_at(0.5) and table.same_data_at(1.0)
        assert not table.same_data_at(1.5)
        assert p.impulse_shift not in seen and p.impulse_cost not in seen
        assert len(bounds_calls) == 4

    def test_semilagrangian_solve_agrees_with_the_block_layout(self):
        p = builtin("cash")
        g = build_boundary_refined_grid(Q=4, rho=0.1, c_b=1.0, N=20, T=p.horizon)
        c = discretize_controls(p, g.rho)
        reset = solve_semi_lagrangian(p, g, c)
        block = solve_semi_lagrangian(undeclared(p), g, c)
        assert np.abs(reset.surface - block.surface).max() <= 1e-12
        for a, b in zip(reset.policies[:-1], block.policies[:-1]):
            assert np.array_equal(a.intervene, b.intervene)
            assert np.array_equal(a.impulses[a.intervene], b.impulses[b.intervene])


def counted_bounds(bounds, calls):
    def counted(t, x):
        calls.append(x)
        return bounds(t, x)
    return counted


class TestImpulseBoundsOn:
    """One array call to ``impulse_bounds`` when it is array-aware, else one call per node."""

    GRID = build_uniform_grid(Q=2, M=8, N=1, T=1)

    def bounds_on(self, bounds, t=0.25):
        calls = []
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    impulse_bounds=counted_bounds(bounds, calls))
        lo, hi = impulse_bounds_on(p, t, self.GRID.nodes)
        per_node = np.array([bounds(t, x) for x in self.GRID.nodes.tolist()], dtype=float)
        assert np.array_equal(lo, per_node[:, 0]) and np.array_equal(hi, per_node[:, 1])
        return calls

    @pytest.mark.parametrize("bounds", [
        *(builtin(name).impulse_bounds for name in ("constant", "heat", "cash")),
        lambda t, x: (-1.0 - 0.1 * np.abs(x), 1.0 + 0.1 * np.abs(x) + t),   # ragged
        lambda t, x: (0.0, TINY * (1 + (x > 0))),                          # scalar lo
    ], ids=["constant", "heat", "cash", "ragged", "scalar-lo"])
    def test_array_aware_bounds_take_one_call(self, bounds):
        calls = self.bounds_on(bounds)
        assert len(calls) == 1 and isinstance(calls[0], np.ndarray)

    @pytest.mark.parametrize("bounds", [
        lambda t, x: (0.5, 0.5 + max(x, 0.0)),
        lambda t, x: (-1.0, 2.0) if x == 1.0 and t > 0.0 else (-1.0, 1.0),
        lambda t, x: (-1.0, 1.0) if np.ndim(x) == 0 else (np.zeros(3), np.ones(3)),
        lambda t, x: (-1.0, 1.0) if np.ndim(x) == 0 else (x[:, None] - 1.0, x[:, None] + 1.0),
        lambda t, x: (-1.0, 1.0) if np.ndim(x) == 0 else np.column_stack([x - 1.0, x + 1.0]),
    ], ids=["max", "and", "wrong-length", "column", "nodes-by-two"])
    def test_other_bounds_fall_back_per_node(self, bounds):
        calls = self.bounds_on(bounds)
        assert len(calls) == 1 + self.GRID.n_nodes
        assert all(isinstance(x, float) for x in calls[1:])

    def test_array_path_names_the_bad_node(self):
        p = replace(jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z),
                    impulse_bounds=lambda t, x: (-1.0 + 0.0 * x, np.where(x == 1.0, np.nan, 1.0)))
        with pytest.raises(ValueError, match=r"non-finite impulse bounds at \(t=0\.5, x=1\.0\)"):
            impulse_bounds_on(p, 0.5, self.GRID.nodes)


def brute_force_intervention(u, grid, t, problem, controls):
    """Independent double loop with numpy's interpolation as the reference."""
    values, impulses = [], []
    for x in grid.nodes:
        best, best_z = -np.inf, None
        for z in uniform_sample(*problem.impulse_bounds(t, float(x)), controls.rho):
            target = float(x) + float(problem.impulse_shift(t, float(x), float(z)))
            val = float(np.interp(target, grid.nodes, u)) \
                + float(problem.impulse_cost(t, float(x), float(z)))
            if val > best:
                best, best_z = val, float(z)
        values.append(best)
        impulses.append(best_z)
    return np.array(values), np.array(impulses)


class TestApplyIntervention:
    def test_constant_function_shifts_by_cost(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z)
        c = discretize_controls(p, rho=0.5)
        u = np.full(GRID5.n_nodes, 7.0)
        res = InterventionTable(p, GRID5, c, 0.0).apply(u)
        assert np.allclose(res.values, 6.0)

    def test_two_candidate_example(self):
        # Jump straight to z with cost -2; candidates z in {0, 2} from x = 1.
        p = jump_problem(lambda t, x, z: z - x, lambda t, x, z: -2.0 + 0.0 * z,
                         bounds=(0.0, 2.0))
        c = discretize_controls(p, rho=2.0)   # endpoints only: {0, 2}
        g = build_uniform_grid(Q=2, M=1, N=1, T=1)  # nodes -2, 0, 2... no: M=1 -> -2,0,2
        u = np.array([0.0, 0.0, 20.0])
        res = InterventionTable(p, g, c, 0.0).apply(u)
        at_zero = g.offset(0)
        assert res.values[at_zero] == pytest.approx(18.0)
        assert res.impulses[at_zero] == 2.0

    def test_tie_breaks_to_smallest_impulse(self):
        # Zero shift with flat cost: every z ties, so the smallest one wins.
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z)
        c = discretize_controls(p, rho=0.25)
        u = np.zeros(GRID5.n_nodes)
        res = InterventionTable(p, GRID5, c, 0.0).apply(u)
        assert np.all(res.impulses == -1.0)

    def test_monotone_in_values(self):
        p = jump_problem(lambda t, x, z: z - x, lambda t, x, z: -1.0 - 0.1 * abs(z))
        c = discretize_controls(p, rho=0.3)
        g = build_uniform_grid(Q=2, M=6, N=1, T=1)
        rng = np.random.default_rng(11)
        for _ in range(20):
            lo = rng.normal(size=g.n_nodes)
            hi = lo + rng.uniform(0, 2, size=g.n_nodes)
            r_lo = InterventionTable(p, g, c, 0.0).apply(lo)
            r_hi = InterventionTable(p, g, c, 0.0).apply(hi)
            assert np.all(r_lo.values <= r_hi.values + 1e-12)

    def test_shift_equivariance(self):
        p = jump_problem(lambda t, x, z: z - x, lambda t, x, z: -2.0 + 0.0 * z)
        c = discretize_controls(p, rho=0.3)
        g = build_uniform_grid(Q=2, M=6, N=1, T=1)
        u = np.sin(g.nodes)
        base = InterventionTable(p, g, c, 0.0).apply(u)
        shifted = InterventionTable(p, g, c, 0.0).apply(u + 4.2)
        assert np.allclose(shifted.values, base.values + 4.2)

    def test_bounded_by_max_plus_worst_cost(self):
        p = jump_problem(lambda t, x, z: z - x, lambda t, x, z: -1.5 + 0.0 * z)
        c = discretize_controls(p, rho=0.3)
        g = build_uniform_grid(Q=2, M=6, N=1, T=1)
        u = np.cos(3 * g.nodes)
        res = InterventionTable(p, g, c, 0.0).apply(u)
        assert res.values.max() <= u.max() - 1.5 + 1e-12
        assert res.values.max() < u.max()

    def test_matches_brute_force_loop(self):
        p = jump_problem(lambda t, x, z: z - 0.5 * x, lambda t, x, z: -1.0 - 0.2 * z * z)
        c = discretize_controls(p, rho=0.21)
        g = build_uniform_grid(Q=2, M=5, N=1, T=1)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal(size=g.n_nodes)
            res = InterventionTable(p, g, c, 0.0).apply(u)
            ref_vals, ref_z = brute_force_intervention(u, g, 0.0, p, c)
            assert np.allclose(res.values, ref_vals, atol=1e-12)
            assert np.array_equal(res.impulses, ref_z)

    def test_empty_impulse_set_rejected(self):
        p = jump_problem(lambda t, x, z: 0.0 * z, lambda t, x, z: -1.0 + 0.0 * z,
                         bounds=(1.0, -1.0))
        c = discretize_controls(p, rho=0.5)
        with pytest.raises(ValueError, match="empty impulse set"):
            InterventionTable(p, GRID5, c, 0.0).apply(np.zeros(GRID5.n_nodes))

    def test_state_dependent_impulse_sets(self):
        # Interval width varies with x, so candidate counts differ per node;
        # the padded candidate block must still match the brute force.
        p = replace(
            jump_problem(lambda t, x, z: z - x, lambda t, x, z: -1.0 + 0.0 * z),
            impulse_bounds=lambda t, x: (-1.0 - abs(x), 1.0 + abs(x)),
        )
        g = build_uniform_grid(Q=2, M=5, N=1, T=1)
        c = discretize_controls(p, rho=0.35)
        sizes = {uniform_sample(*p.impulse_bounds(0.0, float(x)), c.rho).size for x in g.nodes}
        assert len(sizes) > 1
        rng = np.random.default_rng(8)
        u = rng.normal(size=g.n_nodes)
        res = InterventionTable(p, g, c, 0.0).apply(u)
        ref_vals, ref_z = brute_force_intervention(u, g, 0.0, p, c)
        assert np.allclose(res.values, ref_vals, atol=1e-12)
        assert np.array_equal(res.impulses, ref_z)

    def test_jump_rows_read_back_the_chosen_candidates(self):
        # Ragged candidate sets: the padded copies must not shadow the first
        # match, and the read-back weights reproduce the chosen values.
        p = replace(
            jump_problem(lambda t, x, z: z - x, lambda t, x, z: -1.0 - 0.1 * np.abs(z)),
            impulse_bounds=lambda t, x: (-1.0 - abs(x), 1.0 + abs(x)),
        )
        g = build_uniform_grid(Q=2, M=5, N=1, T=1)
        table = InterventionTable(p, g, discretize_controls(p, rho=0.35), 0.0)
        u = np.random.default_rng(3).normal(size=g.n_nodes)
        res = table.apply(u)
        rows = np.arange(g.n_nodes)
        ((k, w_k), (k_next, w_next)), cost = table.jump_rows(rows, res.impulses)
        assert np.all(w_k > 0.0) and np.all(w_next >= 0.0)
        assert np.array_equal(k_next, k + 1) and k_next.max() < g.n_nodes
        assert np.array_equal(w_k * u[k] + w_next * u[k_next] + cost, res.values)
        with pytest.raises(ValueError, match="node index 0"):
            table.jump_rows(rows, np.full(g.n_nodes, 0.123))

    @pytest.mark.parametrize("field, late", [
        (None, None),
        ("impulse_bounds", lambda t, x: (-1.0 - abs(x), 1.0 + abs(x) + (t > 0.5) * (x == 2.0))),
        ("impulse_bounds", lambda t, x: (-1.0 - abs(x) - (t > 0.5) * (x == -2.0), 1.0 + abs(x))),
        ("impulse_shift", lambda t, x, z: z - x + (t > 0.5) * (x == 0.0) * (z == -1.0)),
        ("impulse_cost", lambda t, x, z: -1.0 - 0.1 * np.abs(z) - 1e-9 * (t > 0.5) * (x == 0.4)),
    ])
    def test_same_data_at_compares_bounds_shifts_and_costs(self, field, late):
        # Ragged candidate sets; each variant changes one datum at one node
        # for t > 0.5 only, and the table built at t = 0 must notice it.
        p = replace(
            jump_problem(lambda t, x, z: z - x, lambda t, x, z: -1.0 - 0.1 * np.abs(z)),
            impulse_bounds=lambda t, x: (-1.0 - abs(x), 1.0 + abs(x)),
        )
        if field is not None:
            p = replace(p, **{field: late})
        g = build_uniform_grid(Q=2, M=5, N=1, T=1)
        table = InterventionTable(p, g, discretize_controls(p, rho=0.35), 0.0)
        assert table.same_data_at(0.0) and table.same_data_at(0.4)
        assert table.same_data_at(0.7) == (field is None)

    def test_same_data_at_evaluates_the_shift_once(self):
        # The table keeps the shift block of its build, so a check evaluates
        # the shift only at the new time.
        times = []

        def shift(t, x, z):
            times.append(float(np.ravel(t)[0]))
            return z - x

        p = jump_problem(shift, lambda t, x, z: -1.0 - 0.1 * np.abs(z))
        g = build_uniform_grid(Q=2, M=5, N=1, T=1)
        table = InterventionTable(p, g, discretize_controls(p, rho=0.35), 0.0)
        assert times == [0.0]
        assert table.same_data_at(0.4)
        assert times == [0.0, 0.4]
