import numpy as np
import pytest

from hjbqvi.grid import (
    as_growing_q,
    boundary_cell_width,
    build_boundary_refined_grid,
    build_uniform_grid,
    grid_for_level,
)


def grids_equal(a, b):
    scalar_fields = ("mode", "rho", "Q", "T", "N", "c_t", "c_x", "c_b", "c_q", "alpha")
    return all(getattr(a, f) == getattr(b, f) for f in scalar_fields) \
        and np.array_equal(a.nodes, b.nodes)


class TestUniformGrid:
    def test_small_example(self):
        g = build_uniform_grid(Q=2, M=2, N=4, T=1)
        assert np.array_equal(g.nodes, [-2, -1, 0, 1, 2])
        assert g.dt == 0.25

    def test_smallest_grid(self):
        g = build_uniform_grid(Q=1, M=1, N=1, T=1)
        assert np.array_equal(g.nodes, [-1, 0, 1])
        assert g.dt == 1.0

    def test_rho_is_max_of_mesh_sizes(self):
        g = build_uniform_grid(Q=3, M=6, N=10, T=2)
        assert g.dx_max == pytest.approx(0.5)
        assert g.dt == pytest.approx(0.2)
        assert g.rho == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(Q=0, M=2, N=2, T=1), dict(Q=2, M=0, N=2, T=1),
        dict(Q=2, M=2, N=0, T=1), dict(Q=2, M=2, N=2, T=0),
        dict(Q=-1, M=2, N=2, T=1), dict(Q=np.inf, M=2, N=2, T=1),
        dict(Q=np.nan, M=2, N=2, T=1), dict(Q=2, M=2, N=2, T=np.inf),
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            build_uniform_grid(**kwargs)


class TestBoundaryRefinedGrid:
    def test_cell_widths(self):
        g = build_boundary_refined_grid(Q=2, rho=0.01, c_b=1.0, N=10, T=1)
        width = g.nodes[1] - g.nodes[0]
        assert width == pytest.approx(0.01 ** 0.75)
        interior = np.diff(g.nodes[1:-1])
        assert np.allclose(interior, 0.01, rtol=0.05)
        assert g.nodes[-1] - g.nodes[-2] == pytest.approx(width)

    def test_width_vanishes_relative_to_sqrt_rho(self):
        ratio = boundary_cell_width(1e-4, 1.0) / np.sqrt(1e-4)
        assert ratio == pytest.approx(0.1)

    def test_boundary_cell_wider_than_domain_rejected(self):
        with pytest.raises(ValueError, match="boundary cell"):
            build_boundary_refined_grid(Q=1, rho=0.9, c_b=2.0, N=4, T=1)

    def test_width_trend_over_levels(self):
        # Sublinear in sqrt(rho), superlinear in rho: the two normalized
        # widths must trend monotonically over at least three levels.
        base = build_boundary_refined_grid(Q=2, rho=0.05, c_b=1.0, N=20, T=1)
        over_sqrt, over_rho = [], []
        for level in range(4):
            g = grid_for_level(base, level)
            width = g.nodes[1] - g.nodes[0]
            over_sqrt.append(width / np.sqrt(g.rho))
            over_rho.append(width / g.rho)
        assert all(a > b for a, b in zip(over_sqrt, over_sqrt[1:]))
        assert all(a < b for a, b in zip(over_rho, over_rho[1:]))


class TestGridForLevel:
    def test_uniform_halving(self):
        base = build_uniform_grid(Q=2, M=4, N=4, T=1)
        fine = grid_for_level(base, 1)
        assert fine.Q == base.Q
        assert fine.dt == base.dt / 2
        assert fine.dx_max == pytest.approx(base.dx_max / 2)
        assert fine.rho == base.rho / 2

    def test_growing_q_scales_domain(self):
        base = as_growing_q(build_uniform_grid(Q=2, M=4, N=4, T=1), alpha=0.25)
        fine = grid_for_level(base, 2)
        assert fine.rho == base.rho / 4
        # Q grows by 4**0.25 = sqrt(2), up to the node-rounding of M.
        assert abs(fine.Q - base.Q * np.sqrt(2)) <= fine.dx_max

    def test_level_zero_is_identity(self):
        base = build_uniform_grid(Q=2, M=4, N=4, T=1)
        assert grid_for_level(base, 0) is base

    def test_negative_level_rejected(self):
        base = build_uniform_grid(Q=2, M=4, N=4, T=1)
        with pytest.raises(ValueError):
            grid_for_level(base, -1)

    @pytest.mark.parametrize("make_base", [
        lambda: build_uniform_grid(Q=2, M=4, N=4, T=1),
        lambda: build_boundary_refined_grid(Q=2, rho=0.02, c_b=1.0, N=50, T=1),
        lambda: as_growing_q(build_uniform_grid(Q=2, M=4, N=4, T=1), alpha=0.25),
    ])
    def test_levels_compose_in_all_fields(self, make_base):
        base = make_base()
        direct = grid_for_level(base, 3)
        nested = grid_for_level(grid_for_level(base, 1), 2)
        assert grids_equal(direct, nested)


class TestStationaryGrid:
    """N = T = 0, the builders' default, is a grid with no time axis."""

    @pytest.mark.parametrize("make_grid, rho", [
        (lambda: build_uniform_grid(Q=3, M=6), 0.5),
        (lambda: build_boundary_refined_grid(Q=3, rho=0.05, c_b=1.5), 0.05),
        (lambda: as_growing_q(build_uniform_grid(Q=3, M=6)), 0.5),
    ], ids=["uniform", "boundary_refined", "growing_q"])
    def test_no_time_axis_and_rho_is_the_spacing(self, make_grid, rho):
        g = make_grid()
        assert (g.N, g.T, g.dt) == (0, 0.0, 0.0)
        assert np.array_equal(g.times(), [0.0])
        assert g.rho == rho
        fine = grid_for_level(g, 2)
        assert (fine.N, fine.T, fine.dt) == (0, 0.0, 0.0)
        assert fine.rho == rho / 4

    @pytest.mark.parametrize("N, T", [(0, 1.0), (4, 0.0)])
    def test_half_a_time_axis_rejected(self, N, T):
        # build_uniform_grid's cases are in TestUniformGrid.test_rejects_nonpositive.
        with pytest.raises(ValueError, match="must be finite and positive"):
            build_boundary_refined_grid(Q=2, rho=0.1, c_b=1.0, N=N, T=T)


class TestNodeInvariants:
    @pytest.mark.parametrize("make_grid", [
        lambda: build_uniform_grid(Q=3, M=7, N=5, T=2),
        lambda: build_boundary_refined_grid(Q=3, rho=0.05, c_b=1.5, N=10, T=2),
        lambda: grid_for_level(as_growing_q(build_uniform_grid(Q=3, M=6, N=5, T=2)), 2),
    ])
    def test_increasing_symmetric_endpoints(self, make_grid):
        g = make_grid()
        assert np.all(np.diff(g.nodes) > 0)
        assert np.abs(g.nodes + g.nodes[::-1]).max() == 0.0
        assert g.nodes[0] == -g.Q
        assert g.nodes[-1] == g.Q
        assert g.nodes.size == 2 * g.M + 1

    def test_n_dt_recovers_horizon(self):
        g = build_uniform_grid(Q=2, M=4, N=7, T=1.3)
        assert g.N * g.dt == pytest.approx(g.T, abs=1e-15)

    def test_offset_bounds(self):
        g = build_uniform_grid(Q=2, M=4, N=4, T=1)
        assert g.offset(-4) == 0 and g.offset(4) == 8
        with pytest.raises(IndexError):
            g.offset(5)

    def test_growing_q_requires_uniform_base(self):
        refined = build_boundary_refined_grid(Q=2, rho=0.05, c_b=1.0, N=4, T=1)
        with pytest.raises(ValueError):
            as_growing_q(refined)
