"""Space-time grids for the 1-D schemes.

Every grid lives on the symmetric interval [-Q, Q] with 2M+1 strictly
increasing nodes x_{-M} < ... < x_M, x_{+-M} = +-Q, and N timesteps of size
dt = T/N.  A single refinement parameter rho drives all mesh quantities
through stored proportionality constants (dt = c_t * rho, interior spacing
= c_x * rho), so halving rho refines time and space together.

N = T = 0, the builders' default, is a stationary grid for discounted
problems: it has no time axis, dt = 0, ``times()`` is [0], and rho is the
spacing alone.

Modes:

``uniform``
    Equally spaced nodes, Q fixed under refinement.
``boundary_refined``
    Interior spacing ~ rho, but the two boundary cells have width
    c_b * rho**(3/4).  The width is o(sqrt(rho)) and omega(rho), which is
    what the semi-Lagrangian scheme needs to avoid foot points stepping
    past +-Q while keeping the interpolation error vanishing.
``growing_q``
    Uniform spacing with Q = c_q * rho**(-alpha), so the truncated domain
    expands as the mesh is refined (Q = M dx -> infinity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNIFORM = "uniform"
BOUNDARY_REFINED = "boundary_refined"
GROWING_Q = "growing_q"

MODES = (UNIFORM, BOUNDARY_REFINED, GROWING_Q)

#: Exponent for the boundary cell width of refined grids.  Any value in
#: (1/2, 1) keeps the width o(sqrt(rho)) and omega(rho); 3/4 balances the
#: interpolation error against the overstep margin.
BOUNDARY_WIDTH_EXPONENT = 0.75


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Immutable space-time grid; safe to share across threads."""

    mode: str
    rho: float
    Q: float
    T: float
    N: int
    nodes: np.ndarray
    c_t: float
    c_x: float
    c_b: float | None = None
    c_q: float | None = None
    alpha: float | None = None

    @property
    def M(self) -> int:
        return (self.nodes.size - 1) // 2

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def dt(self) -> float:
        return self.T / self.N if self.N else 0.0

    @cached_property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def dx_max(self) -> float:
        return float(self.spacings.max())

    def offset(self, j: int) -> int:
        """Map a signed node index j in [-M, M] to an array offset."""
        m = self.M
        if not -m <= j <= m:
            raise IndexError(f"node index {j} outside [-{m}, {m}]")
        return j + m

    def node(self, j: int) -> float:
        return float(self.nodes[self.offset(j)])

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.N + 1)

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "rho": self.rho,
            "Q": self.Q,
            "T": self.T,
            "M": self.M,
            "N": self.N,
            "dt": self.dt,
            "dx_max": self.dx_max,
        }


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_whole(**values) -> None:
    """ValueError naming the first count that is a bool or not a whole number."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or value != int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _time_step(N, T) -> float:
    """dt = T/N, or 0 on a stationary grid (N = T = 0); else N > 0 whole and T > 0."""
    if not N == T == 0:
        _require_positive(N=N, T=T)
    _require_whole(N=N)
    return T / N if N else 0.0


def build_uniform_grid(Q: float, M: int, N: int = 0, T: float = 0.0) -> SpaceTimeGrid:
    """Uniform grid: 2M+1 equally spaced nodes on [-Q, Q], dt = T/N.

    The refinement parameter is recorded as rho = max(dt, dx) so that both
    mesh sizes stay proportional to rho under halving; on a stationary grid
    (N = T = 0) it is dx.
    """
    _require_positive(Q=Q, M=M)
    _require_whole(M=M)
    dt = _time_step(N, T)
    M, N = int(M), int(N)
    dx = Q / M
    nodes = np.arange(-M, M + 1, dtype=float) * dx
    nodes[0], nodes[-1] = -Q, Q
    rho = max(dt, dx)
    return SpaceTimeGrid(
        mode=UNIFORM, rho=rho, Q=float(Q), T=float(T), N=N, nodes=nodes,
        c_t=dt / rho, c_x=dx / rho,
    )


def boundary_cell_width(rho: float, c_b: float) -> float:
    return c_b * rho ** BOUNDARY_WIDTH_EXPONENT


def build_boundary_refined_grid(
    Q: float, rho: float, c_b: float, N: int = 0, T: float = 0.0
) -> SpaceTimeGrid:
    """Grid with interior spacing ~ rho and boundary cells of width c_b * rho**(3/4).

    The interior cell count is rounded (to an even number, so the node set
    stays symmetric about 0) so that nodes land exactly on +-Q.
    """
    _require_positive(Q=Q, rho=rho, c_b=c_b)
    dt = _time_step(N, T)
    width = boundary_cell_width(rho, c_b)
    if width >= Q:
        raise ValueError(
            f"boundary cell width {width:g} = c_b*rho**{BOUNDARY_WIDTH_EXPONENT} "
            f"is not smaller than Q = {Q:g}; decrease rho or c_b"
        )
    half = Q - width
    m = int(round(2.0 * half / rho))
    m = max(2, m + (m % 2))
    h = 2.0 * half / m
    inner = np.arange(-(m // 2), m // 2 + 1, dtype=float) * h
    inner[0], inner[-1] = -half, half
    nodes = np.concatenate(([-Q], inner, [Q]))
    return SpaceTimeGrid(
        mode=BOUNDARY_REFINED, rho=float(rho), Q=float(Q), T=float(T), N=int(N),
        nodes=nodes, c_t=dt / rho, c_x=h / rho, c_b=float(c_b),
    )


def as_growing_q(grid: SpaceTimeGrid, alpha: float = 0.25) -> SpaceTimeGrid:
    """Re-tag a uniform grid so refinement grows Q as c_q * rho**(-alpha)."""
    if grid.mode != UNIFORM:
        raise ValueError(f"growing_q refinement starts from a uniform grid, got {grid.mode!r}")
    _require_positive(alpha=alpha)
    c_q = grid.Q * grid.rho ** alpha
    return SpaceTimeGrid(
        mode=GROWING_Q, rho=grid.rho, Q=grid.Q, T=grid.T, N=grid.N,
        nodes=grid.nodes, c_t=grid.c_t, c_x=grid.c_x,
        c_q=c_q, alpha=float(alpha),
    )


def grid_for_level(base: SpaceTimeGrid, level: int) -> SpaceTimeGrid:
    """Grid at refinement level ``level``: rho halved per level.

    Uniform grids keep Q fixed; growing_q grids rescale Q = c_q * rho**(-alpha)
    (with M rounded so nodes land on +-Q = M dx).  All derived fields are
    recomputed from the base grid's stored constants, so levels compose:
    ``grid_for_level(g, a + b)`` equals ``grid_for_level(grid_for_level(g, a), b)``.
    """
    level = int(level)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level == 0:
        return base
    scale = 2 ** level
    if base.mode == UNIFORM:
        return build_uniform_grid(base.Q, base.M * scale, base.N * scale, base.T)
    if base.mode == BOUNDARY_REFINED:
        return build_boundary_refined_grid(
            base.Q, base.rho / scale, base.c_b, base.N * scale, base.T
        )
    if base.mode == GROWING_Q:
        # Rebuild from the stored constants only (never from derived fields of
        # an intermediate level), so that levels compose bit-exactly.
        rho = base.rho / scale
        dx = base.c_x * rho
        M = max(1, int(round(base.c_q * rho ** (-base.alpha) / dx)))
        nodes = np.arange(-M, M + 1, dtype=float) * dx
        return SpaceTimeGrid(
            mode=GROWING_Q, rho=rho, Q=M * dx, T=base.T, N=base.N * scale,
            nodes=nodes, c_t=base.c_t, c_x=base.c_x,
            c_q=base.c_q, alpha=base.alpha,
        )
    raise ValueError(f"unknown grid mode {base.mode!r}")
