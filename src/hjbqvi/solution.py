"""Shared solver types, the backward induction of the finite-horizon solvers
and the check of a solver's grid against its problem.

A solve has one setting, :class:`SolverConfig`'s ``c_eps``; everything else
that shapes a solve is the problem, the grid and the discrete controls."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpaceTimeGrid
from .problem import ProblemSpec


@dataclass(frozen=True)
class SolverConfig:
    """The one setting of a solve: ``c_eps`` sets the penalty parameter
    epsilon = c_eps * rho, which vanishes with the mesh as the scheme
    requires.  Policy iteration's stopping rules are constants of
    :mod:`penalty`."""

    c_eps: float = 1.0

    def __post_init__(self):
        if not 0 < self.c_eps < np.inf:
            raise ValueError(f"c_eps must be finite and positive, got {self.c_eps!r}")


def default_epsilon(grid: SpaceTimeGrid, cfg: SolverConfig) -> float:
    """The penalty parameter epsilon = c_eps * rho, which vanishes with the mesh."""
    return cfg.c_eps * grid.rho


@dataclass(eq=False)
class PenaltyPolicy:
    """Per-node controls frozen for one linear policy-evaluation solve, kept
    as indices into value tables that every policy of a solve shares.

    ``control_rows`` holds each node's row of ``control_values`` (a solve's
    ``controls.controls``), in the smallest unsigned dtype that holds the
    last row, ``intervene`` is the penalty-active indicator, and
    ``impulse_columns`` (int32) each node's column in ``candidates``, the
    nodes x K candidate array of the jump table that chose it, or -1 where
    the operator has none (an optimal-stopping obstacle).  The tables are
    references, never copies, so a stored policy owns at most 7 bytes per
    node for B up to 65536 controls (6 for B up to 256), against 17 for
    values.  ``controls`` and
    ``impulses`` gather the values: the chosen b_j, and the chosen z_j
    (meaningful where ``intervene`` is set, NaN at column -1).  The
    semi-Lagrangian right-hand side reuses the same record, with
    ``intervene`` marking nodes where the jump branch won.
    """

    control_rows: np.ndarray
    intervene: np.ndarray
    impulse_columns: np.ndarray
    control_values: np.ndarray
    candidates: np.ndarray

    def __post_init__(self):
        row_type = np.min_scalar_type(max(self.control_values.size - 1, 0))
        self.control_rows = np.asarray(self.control_rows).astype(row_type, copy=False)
        self.impulse_columns = np.asarray(self.impulse_columns).astype(np.int32, copy=False)

    @classmethod
    def chosen(cls, control_values, rows, intervene, jump) -> "PenaltyPolicy":
        """The policy of ``rows`` of ``control_values``, the indicator
        ``intervene`` and the impulses the jump result ``jump``
        (:class:`operators.InterventionResult`) chose, indexing the
        candidate array it read."""
        return cls(rows, intervene, jump.columns, control_values, jump.candidates)

    @property
    def controls(self) -> np.ndarray:
        return self.control_values[self.control_rows]

    @property
    def impulses(self) -> np.ndarray:
        return self.impulses_at(np.arange(self.impulse_columns.size))

    def impulses_at(self, nodes: np.ndarray) -> np.ndarray:
        """The chosen impulses at the node indices ``nodes``."""
        columns = self.impulse_columns[nodes]
        out = np.full(columns.shape, np.nan)
        chosen = columns >= 0
        out[chosen] = self.candidates[nodes[chosen], columns[chosen]]
        return out

    def same_as(self, other: "PenaltyPolicy") -> bool:
        """Whether both policies choose the same values at every node.  On
        the same tables that is the same indices: ties go to the first
        column, so one impulse is never chosen at two columns of one
        array."""
        if self.control_values is other.control_values and self.candidates is other.candidates:
            return (np.array_equal(self.control_rows, other.control_rows)
                    and np.array_equal(self.intervene, other.intervene)
                    and np.array_equal(self.impulse_columns, other.impulse_columns))
        return (
            np.array_equal(self.controls, other.controls, equal_nan=True)
            and np.array_equal(self.intervene, other.intervene)
            and np.array_equal(self.impulses, other.impulses, equal_nan=True)
        )


@dataclass
class TimestepDiagnostics:
    time_index: int
    iterations: int
    updates: list[float] = field(default_factory=list)
    final_residual: float = 0.0
    min_dominance_margin: float = np.inf


@dataclass
class SolveDiagnostics:
    timesteps: list[TimestepDiagnostics] = field(default_factory=list)
    matrix_systems_checked: int = 0     # each passed: a failing system raises
    min_dominance_margin: float = np.inf
    # Controls each control maximum reads per node: the sample's size B, or
    # the padded count H of operators.candidate_rows (4 for cash).
    control_rows: int = 0
    # Semi-Lagrangian bookkeeping.
    oversteps: int = 0
    interior_oversteps: int = 0
    inward_drift: bool | None = None
    # Iterated-optimal-stopping bookkeeping (per outer pass).
    outer_changes: list[float] = field(default_factory=list)
    outer_min_increments: list[float] = field(default_factory=list)

    def record_step(self, step: TimestepDiagnostics) -> None:
        self.timesteps.append(step)
        # One system per policy iteration.  It is assembled and checked, or
        # it is bit-identical to the system before it, which passed its check.
        self.matrix_systems_checked += step.iterations
        self.min_dominance_margin = min(self.min_dominance_margin, step.min_dominance_margin)

    @property
    def outer_iterations(self) -> int:
        return len(self.outer_changes)

    def iteration_stats(self) -> dict:
        counts = [s.iterations for s in self.timesteps]
        if not counts:
            return {"mean": 0.0, "max": 0}
        return {"mean": float(np.mean(counts)), "max": int(max(counts))}

    def max_final_residual(self) -> float:
        if not self.timesteps:
            return 0.0
        return max(s.final_residual for s in self.timesteps)


@dataclass
class Solution:
    """A solved surface plus everything needed to audit it.

    ``surface`` has one row per time level of the grid: u^0 ... u^N for
    finite-horizon solves, the single row u^0 for stationary solves on a
    grid with no time axis (N = 0).  ``policies[n]`` is the
    policy that produced u^n; the terminal entry is None because the
    terminal row is data, not a solve.  ``epsilon`` is the penalty parameter
    of the solve, :func:`default_epsilon`, and None for the semi-Lagrangian
    scheme, which has no penalty term.
    """

    grid: SpaceTimeGrid
    scheme: str
    surface: np.ndarray
    policies: list[PenaltyPolicy | None]
    diagnostics: SolveDiagnostics
    epsilon: float | None = None

    @property
    def terminal(self) -> np.ndarray:
        return self.surface[-1]

    def sup_norm(self) -> float:
        return float(np.abs(self.surface).max())


def require_time_axis(problem: ProblemSpec, grid: SpaceTimeGrid,
                      stationary: bool = False) -> None:
    """ValueError unless a ``stationary`` solver gets a discounted problem on a
    grid with no time axis (N = T = 0), and any other solver a finite-horizon
    problem on a grid of N >= 1 steps up to its horizon."""
    if stationary and (problem.finite_horizon or grid.N != 0):
        raise ValueError("a stationary solve needs a discounted problem on a grid with no time "
                         f"axis (N = T = 0), got horizon {problem.horizon!r} and N = {grid.N}")
    if not stationary and (grid.N == 0 or grid.T != problem.horizon):
        raise ValueError("this solver needs a finite-horizon problem on a grid with N >= 1 steps "
                         f"up to its horizon {problem.horizon!r}, got N = {grid.N}, T = {grid.T!r}")


def backward_induction(grid: SpaceTimeGrid, terminal, step):
    """(surface, policies) of (u^n, policy) = step(u^{n+1}, n) for n = N-1 ... 0,
    from row N = ``terminal``, each call given what the previous returned;
    ``policies[N]`` is None."""
    surface = np.empty((grid.N + 1, grid.n_nodes))
    surface[grid.N] = terminal
    policies: list[PenaltyPolicy | None] = [None] * (grid.N + 1)
    u = surface[grid.N]
    for n in range(grid.N - 1, -1, -1):
        u, policies[n] = step(u, n)
        surface[n] = u
    return surface, policies
