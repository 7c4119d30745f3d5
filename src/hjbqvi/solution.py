"""Shared solver types: configuration, policies, diagnostics, solutions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SpaceTimeGrid

FINITE = "finite"
INFINITE = "infinite"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-timestep policy iteration.

    ``c_eps`` scales the default penalty parameter epsilon = c_eps * rho,
    which vanishes with the mesh as the scheme requires.
    """

    tol: float = 1e-10
    residual_tol: float = 1e-8
    max_iters: int = 100
    c_eps: float = 1.0

    def __post_init__(self):
        if self.tol <= 0 or self.residual_tol <= 0 or self.c_eps <= 0 or self.max_iters < 1:
            raise ValueError("tol, residual_tol, c_eps must be positive and max_iters >= 1")


def default_epsilon(grid: SpaceTimeGrid, cfg: SolverConfig) -> float:
    """The penalty parameter epsilon = c_eps * rho, which vanishes with the mesh."""
    return cfg.c_eps * grid.rho


@dataclass(eq=False)
class PenaltyPolicy:
    """Per-node controls frozen for one linear policy-evaluation solve.

    ``controls`` is the chosen control b_j, ``intervene`` the penalty-active
    indicator, and ``impulses`` the chosen impulse z_j (meaningful where
    ``intervene`` is set).  The semi-Lagrangian right-hand side reuses the
    same record, with ``intervene`` marking nodes where the jump branch won.
    """

    controls: np.ndarray
    intervene: np.ndarray
    impulses: np.ndarray

    def same_as(self, other: "PenaltyPolicy") -> bool:
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
    matrix_systems: int = 0
    min_dominance_margin: float = np.inf
    policy: "PenaltyPolicy | None" = None


@dataclass
class SolveDiagnostics:
    timesteps: list[TimestepDiagnostics] = field(default_factory=list)
    matrix_systems_checked: int = 0
    matrix_systems_passed: int = 0
    min_dominance_margin: float = np.inf
    # Semi-Lagrangian bookkeeping.
    oversteps: int = 0
    interior_oversteps: int = 0
    inward_drift: bool | None = None
    step_min: list[float] = field(default_factory=list)
    step_max: list[float] = field(default_factory=list)
    # Iterated-optimal-stopping bookkeeping (per outer pass).
    outer_changes: list[float] = field(default_factory=list)
    outer_min_increments: list[float] = field(default_factory=list)
    outer_iterations: int = 0

    def record_step(self, step: TimestepDiagnostics) -> None:
        self.timesteps.append(step)
        self.matrix_systems_checked += step.matrix_systems
        self.matrix_systems_passed += step.matrix_systems
        self.min_dominance_margin = min(self.min_dominance_margin, step.min_dominance_margin)

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

    ``surface`` has one row per time level (u^0 ... u^N) for finite-horizon
    solves and a single row for stationary solves.  ``policies[n]`` is the
    policy that produced u^n; the terminal entry is None because the
    terminal row is data, not a solve.
    """

    grid: SpaceTimeGrid
    scheme: str
    horizon: str
    surface: np.ndarray
    policies: list[PenaltyPolicy | None]
    diagnostics: SolveDiagnostics
    epsilon: float

    @property
    def terminal(self) -> np.ndarray:
        return self.surface[-1]

    @property
    def initial(self) -> np.ndarray:
        return self.surface[0]

    def sup_norm(self) -> float:
        return float(np.abs(self.surface).max())
