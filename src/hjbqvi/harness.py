"""Convergence studies and executable property checks.

Solutions are compared through their piecewise-constant extension: the value
at (t, x) is the value of the containing cell
[(n-1/2)dt, (n+1/2)dt) x [(j-1/2)dx, (j+1/2)dx) (nearest cell outside the
grid).  Errors are measured on an interior window, by default |x| <= Q/2,
because the truncation at +-Q pollutes a boundary layer and the convergence
statements are locally uniform.

The property checks mirror what the schemes guarantee: sup-norm stability
bounds, monotone matrix structure (on the sparse matrices the solvers
assemble), and monotonicity of the scheme in its off-node arguments
(randomized ordered pairs).  The scheme rows read their generator
coefficients from the stencil core the assembled systems are built from,
so the monotonicity check tests the solvers' own stencil; :func:`run_checks`
alone maps check names to checks.  Without a closed form, studies fall back
to self-convergence against the finest level and say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import penalty as penalty_mod
from . import semilag as semilag_mod
from .exceptions import SolverError
from .grid import SpaceTimeGrid, grid_for_level
from .matrices import MatrixReport, analyze_matrix
from .operators import DiscreteControls, discretize_controls
from .oracle import brute_force_residual, solve_iterated_optimal_stopping
from .problem import ProblemSpec, eval_on
from .solution import INFINITE, Solution, SolverConfig, default_epsilon

RESIDUAL_ORACLE_TOL = 1e-8
STABILITY_SLACK = 1e-8

PENALTY = "penalty"
SEMILAGRANGIAN = "semilagrangian"
IOS = "ios"
SCHEMES = (PENALTY, SEMILAGRANGIAN, IOS)

#: Property checks by name, in the order :func:`run_checks` runs and reports them.
CHECKS = ("stability", "matrices", "residual_oracle", "monotonicity")
MONOTONICITY_TRIALS = 100

#: Errors below this are treated as exactly resolved; observed orders on
#: such levels are undefined and flagged as None.
ORDER_FLOOR = 1e-12


@dataclass(frozen=True)
class Window:
    t_range: tuple[float, float]
    x_range: tuple[float, float]


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    value: float | None = None
    witness: str | None = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        detail = "" if self.value is None else f" (value {self.value:.6g})"
        tail = "" if self.witness is None else f": {self.witness}"
        return f"{self.name}: {status}{detail}{tail}"

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "value": self.value,
                "witness": self.witness}


@dataclass
class LevelResult:
    level: int
    rho: float
    grid_summary: dict
    scheme: str
    epsilon: float
    error: float | None = None
    observed_order: float | None = None
    iterations: dict = field(default_factory=dict)
    oversteps: int = 0                  # the level's solve diagnostics; 0 but
    interior_oversteps: int = 0         # for semi-Lagrangian levels
    checks: list[PropertyCheck] = field(default_factory=list)
    solve_failed: bool = False
    message: str | None = None

    @property
    def passed(self) -> bool:
        return not self.solve_failed and all(c.passed for c in self.checks)


@dataclass
class ConvergenceReport:
    problem_name: str
    scheme: str
    reference: str                      # "exact" or "self"
    window: Window
    levels: list[LevelResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(lv.passed for lv in self.levels)

    def errors(self) -> list[float | None]:
        return [lv.error for lv in self.levels]

    def to_dict(self) -> dict:
        levels = [
            {
                "level": lv.level,
                "rho": lv.rho,
                "grid": lv.grid_summary,
                "scheme": lv.scheme,
                "epsilon": lv.epsilon,
                "error": lv.error,
                "observed_order": lv.observed_order,
                "iterations": lv.iterations,
                "oversteps": lv.oversteps,
                "interior_oversteps": lv.interior_oversteps,
                "checks": [c.as_dict() for c in lv.checks],
                "solve_failed": lv.solve_failed,
                "message": lv.message,
            }
            for lv in self.levels
        ]
        return {
            "problem": self.problem_name,
            "scheme": self.scheme,
            "reference": self.reference,
            "window": {"t": list(self.window.t_range), "x": list(self.window.x_range)},
            "levels": levels,
            "passed": self.passed,
        }


def extend_solution(sol: Solution, t, x) -> float | np.ndarray:
    """Piecewise-constant extension: value of the containing (nearest) cell.

    ``t`` and ``x`` broadcast against each other; scalars give a float.
    """
    grid = sol.grid
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    if sol.horizon == INFINITE:
        n = np.zeros(t.shape, dtype=int)
    else:
        n = np.clip(np.floor(t / grid.dt + 0.5), 0, grid.N).astype(int)
    mids = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
    values = sol.surface[n, np.searchsorted(mids, x, side="right")]
    return float(values) if values.ndim == 0 else values


def _in_window(values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    return values[(values >= lo - 1e-12) & (values <= hi + 1e-12)]


def sup_error(sol: Solution, reference, window: Window) -> float:
    """Sup-norm disagreement on the window points of the finer grid.

    Against a callable reference that is the solution's own grid (where the
    extension is exact).  Against another Solution it is the finer of the
    two grids, both read through their piecewise-constant extensions.
    """
    finer = sol
    if isinstance(reference, Solution) and reference.grid.rho < sol.grid.rho:
        finer = reference
    grid = finer.grid
    xs = _in_window(grid.nodes, window.x_range)
    ts = np.zeros(1) if finer.horizon == INFINITE else _in_window(grid.times(), window.t_range)
    ts = ts[:, np.newaxis]
    if isinstance(reference, Solution):
        ref_vals = extend_solution(reference, ts, xs)
    else:
        ref_vals = eval_on(reference, ts, xs)
    return float(np.abs(extend_solution(sol, ts, xs) - ref_vals).max(initial=0.0))


def observed_orders(errors) -> list[float | None]:
    """log2 ratios of consecutive errors; None where undefined or resolved
    below the 1e-12 floor."""
    orders: list[float | None] = []
    for coarse, fine in zip(errors[:-1], errors[1:]):
        if coarse is None or fine is None or coarse <= ORDER_FLOOR or fine <= ORDER_FLOOR:
            orders.append(None)
        else:
            orders.append(float(np.log2(coarse / fine)))
    return orders


def check_stability_bound(sol: Solution, problem: ProblemSpec,
                          controls: DiscreteControls | None = None) -> PropertyCheck:
    """Sup-norm bound |g| + |f| T (finite horizon) or |f| / beta (discounted),
    with reward norms estimated on the grid and the discrete control set."""
    grid = sol.grid
    controls = controls or discretize_controls(problem, grid.rho)
    g_norm = float(np.abs(eval_on(problem.terminal_reward, grid.nodes)).max())
    times = grid.times() if sol.horizon != INFINITE else np.array([0.0])
    controls_col = controls.controls[:, np.newaxis]
    f_norm = max(float(np.abs(eval_on(problem.running_reward, t, grid.nodes, controls_col)).max())
                 for t in times)
    if sol.horizon == INFINITE:
        bound = f_norm / problem.discount
        name = "stability_bound_discounted"
    else:
        bound = g_norm + f_norm * problem.horizon
        name = "stability_bound"
    worst = sol.sup_norm()
    return PropertyCheck(
        name=name,
        passed=worst <= bound + STABILITY_SLACK,
        value=worst,
        witness=f"bound {bound:.6g}",
    )


def check_matrix_properties(system) -> MatrixReport:
    """Sign pattern, dominance and WCDD for any assembled system.

    Accepts a penalty SparseSystem, a scipy sparse matrix (such as the
    semi-Lagrangian ``assemble_A``) or a dense array.
    """
    return analyze_matrix(getattr(system, "matrix", system))


def check_solution_matrices(sol: Solution) -> PropertyCheck:
    """Did the solve assemble and check any system.  A system that fails its
    structural check raises during the solve, so every counted one passed."""
    d = sol.diagnostics
    return PropertyCheck(
        name="matrix_properties",
        passed=d.matrix_systems_checked > 0,
        value=float(d.min_dominance_margin),
        witness=f"{d.matrix_systems_checked}/{d.matrix_systems_checked} systems",
    )


@dataclass
class MonotonicityReport:
    trials: int
    violations: int
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_monotonicity(row_fn, grid: SpaceTimeGrid, trials: int, seed: int,
                       scale: float = 1.0, tol: float = 1e-10) -> MonotonicityReport:
    """Randomized ordered pairs u >= w, equal at the probe node.

    ``row_fn(j, center, u_n, u_next, obstacle_value)`` evaluates the scheme
    at the probe; a monotone scheme must give a value for u no larger than
    for w.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    violations = 0
    witness = None
    for trial in range(trials):
        j = int(rng.integers(-grid.M, grid.M + 1))
        i = grid.offset(j)
        w_n = rng.uniform(-scale, scale, n)
        w_next = rng.uniform(-scale, scale, n)
        bump_n = rng.uniform(0.0, scale, n)
        bump_n[i] = 0.0
        bump_next = rng.uniform(0.0, scale, n)
        obstacle_value = float(rng.uniform(-scale, scale))
        center = float(w_n[i])
        s_upper = row_fn(j, center, w_n + bump_n, w_next + bump_next, obstacle_value)
        s_lower = row_fn(j, center, w_n, w_next, obstacle_value)
        if s_upper > s_lower + tol:
            violations += 1
            if witness is None:
                witness = {
                    "trial": trial,
                    "node": j,
                    "gap": float(s_upper - s_lower),
                    "upper": float(s_upper),
                    "lower": float(s_lower),
                }
    return MonotonicityReport(trials=trials, violations=violations, witness=witness)


def make_penalty_row(problem, grid, controls, epsilon, t):
    band = penalty_mod._control_band(grid, problem, controls)
    reward = penalty_mod._reward_block(t, grid, problem, controls)

    def row(j, center, u_n, u_next, obstacle_value):
        return penalty_mod.scheme_row(j, center, u_n, u_next, obstacle_value,
                                      t, grid, problem, controls, band, reward, epsilon)
    return row


def make_semilagrangian_row(problem, grid, controls, t):
    feet = semilag_mod.foot_points(grid, problem, controls)
    band = semilag_mod.diffusion_band(grid, problem, controls)

    def row(j, center, u_n, u_next, obstacle_value):
        return semilag_mod.scheme_row(j, center, u_n, u_next, obstacle_value,
                                      t, grid, problem, controls, feet, band)
    return row


def _require_known_checks(names) -> None:
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(CHECKS)})")


def run_checks(names, sol: Solution, problem: ProblemSpec, controls: DiscreteControls,
               seed: int = 0) -> list[PropertyCheck]:
    """Run the named property checks on a solution, once each, in ``CHECKS`` order.

    ``residual_oracle`` applies to penalty solutions, finite-horizon and
    discounted, and is skipped for any other; ``monotonicity`` probes the row of
    ``sol.scheme`` with ``seed``.  An unknown name raises ValueError.
    """
    _require_known_checks(names)
    out = []
    if "stability" in names:
        out.append(check_stability_bound(sol, problem, controls))
    if "matrices" in names:
        out.append(check_solution_matrices(sol))
    if "residual_oracle" in names and sol.scheme == PENALTY:
        value = brute_force_residual(sol, problem, sol.grid, controls, sol.epsilon)
        out.append(PropertyCheck("residual_oracle", value <= RESIDUAL_ORACLE_TOL, value=value))
    if "monotonicity" in names:
        if sol.scheme == SEMILAGRANGIAN:
            row = make_semilagrangian_row(problem, sol.grid, controls, t=0.0)
        else:
            row = make_penalty_row(problem, sol.grid, controls, sol.epsilon, t=0.0)
        report = check_monotonicity(row, sol.grid, MONOTONICITY_TRIALS, seed)
        out.append(PropertyCheck("monotonicity", report.passed,
                                 value=float(report.violations)))
    return out


def default_window(grid: SpaceTimeGrid) -> Window:
    return Window(t_range=(0.0, grid.T), x_range=(-grid.Q / 2.0, grid.Q / 2.0))


def _solve_for_study(problem, grid, scheme, controls, epsilon, cfg):
    if scheme == PENALTY:
        if problem.finite_horizon:
            return penalty_mod.solve_finite_horizon(problem, grid, controls, epsilon, cfg)
        return penalty_mod.solve_infinite_horizon(problem, grid, controls, epsilon, cfg)
    if scheme == SEMILAGRANGIAN:
        return semilag_mod.solve_semi_lagrangian(problem, grid, controls, cfg)
    if scheme == IOS:
        return solve_iterated_optimal_stopping(problem, grid, controls, epsilon, cfg=cfg)
    raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")


def run_refinement_study(problem: ProblemSpec, base_grid: SpaceTimeGrid,
                         scheme: str, levels: int,
                         cfg: SolverConfig | None = None,
                         window: Window | None = None,
                         checks: tuple = ("stability", "matrices", "residual_oracle"),
                         solutions_out: list | None = None,
                         ) -> ConvergenceReport:
    """Solve at rho, rho/2, ... and report errors, orders and property checks.

    Errors are measured against the problem's closed form when it has one,
    otherwise against the finest level (self-convergence; the finest level
    then has no error of its own).  A failed solve is recorded at its level
    and the study continues.  Every listed check except ``monotonicity``
    runs at each level (see :func:`run_checks`).
    """
    _require_known_checks(checks)
    level_checks = tuple(c for c in checks if c != "monotonicity")
    if levels < 2:
        raise ValueError(f"a refinement study needs >= 2 levels, got {levels}")
    cfg = cfg or SolverConfig()
    window = window or default_window(base_grid)

    results: list[LevelResult] = []
    solutions: list[Solution | None] = []
    for level in range(levels):
        grid = grid_for_level(base_grid, level)
        controls = discretize_controls(problem, grid.rho)
        epsilon = default_epsilon(grid, cfg)
        result = LevelResult(level=level, rho=grid.rho, grid_summary=grid.summary(),
                             scheme=scheme, epsilon=epsilon)
        try:
            sol = _solve_for_study(problem, grid, scheme, controls, epsilon, cfg)
        except SolverError as exc:
            result.solve_failed = True
            result.message = str(exc)
            result.checks.append(PropertyCheck("solve", False, witness=str(exc)))
            results.append(result)
            solutions.append(None)
            continue
        result.iterations = sol.diagnostics.iteration_stats()
        result.oversteps = sol.diagnostics.oversteps
        result.interior_oversteps = sol.diagnostics.interior_oversteps
        result.checks.extend(run_checks(level_checks, sol, problem, controls))
        results.append(result)
        solutions.append(sol)

    if problem.exact is not None:
        reference = "exact"
        for result, sol in zip(results, solutions):
            if sol is not None:
                result.error = sup_error(sol, problem.exact, window)
    else:
        reference = "self"
        finest = next((s for s in reversed(solutions) if s is not None), None)
        for result, sol in zip(results, solutions):
            if sol is not None and sol is not finest and finest is not None:
                result.error = sup_error(sol, finest, window)

    defined = [r.error for r in results]
    for result, order in zip(results[1:], observed_orders(defined)):
        result.observed_order = order

    if solutions_out is not None:
        solutions_out.extend(solutions)
    return ConvergenceReport(problem_name=problem.name, scheme=scheme,
                             reference=reference, window=window, levels=results)
