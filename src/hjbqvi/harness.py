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
so the monotonicity check tests the solvers' own stencil.  When no closed
form is available, studies fall back to self-convergence against the
finest level and say so; the two are never conflated.
"""

from __future__ import annotations

import time
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
from .solution import INFINITE, Solution, SolverConfig

RESIDUAL_ORACLE_TOL = 1e-8
STABILITY_SLACK = 1e-8

PENALTY = "penalty"
SEMILAGRANGIAN = "semilagrangian"
IOS = "ios"
SCHEMES = (PENALTY, SEMILAGRANGIAN, IOS)

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


@dataclass
class LevelResult:
    level: int
    rho: float
    grid_summary: dict
    scheme: str
    epsilon: float
    error: float | None = None
    observed_order: float | None = None
    wall_time: float = 0.0
    iterations: dict = field(default_factory=dict)
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
    def property_checks(self) -> list[PropertyCheck]:
        return [c for lv in self.levels for c in lv.checks]

    @property
    def passed(self) -> bool:
        return all(lv.passed for lv in self.levels)

    def errors(self) -> list[float | None]:
        return [lv.error for lv in self.levels]

    def to_dict(self, include_timing: bool = False) -> dict:
        levels = []
        for lv in self.levels:
            entry = {
                "level": lv.level,
                "rho": lv.rho,
                "grid": lv.grid_summary,
                "scheme": lv.scheme,
                "epsilon": lv.epsilon,
                "error": lv.error,
                "observed_order": lv.observed_order,
                "iterations": lv.iterations,
                "checks": [
                    {"name": c.name, "passed": c.passed, "value": c.value,
                     "witness": c.witness}
                    for c in lv.checks
                ],
                "solve_failed": lv.solve_failed,
                "message": lv.message,
            }
            if include_timing:
                entry["wall_time"] = lv.wall_time
            levels.append(entry)
        return {
            "problem": self.problem_name,
            "scheme": self.scheme,
            "reference": self.reference,
            "window": {"t": list(self.window.t_range), "x": list(self.window.x_range)},
            "levels": levels,
            "passed": self.passed,
        }


def extend_solution(sol: Solution, t: float, x: float) -> float:
    """Piecewise-constant extension: value of the containing (nearest) cell."""
    grid = sol.grid
    if sol.horizon == INFINITE:
        n = 0
    else:
        n = int(np.clip(np.floor(t / grid.dt + 0.5), 0, grid.N))
    mids = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
    i = int(np.searchsorted(mids, x, side="right"))
    return float(sol.surface[n][i])


def _window_times(grid: SpaceTimeGrid, window: Window) -> np.ndarray:
    times = grid.times()
    lo, hi = window.t_range
    return times[(times >= lo - 1e-12) & (times <= hi + 1e-12)]


def _window_nodes(grid: SpaceTimeGrid, window: Window) -> np.ndarray:
    lo, hi = window.x_range
    return grid.nodes[(grid.nodes >= lo - 1e-12) & (grid.nodes <= hi + 1e-12)]


def sup_error(sol: Solution, reference, window: Window) -> float:
    """Sup-norm disagreement on the window.

    Against a callable reference, the maximum runs over the solution's own
    grid points (where the extension is exact).  Against another Solution,
    it runs over the finer of the two grids, both read through their
    piecewise-constant extensions.
    """
    if isinstance(reference, Solution):
        finer = sol if sol.grid.rho <= reference.grid.rho else reference
        xs = _window_nodes(finer.grid, window)
        ts = [0.0] if finer.horizon == INFINITE else _window_times(finer.grid, window)
        worst = 0.0
        for t in ts:
            for x in xs:
                gap = abs(extend_solution(sol, t, x) - extend_solution(reference, t, x))
                worst = max(worst, gap)
        return worst
    xs = _window_nodes(sol.grid, window)
    mask = np.isin(sol.grid.nodes, xs)
    if sol.horizon == INFINITE:
        ref_vals = eval_on(reference, 0.0, xs)
        return float(np.abs(sol.surface[0][mask] - ref_vals).max())
    worst = 0.0
    for t in _window_times(sol.grid, window):
        ref_vals = eval_on(reference, t, xs)
        row = sol.surface[int(round(t / sol.grid.dt))][mask]
        worst = max(worst, float(np.abs(row - ref_vals).max()))
    return worst


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
    f_norm = 0.0
    for b in controls.controls:
        for t in times:
            f_norm = max(f_norm, float(
                np.abs(eval_on(problem.running_reward, t, grid.nodes, b)).max()))
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
    """Did every system assembled during the solve pass its structural check."""
    d = sol.diagnostics
    ok = d.matrix_systems_checked > 0 and d.matrix_systems_checked == d.matrix_systems_passed
    return PropertyCheck(
        name="matrix_properties",
        passed=ok,
        value=float(d.min_dominance_margin),
        witness=f"{d.matrix_systems_passed}/{d.matrix_systems_checked} systems",
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
    def row(j, center, u_n, u_next, obstacle_value):
        return penalty_mod.scheme_row(j, center, u_n, u_next, obstacle_value,
                                      t, grid, problem, controls, epsilon)
    return row


def make_semilagrangian_row(problem, grid, controls, t):
    def row(j, center, u_n, u_next, obstacle_value):
        return semilag_mod.scheme_row(j, center, u_n, u_next, obstacle_value,
                                      t, grid, problem, controls)
    return row


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
    and the study continues.
    """
    if levels < 2:
        raise ValueError(f"a refinement study needs >= 2 levels, got {levels}")
    cfg = cfg or SolverConfig()
    window = window or default_window(base_grid)

    results: list[LevelResult] = []
    solutions: list[Solution | None] = []
    for level in range(levels):
        grid = grid_for_level(base_grid, level)
        controls = discretize_controls(problem, grid.rho)
        epsilon = penalty_mod.default_epsilon(grid, cfg)
        result = LevelResult(level=level, rho=grid.rho, grid_summary=grid.summary(),
                             scheme=scheme, epsilon=epsilon)
        start = time.perf_counter()
        try:
            sol = _solve_for_study(problem, grid, scheme, controls, epsilon, cfg)
        except SolverError as exc:
            result.solve_failed = True
            result.message = str(exc)
            result.checks.append(PropertyCheck("solve", False, witness=str(exc)))
            results.append(result)
            solutions.append(None)
            continue
        result.wall_time = time.perf_counter() - start
        result.iterations = sol.diagnostics.iteration_stats()
        if "stability" in checks:
            result.checks.append(check_stability_bound(sol, problem, controls))
        if "matrices" in checks:
            result.checks.append(check_solution_matrices(sol))
        if "residual_oracle" in checks and scheme == PENALTY and problem.finite_horizon:
            value = brute_force_residual(sol, problem, grid, controls, epsilon)
            result.checks.append(PropertyCheck(
                "residual_oracle", value <= RESIDUAL_ORACLE_TOL, value=value))
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
