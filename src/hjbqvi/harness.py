"""Convergence studies and executable property checks.

Solutions are compared through their piecewise-constant extension: the value
at (t, x) is the value of the containing cell
[(n-1/2)dt, (n+1/2)dt) x [(j-1/2)dx, (j+1/2)dx) (nearest cell outside the
grid; a grid with no time axis has the one row at every t).  Errors are
measured on the grid points of a window, by default |x| <= Q/2, because the
truncation at +-Q pollutes a boundary layer and the convergence statements
are locally uniform; a window with no grid point is an error.

The property checks mirror what the schemes guarantee: sup-norm stability
bounds, monotone matrix structure (on the sparse matrices the solvers
assemble), and monotonicity of the scheme in its off-node arguments
(randomized ordered pairs).  :func:`run_checks` alone maps check names to
checks.  Without a closed form, studies fall back to self-convergence
against the finest level and say so.

A scheme is one :class:`Scheme` record in ``SCHEMES``: its solves, its
monotonicity row (each scheme module's ``monotonicity_row``, the equation the
solve solves, on operands built once per check), its brute-force residual
audit (:mod:`oracle`'s penalty or semi-Lagrangian one; none for iterated
optimal stopping), and its config-time check.  The studies and the
checks read the record, never the scheme's name.

:func:`require_runnable` alone decides whether a run can happen, and every
check it accepts runs, at every level of a study; it returns each level's
discrete controls, which the run's solves take.  :func:`default_checks` is
the list a run makes when it names none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import penalty as penalty_mod
from . import semilag as semilag_mod
from .exceptions import ConfigError, SolverError
from .grid import SpaceTimeGrid, grid_for_level
# harness no longer calls analyze_matrix; the span tracer in
# perfbench/tracing.py wraps harness's binding of it by name.
from .matrices import analyze_matrix
from .operators import DiscreteControls, discretize_controls
from .oracle import (brute_force_residual, brute_force_sl_residual,
                     solve_iterated_optimal_stopping)
from .problem import ProblemSpec, eval_on
from .solution import Solution, SolverConfig

RESIDUAL_ORACLE_TOL = 1e-8
STABILITY_SLACK = 1e-8

#: Property checks by name, in the order :func:`run_checks` runs and reports them.
CHECKS = ("stability", "matrices", "residual_oracle", "monotonicity")
#: Ordered pairs the monotonicity check probes per run.
MONOTONICITY_TRIALS = 100
#: A probe whose upper value exceeds its lower one by more than this is a violation.
MONOTONICITY_TOL = 1e-10

#: Errors below this are treated as exactly resolved; observed orders on
#: such levels are undefined and flagged as None.
ORDER_FLOOR = 1e-12


@dataclass(frozen=True)
class Scheme:
    """What the harness and the CLI know of a scheme."""

    solve: Callable                 # (problem, grid, controls, cfg), finite horizon
    stationary: Callable | None     # the same, discounted; None: finite-horizon only
    row: Callable                   # (problem, grid, controls, sol) -> row at t = 0
    audit: Callable | None          # (sol, problem, controls) -> residual; None: unaudited
    precheck: Callable | None = None  # (problem, grid, controls); ValueError if unsolvable

    @property
    def audited(self) -> bool:
        """Does residual_oracle apply."""
        return self.audit is not None


def _penalty_row(problem, grid, controls, sol):
    return penalty_mod.monotonicity_row(problem, grid, controls, sol.epsilon, 0.0)


# The audits call harness's module-level bindings of the oracles, looked up
# at call time, so that a wrapper of either binding sees every audit.
def _penalty_audit(sol, problem, controls):
    return brute_force_residual(sol, problem, sol.grid, controls, sol.epsilon)


def _semilag_audit(sol, problem, controls):
    return brute_force_sl_residual(sol, problem, sol.grid, controls)


SCHEMES = {
    "penalty": Scheme(solve=penalty_mod.solve_finite_horizon,
                      stationary=penalty_mod.solve_infinite_horizon,
                      row=_penalty_row, audit=_penalty_audit),
    "semilagrangian": Scheme(
        solve=lambda problem, grid, controls, cfg:
            semilag_mod.solve_semi_lagrangian(problem, grid, controls),
        stationary=None,
        row=lambda problem, grid, controls, sol:
            semilag_mod.monotonicity_row(problem, grid, controls, 0.0),
        audit=_semilag_audit, precheck=semilag_mod.diffusion_variance),
    # The penalty row at the solution's epsilon: each pass solves penalty steps.
    "ios": Scheme(solve=solve_iterated_optimal_stopping, stationary=None, row=_penalty_row,
                  audit=None),
}


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
    grid: dict                          # the level grid's summary()
    scheme: str
    epsilon: float | None = None        # the level's Solution.epsilon
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
    # Each level's Solution, None where its solve failed; not serialised.
    solutions: list[Solution | None] = field(default_factory=list, repr=False)

    @property
    def passed(self) -> bool:
        return all(lv.passed for lv in self.levels)

    def errors(self) -> list[float | None]:
        return [lv.error for lv in self.levels]

    def to_dict(self) -> dict:
        return {
            "problem": self.problem_name,
            "scheme": self.scheme,
            "reference": self.reference,
            "window": {"t": list(self.window.t_range), "x": list(self.window.x_range)},
            "levels": [asdict(lv) for lv in self.levels],
            "passed": self.passed,
        }


def extend_solution(sol: Solution, t, x) -> float | np.ndarray:
    """Piecewise-constant extension: value of the containing (nearest) cell.

    ``t`` and ``x`` broadcast against each other; scalars give a float.
    """
    grid = sol.grid
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    if grid.N == 0:
        n = np.zeros(t.shape, dtype=int)
    else:
        n = np.clip(np.floor(t / grid.dt + 0.5), 0, grid.N).astype(int)
    mids = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
    values = sol.surface[n, np.searchsorted(mids, x, side="right")]
    return float(values) if values.ndim == 0 else values


def _in_window(values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    lo, hi = bounds
    return values[(values >= lo - 1e-12) & (values <= hi + 1e-12)]


def window_points(grid: SpaceTimeGrid, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """(times as a column, nodes) of ``grid`` inside ``window``; ValueError
    naming the window when either is empty.  A stationary grid has the one
    time 0."""
    ts = _in_window(grid.times(), window.t_range)
    xs = _in_window(grid.nodes, window.x_range)
    if not (ts.size and xs.size):
        raise ValueError(f"window t {list(window.t_range)}, x {list(window.x_range)} holds "
                         f"no point of the grid with times in [0, {grid.T:g}] and nodes in "
                         f"[{-grid.Q:g}, {grid.Q:g}]")
    return ts[:, np.newaxis], xs


def sup_error(sol: Solution, reference, window: Window) -> float:
    """Sup-norm disagreement on the window points of the finer grid
    (:func:`window_points`).

    Against a callable reference that is the solution's own grid (where the
    extension is exact).  Against another Solution it is the finer of the
    two grids, both read through their piecewise-constant extensions.
    """
    finer = sol
    if isinstance(reference, Solution) and reference.grid.rho < sol.grid.rho:
        finer = reference
    ts, xs = window_points(finer.grid, window)
    if isinstance(reference, Solution):
        ref_vals = extend_solution(reference, ts, xs)
    else:
        ref_vals = eval_on(reference, ts, xs)
    return float(np.abs(extend_solution(sol, ts, xs) - ref_vals).max())


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
    with reward norms estimated on the grid and the discrete control set, at
    every grid time, or once for a reward declared to ignore t
    (``ProblemSpec.time_free_reward``), whose values are the same at each."""
    grid = sol.grid
    controls = controls or discretize_controls(problem, grid.rho)
    g_norm = float(np.abs(eval_on(problem.terminal_reward, grid.nodes)).max())
    controls_col = controls.controls[:, np.newaxis]
    times = grid.times()[:1] if problem.time_free_reward is not None else grid.times()
    f_norm = max(float(np.abs(eval_on(problem.running_reward, t, grid.nodes, controls_col)).max())
                 for t in times)
    if problem.finite_horizon:
        bound = g_norm + f_norm * problem.horizon
        name = "stability_bound"
    else:
        bound = f_norm / problem.discount
        name = "stability_bound_discounted"
    worst = sol.sup_norm()
    return PropertyCheck(
        name=name,
        passed=worst <= bound + STABILITY_SLACK,
        value=worst,
        witness=f"bound {bound:.6g}",
    )


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


def check_monotonicity(row_fn, grid: SpaceTimeGrid, seed: int) -> PropertyCheck:
    """``MONOTONICITY_TRIALS`` randomized ordered pairs u >= w, equal at the
    probe node, with entries and bumps drawn from unit ranges.

    ``row_fn(j, u_n, u_next, obstacle_value)`` evaluates the scheme at the
    probe; a monotone scheme must give a value for u no larger than for w.
    The check's value is the number of violating trials, and a failing
    check's witness names the first: its trial, node and the two values.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    violations = 0
    witness = None
    for trial in range(MONOTONICITY_TRIALS):
        j = int(rng.integers(-grid.M, grid.M + 1))
        i = grid.offset(j)
        w_n = rng.uniform(-1.0, 1.0, n)
        w_next = rng.uniform(-1.0, 1.0, n)
        bump_n = rng.uniform(0.0, 1.0, n)
        bump_n[i] = 0.0
        bump_next = rng.uniform(0.0, 1.0, n)
        obstacle_value = float(rng.uniform(-1.0, 1.0))
        s_upper = row_fn(j, w_n + bump_n, w_next + bump_next, obstacle_value)
        s_lower = row_fn(j, w_n, w_next, obstacle_value)
        if s_upper > s_lower + MONOTONICITY_TOL:
            violations += 1
            if witness is None:
                witness = (f"trial {trial}, node {j}: row {s_upper:.6g} at u above "
                           f"{s_lower:.6g} at w <= u (gap {s_upper - s_lower:.3g})")
    return PropertyCheck("monotonicity", violations == 0, value=float(violations),
                         witness=witness)


def default_checks(scheme: str) -> tuple:
    """The checks a run of ``scheme`` makes when it names none: stability and
    matrices, plus residual_oracle where the scheme is ``audited``."""
    return ("stability", "matrices") + (("residual_oracle",) if SCHEMES[scheme].audited else ())


def require_runnable(problem: ProblemSpec, grid: SpaceTimeGrid, scheme: str, checks,
                     levels: int = 1, window: Window | None = None) -> list[DiscreteControls]:
    """The discrete controls of each of the first ``levels`` refinement levels
    of ``grid``, once ``scheme`` can solve ``problem`` there and run ``checks``.

    Otherwise a ConfigError (a ValueError) names what stops it: a check not in
    ``CHECKS`` or not applying to the scheme, no solve for the problem's
    horizon, a failing ``precheck``, or a ``window`` (None: the default)
    with no point on some level.  The run's solves take the returned
    controls, so each level's are built once.
    """
    try:
        return _runnable_controls(problem, grid, scheme, checks, levels, window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _runnable_controls(problem, grid, scheme, checks, levels, window):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (known: {', '.join(SCHEMES)})")
    record = SCHEMES[scheme]
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(CHECKS)})")
    if "residual_oracle" in checks and not record.audited:
        raise ValueError(f"check 'residual_oracle' does not apply to scheme {scheme!r}: "
                         "no brute-force audit evaluates its equations")
    if record.stationary is None and not problem.finite_horizon:
        raise ValueError(f"scheme {scheme!r} is finite-horizon only")
    out = []
    for level in range(levels):
        level_grid = grid_for_level(grid, level)
        controls = discretize_controls(problem, level_grid.rho)
        if record.precheck is not None:
            record.precheck(problem, level_grid, controls)
        if window is not None:
            window_points(level_grid, window)
        out.append(controls)
    return out


def run_checks(names, sol: Solution, problem: ProblemSpec, controls: DiscreteControls,
               seed: int = 0) -> list[PropertyCheck]:
    """Run the named property checks on a solution, once each, in ``CHECKS`` order.

    ``residual_oracle`` runs the scheme's ``audit``; ``monotonicity`` probes
    its ``row`` with ``seed``.  The names are those :func:`require_runnable`
    accepts for the solution's scheme.
    """
    scheme = SCHEMES[sol.scheme]
    out = []
    if "stability" in names:
        out.append(check_stability_bound(sol, problem, controls))
    if "matrices" in names:
        out.append(check_solution_matrices(sol))
    if "residual_oracle" in names:
        value = scheme.audit(sol, problem, controls)
        out.append(PropertyCheck("residual_oracle", value <= RESIDUAL_ORACLE_TOL, value=value))
    if "monotonicity" in names:
        out.append(check_monotonicity(scheme.row(problem, sol.grid, controls, sol), sol.grid,
                                      seed))
    return out


def default_window(grid: SpaceTimeGrid) -> Window:
    return Window(t_range=(0.0, grid.T), x_range=(-grid.Q / 2.0, grid.Q / 2.0))


def _solve_for_study(problem, grid, scheme, controls, cfg):
    solve = SCHEMES[scheme].solve if problem.finite_horizon else SCHEMES[scheme].stationary
    return solve(problem, grid, controls, cfg)


def run_refinement_study(problem: ProblemSpec, base_grid: SpaceTimeGrid,
                         scheme: str, levels: int,
                         cfg: SolverConfig | None = None,
                         window: Window | None = None,
                         checks: tuple | None = None,
                         seed: int = 0) -> ConvergenceReport:
    """Solve at rho, rho/2, ... and report errors, orders and property checks.

    Errors are measured against the problem's closed form when it has one,
    otherwise against the finest level (self-convergence; the finest level
    then has no error of its own).  A failed solve is recorded at its level
    and the study continues; the report keeps each level's solution.  Every
    listed check (None: :func:`default_checks`) runs at each level with
    ``seed`` (see :func:`run_checks`); :func:`require_runnable` rejects the
    run before any level is solved, and the levels' solves take the controls
    it returns.
    """
    if levels < 2:
        raise ValueError(f"a refinement study needs >= 2 levels, got {levels}")
    level_controls = require_runnable(problem, base_grid, scheme, checks or (), levels, window)
    if checks is None:
        checks = default_checks(scheme)
    cfg = cfg or SolverConfig()
    window = window or default_window(base_grid)

    results: list[LevelResult] = []
    solutions: list[Solution | None] = []
    for level, controls in enumerate(level_controls):
        grid = grid_for_level(base_grid, level)
        result = LevelResult(level=level, rho=grid.rho, grid=grid.summary(), scheme=scheme)
        try:
            sol = _solve_for_study(problem, grid, scheme, controls, cfg)
        except SolverError as exc:
            result.solve_failed = True
            result.message = str(exc)
            result.checks.append(PropertyCheck("solve", False, witness=str(exc)))
            results.append(result)
            solutions.append(None)
            continue
        result.epsilon = sol.epsilon
        result.iterations = sol.diagnostics.iteration_stats()
        result.oversteps = sol.diagnostics.oversteps
        result.interior_oversteps = sol.diagnostics.interior_oversteps
        result.checks.extend(run_checks(checks, sol, problem, controls, seed))
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

    return ConvergenceReport(problem_name=problem.name, scheme=scheme, reference=reference,
                             window=window, levels=results, solutions=solutions)
