"""Configuration-driven command line entry point.

Three subcommands, all driven by one YAML run spec (schema in the README):

    hjbqvi solve    --config run.yaml [--out DIR] [--check]
    hjbqvi study    --config run.yaml [--levels K] [--out DIR]
    hjbqvi validate --config run.yaml

Artifacts are bit-stable: identical config and seed give byte-identical
files.  Floats are written with 17 significant digits, JSON keys are
sorted, and nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

import argparse
import json as _json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .exceptions import ConfigError, SolverError
from .grid import (
    BOUNDARY_REFINED,
    GROWING_Q,
    MODES,
    UNIFORM,
    SpaceTimeGrid,
    as_growing_q,
    build_boundary_refined_grid,
    build_uniform_grid,
    grid_for_level,
)
from .harness import (
    IOS,
    PENALTY,
    SCHEMES,
    SEMILAGRANGIAN,
    Window,
    _require_known_checks,
    _solve_for_study,
    check_stability_bound,
    run_checks,
    run_refinement_study,
)
from .operators import discretize_controls
# cli calls neither check_stability_bound nor brute_force_residual; the span
# tracer in perfbench/tracing.py wraps cli's bindings of both by name.
from .oracle import brute_force_residual
from .problem import ProblemSpec, builtin, validate
from .semilag import diffusion_variance
from .solution import INFINITE, Solution, SolverConfig


@dataclass
class RunSpec:
    problem_name: str
    problem_params: dict
    scheme: str
    grid_mode: str
    Q: float
    N: int
    M: int | None = None
    rho: float | None = None
    c_b: float | None = None
    alpha: float | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    epsilon: float | None = None
    levels: int = 2
    window: Window | None = None
    checks: tuple = ("stability", "matrices")
    seed: int = 0
    output: str | None = None

    def as_dict(self) -> dict:
        return {
            "problem": {"name": self.problem_name, "params": dict(self.problem_params)},
            "scheme": self.scheme,
            "grid": {
                "mode": self.grid_mode, "Q": self.Q, "N": self.N, "M": self.M,
                "rho": self.rho, "c_b": self.c_b, "alpha": self.alpha,
            },
            "solver": {
                "tol": self.solver.tol, "residual_tol": self.solver.residual_tol,
                "max_iters": self.solver.max_iters, "c_eps": self.solver.c_eps,
                "epsilon": self.epsilon,
            },
            "study": {
                "levels": self.levels,
                "window": None if self.window is None else
                    {"t": list(self.window.t_range), "x": list(self.window.x_range)},
            },
            "checks": list(self.checks),
            "seed": self.seed,
        }


def _require_keys(section: dict, allowed: tuple, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where} "
                          f"(allowed: {', '.join(allowed)})")


def _number(kind, value, key: str):
    """``kind(value)``, or a ConfigError naming the key; bools and fractions never pass."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or (
            kind is int and isinstance(value, float) and number != value):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    return number


def _as_window(raw, where: str) -> Window:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping with 't' and 'x' ranges")
    _require_keys(raw, ("t", "x"), where)
    try:
        t_lo, t_hi = (float(v) for v in raw["t"])
        x_lo, x_hi = (float(v) for v in raw["x"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} needs 't: [lo, hi]' and 'x: [lo, hi]': {exc}") from exc
    return Window(t_range=(t_lo, t_hi), x_range=(x_lo, x_hi))


def parse_config(path) -> RunSpec:
    """Read and strictly validate a YAML run spec.

    Unknown keys anywhere are rejected by name; semantic constraints (scheme
    versus problem structure) are checked after the problem is built, so the
    error can explain the hypothesis that failed.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _require_keys(raw, ("problem", "scheme", "grid", "solver", "study",
                        "checks", "seed", "output"), "config root")

    problem_raw = raw.get("problem")
    if not isinstance(problem_raw, dict) or "name" not in problem_raw:
        raise ConfigError("config needs a 'problem' mapping with a 'name'")
    _require_keys(problem_raw, ("name", "params"), "problem")
    params = problem_raw.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError("problem.params must be a mapping")

    scheme = raw.get("scheme", PENALTY)
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r} (allowed: {', '.join(SCHEMES)})")

    grid_raw = raw.get("grid")
    if not isinstance(grid_raw, dict):
        raise ConfigError("config needs a 'grid' mapping")
    _require_keys(grid_raw, ("mode", "Q", "M", "rho", "N", "c_b", "alpha"), "grid")
    mode = grid_raw.get("mode", UNIFORM)
    if mode not in MODES:
        raise ConfigError(f"unknown grid mode {mode!r} (allowed: {', '.join(MODES)})")
    if "Q" not in grid_raw or "N" not in grid_raw:
        raise ConfigError("grid needs 'Q' and 'N'")
    has_m, has_rho = "M" in grid_raw, "rho" in grid_raw
    if mode == BOUNDARY_REFINED:
        if not has_rho or "c_b" not in grid_raw:
            raise ConfigError("boundary_refined grids need 'rho' and 'c_b'")
    elif has_m == has_rho:
        raise ConfigError("give exactly one of grid.M and grid.rho")

    solver_raw = raw.get("solver") or {}
    _require_keys(solver_raw, ("tol", "residual_tol", "max_iters", "c_eps",
                               "epsilon"), "solver")
    try:
        solver = SolverConfig(
            tol=_number(float, solver_raw.get("tol", 1e-10), "solver.tol"),
            residual_tol=_number(float, solver_raw.get("residual_tol", 1e-8),
                                 "solver.residual_tol"),
            max_iters=_number(int, solver_raw.get("max_iters", 100), "solver.max_iters"),
            c_eps=_number(float, solver_raw.get("c_eps", 1.0), "solver.c_eps"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc
    epsilon = solver_raw.get("epsilon")
    if epsilon is not None:
        epsilon = _number(float, epsilon, "solver.epsilon")
        if not 0 < epsilon < np.inf:
            raise ConfigError(f"solver.epsilon must be finite and positive, got {epsilon}")

    study_raw = raw.get("study") or {}
    _require_keys(study_raw, ("levels", "window"), "study")
    levels = _number(int, study_raw.get("levels", 2), "study.levels")
    window = None
    if study_raw.get("window") is not None:
        window = _as_window(study_raw["window"], "study.window")

    checks = raw.get("checks")
    if checks is None:
        checks = ["stability", "matrices"] + (["residual_oracle"] if scheme == PENALTY else [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list of check names")
    try:
        _require_known_checks(checks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunSpec(
        problem_name=str(problem_raw["name"]),
        problem_params=dict(params),
        scheme=scheme,
        grid_mode=mode,
        Q=_number(float, grid_raw["Q"], "grid.Q"),
        N=_number(int, grid_raw["N"], "grid.N"),
        M=None if not has_m else _number(int, grid_raw["M"], "grid.M"),
        rho=None if not has_rho else _number(float, grid_raw["rho"], "grid.rho"),
        c_b=None if grid_raw.get("c_b") is None else _number(float, grid_raw["c_b"], "grid.c_b"),
        alpha=None if grid_raw.get("alpha") is None else
            _number(float, grid_raw["alpha"], "grid.alpha"),
        solver=solver,
        epsilon=epsilon,
        levels=levels,
        window=window,
        checks=tuple(checks),
        seed=_number(int, raw.get("seed", 0), "seed"),
        output=raw.get("output"),
    )


def build_problem(spec: RunSpec) -> ProblemSpec:
    try:
        return builtin(spec.problem_name, spec.problem_params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(spec: RunSpec, problem: ProblemSpec) -> SpaceTimeGrid:
    try:
        if problem.finite_horizon:
            T = problem.horizon
        else:
            # The stationary solve never uses dt; pick T so that dt equals the
            # spatial spacing and rho reflects the mesh.
            dx = spec.rho if spec.rho is not None else spec.Q / spec.M
            T = spec.N * dx
        if spec.grid_mode == BOUNDARY_REFINED:
            return build_boundary_refined_grid(spec.Q, spec.rho, spec.c_b, spec.N, T)
        M = spec.M if spec.M is not None else max(1, int(round(spec.Q / spec.rho)))
        grid = build_uniform_grid(spec.Q, M, spec.N, T)
        if spec.grid_mode == GROWING_Q:
            grid = as_growing_q(grid, spec.alpha if spec.alpha is not None else 0.25)
        return grid
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def check_semantics(spec: RunSpec, problem: ProblemSpec, grid: SpaceTimeGrid,
                    levels: int = 1) -> None:
    """Scheme versus problem; semi-Lagrangian configs run the solve's diffusion
    check on the grid and controls of each of ``levels`` refinement levels."""
    if spec.scheme == SEMILAGRANGIAN:
        if not problem.finite_horizon:
            raise ConfigError("scheme 'semilagrangian' is finite-horizon only")
        try:
            for level in range(levels):
                level_grid = grid_for_level(grid, level)
                diffusion_variance(problem, level_grid,
                                   discretize_controls(problem, level_grid.rho))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if spec.scheme == IOS and not problem.finite_horizon:
        raise ConfigError("scheme 'ios' is finite-horizon only")


# ---------------------------------------------------------------------------
# Deterministic artifact writers.

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not np.isfinite(value):
        return "null"
    return format(value, ".17g")


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            items.append(_json.dumps(key) + ": " + _json_value(obj[key]))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path: Path, obj) -> None:
    path.write_text(_json_value(obj) + "\n", encoding="utf-8", newline="\n")


def write_solution_csv(path: Path, sol: Solution) -> None:
    grid = sol.grid
    dt = 0.0 if sol.horizon == INFINITE else grid.dt
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,t,j,x,u,policy_b,policy_intervene,policy_z\n")
        for n in range(sol.surface.shape[0]):
            policy = sol.policies[n] if n < len(sol.policies) else None
            for i in range(grid.n_nodes):
                j = i - grid.M
                row = [str(n), _fmt(n * dt), str(j), _fmt(grid.nodes[i]),
                       _fmt(sol.surface[n][i])]
                if policy is None:
                    row += ["", "", ""]
                else:
                    row += [_fmt(policy.controls[i]),
                            str(int(policy.intervene[i])),
                            _fmt(policy.impulses[i])]
                fh.write(",".join(row) + "\n")


def write_plotdata_csv(path: Path, solutions: list[Solution | None]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,rho,x,u0\n")
        for level, sol in enumerate(solutions):
            if sol is None:
                continue
            for i in range(sol.grid.n_nodes):
                fh.write(",".join([
                    str(level), _fmt(sol.grid.rho),
                    _fmt(sol.grid.nodes[i]), _fmt(sol.surface[0][i]),
                ]) + "\n")


def _diagnostics_dict(sol: Solution) -> dict:
    d = sol.diagnostics
    margin = d.min_dominance_margin
    return {
        "iterations": d.iteration_stats(),
        "matrix_systems_checked": d.matrix_systems_checked,
        # Kept for the report format: a failing system raises before it is counted.
        "matrix_systems_passed": d.matrix_systems_checked,
        "min_dominance_margin": None if not np.isfinite(margin) else float(margin),
        "max_final_residual": d.max_final_residual(),
        "oversteps": d.oversteps,
        "interior_oversteps": d.interior_oversteps,
        "inward_drift": d.inward_drift,
        "outer_iterations": d.outer_iterations,
        "outer_changes": list(d.outer_changes),
        "epsilon": sol.epsilon,
    }


# ---------------------------------------------------------------------------
# Command implementations.

def run(spec: RunSpec, mode: str = "solve", out_dir=None, check: bool = False,
        levels: int | None = None) -> int:
    """Execute a run spec and write solution.csv, report.json, plotdata.csv.

    Returns the process exit status: 0 when the solve succeeded and every
    requested property check passed.
    """
    problem = build_problem(spec)
    grid = build_grid(spec, problem)
    n_levels = levels if levels is not None else spec.levels
    if mode == "study" and n_levels < 2:
        raise ConfigError(f"a refinement study needs >= 2 levels, got {n_levels}")
    if mode == "study" and spec.epsilon is not None:
        raise ConfigError("solver.epsilon fixes one penalty parameter, but a study's epsilon "
                          "must shrink with each level's rho; set solver.c_eps instead "
                          "(epsilon = c_eps * rho)")
    check_semantics(spec, problem, grid, n_levels if mode == "study" else 1)
    out = Path(out_dir if out_dir is not None else (spec.output or "."))
    out.mkdir(parents=True, exist_ok=True)

    report: dict = {"kind": mode, "config": spec.as_dict()}

    if mode == "solve":
        controls = discretize_controls(problem, grid.rho)
        try:
            sol = _solve_for_study(problem, grid, spec.scheme, controls,
                                   spec.epsilon, spec.solver)
        except SolverError as exc:
            report["failures"] = [{"name": "solve", "message": str(exc)}]
            write_json(out / "report.json", report)
            return 1
        checks = run_checks(spec.checks, sol, problem, controls, spec.seed) if check else []
        report["grid"] = grid.summary()
        report["diagnostics"] = _diagnostics_dict(sol)
        report["checks"] = [c.as_dict() for c in checks]
        named = [(c.name, c) for c in checks]
        write_solution_csv(out / "solution.csv", sol)
        write_plotdata_csv(out / "plotdata.csv", [sol])
    elif mode == "study":
        solutions: list[Solution | None] = []
        study = run_refinement_study(
            problem, grid, spec.scheme, n_levels, spec.solver,
            window=spec.window, checks=spec.checks, solutions_out=solutions,
        )
        report["study"] = study.to_dict()
        named = [(f"level{lv.level}:{c.name}", c) for lv in study.levels for c in lv.checks]
        finest = next((s for s in reversed(solutions) if s is not None), None)
        if finest is not None:
            write_solution_csv(out / "solution.csv", finest)
        write_plotdata_csv(out / "plotdata.csv", solutions)
    else:
        raise ConfigError(f"unknown run mode {mode!r}")

    report["failures"] = [{"name": name, "witness": c.witness, "value": c.value}
                          for name, c in named if not c.passed]
    write_json(out / "report.json", report)
    return 1 if report["failures"] else 0


def _cmd_validate(spec: RunSpec) -> int:
    problem = build_problem(spec)
    grid = build_grid(spec, problem)
    check_semantics(spec, problem, grid)
    report = validate(problem, grid, samples=64)
    for result in report.checks:
        print(result)
    print(f"lipschitz_estimate: {report.lipschitz_estimate:.6g}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjbqvi",
        description="Solvers and verification harness for 1-D HJB "
                    "quasi-variational inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single solve of the configured problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--check", action="store_true",
                         help="run the configured property checks and gate the exit status")

    p_study = sub.add_parser("study", help="refinement study across levels")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--levels", type=int, default=None)
    p_study.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check the problem hypotheses by sampling")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        spec = parse_config(args.config)
        if args.command == "solve":
            return run(spec, mode="solve", out_dir=args.out, check=args.check)
        if args.command == "study":
            return run(spec, mode="study", out_dir=args.out, levels=args.levels)
        return _cmd_validate(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
