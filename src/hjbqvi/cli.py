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
import math
import sys
from dataclasses import asdict, dataclass
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
)
from .harness import (
    SCHEMES,
    Window,
    _solve_for_study,
    check_stability_bound,
    default_checks,
    require_runnable,
    run_checks,
    run_refinement_study,
)
# cli calls neither check_stability_bound nor brute_force_residual; the span
# tracer in perfbench/tracing.py wraps cli's bindings of both by name.
from .oracle import brute_force_residual
from .problem import ProblemSpec, builtin, validate
from .solution import Solution, SolverConfig


@dataclass
class RunSpec:
    problem_name: str
    problem_params: dict
    scheme: str
    grid_mode: str
    Q: float
    N: int | None                       # timesteps; None for a discounted problem
    M: int | None
    rho: float | None
    c_b: float | None
    alpha: float | None
    solver: SolverConfig
    levels: int
    window: Window | None
    checks: tuple
    seed: int
    output: str | None

    def as_dict(self) -> dict:
        return {
            "problem": {"name": self.problem_name, "params": dict(self.problem_params)},
            "scheme": self.scheme,
            "grid": {
                "mode": self.grid_mode, "Q": self.Q, "N": self.N, "M": self.M,
                "rho": self.rho, "c_b": self.c_b, "alpha": self.alpha,
            },
            "solver": dict(vars(self.solver)),
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
    if not (np.isfinite([t_lo, t_hi, x_lo, x_hi]).all() and t_lo <= t_hi and x_lo <= x_hi):
        raise ConfigError(f"{where} needs finite ranges with lo <= hi, got {raw!r}")
    return Window(t_range=(t_lo, t_hi), x_range=(x_lo, x_hi))


def parse_config(path) -> RunSpec:
    """Read and strictly validate a YAML run spec.

    Unknown keys anywhere are rejected by name.  Whether the scheme can solve
    the problem and run the checks is :func:`harness.require_runnable`'s
    question, asked once the problem and grid are built.
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

    scheme = raw.get("scheme", "penalty")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r} (allowed: {', '.join(SCHEMES)})")

    grid_raw = raw.get("grid")
    if not isinstance(grid_raw, dict):
        raise ConfigError("config needs a 'grid' mapping")
    _require_keys(grid_raw, ("mode", "Q", "M", "rho", "N", "c_b", "alpha"), "grid")
    mode = grid_raw.get("mode", UNIFORM)
    if mode not in MODES:
        raise ConfigError(f"unknown grid mode {mode!r} (allowed: {', '.join(MODES)})")
    if "Q" not in grid_raw:
        raise ConfigError("grid needs 'Q'")
    has_m, has_rho = "M" in grid_raw, "rho" in grid_raw
    if mode == BOUNDARY_REFINED:
        if not has_rho or "c_b" not in grid_raw:
            raise ConfigError("boundary_refined grids need 'rho' and 'c_b'")
    elif has_m == has_rho:
        raise ConfigError("give exactly one of grid.M and grid.rho")

    solver_raw = raw.get("solver") or {}
    defaults = vars(SolverConfig())
    _require_keys(solver_raw, tuple(defaults), "solver")
    try:
        solver = SolverConfig(**{
            key: _number(type(default), solver_raw.get(key, default), f"solver.{key}")
            for key, default in defaults.items()})
    except ValueError as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc

    study_raw = raw.get("study") or {}
    _require_keys(study_raw, ("levels", "window"), "study")
    levels = _number(int, study_raw.get("levels", 2), "study.levels")
    window = None
    if study_raw.get("window") is not None:
        window = _as_window(study_raw["window"], "study.window")

    checks = raw.get("checks", list(default_checks(scheme)))
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list of check names")
    # The monotonicity check seeds numpy's generator, which takes no negative seed.
    seed = _number(int, raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a directory path, got {output!r}")

    return RunSpec(
        problem_name=str(problem_raw["name"]),
        problem_params=dict(params),
        scheme=scheme,
        grid_mode=mode,
        Q=_number(float, grid_raw["Q"], "grid.Q"),
        N=None if "N" not in grid_raw else _number(int, grid_raw["N"], "grid.N"),
        M=None if not has_m else _number(int, grid_raw["M"], "grid.M"),
        rho=None if not has_rho else _number(float, grid_raw["rho"], "grid.rho"),
        c_b=None if grid_raw.get("c_b") is None else _number(float, grid_raw["c_b"], "grid.c_b"),
        alpha=None if grid_raw.get("alpha") is None else
            _number(float, grid_raw["alpha"], "grid.alpha"),
        solver=solver,
        levels=levels,
        window=window,
        checks=tuple(checks),
        seed=seed,
        output=output,
    )


def build_problem(spec: RunSpec) -> ProblemSpec:
    try:
        return builtin(spec.problem_name, spec.problem_params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(spec: RunSpec, problem: ProblemSpec) -> SpaceTimeGrid:
    """The run's grid: N steps up to the horizon for a finite-horizon problem,
    no time axis (N = T = 0) for a discounted one."""
    if (spec.N is None) == problem.finite_horizon:
        raise ConfigError("grid.N is required for a finite-horizon problem and not allowed "
                          "for a discounted one, which has no time axis")
    N, T = (spec.N, problem.horizon) if problem.finite_horizon else (0, 0.0)
    try:
        if spec.grid_mode == BOUNDARY_REFINED:
            return build_boundary_refined_grid(spec.Q, spec.rho, spec.c_b, N, T)
        M = spec.M if spec.M is not None else max(1, int(round(spec.Q / spec.rho)))
        grid = build_uniform_grid(spec.Q, M, N, T)
        if spec.grid_mode == GROWING_Q:
            grid = as_growing_q(grid, spec.alpha if spec.alpha is not None else 0.25)
        return grid
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


# ---------------------------------------------------------------------------
# Deterministic artifact writers.

def _float_text(value: float) -> str:
    """A float as every artifact writes it: 17 significant digits, or null
    when it is not finite."""
    return format(value, ".17g") if math.isfinite(value) else "null"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _float_text(float(value))


def _column(values) -> list[str]:
    """``_fmt`` of each entry of a float array, read as Python floats at once."""
    return [_float_text(v) for v in np.asarray(values, dtype=float).tolist()]


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        return _fmt(obj)
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
    grid, dt = sol.grid, sol.grid.dt
    # Per node "j,x", and the three empty policy cells of a row with no policy.
    node_cells = [f"{i - grid.M},{x}" for i, x in enumerate(_column(grid.nodes))]
    no_policy = [",,"] * grid.n_nodes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,t,j,x,u,policy_b,policy_intervene,policy_z\n")
        for n in range(sol.surface.shape[0]):
            policy = sol.policies[n]
            head = f"{n},{_float_text(float(n * dt))},"
            if policy is None:
                tails = no_policy
            else:
                tails = [f"{b},{int(v)},{z}" for b, v, z in zip(
                    _column(policy.controls), policy.intervene.tolist(),
                    _column(policy.impulses))]
            fh.writelines(f"{head}{node},{u},{tail}\n" for node, u, tail in zip(
                node_cells, _column(sol.surface[n]), tails))


def write_plotdata_csv(path: Path, solutions: list[Solution | None]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,rho,x,u0\n")
        for level, sol in enumerate(solutions):
            if sol is None:
                continue
            head = f"{level},{_fmt(sol.grid.rho)},"
            fh.writelines(f"{head}{x},{u}\n" for x, u in zip(
                _column(sol.grid.nodes), _column(sol.surface[0])))


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
    if mode not in ("solve", "study"):
        raise ConfigError(f"unknown run mode {mode!r}")
    if mode == "study" and n_levels < 2:
        raise ConfigError(f"a refinement study needs >= 2 levels, got {n_levels}")
    out = Path(out_dir if out_dir is not None else (spec.output or "."))

    report: dict = {"kind": mode, "config": spec.as_dict()}

    if mode == "solve":
        [controls] = require_runnable(problem, grid, spec.scheme, spec.checks)
        out.mkdir(parents=True, exist_ok=True)
        try:
            sol = _solve_for_study(problem, grid, spec.scheme, controls, spec.solver)
        except SolverError as exc:
            report["failures"] = [{"name": "solve", "message": str(exc)}]
            write_json(out / "report.json", report)
            return 1
        checks = run_checks(spec.checks, sol, problem, controls, spec.seed) if check else []
        report["grid"] = grid.summary()
        report["diagnostics"] = _diagnostics_dict(sol)
        report["checks"] = [asdict(c) for c in checks]
        named = [(c.name, c) for c in checks]
        write_solution_csv(out / "solution.csv", sol)
        write_plotdata_csv(out / "plotdata.csv", [sol])
    else:
        # The study validates the run (a ConfigError) before its first solve.
        study = run_refinement_study(problem, grid, spec.scheme, n_levels, spec.solver,
                                     window=spec.window, checks=spec.checks, seed=spec.seed)
        out.mkdir(parents=True, exist_ok=True)
        report["study"] = study.to_dict()
        named = [(f"level{lv.level}:{c.name}", c) for lv in study.levels for c in lv.checks]
        finest = next((s for s in reversed(study.solutions) if s is not None), None)
        if finest is not None:
            write_solution_csv(out / "solution.csv", finest)
        write_plotdata_csv(out / "plotdata.csv", study.solutions)

    report["failures"] = [{"name": name, "witness": c.witness, "value": c.value}
                          for name, c in named if not c.passed]
    write_json(out / "report.json", report)
    return 1 if report["failures"] else 0


def _cmd_validate(spec: RunSpec) -> int:
    problem = build_problem(spec)
    grid = build_grid(spec, problem)
    require_runnable(problem, grid, spec.scheme, spec.checks)
    report = validate(problem, grid)
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
