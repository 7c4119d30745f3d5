"""The benchmark's three workloads: seeded inputs, one timed unit, its gate.

Each workload's set-up builds everything a unit needs (problem, grid,
controls, and for the study its parsed config); ``unit()`` is the work that
is timed and ``check()`` is the correctness gate applied to its output.

The seed only perturbs the cash problem's economics (G, c0, lam, s) within
+-5 % of the builtin defaults.  Grid sizes, the control bound b_max, the
impulse bounds, Q, M, N and rho are fixed, so the number of nodes, controls
and impulses -- the work in a unit -- does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hjbqvi import (
    build_boundary_refined_grid,
    build_uniform_grid,
    builtin,
    discretize_controls,
    solve_finite_horizon,
    solve_semi_lagrangian,
)
from hjbqvi import cli
from hjbqvi.harness import check_solution_matrices, check_stability_bound

CASH_DEFAULTS = {"G": 2.0, "c0": 2.0, "lam": 0.5, "s": 1.0}
DRAW_WIDTH = 0.05
Q = 4.0

# Grid sizes: "full" is what the benchmark measures, "tiny" is for its self-test.
SIZES = {
    "full": {
        "penalty-cash": {"M": 160, "N": 120},
        "semilag-cash-refined": {"rho": 0.0125, "c_b": 1.0, "N": 240},
        "study-cash": {"M": 20, "N": 15, "levels": 3},
    },
    "tiny": {
        "penalty-cash": {"M": 10, "N": 8},
        "semilag-cash-refined": {"rho": 0.2, "c_b": 1.0, "N": 16},
        "study-cash": {"M": 10, "N": 8, "levels": 3},
    },
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def cash_params(seed: int) -> dict:
    """G, c0, lam, s drawn uniformly within +-5 % of the defaults, c0 >= G."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(1.0 - DRAW_WIDTH, 1.0 + DRAW_WIDTH, len(CASH_DEFAULTS))
    params = {name: default * float(d)
              for (name, default), d in zip(CASH_DEFAULTS.items(), draws)}
    if params["c0"] < params["G"]:
        params["G"], params["c0"] = params["c0"], params["G"]
    return params


@dataclass
class Outcome:
    """What one unit produced: the t=0 slice it is judged by, plus what the
    traced run reads its layer metrics from."""

    u0: np.ndarray
    solutions: list = field(default_factory=list)
    controls: list = field(default_factory=list)
    artifact_bytes: int = 0
    failures: list = field(default_factory=list)


def fingerprint(u0: np.ndarray, stride: int) -> dict:
    return {"n": int(u0.size), "sum": float(u0.sum()),
            "sample": [float(v) for v in u0[::stride]]}


def reference_failures(name: str, size: str, seed: int, u0: np.ndarray,
                       reference: dict) -> list[str]:
    """Compare a t=0 slice with the one recorded for this seed, if any.

    Every sampled node must agree within tol * (1 + |ref|) and the slice sum
    within tol * (n + sum |u|), so a change at any single node shows.
    """
    recorded = reference["slices"].get(size, {}).get(name, {}).get(str(seed))
    if recorded is None:
        return []
    tol = reference["tolerance"]
    if u0.size != recorded["n"]:
        return [f"reference: t=0 slice has {u0.size} nodes, recorded {recorded['n']}"]
    sample = u0[::reference["stride"]]
    ref = np.asarray(recorded["sample"])
    gap = np.abs(sample - ref) - tol * (1.0 + np.abs(ref))
    if gap.max() > 0.0:
        i = int(gap.argmax())
        return [f"reference: t=0 value at node {i * reference['stride']} is "
                f"{sample[i]!r}, recorded {ref[i]!r}"]
    if abs(float(u0.sum()) - recorded["sum"]) > tol * (u0.size + float(np.abs(u0).sum())):
        return [f"reference: t=0 slice sum {float(u0.sum())!r}, recorded {recorded['sum']!r}"]
    return []


def _solution_failures(sol, problem, controls) -> list[str]:
    return [str(c) for c in (check_stability_bound(sol, problem, controls),
                             check_solution_matrices(sol)) if not c.passed]


class PenaltyCash:
    """One ``solve_finite_horizon`` on a uniform grid."""

    name = "penalty-cash"

    def __init__(self, params: dict, size: dict, workdir: Path):
        self.problem = builtin("cash", params)
        self.grid = build_uniform_grid(Q, size["M"], size["N"], self.problem.horizon)
        self.controls = discretize_controls(self.problem, self.grid.rho)

    def unit(self) -> Outcome:
        # A fresh control set per unit: its impulse cache fills during a
        # solve, and a reused one would turn later units' misses into hits.
        controls = discretize_controls(self.problem, self.grid.rho)
        sol = solve_finite_horizon(self.problem, self.grid, controls)
        return Outcome(u0=sol.surface[0], solutions=[sol], controls=[controls])

    def check(self, outcome: Outcome) -> list[str]:
        return _solution_failures(outcome.solutions[0], self.problem, self.controls)


class SemilagCashRefined:
    """One ``solve_semi_lagrangian`` on a boundary-refined grid."""

    name = "semilag-cash-refined"

    def __init__(self, params: dict, size: dict, workdir: Path):
        self.problem = builtin("cash", params)
        self.grid = build_boundary_refined_grid(Q, size["rho"], size["c_b"], size["N"],
                                                self.problem.horizon)
        self.controls = discretize_controls(self.problem, self.grid.rho)

    def unit(self) -> Outcome:
        controls = discretize_controls(self.problem, self.grid.rho)
        sol = solve_semi_lagrangian(self.problem, self.grid, controls)
        return Outcome(u0=sol.surface[0], solutions=[sol], controls=[controls])

    def check(self, outcome: Outcome) -> list[str]:
        sol = outcome.solutions[0]
        failures = _solution_failures(sol, self.problem, self.controls)
        if sol.diagnostics.interior_oversteps != 0:
            failures.append(f"{sol.diagnostics.interior_oversteps} interior oversteps")
        return failures


class StudyCash:
    """One ``hjbqvi study`` run: refinement study plus artifacts, via ``cli.run``."""

    name = "study-cash"

    def __init__(self, params: dict, size: dict, workdir: Path):
        config = {
            "problem": {"name": "cash", "params": params},
            "scheme": "penalty",
            "grid": {"mode": "uniform", "Q": Q, "M": size["M"], "N": size["N"]},
            "study": {"levels": size["levels"]},
            "checks": ["stability", "matrices", "residual_oracle"],
        }
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "study.yaml"
        # JSON is valid YAML, and repr-exact floats survive the round trip.
        path.write_text(json.dumps(config), encoding="utf-8")
        self.out_dir = workdir / "out"
        self.spec = cli.parse_config(path)
        self.problem = cli.build_problem(self.spec)
        self.grid = cli.build_grid(self.spec, self.problem)
        self.controls = discretize_controls(self.problem, self.grid.rho)

    def unit(self) -> Outcome:
        status = cli.run(self.spec, mode="study", out_dir=self.out_dir)
        report = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        failures = [f"report failure: {f}" for f in report["failures"]]
        if status != 0:
            failures.append(f"study exit status {status}")
        with open(self.out_dir / "plotdata.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        finest = max(int(r["level"]) for r in rows)
        u0 = np.array([float(r["u0"]) for r in rows if int(r["level"]) == finest])
        size = sum(p.stat().st_size for p in self.out_dir.iterdir())
        return Outcome(u0=u0, artifact_bytes=size, failures=failures)

    def check(self, outcome: Outcome) -> list[str]:
        return list(outcome.failures)


WORKLOADS = {w.name: w for w in (PenaltyCash, SemilagCashRefined, StudyCash)}


class Workload:
    """A workload bound to its seed, size and the recorded references."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path):
        self.name, self.seed, self.size = name, seed, size
        self.impl = WORKLOADS[name](cash_params(seed), SIZES[size][name], workdir)
        self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))

    def unit(self) -> Outcome:
        return self.impl.unit()

    def check(self, outcome: Outcome) -> list[str]:
        failures = self.impl.check(outcome)
        if not np.all(np.isfinite(outcome.u0)):
            failures.append("non-finite value in the t=0 slice")
        return failures + reference_failures(self.name, self.size, self.seed,
                                             outcome.u0, self.reference)
