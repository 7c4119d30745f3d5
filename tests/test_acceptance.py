"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Solves
are shared through module-scoped fixtures; criteria 6 and 8 re-audit every
linear system and every audited solution produced for criteria 1-5.
"""

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from hjbqvi import cli
from hjbqvi import penalty as penalty_mod
from hjbqvi import semilag as semilag_mod
from hjbqvi.grid import build_boundary_refined_grid, build_uniform_grid
from hjbqvi.harness import (
    SCHEMES,
    Window,
    check_monotonicity,
    check_stability_bound,
    run_refinement_study,
)
from hjbqvi.matrices import analyze_matrix
from hjbqvi.operators import discretize_controls, generator_band
from hjbqvi.oracle import OUTER_TOL, solve_iterated_optimal_stopping
from hjbqvi.penalty import solve_finite_horizon, solve_infinite_horizon
from hjbqvi.problem import ProblemSpec, builtin
from hjbqvi.semilag import overstep_threshold, solve_semi_lagrangian

SEED = 20260810

NON_WCDD_3X3 = np.array([
    [1.0, -1.0, 0.0],
    [-1.0, 2.0, -1.0],
    [0.0, -1.0, 1.0],
])


def conclude(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@dataclass
class Produced:
    label: str
    sol: object
    problem: object


def random_bounded_problem(seed, discounted=False):
    """Seeded bounded-coefficient instance satisfying the standing hypotheses."""
    rng = np.random.default_rng(seed)
    a_drift = float(rng.uniform(0.3, 1.0))
    w_drift = float(rng.uniform(0.5, 2.0))
    s0 = float(rng.uniform(0.3, 0.8))
    s1 = float(rng.uniform(0.0, 0.2))
    a_f = float(rng.uniform(0.5, 1.5))
    w_f = float(rng.uniform(0.5, 2.0))
    a_g = float(rng.uniform(0.5, 1.5))
    cost = -(2.0 * a_g + 0.5)   # worst jump gain is 2|g|, so no terminal profit
    return ProblemSpec(
        drift=lambda x, b: a_drift * np.sin(w_drift * x) + 0.5 * b,
        diffusion=lambda x, b: s0 + s1 * np.cos(x),
        running_reward=lambda t, x, b: a_f * np.cos(w_f * x + t),
        terminal_reward=lambda x: a_g * np.sin(2.0 * x),
        impulse_shift=lambda t, x, z: z - x,
        impulse_cost=lambda t, x, z: cost + 0.0 * z,
        impulse_bounds=lambda t, x: (-1.0, 1.0),
        control_bounds=(-0.5, 0.5),
        horizon=None if discounted else 1.0,
        discount=0.5 if discounted else None,
        name="random_bounded",
    )


@pytest.fixture(scope="module")
def c1_runs():
    problem = builtin("constant", {"c": 5.0, "T": 1.0})
    grid = build_uniform_grid(Q=2, M=16, N=16, T=1.0)
    start = time.perf_counter()
    pen = solve_finite_horizon(problem, grid)
    sl = solve_semi_lagrangian(problem, grid)
    elapsed = time.perf_counter() - start
    return dict(problem=problem, pen=pen, sl=sl, elapsed=elapsed)


@pytest.fixture(scope="module")
def c2_runs():
    entries = []
    start = time.perf_counter()

    for name, Q, M, N in [("constant", 2, 16, 8), ("heat", 4, 32, 8), ("cash", 4, 24, 18)]:
        problem = builtin(name)
        grid = build_uniform_grid(Q=Q, M=M, N=N, T=problem.horizon)
        entries.append(Produced(f"{name}/penalty", solve_finite_horizon(problem, grid), problem))
        entries.append(Produced(f"{name}/sl", solve_semi_lagrangian(problem, grid), problem))

    heat2 = builtin("heat", {"T": 2.0})
    for ratio in (0.1, 1.0, 10.0, 100.0):
        n_steps = int(round(2.0 / (ratio * 0.1 ** 2)))
        grid = build_uniform_grid(Q=2, M=20, N=n_steps, T=2.0)
        assert grid.dt / grid.dx_max ** 2 == pytest.approx(ratio)
        entries.append(Produced(f"heat/ratio{ratio}/penalty",
                                solve_finite_horizon(heat2, grid), heat2))
        entries.append(Produced(f"heat/ratio{ratio}/sl",
                                solve_semi_lagrangian(heat2, grid), heat2))

    randomized = random_bounded_problem(SEED)
    grid = build_uniform_grid(Q=3, M=24, N=10, T=1.0)
    entries.append(Produced("random/penalty", solve_finite_horizon(randomized, grid), randomized))
    entries.append(Produced("random/sl", solve_semi_lagrangian(randomized, grid), randomized))

    discounted = random_bounded_problem(SEED, discounted=True)
    grid_inf = build_uniform_grid(Q=3, M=24)
    entries.append(Produced("random/discounted",
                            solve_infinite_horizon(discounted, grid_inf), discounted))

    elapsed = time.perf_counter() - start
    return dict(entries=entries, elapsed=elapsed)


@pytest.fixture(scope="module")
def c3_runs():
    problem = builtin("heat")
    base = build_uniform_grid(Q=8, M=40, N=5, T=1.0)   # rho = 0.2
    window = Window((0.0, 1.0), (-4.0, 4.0))
    start = time.perf_counter()
    out = {}
    for scheme in ("penalty", "semilagrangian"):
        report = run_refinement_study(problem, base, scheme, levels=4, window=window,
                                      checks=("stability", "matrices"))
        out[scheme] = dict(report=report, solutions=report.solutions)
    elapsed = time.perf_counter() - start
    return dict(problem=problem, runs=out, elapsed=elapsed)


@pytest.fixture(scope="module")
def c4_runs():
    problem = builtin("cash")
    start = time.perf_counter()
    levels = []
    for rho in (0.2, 0.1, 0.05):
        grid = build_uniform_grid(Q=4, M=int(round(4 / rho)),
                                  N=int(round(3 / rho)), T=3.0)
        controls = discretize_controls(problem, grid.rho)
        levels.append(dict(
            rho=rho,
            grid=grid,
            pen=solve_finite_horizon(problem, grid, controls),
            sl=solve_semi_lagrangian(problem, grid, controls),
        ))
    elapsed = time.perf_counter() - start
    return dict(problem=problem, levels=levels, elapsed=elapsed)


@pytest.fixture(scope="module")
def c5_runs():
    problem = builtin("cash")
    grid = build_uniform_grid(Q=4, M=40, N=30, T=3.0)   # rho = 0.1
    start = time.perf_counter()
    pen = solve_finite_horizon(problem, grid)   # epsilon = c_eps * rho = 0.1
    ios = solve_iterated_optimal_stopping(problem, grid)
    elapsed = time.perf_counter() - start
    return dict(problem=problem, pen=pen, ios=ios, elapsed=elapsed)


@pytest.fixture(scope="module")
def corpus(c1_runs, c2_runs, c3_runs, c4_runs, c5_runs):
    """Every solution produced for criteria 1-5, for the audit criteria."""
    entries = [
        Produced("c1/constant/penalty", c1_runs["pen"], c1_runs["problem"]),
        Produced("c1/constant/sl", c1_runs["sl"], c1_runs["problem"]),
    ]
    entries.extend(Produced(f"c2/{e.label}", e.sol, e.problem) for e in c2_runs["entries"])
    for scheme, data in c3_runs["runs"].items():
        for sol in data["solutions"]:
            entries.append(Produced(f"c3/heat/{scheme}/rho{sol.grid.rho:g}",
                                    sol, c3_runs["problem"]))
    for level in c4_runs["levels"]:
        entries.append(Produced(f"c4/cash/penalty/rho{level['rho']}",
                                level["pen"], c4_runs["problem"]))
        entries.append(Produced(f"c4/cash/sl/rho{level['rho']}",
                                level["sl"], c4_runs["problem"]))
    entries.append(Produced("c5/cash/penalty", c5_runs["pen"], c5_runs["problem"]))
    entries.append(Produced("c5/cash/ios", c5_runs["ios"], c5_runs["problem"]))
    return entries


def test_criterion_1_constant_exactness(c1_runs):
    dev_pen = float(np.abs(c1_runs["pen"].surface - 5.0).max())
    dev_sl = float(np.abs(c1_runs["sl"].surface - 5.0).max())
    ok = dev_pen <= 1e-12 and dev_sl <= 1e-12 and c1_runs["elapsed"] < 1.0
    conclude("criterion 1 (constant exactness)", ok,
             f"max dev penalty {dev_pen:.2e}, sl {dev_sl:.2e}; "
             f"{c1_runs['elapsed']:.2f} s < 1 s")


def test_criterion_2_stability_bounds(c2_runs):
    failures = []
    for entry in c2_runs["entries"]:
        check = check_stability_bound(entry.sol, entry.problem)
        if not check.passed:
            failures.append(f"{entry.label} ({check.value:.4g} vs {check.witness})")
    ok = not failures and c2_runs["elapsed"] < 30.0
    conclude("criterion 2 (stability bounds)", ok,
             f"{len(c2_runs['entries'])} solves incl. dt/dx^2 in {{0.1,1,10,100}} "
             f"and a discounted instance; failures: {failures or 'none'}; "
             f"{c2_runs['elapsed']:.1f} s < 30 s")


def test_criterion_3_heat_convergence(c3_runs):
    details, ok = [], True
    for scheme, data in c3_runs["runs"].items():
        errors = data["report"].errors()
        orders = [lv.observed_order for lv in data["report"].levels[1:]]
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        final_order = orders[-1]
        ok = ok and decreasing and final_order is not None and 0.7 <= final_order <= 1.3
        details.append(f"{scheme}: errors {['%.4f' % e for e in errors]}, "
                       f"final order {final_order:.3f}")
    ok = ok and c3_runs["elapsed"] < 120.0
    conclude("criterion 3 (heat convergence)", ok,
             "; ".join(details) + f"; {c3_runs['elapsed']:.1f} s < 120 s")


def test_criterion_4_cross_scheme_agreement(c4_runs):
    diffs = []
    for level in c4_runs["levels"]:
        grid = level["grid"]
        mask = np.abs(grid.nodes) <= 2.0
        diffs.append(float(np.abs(level["pen"].surface[0][mask]
                                  - level["sl"].surface[0][mask]).max()))
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    ok = decreasing and diffs[-1] <= 5e-2 and c4_runs["elapsed"] < 120.0
    conclude("criterion 4 (penalty vs semi-Lagrangian)", ok,
             f"u0 window diffs {['%.4f' % d for d in diffs]} "
             f"(final <= 0.05); {c4_runs['elapsed']:.1f} s < 120 s")


def test_criterion_5_oracle_agreement(c5_runs):
    gap = float(np.abs(c5_runs["pen"].surface - c5_runs["ios"].surface).max())
    bound = 10.0 * (0.1 + OUTER_TOL)
    increments = c5_runs["ios"].diagnostics.outer_min_increments
    monotone = min(increments) >= -1e-8
    ok = gap <= bound and monotone and c5_runs["elapsed"] < 120.0
    conclude("criterion 5 (iterated-optimal-stopping oracle)", ok,
             f"sup gap {gap:.2e} <= {bound:.2g}, min outer increment "
             f"{min(increments):.2e} >= -1e-8; {c5_runs['elapsed']:.1f} s < 120 s")


def test_criterion_6_matrix_properties(corpus):
    failures = []
    total = 0
    for entry in corpus:
        d = entry.sol.diagnostics
        total += d.matrix_systems_checked
        # A system that fails its structural check raises during the solve.
        if d.matrix_systems_checked == 0:
            failures.append(f"{entry.label}: no system checked")
        if d.min_dominance_margin <= 0:
            failures.append(f"{entry.label}: margin {d.min_dominance_margin}")
        if entry.sol.scheme == "semilagrangian" and d.min_dominance_margin < 1.0 - 1e-12:
            failures.append(f"{entry.label}: semi-Lagrangian margin below 1")
    fixture_report = analyze_matrix(NON_WCDD_3X3)
    fixture_ok = (not fixture_report.passed) and fixture_report.witness is not None
    ok = not failures and fixture_ok
    conclude("criterion 6 (matrix structure)", ok,
             f"{total} systems checked across criteria 1-5, failures: "
             f"{failures or 'none'}; non-WCDD fixture rejected with witness "
             f"({fixture_report.witness})")


def test_criterion_7_monotonicity(corpus, monkeypatch):
    problem = builtin("cash")
    grid = build_uniform_grid(Q=4, M=12, N=9, T=3.0)
    controls = discretize_controls(problem, grid.rho)
    pen_report = check_monotonicity(
        penalty_mod.monotonicity_row(problem, grid, controls, epsilon=grid.rho, t=0.0),
        grid, seed=SEED)
    sl_report = check_monotonicity(
        semilag_mod.monotonicity_row(problem, grid, controls, t=0.0),
        grid, seed=SEED)

    # Mutation fixture: the stencil core with its upwind direction flipped,
    # on a pure-advection problem (diffusion would otherwise mask the broken
    # stencil).  The rows are the solver's own, read from the patched core.
    advection = ProblemSpec(
        drift=lambda x, b: b + 0.0 * x,
        diffusion=lambda x, b: 0.0,
        running_reward=lambda t, x, b: 0.0,
        terminal_reward=lambda x: 0.0 * x,
        impulse_shift=lambda t, x, z: 0.0 * z,
        impulse_cost=lambda t, x, z: -1.0 + 0.0 * z,
        impulse_bounds=lambda t, x: (0.0, 1.0),
        control_bounds=(-1.0, 1.0),
        horizon=1.0,
    )
    adv_grid = build_uniform_grid(Q=2, M=8, N=4, T=1.0)
    adv_controls = discretize_controls(advection, rho=1.0)

    def flipped_upwind_band(nodes, drift, variance):
        # Backward differences for drift >= 0, forward for drift < 0.
        diffusion = generator_band(nodes, 0.0, variance)
        reversed_flow = generator_band(nodes, -np.asarray(drift, dtype=float), 0.0)
        return tuple(d - r for d, r in zip(diffusion, reversed_flow))

    clean_adv = check_monotonicity(
        penalty_mod.monotonicity_row(advection, adv_grid, adv_controls, epsilon=0.25, t=0.0),
        adv_grid, seed=SEED)
    with monkeypatch.context() as patch:
        patch.setattr(penalty_mod, "generator_band", flipped_upwind_band)
        mutant = check_monotonicity(
            penalty_mod.monotonicity_row(advection, adv_grid, adv_controls, epsilon=0.25, t=0.0),
            adv_grid, seed=SEED)

    ok = (pen_report.violations == 0 and sl_report.violations == 0
          and clean_adv.violations == 0 and mutant.violations >= 1)
    conclude("criterion 7 (monotonicity)", ok,
             f"clean violations penalty {pen_report.violations}/100, "
             f"sl {sl_report.violations}/100, advection {clean_adv.violations}/100; "
             f"flipped-upwind mutant detected {mutant.violations} violations")


def test_criterion_8_residual_oracle(corpus):
    # Each audited scheme's own audit, as run_checks dispatches it.
    worst = 0.0
    worst_label = "none"
    audited = Counter()
    for entry in corpus:
        scheme = SCHEMES[entry.sol.scheme]
        if not scheme.audited:
            continue
        controls = discretize_controls(entry.problem, entry.sol.grid.rho)
        value = scheme.audit(entry.sol, entry.problem, controls)
        audited[entry.sol.scheme] += 1
        if value > worst:
            worst, worst_label = value, entry.label
    ok = audited["penalty"] > 0 and audited["semilagrangian"] > 0 and worst <= 1e-8
    conclude("criterion 8 (brute-force residual oracle)", ok,
             f"{audited['penalty']} penalty and {audited['semilagrangian']} "
             f"semi-Lagrangian solutions audited; worst residual "
             f"{worst:.2e} at {worst_label} (<= 1e-08)")


def test_criterion_9_overstepping_remedy(c4_runs):
    problem = c4_runs["problem"]
    uniform_oversteps = [lv["sl"].diagnostics.oversteps for lv in c4_runs["levels"]]
    refined_interior = []
    thresholds = []
    for rho in (0.2, 0.1, 0.05):
        grid = build_boundary_refined_grid(Q=4, rho=rho, c_b=1.0,
                                           N=int(round(3 / rho)), T=3.0)
        controls = discretize_controls(problem, grid.rho)
        thresholds.append(overstep_threshold(problem, grid, controls))
        sol = solve_semi_lagrangian(problem, grid, controls)
        refined_interior.append(sol.diagnostics.interior_oversteps)
    below = all(rho <= thr for rho, thr in zip((0.2, 0.1, 0.05), thresholds))
    ok = (max(uniform_oversteps) >= 1 and below
          and all(c == 0 for c in refined_interior))
    conclude("criterion 9 (overstepping remedy)", ok,
             f"uniform fixed-Q clamped feet per level {uniform_oversteps} (>= 1); "
             f"boundary-refined interior clamps {refined_interior} for rho below "
             f"threshold {thresholds[0]:.3g}")


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "problem:\n  name: heat\n  params: {s: 1.0, T: 1.0}\n"
        "scheme: penalty\n"
        "grid: {Q: 4.0, M: 20, N: 5}\n"
        "study:\n  levels: 2\n  window: {t: [0.0, 1.0], x: [-2.0, 2.0]}\n"
        "checks: [stability, matrices, residual_oracle]\n"
        "seed: 11\n",
        encoding="utf-8",
    )
    spec = cli.parse_config(config)
    identical = []
    for mode in ("solve", "study"):
        cli.run(spec, mode=mode, out_dir=tmp_path / f"{mode}_a", check=True)
        cli.run(spec, mode=mode, out_dir=tmp_path / f"{mode}_b", check=True)
        for name in ("solution.csv", "report.json", "plotdata.csv"):
            same = (tmp_path / f"{mode}_a" / name).read_bytes() \
                == (tmp_path / f"{mode}_b" / name).read_bytes()
            identical.append(f"{mode}/{name}:{'ok' if same else 'DIFFERS'}")
    ok = all(item.endswith("ok") for item in identical)
    conclude("criterion 10 (byte-identical outputs)", ok, ", ".join(identical))
