import csv
import json
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from hjbqvi import cli, harness, semilag
from hjbqvi.exceptions import ConfigError
from hjbqvi.grid import build_uniform_grid
from hjbqvi.penalty import solve_finite_horizon
from hjbqvi.problem import builtin
from hjbqvi.solution import PenaltyPolicy, SolverConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """\
problem:
  name: constant
  params: {c: 5.0, T: 1.0}
scheme: penalty
grid: {Q: 2.0, M: 8, N: 8}
"""

HEAT_STUDY = """\
problem:
  name: heat
  params: {s: 1.0, T: 1.0}
scheme: penalty
grid: {Q: 8.0, M: 40, N: 5}
study:
  levels: 3
  window: {t: [0.0, 1.0], x: [-4.0, 4.0]}
checks: [stability, matrices]
seed: 3
"""

DISCOUNTED_CASH = """\
problem:
  name: cash
  params: {beta: 0.5}
scheme: penalty
grid: {Q: 4.0, M: 20}
checks: [stability, matrices, residual_oracle, monotonicity]
seed: 0
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, MINIMAL))
        assert spec.problem_name == "constant"
        assert spec.scheme == "penalty"
        assert spec.grid_mode == "uniform"
        assert spec.solver == SolverConfig()
        assert spec.seed == 0
        assert "stability" in spec.checks

    def test_unknown_key_rejected_by_name(self, tmp_path):
        text = MINIMAL + "solver:\n  epsilonn: 0.1\n"
        with pytest.raises(ConfigError, match="epsilonn"):
            cli.parse_config(write_config(tmp_path, text))

    def test_solver_method_key_rejected(self, tmp_path):
        # Policy iteration is the only timestep solver; the key is gone.
        text = MINIMAL + "solver:\n  method: policy\n"
        with pytest.raises(ConfigError, match="method"):
            cli.parse_config(write_config(tmp_path, text))

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="speling"):
            cli.parse_config(write_config(tmp_path, MINIMAL + "speling: 1\n"))

    def test_parse_error_carries_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            cli.parse_config(write_config(tmp_path, "problem: {name: [unclosed\n"))

    def test_m_and_rho_are_exclusive(self, tmp_path):
        text = MINIMAL.replace("grid: {Q: 2.0, M: 8, N: 8}",
                               "grid: {Q: 2.0, M: 8, rho: 0.1, N: 8}")
        with pytest.raises(ConfigError, match="exactly one"):
            cli.parse_config(write_config(tmp_path, text))

    def test_unknown_scheme(self, tmp_path):
        with pytest.raises(ConfigError, match="scheme"):
            cli.parse_config(write_config(
                tmp_path, MINIMAL.replace("scheme: penalty", "scheme: upwindy")))

    def test_semilagrangian_needs_control_independent_diffusion(self, tmp_path, monkeypatch,
                                                                 capsys):
        config = write_config(
            tmp_path, MINIMAL.replace("scheme: penalty", "scheme: semilagrangian"))
        spec = cli.parse_config(config)
        control_dependent = replace(builtin("constant", {"c": 5.0, "T": 1.0}),
                                    control_bounds=(0.0, 1.0),
                                    diffusion=lambda x, b: 1.0 + 0.1 * b)
        monkeypatch.setattr(cli, "builtin", lambda name, params: control_dependent)
        with pytest.raises(ConfigError, match="requires a control-independent diffusion"):
            cli.run(spec, mode="solve", out_dir=tmp_path / "out")
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "at (x, b) = (-2.0, " in err
        assert not (tmp_path / "out").exists()
        assert cli.main(["validate", "--config", str(config)]) == 2
        # The penalty scheme solves the same problem.
        penalty = replace(spec, scheme="penalty")
        assert cli.run(penalty, mode="solve", out_dir=tmp_path / "out", check=True) == 0

    def test_semilagrangian_study_checks_every_level(self, tmp_path, monkeypatch, capsys):
        # b = 0.25 is a control only from level 1 on (rho 0.5, then 0.25).
        config = write_config(tmp_path, """\
problem:
  name: cash
  params: {}
scheme: semilagrangian
grid: {Q: 4.0, M: 8, N: 6}
study:
  levels: 2
  window: {t: [0.0, 3.0], x: [-2.0, 2.0]}
checks: [stability]
""")
        cash = builtin("cash")
        late = replace(cash, diffusion=lambda x, b: 1.0 + 0.1 * (b == 0.25) + 0.0 * x)
        monkeypatch.setattr(cli, "builtin", lambda name, params: late)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
        shutil.rmtree(out)
        assert cli.main(["study", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "(x, b) = (-4.0, 0.25)" in err
        assert not out.exists()


class TestRunSolve:
    def test_constant_solution_artifacts(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, MINIMAL))
        status = cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True)
        assert status == 0
        with open(tmp_path / "out" / "solution.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9 * 17
        assert all(abs(float(r["u"]) - 5.0) <= 1e-12 for r in rows)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failures"] == []
        assert {c["name"] for c in report["checks"]} >= {
            "stability_bound", "matrix_properties", "residual_oracle"}

    def test_forced_stability_failure_sets_exit_and_names_check(self, tmp_path, monkeypatch):
        # A positive impulse reward violates the negative-cost hypothesis and
        # genuinely breaks the sup-norm bound, so the stability check must
        # fail and drive a nonzero exit with a machine-readable failure.
        spec = cli.parse_config(write_config(tmp_path, MINIMAL))
        profitable = replace(builtin("constant", {"c": 5.0, "T": 1.0}),
                             impulse_cost=lambda t, x, z: 1.0 + 0.0 * z)
        monkeypatch.setattr(cli, "builtin", lambda name, params: profitable)
        status = cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True)
        assert status == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any(f["name"] == "stability_bound" for f in report["failures"])

    def test_main_entry_solve(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL)
        status = cli.main(["solve", "--config", str(config),
                           "--out", str(tmp_path / "out"), "--check"])
        assert status == 0

    def test_validate_command(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        assert cli.main(["validate", "--config", str(config)]) == 0

    @pytest.mark.parametrize("config, line", [
        (MINIMAL, "time-free reward, time-free impulse bounds"),
        (DISCOUNTED_CASH, "reset, separable reward, time-free reward, time-free impulse bounds"),
        (HEAT_STUDY, "reset, time-free reward, time-free impulse bounds"),
        ("undeclared", "none"),
    ], ids=["constant", "cash", "heat", "undeclared"])
    def test_validate_names_the_declarations(self, tmp_path, capsys, monkeypatch, config, line):
        if config == "undeclared":
            cash = builtin("cash", {"beta": 0.5})       # DISCOUNTED_CASH's problem
            undeclared = replace(cash, running_reward=lambda t, x, b: cash.running_reward(t, x, b),
                                 impulse_shift=lambda t, x, z: z - x,
                                 impulse_bounds=lambda t, x: cash.impulse_bounds(t, x))
            monkeypatch.setattr(cli, "build_problem", lambda spec: undeclared)
            config = DISCOUNTED_CASH
        assert cli.main(["validate", "--config", str(write_config(tmp_path, config))]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"declarations: {line}"
        assert [row for row in out if row.startswith("declarations:")] == out[-1:]

    def test_discounted_solve_runs_stationary_checks(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, DISCOUNTED_CASH))
        status = cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True)
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "stability_bound_discounted" in names
        assert "monotonicity" in names
        # The brute-force audit evaluates the stationary rows that were solved.
        oracle = [c for c in report["checks"] if c["name"] == "residual_oracle"]
        assert len(oracle) == 1 and oracle[0]["passed"]

    def test_binding_discounted_config_intervenes(self, tmp_path):
        # At beta = 0.2 the stationary cash policy resets the state at some
        # nodes, so the discounted route's solve, its reset-layout jump
        # table and the audit's impulse term all see an active intervention.
        spec = cli.parse_config(CONFIGS / "cash_discounted_binding.yaml")
        problem = cli.build_problem(spec)
        assert problem.discount == 0.2 and problem.reset_cost is problem.impulse_cost
        assert cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True) == 0
        with open(tmp_path / "out" / "solution.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        intervene = [row for row in rows if row["policy_intervene"] == "1"]
        assert intervene and all(abs(float(row["policy_z"])) <= 1.0 for row in intervene)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"])
        assert "residual_oracle" in [c["name"] for c in report["checks"]]

    def test_checks_run_once_each_in_harness_order(self, tmp_path):
        text = MINIMAL + "checks: [monotonicity, stability, matrices, stability]\n"
        spec = cli.parse_config(write_config(tmp_path, text))
        cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == [
            "stability_bound", "matrix_properties", "monotonicity"]


class TestConfigErrors:
    @pytest.mark.parametrize("text, args", [
        (MINIMAL + "study: {levels: 1}\n", ["study"]),
        (MINIMAL, ["study", "--levels", "1"]),
        (MINIMAL.replace("N: 8}", "N: 0}"), ["solve"]),
        (MINIMAL.replace("N: 8}", "N: 8.5}"), ["solve"]),
        (MINIMAL + "seed: abc\n", ["solve"]),
        (MINIMAL + "solver: {tol: 0}\n", ["solve"]),
        (MINIMAL + "solver: {max_iters: 0}\n", ["solve"]),
        (MINIMAL + "solver: {residual_tol: .nan}\n", ["solve", "--check"]),
        (MINIMAL + "solver: {tol: .inf}\n", ["solve"]),
        (MINIMAL + "solver: {c_eps: .inf}\n", ["solve", "--check"]),
        (MINIMAL + "solver: {c_eps: .nan}\n", ["solve", "--check"]),
        (MINIMAL + "solver: {epsilon: .inf}\n", ["solve", "--check"]),
        (MINIMAL + "solver: {epsilon: .nan}\n", ["solve"]),
        (MINIMAL + "solver: {epsilon: 0}\n", ["solve"]),
        (MINIMAL.replace("Q: 2.0", "Q: .inf"), ["solve"]),
        (MINIMAL.replace("c: 5.0", "c: .nan"), ["solve"]),
        (MINIMAL + "solver: {epsilon: 1000}\n", ["study"]),
        (HEAT_STUDY.replace("t: [0.0, 1.0]", "t: [0, .nan]"), ["study"]),
        (HEAT_STUDY.replace("x: [-4.0, 4.0]", "x: [1, -1]"), ["study"]),
        (MINIMAL.replace("c: 5.0", "c: [1]"), ["solve"]),
        (MINIMAL.replace("c: 5.0", "c: true"), ["solve"]),
        (MINIMAL.replace("scheme: penalty", "scheme: semilagrangian")
         + "solver: {epsilon: 0.001}\n", ["solve"]),
        (MINIMAL + "solver: {epsilon: 0.1}\n", ["solve"]),
        (HEAT_STUDY.replace("t: [0.0, 1.0]", "t: [5.0, 6.0]"), ["study"]),
        (DISCOUNTED_CASH + "study:\n  window: {t: [0.5, 1.0], x: [-2.0, 2.0]}\n", ["study"]),
        (MINIMAL + "checks: [monotonicity]\nseed: -1\n", ["solve", "--check"]),
        (MINIMAL + "checks: [monotonicity]\nseed: -1\n", ["study"]),
    ], ids=["study-levels", "levels-flag", "grid-N", "grid-N-fraction", "seed",
            "solver-tol", "solver-max-iters", "solver-residual-tol-nan", "solver-tol-inf",
            "solver-c-eps-inf", "solver-c-eps-nan", "solver-epsilon-inf", "solver-epsilon-nan",
            "solver-epsilon-zero", "grid-Q-inf", "problem-param-nan", "study-epsilon",
            "study-window-nan", "study-window-reversed", "problem-param-list",
            "problem-param-bool", "semilagrangian-epsilon", "penalty-epsilon",
            "study-window-empty", "study-window-discounted-t", "seed-negative-solve",
            "seed-negative-study"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, text, args):
        config = write_config(tmp_path, text)
        command, *flags = args
        status = cli.main([command, "--config", str(config),
                           "--out", str(tmp_path / "out"), *flags])
        assert status == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_that_is_no_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Without --out the run writes to the config's output: nothing is written.
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, MINIMAL + "output: 5\n")
        assert cli.main(["solve", "--config", str(config)]) == 2
        assert "output must be a directory path, got 5" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [config.name]

    @pytest.mark.parametrize("key", ["tol", "max_iters", "residual_tol"])
    def test_policy_iteration_limits_are_unknown_keys(self, tmp_path, capsys, key):
        # Policy iteration's limits are constants of the penalty module.
        config = write_config(tmp_path, MINIMAL + f"solver: {{{key}: 1}}\n")
        status = cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")])
        assert status == 2
        assert f"unknown key {key!r} in solver" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReadmeSchema:
    """The README's schema block is the config format parse_config reads."""

    # Values for the keys the block leaves empty (required, no default).
    REQUIRED = {("problem", "name"): "cash", ("grid", "Q"): 4.0, ("grid", "M"): 8,
                ("grid", "N"): 6, ("grid", "c_b"): 1.0}

    def schema(self):
        text = README.read_text(encoding="utf-8")
        return yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])

    def test_every_listed_key_is_accepted(self, tmp_path):
        schema = self.schema()
        for (section, key), value in self.REQUIRED.items():
            assert schema[section][key] is None
            schema[section][key] = value
        spec = cli.parse_config(write_config(tmp_path, json.dumps(schema)))
        assert spec.problem_name == "cash" and spec.M == 8 and spec.c_b == 1.0

    def test_solver_keys_are_the_solver_config(self):
        assert set(self.schema()["solver"]) == {f.name for f in fields(SolverConfig)}


class TestRequestedChecks:
    @pytest.mark.parametrize("scheme", ["ios"])
    @pytest.mark.parametrize("args", [["solve", "--check"], ["study"], ["validate"]],
                             ids=["solve", "study", "validate"])
    def test_residual_oracle_without_audit_is_config_error(self, tmp_path, capsys, scheme,
                                                          args):
        text = (MINIMAL.replace("scheme: penalty", f"scheme: {scheme}")
                + "checks: [stability, residual_oracle]\n")
        config = write_config(tmp_path, text)
        command, *flags = args
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert cli.main([command, "--config", str(config), *out, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"check 'residual_oracle' does not apply to scheme {scheme!r}" in err
        assert not (tmp_path / "out").exists()


class TestSemiLagrangianAudit:
    """residual_oracle audits a semi-Lagrangian run with the SL equations: a
    solve whose feet are wrong fails its run."""

    @pytest.mark.parametrize("config, args", [
        ("cash_semilagrangian_refined.yaml", ["solve", "--check"]),
        ("cash_semilagrangian_study.yaml", ["study"])], ids=["solve", "study"])
    def test_tripled_feet_fail_the_run(self, tmp_path, monkeypatch, config, args):
        # Feet at x_j + 3 drift dt pass every other check of these configs.
        command, *flags = args
        spec = cli.parse_config(CONFIGS / config)
        assert "residual_oracle" in spec.checks
        true_feet = semilag.foot_points

        def tripled(grid, problem, controls):
            return true_feet(grid, replace(problem, drift=lambda x, b: 3.0 * problem.drift(x, b)),
                             controls)

        monkeypatch.setattr(semilag, "foot_points", tripled)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(CONFIGS / config), "--out", str(out),
                         *flags]) == 1
        failures = json.loads((out / "report.json").read_text())["failures"]
        assert failures and all(f["name"].endswith("residual_oracle") and f["value"] > 0.1
                                for f in failures)


class TestTimeAxis:
    """grid.N is the time axis of a finite-horizon problem; a discounted
    problem is solved on a grid with none."""

    @pytest.mark.parametrize("text", [
        DISCOUNTED_CASH.replace("M: 20}", "M: 20, N: 15}"), MINIMAL.replace(", N: 8}", "}"),
    ], ids=["discounted-with-N", "finite-horizon-without-N"])
    def test_grid_N_is_a_config_error(self, tmp_path, capsys, text):
        config = write_config(tmp_path, text)
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config error: grid.N is required for a finite-horizon problem" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_discounted_rho_is_the_spacing(self, tmp_path):
        text = DISCOUNTED_CASH.replace("Q: 4.0, M: 20}", "Q: 4, rho: 0.29}")
        spec = cli.parse_config(write_config(tmp_path, text))
        assert cli.run(spec, mode="solve", out_dir=tmp_path / "out") == 0
        grid = json.loads((tmp_path / "out" / "report.json").read_text())["grid"]
        # M = round(4 / 0.29) = 14; there is no timestep for rho to take the max with.
        assert grid["rho"] == 4 / 14
        assert (grid["N"], grid["T"], grid["dt"]) == (0, 0, 0)


class TestPenaltyParameter:
    """solver.c_eps is the one setting of epsilon = c_eps * rho."""

    def test_c_eps_sets_the_reported_epsilon(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, MINIMAL + "solver: {c_eps: 0.5}\n"))
        assert cli.run(spec, mode="solve", out_dir=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["diagnostics"]["epsilon"] == 0.125     # 0.5 * rho, rho = 0.25
        assert "epsilon" not in report["config"]["solver"]

    def test_epsilon_key_is_unknown(self, tmp_path):
        text = MINIMAL + "solver: {epsilon: 0.1}\n"
        with pytest.raises(ConfigError, match="unknown key 'epsilon' in solver"):
            cli.parse_config(write_config(tmp_path, text))

    def test_semilagrangian_solve_reports_no_epsilon(self, tmp_path):
        spec = cli.parse_config(CONFIGS / "cash_semilagrangian_refined.yaml")
        assert cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["diagnostics"]["epsilon"] is None


class TestRunStudy:
    def test_heat_study_reports_two_orders(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, HEAT_STUDY))
        status = cli.run(spec, mode="study", out_dir=tmp_path / "out")
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        orders = [lv["observed_order"] for lv in report["study"]["levels"]]
        assert orders[0] is None
        assert len([o for o in orders if o is not None]) == 2
        assert all(0.7 <= o <= 1.3 for o in orders if o is not None)
        plot = (tmp_path / "out" / "plotdata.csv").read_text().splitlines()
        levels_seen = {line.split(",")[0] for line in plot[1:]}
        assert levels_seen == {"0", "1", "2"}

    def test_solve_and_study_share_check_entries(self, tmp_path):
        text = HEAT_STUDY.replace("checks: [stability, matrices]",
                                  "checks: [stability, matrices, residual_oracle]")
        spec = cli.parse_config(write_config(tmp_path, text))
        cli.run(spec, mode="solve", out_dir=tmp_path / "solve", check=True)
        cli.run(spec, mode="study", out_dir=tmp_path / "study")
        solve = json.loads((tmp_path / "solve" / "report.json").read_text())
        study = json.loads((tmp_path / "study" / "report.json").read_text())
        assert len(solve["checks"]) == 3
        assert solve["checks"] == study["study"]["levels"][0]["checks"]

    def test_levels_override(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, HEAT_STUDY))
        cli.run(spec, mode="study", out_dir=tmp_path / "out", levels=2)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["study"]["levels"]) == 2

    def test_semilagrangian_study_reports_oversteps(self, tmp_path):
        # Boundary feet overstep at every level; on the refined grid no
        # interior foot does (overstep_threshold is 16, far above each rho).
        spec = cli.parse_config(CONFIGS / "cash_semilagrangian_study.yaml")
        assert cli.run(spec, mode="study", out_dir=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        levels = report["study"]["levels"]
        assert len(levels) == 3
        assert all(lv["oversteps"] > 0 for lv in levels)
        assert all(lv["interior_oversteps"] == 0 for lv in levels)
        assert all(lv["epsilon"] is None for lv in levels)

    def test_semilagrangian_study_checks_each_level_once(self, tmp_path, monkeypatch):
        # Before any solve, the study builds each level's controls and runs
        # the diffusion precheck once per level; the solves take those
        # controls, and each solve checks its own diffusion once more.
        calls = {"controls": 0, "diffusion": 0, "diffusion_before_solving": None}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        def first_solve(fn):
            def wrapped(*args):
                if calls["diffusion_before_solving"] is None:
                    calls["diffusion_before_solving"] = calls["diffusion"]
                return fn(*args)
            return wrapped

        record = harness.SCHEMES["semilagrangian"]
        monkeypatch.setitem(harness.SCHEMES, "semilagrangian",
                            replace(record, precheck=counted("diffusion", record.precheck)))
        monkeypatch.setattr(semilag, "diffusion_variance",
                            counted("diffusion", semilag.diffusion_variance))
        monkeypatch.setattr(harness, "discretize_controls",
                            counted("controls", harness.discretize_controls))
        monkeypatch.setattr(harness, "_solve_for_study", first_solve(harness._solve_for_study))
        spec = cli.parse_config(CONFIGS / "cash_semilagrangian_study.yaml")
        assert cli.run(spec, mode="study", out_dir=tmp_path / "out") == 0
        assert spec.levels == 3
        assert calls == {"controls": 3, "diffusion": 6, "diffusion_before_solving": 3}

    def test_monotonicity_reported_at_every_level(self, tmp_path, monkeypatch):
        text = HEAT_STUDY.replace("checks: [stability, matrices]",
                                  "checks: [stability, monotonicity]")
        spec = cli.parse_config(write_config(tmp_path, text))
        assert cli.run(spec, mode="study", out_dir=tmp_path / "out", levels=2) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [[c["name"] for c in lv["checks"]] for lv in report["study"]["levels"]] == [
            ["stability_bound", "monotonicity"]] * 2
        # A violation at each level fails the study under the level's name.
        monkeypatch.setattr(harness, "check_monotonicity", lambda *args: harness.PropertyCheck(
            "monotonicity", False, value=1.0, witness="trial 0, node 2"))
        assert cli.run(spec, mode="study", out_dir=tmp_path / "failed", levels=2) == 1
        report = json.loads((tmp_path / "failed" / "report.json").read_text())
        assert [(f["name"], f["witness"]) for f in report["failures"]] == [
            ("level0:monotonicity", "trial 0, node 2"), ("level1:monotonicity", "trial 0, node 2")]

    def test_failing_monotonicity_keeps_its_witness(self, tmp_path, monkeypatch):
        # A penalty row that rises with u_{j+1} at node 3 only: the failure in
        # report.json names the node of the first violating trial.
        row = harness.penalty_mod.monotonicity_row

        def mutated_row(problem, grid, *args):
            clean = row(problem, grid, *args)

            def mutated(j, u_n, u_next, obstacle_value):
                value = clean(j, u_n, u_next, obstacle_value)
                return value + 1e3 * u_n[grid.offset(j) + 1] if j == 3 else value
            return mutated

        monkeypatch.setattr(harness.penalty_mod, "monotonicity_row", mutated_row)
        spec = cli.parse_config(write_config(tmp_path, DISCOUNTED_CASH))
        assert cli.run(spec, mode="solve", out_dir=tmp_path / "out", check=True) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        [failure] = report["failures"]
        assert failure["name"] == "monotonicity" and failure["value"] >= 1
        assert re.fullmatch(r"trial \d+, node 3: row \S+ at u above \S+ at w <= u "
                            r"\(gap \S+\)", failure["witness"])

    def test_ios_study_reports_zero_oversteps(self, tmp_path):
        spec = cli.parse_config(CONFIGS / "cash_ios_study.yaml")
        assert cli.run(spec, mode="study", out_dir=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [(lv["oversteps"], lv["interior_oversteps"])
                for lv in report["study"]["levels"]] == [(0, 0), (0, 0)]


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["solve", "study"])
    def test_byte_identical_outputs(self, tmp_path, mode):
        config_text = HEAT_STUDY.replace("levels: 3", "levels: 2")
        spec = cli.parse_config(write_config(tmp_path, config_text))
        cli.run(spec, mode=mode, out_dir=tmp_path / "a", check=True)
        cli.run(spec, mode=mode, out_dir=tmp_path / "b", check=True)
        for name in ("solution.csv", "report.json", "plotdata.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seventeen_digit_float_format(self, tmp_path):
        spec = cli.parse_config(write_config(tmp_path, MINIMAL))
        cli.run(spec, mode="solve", out_dir=tmp_path / "out")
        text = (tmp_path / "out" / "solution.csv").read_text()
        # dt = 0.125 and node 0.25 survive the 17-digit round trip exactly.
        assert "0.125" in text
        assert cli._fmt(1 / 3) == "0.33333333333333331"


def reference_solution_csv(sol) -> str:
    """solution.csv written one cell at a time with cli._fmt."""
    grid = sol.grid
    lines = ["n,t,j,x,u,policy_b,policy_intervene,policy_z"]
    for n in range(sol.surface.shape[0]):
        policy = sol.policies[n]
        for i in range(grid.n_nodes):
            row = [str(n), cli._fmt(n * grid.dt), str(i - grid.M), cli._fmt(grid.nodes[i]),
                   cli._fmt(sol.surface[n][i])]
            if policy is None:
                row += ["", "", ""]
            else:
                row += [cli._fmt(policy.controls[i]), str(int(policy.intervene[i])),
                        cli._fmt(policy.impulses[i])]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_plotdata_csv(solutions) -> str:
    lines = ["level,rho,x,u0"]
    for level, sol in enumerate(solutions):
        if sol is not None:
            lines += [",".join([str(level), cli._fmt(sol.grid.rho), cli._fmt(sol.grid.nodes[i]),
                                cli._fmt(sol.surface[0][i])]) for i in range(sol.grid.n_nodes)]
    return "\n".join(lines) + "\n"


class TestArtifactColumns:
    """The CSV writers format whole columns with _fmt's float rule."""

    def solution(self):
        """A small penalty solution with non-finite, signed-zero and 17-digit
        entries, and a policy row of every kind."""
        grid = build_uniform_grid(Q=2.0, M=4, N=3, T=1.0)
        sol = solve_finite_horizon(builtin("constant", {"c": 5.0}), grid)
        surface = sol.surface.copy()
        surface[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
        n = grid.n_nodes
        policies = list(sol.policies)
        # The -0.0, NaN and +-inf cells sit in the value tables the policy
        # indexes; column -1 reads as a NaN impulse.
        policies[0] = PenaltyPolicy(
            control_rows=np.minimum(np.arange(n), 3), intervene=np.arange(n) % 2 == 1,
            impulse_columns=np.array([0, 1] + [-1] * (n - 2)),
            control_values=np.array([-0.0, 0.5, np.nan, 0.1]),
            candidates=np.broadcast_to([np.inf, -1.0], (n, 2)))
        assert policies[-1] is None
        return replace(sol, surface=surface, policies=policies)

    def test_match_a_per_cell_fmt_loop(self, tmp_path):
        sol = self.solution()
        cli.write_solution_csv(tmp_path / "solution.csv", sol)
        text = (tmp_path / "solution.csv").read_bytes().decode("utf-8")
        assert text == reference_solution_csv(sol)
        assert "\n0,0,-4,-2,null,-0,0,null\n0,0,-3,-1.5,null,0.5,1,-1\n" in text
        assert "\n0,0,-1,-0.5,-0,0.10000000000000001,1,null\n" in text
        assert "\n1,0.33333333333333331,-4,-2," in text and text.endswith(",,\n")
        cli.write_plotdata_csv(tmp_path / "plotdata.csv", [sol, None, sol])
        text = (tmp_path / "plotdata.csv").read_bytes().decode("utf-8")
        assert text == reference_plotdata_csv([sol, None, sol])
        assert "\n0,0.5,-2,null\n" in text and "\n2,0.5,-0.5,-0\n" in text
