import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from hjbqvi import cli
from hjbqvi.exceptions import ConfigError
from hjbqvi.problem import builtin

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
grid: {Q: 4.0, M: 20, N: 15}
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
        assert spec.solver.tol == 1e-10
        assert spec.solver.max_iters == 100
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
    ], ids=["study-levels", "levels-flag", "grid-N", "grid-N-fraction", "seed",
            "solver-tol", "solver-max-iters", "solver-residual-tol-nan", "solver-tol-inf",
            "solver-c-eps-inf", "solver-c-eps-nan", "solver-epsilon-inf", "solver-epsilon-nan",
            "solver-epsilon-zero", "grid-Q-inf", "problem-param-nan", "study-epsilon"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, text, args):
        config = write_config(tmp_path, text)
        command, *flags = args
        status = cli.main([command, "--config", str(config),
                           "--out", str(tmp_path / "out"), *flags])
        assert status == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
