"""Self-test of the benchmark on tiny grids (M=10); takes well under a minute.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that each workload stresses the layers it was chosen for,
that a traced name missing from the package stops the run,
that a unit whose output is corrupted or that raises SolverError is counted
as failed rather than dropped, that reference seconds follow the work done
(twice the work reads about twice the time), and that the benchmark refuses
to run where the hjbqvi sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402
from hjbqvi import NonConvergenceError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The layer times each workload was chosen to stress: every one must be
# measured there, so a traced name that stops being called shows as a failure.
STRESSED_SPANS = {
    "penalty-cash": ("problem.eval_on.s", "operators.intervention_table.s",
                     "penalty.best_control.s", "penalty.residual.s", "penalty.assemble.s",
                     "penalty.spsolve.s", "matrices.analyze.s"),
    "semilag-cash-refined": ("problem.eval_on.s", "operators.intervention_table.s",
                             "semilag.sl_rhs.s", "semilag.thomas.s", "semilag.assemble_A.s",
                             "matrices.analyze.s"),
    "study-cash": ("oracle.brute_force.s", "harness.solve.s", "harness.sup_error.s",
                   "harness.stability.s", "cli.parse_config.s", "cli.write_artifacts.s"),
}
WORKDIR = ROOT / ".bench_build" / "perfbench" / "selftest"


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class PrintedMetrics(unittest.TestCase):
    """Every workload prints every metric of its mode, by name and unit."""

    def check_result(self, out, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertIn("fail_rate 0/", out)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIn(f"{m['name']} ", out)

    def test_every_workload(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["penalty-cash", "semilag-cash-refined", "study-cash"])
        layers = {}
        for w in SPEC["workloads"]:
            out, result = tiny_run(w["name"], trace=0)
            self.check_result(out, result, SPEC["end_to_end"])
            for m in result["metrics"].values():
                self.assertGreater(m["value"], 0.0)
            out, result = tiny_run(w["name"], trace=1)
            self.check_result(out, result, SPEC["per_layer"])
            layers[w["name"]] = {k: m["value"] for k, m in result["metrics"].items()}
            for name in STRESSED_SPANS[w["name"]]:
                self.assertGreater(layers[w["name"]][name], 0.0, f"{w['name']} {name}")

        penalty = layers["penalty-cash"]
        self.assertEqual(penalty["operators.intervention_table.builds"], 2 * 8)
        self.assertEqual(penalty["operators.impulse_cache.hit_ratio"], 0.5)
        self.assertGreater(penalty["penalty.best_control.calls"], 0)
        self.assertGreaterEqual(penalty["penalty.pi_iters_per_step"], 1.0)

        semilag = layers["semilag-cash-refined"]
        for name, value in semilag.items():
            if name.startswith("penalty.") and name.endswith(".calls"):
                self.assertEqual(value, 0, name)
        self.assertEqual(semilag["operators.impulse_cache.hit_ratio"], 0.0)
        self.assertEqual(semilag["semilag.interior_oversteps"], 0)
        self.assertGreater(semilag["semilag.oversteps"], 0)

        study = layers["study-cash"]
        self.assertEqual(study["oracle.brute_force.calls"], 3)
        self.assertGreater(study["cli.artifact_bytes"], 0)
        self.assertGreater(study["cli.parse_config.s"], 0.0)
        self.assertGreater(study["harness.doubling_ratio"], 1.0)


class FailedUnits(unittest.TestCase):
    """Failed units are counted in attempted and failed, never dropped."""

    def run_with(self, workload_name, spoil):
        workload = Workload(workload_name, 0, "tiny", WORKDIR)
        unit = workload.unit
        calls = []

        def spoiled_unit():
            calls.append(None)
            return spoil(unit) if len(calls) == 2 else unit()

        workload.unit = spoiled_unit
        try:
            return worker.measure(workload, workload, seconds=0.3)
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_corrupted_output_fails_against_reference(self):
        def corrupt(unit):
            outcome = unit()
            # Node 1 is not one of the sampled nodes, so only the sum sees it.
            outcome.u0 = outcome.u0.copy()
            outcome.u0[1] += 1e-4
            return outcome

        for name in ("penalty-cash", "semilag-cash-refined", "study-cash"):
            run = self.run_with(name, corrupt)
            self.assertEqual(run["failed"], 1, name)
            self.assertGreaterEqual(run["attempted"], 2, name)
            self.assertIn("reference", run["failures"][0])
            self.assertTrue(run["failures"][0].startswith("unit 2:"))
            self.assertEqual(len(run["plain_s"]), run["attempted"] - 1)

    def test_solver_error_is_a_failed_unit(self):
        def raise_error(unit):
            raise NonConvergenceError("injected by the self-test")

        run = self.run_with("penalty-cash", raise_error)
        self.assertEqual(run["failed"], 1)
        self.assertIn("NonConvergenceError", run["failures"][0])


class HostSpeed(unittest.TestCase):
    """Reference seconds follow the program's work, not the host's speed."""

    def test_sampler_spreads_over_a_unit(self):
        with hostspeed.Sampler() as sampler:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(sampler.samples, 3)
        self.assertGreater(sampler.slowdown, 0.0)

    def test_doubled_work_reads_double(self):
        workload = Workload("penalty-cash", 0, "tiny", WORKDIR)
        try:
            single = worker.measure(workload, workload, seconds=1.0)
            unit = workload.unit
            workload.unit = lambda: (unit(), unit())[1]
            double = worker.measure(workload, workload, seconds=1.0)
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
        self.assertEqual(len(single["slowdown"]), len(single["plain_s"]))
        ratio = (hostspeed.ref_seconds(double["plain_s"], double["slowdown"])
                 / hostspeed.ref_seconds(single["plain_s"], single["slowdown"]))
        self.assertGreater(ratio, 1.6)
        self.assertLess(ratio, 2.5)


class MissingBindings(unittest.TestCase):
    def test_missing_binding_is_an_error(self):
        penalty = tracing.load_modules()["penalty"]
        original = penalty._best_control
        del penalty._best_control
        try:
            with self.assertRaises(tracing.MissingBinding):
                with tracing.Tracer().installed(1, tracing.load_modules()):
                    pass
        finally:
            penalty._best_control = original


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.iterdir():
                if path.is_file():
                    shutil.copy(path, bare / "perfbench")
            proc = bench("--workload", "penalty-cash", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
