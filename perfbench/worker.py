"""Measure one workload in this (fresh) process; print the result as JSON.

Started by run.py, one process per workload and per set-up sample:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--size full|tiny] [--setup-only]

The clock for set-up starts when the parent spawns this process: the
result carries ``ready``, the CLOCK_MONOTONIC time at which the inputs were
built, which the parent subtracts from its own spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
from tracing import (SETUP_UNIT, MissingBinding, Tracer, load_modules, median_metrics,
                     unit_layer_metrics)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MAX_FAILURE_MESSAGES = 5


def attempt(workload, tracer=None, modules=None, unit_id=None):
    """Run and check one unit: (seconds, slowdown, failure messages, outcome or None).

    Untraced, the unit runs under a ``hostspeed.Sampler``: the seconds leave
    out its kernel samples and the slowdown is the host's during the unit.
    Traced, the slowdown is None.  A unit that raises SolverError is a failed
    unit, not a crash.
    """
    from hjbqvi import SolverError

    sampler = None
    start = time.perf_counter()
    try:
        if tracer is None:
            with hostspeed.Sampler() as sampler:
                outcome = workload.unit()
        else:
            with tracer.installed(unit_id, modules):
                outcome = workload.unit()
        errors = None
    except SolverError as exc:
        outcome, errors = None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    slowdown = None
    if sampler is not None:
        elapsed -= sampler.kernel_s
        slowdown = sampler.slowdown
    if errors is None:
        errors = workload.check(outcome)
    return elapsed, slowdown, errors, outcome


def measure(workload, warmup, seconds: float, tracer=None, modules=None) -> dict:
    """One untimed warm-up unit, then units until ``seconds`` have passed.

    The warm-up is the same workload on tiny grids: it runs every code path
    a unit runs (lazy imports, first calls) for a fraction of the cost.

    Without a tracer every unit is timed plainly, beside the host's slowdown
    during it.  With one, plain and traced units alternate (at least one of
    each), so the traced run also measures its own overhead.  Every unit,
    warm-up included, counts as attempted.
    """
    failures: list[str] = []
    plain: list[float] = []
    traced: list[float] = []
    slowdowns: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0

    def run(timed: list | None, trace: bool, which=workload):
        nonlocal attempted, failed
        attempted += 1
        elapsed, slowdown, errors, outcome = attempt(
            which, tracer if trace else None, modules, unit_id=attempted)
        failed += bool(errors)
        failures.extend(f"unit {attempted}: {e}" for e in errors)
        if timed is not None:
            timed.append(elapsed)
            if slowdown is not None:
                slowdowns.append(slowdown)
        if trace and outcome is not None:
            # Reduce the unit to its metrics now: the outcome holds the
            # unit's solutions and impulse caches, hundreds of MB at full size.
            layers.append(unit_metrics(tracer, attempted, outcome))

    run(None, trace=False, which=warmup)
    deadline = time.perf_counter() + seconds
    while True:
        trace = tracer is not None and len(traced) < len(plain)
        run(traced if trace else plain, trace)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "plain_s": plain, "slowdown": slowdowns, "traced_s": traced, "layers": layers}


def unit_metrics(tracer, unit_id, outcome) -> dict:
    captured = tracer.captured.pop(unit_id, {"solutions": [], "controls": []})
    return unit_layer_metrics(
        tracer.table(unit_id), tracer.counters[unit_id],
        outcome.solutions + captured["solutions"],
        outcome.controls + captured["controls"],
        outcome.artifact_bytes,
    )


def layer_metrics(tracer, run) -> dict:
    """Per-layer metrics of the run: medians over its traced units."""
    metrics = median_metrics(run["layers"])
    setup = tracer.table(SETUP_UNIT)
    metrics["cli.parse_config.s"] = \
        setup["cli.parse_config"][1] if "cli.parse_config" in setup else 0.0
    metrics["trace.overhead_s"] = \
        statistics.median(run["traced_s"]) - statistics.median(run["plain_s"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import hjbqvi
    if not Path(hjbqvi.__file__).resolve().is_relative_to(SRC):
        print(f"hjbqvi imported from {hjbqvi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import Workload

    workdir = WORK / f"{args.workload}-{args.seed}-{args.size}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    modules = load_modules() if args.trace else None
    try:
        if tracer is None:
            workload = Workload(args.workload, args.seed, args.size, workdir)
        else:
            with tracer.installed(SETUP_UNIT, modules):
                workload = Workload(args.workload, args.seed, args.size, workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            warmup = Workload(args.workload, args.seed, "tiny", workdir / "warm-up")
            run = measure(workload, warmup, args.seconds, tracer, modules)
            import numpy
            import scipy
            result.update(
                attempted=run["attempted"], failed=run["failed"],
                failures=run["failures"][:MAX_FAILURE_MESSAGES],
                plain_s=run["plain_s"], slowdown=run["slowdown"], traced_s=run["traced_s"],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__},
            )
            if tracer is not None and run["layers"]:
                result["layers"] = layer_metrics(tracer, run)
                WORK.mkdir(parents=True, exist_ok=True)
                tracer.write(WORK / f"trace-{args.workload}-{args.seed}-{args.size}.csv.gz")
    except MissingBinding as exc:
        print(f"cannot trace: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
