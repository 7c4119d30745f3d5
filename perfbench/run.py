"""hjbqvi benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, untraced then traced

Each workload runs in a fresh worker process (perfbench/worker.py), single
threaded, one unit at a time: an untimed warm-up unit (the same workload on
tiny grids), then units until ``--seconds`` have passed.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
BENCHMARK.json.  End-to-end times are in reference seconds, corrected for
the host's speed while they were taken (hostspeed.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 1
when any unit failed its correctness gate and 2 when the benchmark itself
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 6
SETUP_KERNEL_REPEATS = 10
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a unit failing its gate)."""


def spawn_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its set-up time."""
    env = dict(os.environ, **THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} exceeded the run time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def host() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower()}={size}")
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": " ".join(caches),
            "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One workload's result line: {correct, attempted, failed, metrics}."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--size", size]
    setups, raw_setups = [], []

    def probe_setups(count):
        # Each probe is bracketed by kernel runs in this process, which give
        # the host's slowdown around it (see hostspeed.py).
        for _ in range(count):
            before = hostspeed.kernel_seconds(SETUP_KERNEL_REPEATS)
            _, setup = spawn_worker([*common, "--seconds", "0", "--setup-only"], deadline)
            after = hostspeed.kernel_seconds(SETUP_KERNEL_REPEATS)
            slowdown = (before + after) / (2 * SETUP_KERNEL_REPEATS * hostspeed.KERNEL_REF_S)
            raw_setups.append(setup)
            setups.append(setup / slowdown)

    # Set-up probes straddle the measuring process, so one slow spell of the
    # host does not shift every sample.
    probes = 0 if trace else SETUP_SAMPLES // 2
    probe_setups(probes)
    result, _ = spawn_worker([*common, "--seconds", str(seconds),
                              "--trace", str(trace)], deadline)
    probe_setups(probes)

    versions = " ".join(f"{k}={v}" for k, v in result["versions"].items())
    hw = " ".join(f"{k}={v}" for k, v in host().items())
    print(f"# {name} seed={seed} size={size} trace={trace} {versions} {hw}")
    for message in result["failures"]:
        print(f"# FAILED {message}")
    attempted, failed = result["attempted"], result["failed"]
    for kind in ("plain_s", "traced_s"):
        if result[kind]:
            print(f"{kind} per unit: " + " ".join(f"{v:.4f}" for v in result[kind]))
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.4g}")

    if trace:
        values = result.get("layers", {})    # absent when no traced unit passed
        print(f"traced units {len(result['traced_s'])}, plain units {len(result['plain_s'])}")
    else:
        plain, slowdown = result["plain_s"], result["slowdown"]
        values = {
            "ref_wall_s": hostspeed.ref_seconds(plain, slowdown),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"wall_s {statistics.median(plain):.6g} s (raw, median of {len(plain)} units), "
              f"host slowdown {statistics.median(slowdown):.4g} (median), "
              f"setup {statistics.median(raw_setups):.4g} s (raw, median of {len(setups)})")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: untraced then traced")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny grids are for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hjbqvi" / "__init__.py").is_file():
        print(f"no hjbqvi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    try:
        results = {(w, t): run_workload(w, args.seed, args.seconds, t, args.size)
                   for w in workloads for t in traces}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for (w, _), r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
