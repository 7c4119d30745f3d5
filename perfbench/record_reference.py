"""Record the t=0 reference slices the benchmark's correctness gate compares to.

    python3 perfbench/record_reference.py

Solves every workload at seeds 0 .. SEEDS-1 ("full" grids) and at seed 0
("tiny" grids, for the self-test), requires each to pass the workload's own
checks, and writes a fingerprint of the t=0 slice (node count, sum and every
STRIDE-th value) to perfbench/reference.json.  Re-record only when a change
is meant to move the solution surfaces, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_PATH, SIZES, WORKLOADS, cash_params, fingerprint  # noqa: E402

SEEDS = 20
STRIDE = 16
TOLERANCE = 1e-8


def main() -> int:
    workdir = ROOT / ".bench_build" / "perfbench" / "reference"
    slices: dict = {}
    try:
        for size, seeds in (("tiny", [0]), ("full", range(SEEDS))):
            for name, cls in WORKLOADS.items():
                for seed in seeds:
                    impl = cls(cash_params(seed), SIZES[size][name], workdir)
                    outcome = impl.unit()
                    failures = impl.check(outcome)
                    if failures:
                        print(f"{size} {name} seed {seed}: {failures}", file=sys.stderr)
                        return 1
                    slices.setdefault(size, {}).setdefault(name, {})[str(seed)] = \
                        fingerprint(outcome.u0, STRIDE)
                    print(f"{size} {name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(
        {"tolerance": TOLERANCE, "stride": STRIDE, "slices": slices}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
