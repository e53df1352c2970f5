"""Check the result line of a benchmark smoke run.

Run from the repository root, after a traced run of both workloads (the CI
workflow does the same on Python 3.11; pytest does not collect this file):

    python perfbench/run.py --workload all --seconds 2 --trace 1 > bench-smoke.txt
    python tests/check_bench_smoke.py bench-smoke.txt

The last line of the run's output must be strict JSON (a non-finite
constant such as NaN is refused) with ``"correct": true``, no line may
report a layer ``absent:``, and the result must hold every per-layer
metric of ``BENCHMARK.json`` for each of its workloads.  The script prints
one line and exits 0 when all of this holds, else it exits 1 naming what
failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def refuse(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


def main(path: str) -> int:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    result = json.loads(lines[-1], parse_constant=refuse)
    if result["correct"] is not True:
        sys.exit(f"the run is not correct: {result}")
    absent = [line.strip() for line in lines if line.strip().startswith("absent:")]
    if absent:
        sys.exit(f"layers reported absent: {absent}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [
        f"{workload['name']}.{layer['name']}"
        for workload in benchmark["workloads"]
        for layer in benchmark["per_layer"]
        if f"{workload['name']}.{layer['name']}" not in result["metrics"]
    ]
    if missing:
        sys.exit(f"per-layer metrics missing from the result: {missing}")
    print("result line ok:", len(result["metrics"]), "metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
