"""Self-test of the benchmark on a few jobs of each workload.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs the first jobs of the seed-0
job list once untraced and twice traced, and checks that

* the seed-0 inputs are the ones recorded in expected/ (the run exits 3
  otherwise);
* every end-to-end and per-layer metric BENCHMARK.json names is reported,
  with its unit, and nothing else is;
* every job passes its output checks, and tracing changes no exit code
  or stdout digest (the traced passes are compared with the untraced one);
* the two traced runs report identical work counts.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

JOBS = 12
COUNT_UNITS = {"count", "count/pass"}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != run.END_TO_END or per_layer != run.PER_LAYER:
        fail("BENCHMARK.json and run.py name different metrics or units")

    run.import_program()
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            plain, _ = run.run_workload(workload, 0, 0, trace=False, limit=JOBS)
        except run.BenchError as exc:
            fail(f"{workload}: {exc}")
        traced = [run.run_workload(workload, 0, 0, trace=True, limit=JOBS)[0]
                  for _ in range(2)]
        for result, want in ((plain, end_to_end), (traced[0], per_layer)):
            if units(result) != want:
                fail(f"{workload}: metrics {sorted(units(result))} != {sorted(want)}")
            if not result["correct"] or result["failed"]:
                fail(f"{workload}: {result['failed']} of {result['attempted']} jobs failed")
        counts = [
            {name: m["value"] for name, m in r["metrics"].items()
             if m["unit"] in COUNT_UNITS or name.endswith("distinct_ratio")}
            for r in traced
        ]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            fail(f"{workload}: counts differ between two traced runs: {diff}")
        print(f"ok {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} per-layer "
              f"metrics, {len(counts[0])} counts repeat, tracing kept every digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
