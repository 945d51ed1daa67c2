#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 dacebench/smoke.py

Runs every workload of BENCHMARK.json for one second through
dacebench/run.py, untraced and traced. run.py exits non-zero when the
emitted metric names or units differ from BENCHMARK.json; on top of that
this asserts that each run's output checks ran and passed and that
nothing failed. Exits non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 1.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, str(ROOT / "dacebench" / "run.py"),
                 "--workload", workload, "--seed", "7",
                 "--seconds", str(SECONDS), "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout.strip().splitlines()
            result, report = json.loads(out[-1]), json.loads(out[-2])["report"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert report["checks"] > 0, f"{workload} trace {trace}: no output checks ran"
            assert report["check_failures"] == 0, f"{workload} trace {trace}: {report}"
            assert result["correct"] is True, f"{workload} trace {trace}: incorrect"
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            print(f"ok  {workload:<10} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{report['checks']:.0f} checks")


if __name__ == "__main__":
    main()
