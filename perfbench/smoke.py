"""Smoke check of the benchmark: every workload once at a tiny size.

    python3 perfbench/smoke.py

Runs ``run.py --size tiny --seconds 0`` for each workload, untraced and
traced, and checks that it exits 0, reports correct results and emits every
metric BENCHMARK.json names, with its unit.  Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, declared: list) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        problems.append(f"{where}: bad result header {({k: v for k, v in result.items() if k != 'metrics'})}")
    metrics = result["metrics"]
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {spec['name']} missing or malformed: {got}")
    extra = set(metrics) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            found = check(workload, trace, declared)
            print(f"{workload:<14} trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
