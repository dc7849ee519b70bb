"""Self-tests of the service benchmark (about four minutes on two cores).

Run from the repository root::

    python3 servicebench/selftest.py

For every workload, a tiny-size run (``--tiny``) must be correct and
print every metric named in ``BENCHMARK.json`` with its unit: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A run with deliberately wrong references
(``--wrong-reference``) must report ``failed`` > 0 and ``correct`` false.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def check_result(result: dict, expected: dict[str, str], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(expected):
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        problems.append(f"{label}: missing {sorted(missing)} extra {sorted(extra)}")
    for name, unit in expected.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} = {got}, expected unit {unit}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted = {result['attempted']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            result, stdout = run(workload, trace)
            problems += check_result(result, expected, label)
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct (failed={result['failed']})")
            # Every end-to-end metric is also printed as a report line.
            for name, unit in end_to_end.items():
                if not any(
                    line.startswith(f"# metric {name} = ") and f" {unit} (" in line
                    for line in stdout.splitlines()
                ):
                    problems.append(f"{label}: no report line for {name}")
            print(f"ok? {not problems} {label}", flush=True)
        result, _ = run(workload, 0, "--wrong-reference")
        if result["failed"] < 1 or result["correct"]:
            problems.append(f"{workload}: a wrong reference went unnoticed")
        print(f"ok? {not problems} {workload} --wrong-reference", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
