"""Fast self-test of the benchmark: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line is the result JSON with
exactly the keys correct/attempted/failed/metrics, that every end-to-end
(--trace 0) or per-layer (--trace 1) metric of BENCHMARK.json is printed with
its unit and a numeric value, and that a checkout without the rcpca sources
makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tall_cli", "many_blocks", "wide")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            *report, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                problems.append(f"{label}: no op attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{label}: {name} = {m['value']!r}")
            if trace == 0 and not any("failed_ratio" in line for line in report):
                problems.append(f"{label}: failed_ratio not printed")
            print(f"ok  {label}: {result['attempted']} ops, {result['failed']} failed")

    # a directory holding only BENCHMARK.json and the benchmark must not run
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "many_blocks", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a checkout without sources still produced a result")
        else:
            print(f"ok  no sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass  # another run is still using it

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
