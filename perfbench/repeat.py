"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload many_blocks --seeds 1-10 --seconds 40

For every metric it prints the median, the first and third quartiles as
`statistics.quantiles(values, n=4)` gives them, and their distance as a
share of the median (the run-to-run spread). --out writes the summary and
every run's result as JSON, which is how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            wall = time.perf_counter() - t
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
        names = runs[0]["metrics"]
        metrics = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs
                                if r["metrics"][name]["value"] is not None])}
            for name in names
        }
        summary[workload] = {"metrics": metrics, "runs": runs}
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<30} median {m['median']:.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
