"""Entry point of the rcpca benchmark.

    python3 perfbench/run.py --workload tall_cli --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout. Each run goes to a child process
(`workload.py`) with the BLAS thread count pinned at or below the number of
usable cores; the child's last output line is the result JSON. The run
fails, printing no result, when the checkout holds no rcpca sources.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 2
TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tall_cli", "many_blocks", "wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny shapes, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "rcpca" / "__init__.py").is_file():
        print(f"no rcpca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        PYTHONPATH=str(ROOT / "src"),
    )
    cmd = [
        sys.executable, str(Path(__file__).with_name("workload.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--toy"] if args.toy else [])
    # a process group of its own, so a timeout also ends the CLI processes it started
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
