"""One run of one rcpca benchmark workload, in a process of its own.

`run.py` starts this file with the BLAS thread count pinned in the
environment. It builds the inputs from the seed, runs operations in a closed
loop with one client for the requested number of busy seconds, checks every
operation outside the timed region and prints one JSON object as the last
line of standard output. With --trace 1 it first runs untraced for half the
time, then installs the spans of `tracing.py` and runs traced for the other
half, and reports the per-layer metrics.

Workloads (shapes and reasons are in README.md):
  tall_cli     one `python -m rcpca run` process per op on 3 CSV blocks
  many_blocks  library op, 50 blocks of 8 columns, sumcor
  wide         library op, 3 blocks of 500 columns on 60 rows, consensus_pca
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Correctness bounds of the per-op check. The CLI trace file rounds psi to 12
# significant digits, hence the psi-relative slack. verify_stationary's
# docstring says "about 1e-6", but sumcor reaches ~1.7e-6 at the default
# epsilon, so the bound is one decade above.
PSI_RTOL = 1e-9
STATIONARY_BOUND = 1e-5
COS_BOUND = 1.0 - 1e-8

# stop starting new ops after this many seconds, so the run ends in time
DEADLINE_S = 120.0
# set-up steps timed this many times per run; setup_s sums their medians
SETUP_REPEATS = 5

SHAPES = {
    "tall_cli": {"full": {"n": 5000, "js": (40, 60, 30)}, "toy": {"n": 300, "js": (4, 6, 3)}},
    "many_blocks": {"full": {"n": 1000, "js": (8,) * 50}, "toy": {"n": 100, "js": (3,) * 6}},
    "wide": {"full": {"n": 60, "js": (500,) * 3}, "toy": {"n": 20, "js": (30,) * 3}},
}
# Loading strength of each shared latent factor, one factor per extracted
# rank. A rank fitted to pure noise converges at a rate set by the random gap
# between the top noise eigenvalues, so its iteration count is heavy-tailed:
# with one factor and 3 ranks, tall_cli needed up to 6015 iterations on 120
# instances, and one many_blocks instance in ~500 stopped at max_iter =
# 10000 with the criterion still rising. Factor strengths set well apart keep
# every rank's gap away from zero: at most 28 (tall_cli, 400 instances) and
# 24 (many_blocks, 300 instances) iterations per rank. wide keeps the single
# factor: it runs one iteration per rank, so the gap does not matter there.
FACTORS = {"tall_cli": (1.0, 0.5, 0.3), "many_blocks": (1.0, 0.4, 0.25), "wide": (1.0,)}
# tall_cli cycles through this many CSV instances; library ops get a fresh one each
TALL_INSTANCES = 3


def latent_blocks(np, rng, n, js, strengths):
    """Blocks sharing latent factors plus noise, in arbitrary units.

    Factor k loads on every column with weight strengths[k] times a standard
    normal draw. Columns get random scales and offsets and are not
    normalized: the criterion then sits far from O(1), as it does on real
    data. With one factor of strength 1 the draws are those of
    outer(f, w) + noise.
    """
    f = rng.standard_normal((n, len(strengths)))
    s = np.asarray(strengths, dtype=float)[:, None]
    blocks = []
    for j in js:
        x = f @ (s * rng.standard_normal((len(strengths), j))) + rng.standard_normal((n, j))
        blocks.append(x * rng.lognormal(0.0, 1.0, j) + rng.normal(0.0, 10.0, j))
    return blocks


def check_analysis(rcpca, preset, blockset, requested, converged, psi_traces, y_super):
    """Reason the analysis is wrong, or None when every check passes."""
    if len(converged) != requested:
        return f"{len(converged)} of {requested} ranks extracted"
    for r, ok in enumerate(converged, start=1):
        if not ok:
            return f"rank {r} did not converge"
    for r, psi in enumerate(psi_traces, start=1):
        for s, (a, b) in enumerate(zip(psi, psi[1:]), start=1):
            if b < a - PSI_RTOL * abs(a):
                return f"rank {r}: psi decreased at iteration {s} ({a!r} -> {b!r})"
    residual = rcpca.verify_stationary(preset, SimpleNamespace(y_super=y_super), blockset).residual
    if not residual <= STATIONARY_BOUND:
        return f"rank 1: stationary residual {residual:.3e} > {STATIONARY_BOUND:g}"
    return None


class LibraryWorkload:
    """from_matrix per block + build_blockset + extract, on a fresh instance per op."""

    def __init__(self, rcpca, np, seed, shape, factors, preset, scale, components):
        self.rcpca, self.np, self.seed, self.shape = rcpca, np, seed, shape
        self.factors = factors
        self.preset = rcpca.preset(preset)
        self.scale = scale
        self.components = components
        self.modes = self.preset.selector(len(shape["js"]))
        self.config = rcpca.SolverConfig(m=self.preset.m)
        self.gen_s: list[float] = []

    def inputs(self, k):
        t = time.perf_counter()
        rng = self.np.random.default_rng([self.seed, k])
        raws = latent_blocks(self.np, rng, self.shape["n"], self.shape["js"], self.factors)
        self.gen_s.append(time.perf_counter() - t)
        return raws

    def warm_up(self, toy):
        """One untimed op on the toy shape: it runs every code path once.

        setup_s then measures the set-up rather than a full-size solve.
        """
        rng = self.np.random.default_rng([self.seed, 1 << 32])
        try:
            self.run(latent_blocks(self.np, rng, toy["n"], toy["js"], self.factors), False)
        except self.rcpca.errors.RcpcaError:
            pass  # the warm-up only runs the code once; its outcome is not an op

    def run(self, raws, in_process):
        # module attributes are looked up per call so that traced runs see the spans
        dataset, deflation = self.rcpca.dataset, self.rcpca.deflation
        blocks = [dataset.from_matrix(f"b{b + 1}", x, scale=self.scale) for b, x in enumerate(raws)]
        blockset = dataset.build_blockset(blocks)
        result = deflation.extract(blockset, self.modes, self.config, self.components, "global")
        return blockset, result

    def check(self, raws, out):
        blockset, result = out
        sols = result.solutions
        reason = check_analysis(
            self.rcpca, self.preset, blockset, self.components,
            [s.trace.converged for s in sols], [s.trace.psi for s in sols], sols[0].y_super,
        )
        return reason, 0

    def cleanup(self, raws):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TallCliWorkload:
    """`python -m rcpca run` on CSV files written at set-up; traced ops call cli.main."""

    PRESET = "hierarchical_pca"
    COMPONENTS = 3

    def __init__(self, rcpca, np, seed, shape, work):
        self.rcpca, self.np, self.shape, self.work = rcpca, np, shape, work
        self.preset = rcpca.preset(self.PRESET)
        self.gen_s: list[float] = []
        self.instances = [self._write_instance(seed, k) for k in range(TALL_INSTANCES)]
        self.references: dict[int, tuple] = {}

    def _write_instance(self, seed, k):
        t = time.perf_counter()
        rng = self.np.random.default_rng([seed, k])
        d = self.work / f"inst{k}"
        d.mkdir(parents=True)
        files = []
        raws = latent_blocks(self.np, rng, self.shape["n"], self.shape["js"], FACTORS["tall_cli"])
        for b, x in enumerate(raws, start=1):
            lines = ["id," + ",".join(f"v{j + 1}" for j in range(x.shape[1]))]
            lines += [f"s{i + 1}," + ",".join(f"{v:.8g}" for v in row) for i, row in enumerate(x.tolist())]
            path = d / f"block{b}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            files.append(str(path))
        self.gen_s.append(time.perf_counter() - t)
        return files

    def inputs(self, k):
        return k % len(self.instances), self.work / f"out{k}"

    def argv(self, inst, out):
        return [
            "run", "--blocks", ",".join(self.instances[inst]), "--id-column",
            "--scale", "unit", "--preset", self.PRESET,
            "--components", str(self.COMPONENTS), "--deflate", "own", "--out", str(out),
        ]

    def run(self, inp, in_process):
        inst, out = inp
        if in_process:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.rcpca.cli.main(self.argv(inst, out))
            return rc, err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "rcpca", *self.argv(inst, out)],
            capture_output=True, text=True, timeout=100,
        )
        return proc.returncode, proc.stderr

    def _reference(self, inst):
        """Library extract of the same files, computed once per instance.

        The files are parsed by numpy rather than by rcpca's load_block, so
        a parsing fault in the CLI path cannot hide in the reference too.
        """
        if inst not in self.references:
            rcpca = self.rcpca
            blocks = []
            for path in self.instances[inst]:
                with open(path, encoding="utf-8") as fh:
                    width = len(fh.readline().split(","))
                data = self.np.loadtxt(
                    path, delimiter=",", skiprows=1, usecols=range(1, width), ndmin=2
                )
                blocks.append(rcpca.from_matrix(Path(path).stem, data, scale=True))
            blockset = rcpca.build_blockset(blocks)
            ref = rcpca.extract(
                blockset, self.preset.selector(blockset.n_blocks),
                rcpca.SolverConfig(m=self.preset.m), 1, "own",
            )
            self.references[inst] = (blockset, ref.solutions[0].y_super)
        return self.references[inst]

    def check(self, inp, out):
        inst, out_dir = inp
        rc, stderr = out
        if rc != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return f"exit {rc}: {last[0]}", 0
        out_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
        manifest = dict(
            line.split(" = ", 1)
            for line in (out_dir / "manifest.txt").read_text().splitlines()
        )
        ranks = int(manifest["achieved_rank"])
        converged = [manifest[f"rank{r}_converged"] == "true" for r in range(1, ranks + 1)]
        psi_traces = [_csv_column(out_dir / f"rank{r}_trace.csv", 1) for r in range(1, ranks + 1)]
        y_super = self.np.array(_csv_column(out_dir / "rank1_components.csv", -1))
        blockset, y_ref = self._reference(inst)
        reason = check_analysis(
            self.rcpca, self.preset, blockset, self.COMPONENTS, converged, psi_traces, y_super
        )
        if reason is None:
            cos = abs(float(y_super @ y_ref)) / float(
                self.np.linalg.norm(y_super) * self.np.linalg.norm(y_ref)
            )
            if not cos >= COS_BOUND:
                reason = f"rank-1 superblock component differs from the library: |cos| = {cos!r}"
        return reason, out_bytes

    def cleanup(self, inp):
        shutil.rmtree(inp[1], ignore_errors=True)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _csv_column(path, col):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[col]) for r in rows]


@dataclass
class Op:
    id: int
    seconds: float
    reason: str | None  # None when the op succeeded and passed every check
    out_bytes: int


def measure(workload, seconds, deadline, first_id=0, tracer=None):
    """Closed loop, one client: run ops until `seconds` of op time have passed.

    The k-th op of every call gets the k-th instance, so the traced half of a
    traced run replays the inputs of its untraced half.
    """
    ops: list[Op] = []
    busy = 0.0
    while busy < seconds and time.perf_counter() < deadline:
        op_id = first_id + len(ops)
        inp = workload.inputs(len(ops))
        if tracer is not None:
            tracer.begin(op_id)
        t = time.perf_counter()
        try:
            out, reason = workload.run(inp, tracer is not None), None
        except Exception as exc:  # a failed op is counted and the loop goes on
            out, reason = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.end()
        out_bytes = 0
        if reason is None:
            try:
                reason, out_bytes = workload.check(inp, out)
            except Exception as exc:  # unreadable output fails the op, not the run
                reason = f"check raised {type(exc).__name__}: {exc}"
        workload.cleanup(inp)
        ops.append(Op(op_id, dt, reason, out_bytes))
        busy += dt
    return ops


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    With 10 or fewer values no such percentile exists; the maximum is
    reported as p100 instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def import_seconds():
    """Time for a fresh interpreter to import rcpca.cli (numpy included)."""
    code = (
        "import time; t = time.perf_counter(); import rcpca.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": git_revision(),
    }


def end_to_end(workload, ops, setup_s, lines):
    ok = [op.seconds for op in ops if op.reason is None]
    failed = sum(op.reason is not None for op in ops)
    tail_s, tail_pct = tail(ok) if ok else (None, 0.0)
    values = {
        "analyses_per_s": ("1/s", len(ok) / sum(op.seconds for op in ops)),
        "op_s_p50": ("s", statistics.median(ok) if ok else None),
        "op_s_tail": ("s", tail_s),
        "peak_rss_mb": ("MB", workload.peak_rss_mb()),
        "failed_ratio": ("ratio", failed / len(ops)),
        "setup_s": ("s", setup_s),
    }
    metrics = {}
    for name, (unit, value) in values.items():
        note = f"  (p{tail_pct:.1f} of {len(ok)} ok ops)" if name == "op_s_tail" else ""
        lines.append(f"  {name:<16} {_fmt(value):>14} {unit}{note}")
        if name != "failed_ratio":  # the result carries it as `failed` / `attempted`
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(tracer, untraced, traced, cli_import_s, lines):
    from tracing import PER_OP_METRICS, PER_RUN_METRICS

    use = [op for op in traced if op.reason is None] or traced
    untraced_ok = [op.seconds for op in untraced if op.reason is None]
    layer = tracer.layer_metrics([(op.id, op.seconds, op.out_bytes) for op in use])
    layer["cli.import.s"] = cli_import_s
    layer["op.traced_s_p50"] = statistics.median(op.seconds for op in use)
    layer["op.untraced_s_p50"] = statistics.median(untraced_ok) if untraced_ok else None
    units = {k: v[0] for k, v in {**PER_OP_METRICS, **PER_RUN_METRICS}.items()}
    lines.append(f"  per-layer medians over {len(use)} traced ops"
                 f" (absent wrapped names: {sorted(tracer.absent) or 'none'})")
    metrics = {}
    for name, value in layer.items():
        share = ""
        if name in PER_OP_METRICS and units[name] == "s" and value is not None:
            share = f"  {100.0 * value / layer['op.traced_s_p50']:5.1f}% of op"
        lines.append(f"  {name:<30} {_fmt(value):>14} {units[name]}{share}")
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny shapes, for the self-test")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import numpy as np
    import rcpca
    import rcpca.cli

    import_s = time.perf_counter() - t
    if not Path(rcpca.__file__).resolve().is_relative_to(SRC):
        print(f"rcpca imported from {rcpca.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    shape = SHAPES[args.workload]["toy" if args.toy else "full"]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    try:
        warmup_s = 0.0  # tall_cli: users pay process start and import on every run
        if args.workload == "tall_cli":
            workload = TallCliWorkload(rcpca, np, args.seed, shape, work)
        else:
            if args.workload == "many_blocks":
                workload = LibraryWorkload(
                    rcpca, np, args.seed, shape, FACTORS["many_blocks"], "sumcor", False, 3
                )
            else:
                workload = LibraryWorkload(
                    rcpca, np, args.seed, shape, FACTORS["wide"], "consensus_pca", True, 2
                )
            warmups = []
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                workload.warm_up(SHAPES[args.workload]["toy"])
                warmups.append(time.perf_counter() - t)
            warmup_s = statistics.median(warmups)
        fresh_import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))

        deadline = t_start + DEADLINE_S
        if args.trace == 0:
            ops = measure(workload, args.seconds, deadline)
        else:
            from tracing import Tracer

            untraced = measure(workload, args.seconds / 2.0, deadline)
            tracer = Tracer()
            tracer.install()
            traced = measure(workload, args.seconds / 2.0, deadline, len(untraced), tracer)
            ops = untraced + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    failed = [op for op in ops if op.reason is not None]
    setup_s = fresh_import_s + statistics.median(workload.gen_s) + warmup_s
    info = environment(np)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    lines += [f"  {k} = {v}" for k, v in info.items()]
    lines.append(f"  ops attempted {len(ops)}, failed {len(failed)} "
                 f"(failed_ratio {len(failed) / len(ops):.4f})")
    lines += [f"    op {op.id} failed: {op.reason}" for op in failed[:5]]
    if args.trace == 0:
        metrics = end_to_end(workload, ops, setup_s, lines)
    else:
        metrics = per_layer(tracer, untraced, traced, fresh_import_s, lines)
        (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.dump())
        )

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    report = {
        "environment": info,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup": {
            "import_s": import_s, "fresh_import_s": fresh_import_s,
            "generate_s": workload.gen_s, "warmup_s": warmup_s,
        },
        "ops": [op.__dict__ for op in ops],
        "result": result,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _fmt(value):
    return "absent" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
