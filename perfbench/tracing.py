"""Spans around rcpca's layer boundaries, recorded from benchmark code.

`Tracer.install` rebinds public names inside the rcpca modules, at the
places where one layer calls the next, so nothing in the library changes.
Spans are kept in memory, tagged with the operation they belong to, and
turned into per-operation layer metrics when the run ends. A name that is
missing (removed or renamed by a later change) is skipped: the metrics that
need it are reported as absent and the run goes on.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import statistics
import time

import numpy as np

# (module, attribute, span name); the attribute is looked up at call time by
# the calling layer, which is what makes rebinding it visible.
WRAPPED = (
    ("rcpca.cli", "run", "cli.run"),
    ("rcpca.cli", "load_block", "dataset.load_block"),
    ("rcpca.cli", "build_blockset", "dataset.blockset"),
    ("rcpca.cli", "extract", "deflation.extract"),
    ("rcpca.dataset", "from_matrix", "dataset.blockset"),
    ("rcpca.dataset", "build_blockset", "dataset.blockset"),
    ("rcpca.deflation", "extract", "deflation.extract"),
    ("rcpca.deflation", "solve_matrices", "solver.solve_matrices"),
    ("rcpca.solver", "build_metric", "metrics.build_metric"),
    ("rcpca.solver", "sphere_maximize", "solver.sphere_maximize"),
)
# sphere_maximize's oracle is re-wrapped in this class to time value/grad
ORACLE = ("rcpca.solver", "GradientOracle")

# name -> (unit, better, wrapped names the value depends on)
PER_OP_METRICS = {
    "dataset.load_block.s": ("s", "lower", ("rcpca.cli.load_block",)),
    "dataset.load_block.mb_per_s": ("MB/s", "higher", ("rcpca.cli.load_block",)),
    "dataset.blockset.s": ("s", "lower", ("rcpca.dataset.from_matrix", "rcpca.dataset.build_blockset", "rcpca.cli.build_blockset")),
    "metrics.build_metric.s": ("s", "lower", ("rcpca.solver.build_metric",)),
    "metrics.build_metric.calls": ("count", "lower", ("rcpca.solver.build_metric",)),
    "metrics.metric_mb": ("MB", "lower", ("rcpca.solver.build_metric",)),
    "solver.solve_matrices.s": ("s", "lower", ("rcpca.deflation.solve_matrices",)),
    "solver.setup.s": ("s", "lower", ("rcpca.deflation.solve_matrices", "rcpca.solver.build_metric", "rcpca.solver.sphere_maximize")),
    "solver.sphere_maximize.s": ("s", "lower", ("rcpca.solver.sphere_maximize",)),
    "solver.sphere_maximize.self_s": ("s", "lower", ("rcpca.solver.sphere_maximize", "rcpca.solver.GradientOracle")),
    "solver.oracle.s": ("s", "lower", ("rcpca.solver.sphere_maximize", "rcpca.solver.GradientOracle")),
    "solver.oracle.evals": ("count", "lower", ("rcpca.solver.sphere_maximize", "rcpca.solver.GradientOracle")),
    "solver.iterations": ("count", "lower", ("rcpca.solver.sphere_maximize",)),
    "solver.us_per_iteration": ("us", "lower", ("rcpca.solver.sphere_maximize",)),
    "deflation.extract.s": ("s", "lower", ("rcpca.cli.extract", "rcpca.deflation.extract")),
    "deflation.self.s": ("s", "lower", ("rcpca.cli.extract", "rcpca.deflation.extract", "rcpca.deflation.solve_matrices")),
    "deflation.ranks": ("count", "higher", ("rcpca.cli.extract", "rcpca.deflation.extract")),
    "cli.write.s": ("s", "lower", ("rcpca.cli.run", "rcpca.cli.load_block", "rcpca.cli.extract")),
    "cli.write.mb_per_s": ("MB/s", "higher", ("rcpca.cli.run", "rcpca.cli.load_block", "rcpca.cli.extract")),
    "op.unattributed.s": ("s", "lower", ()),
}

# metrics measured once per traced run rather than per operation
PER_RUN_METRICS = {
    "cli.import.s": ("s", "lower"),
    "op.traced_s_p50": ("s", "lower"),
    "op.untraced_s_p50": ("s", "lower"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "extra")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.extra = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _metric_bytes(metric) -> int:
    return sum(
        v.nbytes
        for f in dataclasses.fields(metric)
        if isinstance(v := getattr(metric, f.name), np.ndarray)
    )


def _path_bytes(args, kwargs) -> int:
    source = args[0] if args else kwargs.get("source")
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


class Tracer:
    """Records spans for the operation in progress; passes calls through otherwise."""

    def __init__(self):
        self.ops: dict[int, list[Span]] = {}
        self.absent: set[str] = set()
        self._op: int | None = None
        self._stack: list[Span] = []

    def begin(self, op_id: int) -> None:
        self._op = op_id
        self.ops[op_id] = []

    def end(self) -> None:
        self._op = None
        self._stack.clear()

    def install(self) -> None:
        if not hasattr(importlib.import_module(ORACLE[0]), ORACLE[1]):
            self.absent.add(".".join(ORACLE))
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name, attr))

    def _wrap(self, fn, span_name, attr):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, parent)
            tracer.ops[tracer._op].append(span)
            if attr == "sphere_maximize" and ".".join(ORACLE) not in tracer.absent:
                args = (tracer._timed_oracle(args[0], span),) + args[1:]
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
            if attr == "build_metric":
                span.extra["bytes"] = _metric_bytes(result)
            elif attr == "load_block":
                span.extra["bytes"] = _path_bytes(args, kwargs)
            elif attr == "sphere_maximize":
                span.extra["iterations"] = result[1].iterations
            elif attr == "extract":
                span.extra["ranks"] = result.achieved_rank
            return result

        return traced

    @staticmethod
    def _timed_oracle(oracle, span):
        from rcpca import solver

        span.extra["oracle_s"] = 0.0
        span.extra["evals"] = 0

        def timed(f):
            def call(v):
                t = time.perf_counter()
                try:
                    return f(v)
                finally:
                    span.extra["oracle_s"] += time.perf_counter() - t
                    span.extra["evals"] += 1

            return call

        return solver.GradientOracle(value=timed(oracle.value), grad=timed(oracle.grad))

    def dump(self) -> dict[int, list[dict]]:
        """Every recorded span, per op; `parent` indexes the op's own list."""
        out = {}
        for op_id, spans in self.ops.items():
            index = {id(s): i for i, s in enumerate(spans)}
            out[op_id] = [
                {"name": s.name, "start": s.start, "end": s.end, "extra": s.extra,
                 "parent": index[id(s.parent)] if s.parent is not None else None}
                for s in spans
            ]
        return out

    def op_metrics(self, op_id: int, op_seconds: float, out_bytes: int) -> dict[str, float]:
        spans = self.ops[op_id]

        def of(name):
            return [s for s in spans if s.name == name]

        def total(name):
            return sum(s.seconds for s in of(name))

        def extra(name, key):
            return sum(s.extra.get(key, 0) for s in of(name))

        def rate(amount, seconds):
            return amount / seconds if seconds > 0.0 else 0.0

        load_s = total("dataset.load_block")
        sphere_s = total("solver.sphere_maximize")
        oracle_s = extra("solver.sphere_maximize", "oracle_s")
        iterations = extra("solver.sphere_maximize", "iterations")
        write_s = sum(s.self_s for s in of("cli.run"))
        return {
            "dataset.load_block.s": load_s,
            "dataset.load_block.mb_per_s": rate(extra("dataset.load_block", "bytes") / 1e6, load_s),
            "dataset.blockset.s": total("dataset.blockset"),
            "metrics.build_metric.s": total("metrics.build_metric"),
            "metrics.build_metric.calls": len(of("metrics.build_metric")),
            "metrics.metric_mb": extra("metrics.build_metric", "bytes") / 1e6,
            "solver.solve_matrices.s": total("solver.solve_matrices"),
            "solver.setup.s": sum(s.self_s for s in of("solver.solve_matrices")),
            "solver.sphere_maximize.s": sphere_s,
            "solver.sphere_maximize.self_s": sphere_s - oracle_s,
            "solver.oracle.s": oracle_s,
            "solver.oracle.evals": extra("solver.sphere_maximize", "evals"),
            "solver.iterations": iterations,
            "solver.us_per_iteration": rate(sphere_s * 1e6, iterations),
            "deflation.extract.s": total("deflation.extract"),
            "deflation.self.s": sum(s.self_s for s in of("deflation.extract")),
            "deflation.ranks": extra("deflation.extract", "ranks"),
            "cli.write.s": write_s,
            "cli.write.mb_per_s": rate(out_bytes / 1e6, write_s),
            "op.unattributed.s": op_seconds - sum(s.seconds for s in spans if s.parent is None),
        }

    def layer_metrics(self, ops) -> dict[str, float | None]:
        """Median over the given operations of each per-operation metric.

        `ops` holds (op_id, seconds, out_bytes) triples; a metric whose
        wrapped names could not all be installed is None (absent).
        """
        per_op = [self.op_metrics(op_id, seconds, out_bytes) for op_id, seconds, out_bytes in ops]
        out: dict[str, float | None] = {}
        for name, (_, _, needs) in PER_OP_METRICS.items():
            if any(n in self.absent for n in needs) or not per_op:
                out[name] = None
            else:
                out[name] = float(statistics.median(m[name] for m in per_op))
        return out
