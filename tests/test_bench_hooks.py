"""The benchmark's tracing hooks still find and see the rcpca layers.

`perfbench/tracing.py` times layers by rebinding rcpca names. A renamed or
bypassed name does not fail a benchmark run: its metrics read absent or
zero. These tests fail instead. They read `perfbench/tracing.py` and write
nothing under `perfbench/`.
"""

import importlib
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import random_blockset, transform, uniform_modes
from rcpca import SolverConfig, cli, dataset, deflation, solver

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "data" / "demo"


@pytest.fixture(scope="module")
def tracing():
    # run from source, so that no bytecode cache is written under perfbench/
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def calls(tracing, monkeypatch):
    """Counts the calls that reach each name the tracer rebinds."""
    counts = Counter()
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def counted(*args, _fn=original, _key=f"{module_name}.{attr}", **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return counts


def library_extract(n_blocks, rank):
    # the calls a library op of the benchmark makes, through module attributes
    raws = [random_blockset(40 + b, b=1, n=30, js=[3]).superblock for b in range(n_blocks)]
    blocks = [dataset.from_matrix(f"b{b + 1}", x) for b, x in enumerate(raws)]
    blockset = dataset.build_blockset(blocks)
    modes = uniform_modes("A", "A", n_blocks)
    return deflation.extract(blockset, modes, SolverConfig(m=2.0), rank, "global")


def test_every_rebound_name_exists(tracing):
    for module_name, attr in [w[:2] for w in tracing.WRAPPED] + [tracing.ORACLE]:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_rebound_names_see_a_library_extract(calls):
    result = library_extract(n_blocks=4, rank=2)
    assert result.achieved_rank == 2
    assert calls == {
        "rcpca.dataset.from_matrix": 4,
        "rcpca.dataset.build_blockset": 1,
        "rcpca.deflation.extract": 1,
        "rcpca.deflation.solve_matrices": 2,
        "rcpca.solver.build_metric": 2 * (4 + 1),
        "rcpca.solver.sphere_maximize": 2,
    }


def test_rebound_names_see_a_cli_run(calls, tmp_path):
    code = cli.main([
        "run", "--blocks", f"{DEMO / 'process.csv'},{DEMO / 'quality.csv'}",
        "--ids", "process,quality", "--id-column", "--scale", "unit",
        "--preset", "consensus_pca", "--components", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert calls == {
        "rcpca.cli.run": 1,
        "rcpca.cli.load_block": 2,
        "rcpca.cli.build_blockset": 1,
        "rcpca.cli.extract": 1,
        "rcpca.deflation.solve_matrices": 2,
        "rcpca.solver.build_metric": 2 * (2 + 1),
        "rcpca.solver.sphere_maximize": 2,
    }


def test_installed_tracer_reports_every_layer(tracing, monkeypatch):
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored afterwards
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == set()
    tracer.begin(0)
    library_extract(n_blocks=3, rank=2)
    tracer.end()
    layers = tracer.op_metrics(0, op_seconds=1.0, out_bytes=0)
    assert layers["metrics.build_metric.calls"] == 2 * (3 + 1)
    assert layers["deflation.ranks"] == 2
    assert layers["solver.iterations"] > 0
    assert layers["solver.oracle.evals"] > 0


def test_sphere_maximize_takes_the_tracer_oracle(tracing):
    bs = random_blockset(3, b=3, n=20, js=[2, 3, 2])
    metrics = [solver.build_metric(b.matrix, 1.0) for b in bs.blocks]
    metrics.append(solver.build_metric(bs.superblock, 0.5))
    problem = transform(bs, metrics, 2.0)
    cfg = SolverConfig(m=2.0)
    v0 = np.ones(problem.dim)
    span = tracing.Span("solver.sphere_maximize", None)
    oracle = tracing.Tracer._timed_oracle(problem, span)
    assert isinstance(oracle, solver.GradientOracle)
    v, trace = solver.sphere_maximize(oracle, cfg, v0)
    v_ref, trace_ref = solver.sphere_maximize(problem, cfg, v0)
    np.testing.assert_array_equal(v, v_ref)
    assert trace.psi == trace_ref.psi
    assert span.extra["evals"] == 2 * trace.iterations + 2
