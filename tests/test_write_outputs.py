"""Golden-file test of the CLI's result writer.

The result is built by hand, so the expected files do not depend on the
solver or on the BLAS build. The data are dyadic and centered, which makes
every dot product and norm the writer takes exact or correctly rounded.
Cells cover values that need all 12 significant digits, -0.0, 1e-300, a
zero-norm superblock column (written as correlation 0), row ids and traces
with warnings.

To regenerate the expected files after a deliberate format change, run
`python tests/test_write_outputs.py` from the repository root with `src` on
PYTHONPATH.
"""

from pathlib import Path

import numpy as np

from rcpca import DeflationStrategy, ModeSelector, MultiSolution, Solution, SolverTrace
from rcpca import build_blockset, from_matrix
from rcpca.cli import RunConfig, _write_outputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "write_outputs"


def _solution(y_blocks, y_super, w_blocks, w_super, covs, contributions, psi, trace):
    return Solution(
        v_super=np.asarray(w_super),
        w_super=np.asarray(w_super),
        y_super=np.asarray(y_super),
        w_blocks=[np.asarray(w) for w in w_blocks],
        y_blocks=[np.asarray(y) for y in y_blocks],
        covs=np.asarray(covs),
        contributions=np.asarray(contributions),
        psi_final=psi,
        fixed_point_residual=trace.fixed_point_residual,
        trace=trace,
    )


def write_case(out_dir: Path) -> None:
    row_ids = ["r1", "r2", "r3", "r4"]
    alpha = from_matrix(
        "alpha",
        [[1.5, -0.25], [-0.5, 0.75], [-1.5, 0.25], [0.5, -0.75]],
        columns=["u", "v"],
        row_ids=row_ids,
    )
    beta = from_matrix(
        "beta",
        [[0.0, 2.0], [0.0, -1.0], [0.0, -0.5], [0.0, -0.5]],  # first column has norm 0
        columns=["flat", "w"],
        row_ids=row_ids,
    )
    blockset = build_blockset([alpha, beta])
    rank1 = _solution(
        y_blocks=[[1.0, -0.5, -0.75, 0.25], [0.25, 0.125, -0.5, 0.125]],
        y_super=[0.5, -0.25, -0.5, 0.25],
        w_blocks=[[0.123456789012345, -0.0], [1e-300, 2.0 / 3.0]],
        w_super=[1.0 / 3.0, -0.0, 1e-300, -0.987654321098765],
        covs=[0.314159265358979, -2.71828182845905e-7],
        contributions=[0.999999999999, 1.0e-12],
        psi=0.234567890123457,
        trace=SolverTrace(
            psi=[0.1, 0.2345678901234, 0.234567890123457],
            step_norm=[0.5, 1.23456789012345e-7],
            bound=[0.3, 2e-14],
            sandwich_ok=[True, True],
            iterations=2,
            converged=True,
            fixed_point_residual=1.5e-13,
        ),
    )
    rank2 = _solution(
        y_blocks=[[-0.0, 0.5, 1e-300, -0.5], [0.75, -0.25, -0.25, -0.25]],
        y_super=[-0.125, 0.375, 0.0, -0.25],
        w_blocks=[[-0.0, 0.707106781186548], [0.0, -1.0]],
        w_super=[0.6, -0.8, 0.0, 1e-300],
        covs=[0.0, 0.0625],
        contributions=[0.0, 1.0],
        psi=0.015625,
        trace=SolverTrace(
            psi=[0.0078125, 0.015625],
            step_norm=[0.123456789012],
            bound=[1e-300],
            sandwich_ok=[True],
            iterations=1,
            converged=False,
            fixed_point_residual=0.0123456789012345,
            warnings=["rank stopped at max_iter"],
        ),
    )
    result = MultiSolution(
        strategy=DeflationStrategy.OWN,
        requested_rank=2,
        achieved_rank=2,
        solutions=[rank1, rank2],
        block_component_correlations=[np.eye(2), np.eye(2)],
        superblock_component_correlations=np.eye(2),
        warnings=["block beta nearly exhausted"],
    )
    cfg = RunConfig(
        blocks=["alpha.csv", "beta.csv"], m=1.5, tau=[1.0, 0.5], tau_super=0.0,
        id_column=True, deflate="own", components=2, out=str(out_dir),
    )
    modes = ModeSelector((1.0, 0.5), 0.0)
    _write_outputs(out_dir, cfg, blockset, modes, 1.5, result)


def test_write_outputs_matches_golden_files(tmp_path):
    write_case(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    write_case(GOLDEN)
