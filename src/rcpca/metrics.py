"""Shrinkage metrics.

For a centered n x J matrix X and shrinkage constant tau in [0, 1], the
metric is M = tau*I + (1 - tau)*(1/n) X'X. tau = 1 (Mode A) normalizes the
weight vector, tau = 0 (Mode B) normalizes the component variance, and
intermediate values interpolate between the two (Ledoit-Wolf style
shrinkage of the block covariance).

A metric is stored once, as a thin factor: an orthonormal basis V of the
row space of X (J x r, r <= min(n - 1, J) for centered X) and the
eigenvalues g = s^2/n of X'X/n on it (`variances`). M's eigenvalues there
are tau + (1 - tau) g, and on the orthogonal complement M is tau*I.
Everything the solver applies a power of M to lies in the row space of
X: the image P' = M^(-1/2) X' (`image`) and the weights M^(-1) X'y that
the back-map reads as V diag(lambda^(-1/2)) u. So M is used only through
(V, g) and never formed as a J x J matrix. The factor comes from the
smaller Gram matrix, X'X when J <= n and XX' otherwise, so a block with
thousands of variables on tens of rows costs an n x n eigendecomposition.
At tau = 0 a rank-deficient matrix gets Moore-Penrose semantics: negative
powers annihilate the dropped null directions. Metrics are immutable;
building metrics for distinct blocks is a pure function of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import BlockSet
from .errors import DataError, DimensionError, ModeBInfeasibleError

DEFAULT_RANK_TOLERANCE = 1e-10

_MODE_TAUS = {"A": 1.0, "a": 1.0, "B": 0.0, "b": 0.0}


def mode_tau(mode) -> float:
    """Translate 'A'/'B' (or a numeric shrinkage value) into tau."""
    if isinstance(mode, str):
        try:
            return _MODE_TAUS[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}; expected 'A', 'B' or a number") from None
    tau = float(mode)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return tau


@dataclass(frozen=True)
class ModeSelector:
    """Per-block shrinkage constants plus the superblock one."""

    block_taus: tuple[float, ...]
    superblock_tau: float

    def __post_init__(self):
        for tau in (*self.block_taus, self.superblock_tau):
            if not 0.0 <= tau <= 1.0:
                raise ValueError(f"tau must lie in [0, 1], got {tau}")

    @staticmethod
    def uniform(blocks, superblock, n_blocks: int) -> "ModeSelector":
        tau = mode_tau(blocks)
        return ModeSelector((tau,) * n_blocks, mode_tau(superblock))

    @staticmethod
    def from_taus(block_taus: Sequence, superblock) -> "ModeSelector":
        return ModeSelector(tuple(mode_tau(t) for t in block_taus), mode_tau(superblock))


@dataclass(frozen=True, eq=False)
class ShrinkageMetric:
    """M = tau*I + (1-tau)*(1/n) X'X, kept as a thin factor.

    M = V diag(eigenvalues) V' + tau*(I - V V'), with V = eigenvectors,
    eigenvalues = tau + (1 - tau) * variances and X'X V / n = V diag(variances).
    """

    tau: float
    variances: np.ndarray  # descending, the Gram eigenvalues s^2 / n
    eigenvectors: np.ndarray  # J x rank, orthonormal, spanning the row space of X
    pseudo: bool  # True when tau = 0 dropped null directions

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.tau + (1.0 - self.tau) * self.variances

    @property
    def rank(self) -> int:
        return self.variances.size

    def image(self, x: np.ndarray) -> np.ndarray:
        """P' = M^(-1/2) X' in the factor's coordinates: diag(lambda^(-1/2)) V'X', rank x n."""
        return (self.eigenvectors * self.eigenvalues**-0.5).T @ x.T


def build_metric(data, tau: float) -> ShrinkageMetric:
    """Construct the shrinkage metric of a centered n x J matrix.

    The factor is the eigendecomposition of X'X/n when J <= n, and of
    XX'/n = U diag(s^2/n) U' otherwise, with V = X'U/s. Gram eigenvalues at
    or below the rank cut-off times the largest one are dropped. For
    tau > 0 the cut-off is roundoff, max(n, J) * machine epsilon: M is tau
    on a dropped direction, and only directions that are zero at roundoff
    go. For tau = 0 it is DEFAULT_RANK_TOLERANCE, and the dropped
    directions get pseudo-inverse semantics.

    tau = 0 requires rank(X) < n: with full row rank every centered vector
    lies in the column space and Mode B degenerates, so regularization is
    rejected with a pointer toward tau > 0.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionError("expected an n x J matrix")
    n, j = x.shape
    wide = j > n
    gram = (x @ x.T if wide else x.T @ x) / n
    vals, vecs = np.linalg.eigh(gram)  # reads the lower triangle only
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if tau == 0.0 and vals[0] <= 0.0:
        raise DataError("metric is identically zero (zero block with tau = 0)")
    cut = DEFAULT_RANK_TOLERANCE if tau == 0.0 else max(n, j) * np.finfo(float).eps
    rank = int((vals > cut * vals[0]).sum())
    if tau == 0.0 and rank == n:
        raise ModeBInfeasibleError(
            f"Mode B is infeasible: rank(X) = {rank} equals the number of "
            "rows; use tau > 0 instead"
        )
    vals, vecs = vals[:rank], vecs[:, :rank]
    if wide:
        vecs = (x.T @ vecs) / np.sqrt(n * vals)
    return ShrinkageMetric(
        tau=tau,
        variances=np.ascontiguousarray(vals),
        eigenvectors=np.ascontiguousarray(vecs),
        pseudo=tau == 0.0 and rank < j,
    )


def build_metrics(blockset: BlockSet, modes: ModeSelector) -> list[ShrinkageMetric]:
    """Metrics for every block plus the superblock, in that order."""
    if len(modes.block_taus) != blockset.n_blocks:
        raise DimensionError(
            f"{len(modes.block_taus)} block taus for {blockset.n_blocks} blocks"
        )
    out = [build_metric(b.matrix, tau) for b, tau in zip(blockset.blocks, modes.block_taus)]
    out.append(build_metric(blockset.superblock, modes.superblock_tau))
    return out
