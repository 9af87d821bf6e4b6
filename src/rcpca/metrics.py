"""Shrinkage metrics.

For a centered n x J matrix X and shrinkage constant tau in [0, 1], the
metric is M = tau*I + (1 - tau)*(1/n) X'X. tau = 1 (Mode A) normalizes the
weight vector, tau = 0 (Mode B) normalizes the component variance, and
intermediate values interpolate between the two (Ledoit-Wolf style
shrinkage of the block covariance).

A metric is stored once, as the eigenpairs of one symmetric
eigendecomposition; powers of M (M^(-1/2), M^(-1), M itself) are applied to
vectors or matrices on demand and never formed as J x J matrices. At
tau = 0 a rank-deficient matrix gets Moore-Penrose semantics: eigenvalues
below the rank tolerance are treated as exact zeros, and negative powers
annihilate the corresponding directions. Metrics are immutable; building
metrics for distinct blocks is a pure function of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Block, BlockSet
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
    """M = tau*I + (1-tau)*(1/n) X'X, kept as its eigenpairs."""

    tau: float
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns aligned with eigenvalues
    rank: int  # leading eigenpairs kept by negative powers
    pseudo: bool  # True when tau = 0 dropped null directions

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def apply(self, x: np.ndarray, power: float) -> np.ndarray:
        """M^power applied to a vector or to the columns of a J x k matrix.

        Computes V diag(lambda^power) V' x; for power < 0 only the leading
        `rank` eigenpairs take part, so null directions are annihilated.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise DimensionError(f"expected {self.dim} rows, got {x.shape[0]}")
        keep = self.rank if power < 0 else self.dim
        vecs = self.eigenvectors[:, :keep]
        # transposed so that the eigenvalue scaling broadcasts over columns
        coef = (vecs.T @ x).T * self.eigenvalues[:keep] ** power
        return vecs @ coef.T


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, Block):
        return data.matrix
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionError("expected an n x J matrix")
    return x


def build_metric(data, tau: float) -> ShrinkageMetric:
    """Construct the shrinkage metric of a block (or raw matrix).

    tau = 0 requires rank(X) < n: with full row rank every centered vector
    lies in the column space and Mode B degenerates, so regularization is
    rejected with a pointer toward tau > 0. Column-rank deficiency at
    tau = 0 switches to pseudo-inverse semantics.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    x = _as_matrix(data)
    n, j = x.shape
    m = (x.T @ x) / n
    if tau > 0.0:
        m = tau * np.eye(j) + (1.0 - tau) * m
    m = (m + m.T) / 2.0  # enforce exact symmetry before eigh
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    top = vals[0]
    if top <= 0.0:
        raise DataError("metric is identically zero (zero block with tau = 0)")

    if tau > 0.0:
        # strictly positive definite: smallest eigenvalue >= tau
        rank = j
    else:
        rank = int((vals > DEFAULT_RANK_TOLERANCE * top).sum())
        if rank == n:
            raise ModeBInfeasibleError(
                f"Mode B is infeasible: rank(X) = {rank} equals the number of "
                "rows; use tau > 0 instead"
            )
    return ShrinkageMetric(
        tau=tau,
        eigenvalues=vals,
        eigenvectors=vecs,
        rank=rank,
        pseudo=rank < j,
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
