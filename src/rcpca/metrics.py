"""Shrinkage metrics.

For a centered n x J matrix X and shrinkage constant tau in [0, 1], the
metric is M = tau*I + (1 - tau)*(1/n) X'X. tau = 1 (Mode A) normalizes the
weight vector, tau = 0 (Mode B) normalizes the component variance, and
intermediate values interpolate between the two (Ledoit-Wolf style
shrinkage of the block covariance).

A metric is stored once, as a thin factor B (`factor`, J x r) of the row
space of X with B'MB = I, and `cross` = GB, G = X'X/n. All the solver
applies powers of M to lies in that row space: the image B'X' (`image`),
the segments B_b'(G B_super) and the weights M^(-1) X'y, read off as B u.
So M is never formed as a J x J matrix, and MB = tau*B + (1 - tau)*GB. Only
`build_metric` knows which route gave B. At tau = 0 with J < n, when G
certifiably has full rank, B = L^(-T) from G = LL' (`cross` = L). Otherwise
B = V diag(lambda^(-1/2)): V orthonormal, the eigenvalues of X'X/n on it
are `variances` g and lambda = tau + (1 - tau) g, and M is tau*I on the
complement; the eigendecomposition is of the smaller Gram matrix, XX' when
J > n, so thousands of variables on tens of rows cost an n x n
eigendecomposition. At tau = 0 a rank-deficient matrix gets Moore-Penrose
semantics: negative powers annihilate the dropped null directions. Metrics
are immutable; building metrics for distinct blocks is a pure function of
the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    def from_taus(block_taus: Sequence, superblock) -> "ModeSelector":
        return ModeSelector(tuple(mode_tau(t) for t in block_taus), mode_tau(superblock))


@dataclass(frozen=True, eq=False)
class ShrinkageMetric:
    """M = tau*I + (1-tau)*G, G = (1/n) X'X, kept as a thin factor B with B'MB = I.

    B spans the row space of X, and cross = GB. From an eigendecomposition,
    B = V diag(lambda^(-1/2)) with V orthonormal, G V = V diag(variances) and
    lambda = tau + (1 - tau) * variances. From a Cholesky factor G = LL' (tau = 0,
    full rank), B = L^(-T), cross = L and variances is None.
    """

    tau: float
    factor: np.ndarray  # J x rank, B
    cross: np.ndarray  # J x rank, G B
    variances: np.ndarray | None  # descending Gram eigenvalues s^2 / n, or None: Cholesky

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    def image(self, x: np.ndarray) -> np.ndarray:
        """P' = M^(-1/2) X' in the factor's coordinates: B'X', rank x n."""
        return self.factor.T @ x.T


def build_metric(data, tau: float, gram: np.ndarray | None = None) -> ShrinkageMetric:
    """Construct the shrinkage metric of a centered n x J matrix.

    `gram`, when given, stands for X'X/n of a matrix with J <= n, such as a
    Gram the caller downdated; the data then only gives the shape.

    At tau = 0 with J < n the factor is G = X'X/n = LL' when the Cholesky
    factorization succeeds and certifies full rank: kappa(G) <=
    ||G||_F ||L^(-1)||_F^2 < 1/DEFAULT_RANK_TOLERANCE, so the eigendecomposition
    would keep every direction too. Otherwise it is the eigendecomposition
    of X'X/n when J <= n, and of XX'/n = U diag(s^2/n) U' otherwise, with
    V = X'U/s. Gram eigenvalues at or below the rank cut-off times the
    largest one are dropped. For tau > 0 the cut-off is roundoff,
    max(n, J) * machine epsilon: M is tau on a dropped direction, and only
    directions that are zero at roundoff go. For tau = 0 it is
    DEFAULT_RANK_TOLERANCE, and the dropped directions get pseudo-inverse
    semantics.

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
    if gram is None:
        gram = (x @ x.T if wide else x.T @ x) / n
    if tau == 0.0 and j < n:
        try:
            low = np.linalg.cholesky(gram)
            inv = _lower_inverse(low)
            if np.linalg.norm(gram) * np.vdot(inv, inv) < 1.0 / DEFAULT_RANK_TOLERANCE:
                return ShrinkageMetric(tau, inv.T, low, None)
        except np.linalg.LinAlgError:
            pass  # not positive definite at roundoff: rank deficient
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
    vals, vecs = np.ascontiguousarray(vals), np.ascontiguousarray(vecs)
    scale = (tau + (1.0 - tau) * vals) ** -0.5
    return ShrinkageMetric(tau, vecs * scale, vecs * (vals * scale), vals)


def _lower_inverse(low: np.ndarray, width: int = 32) -> np.ndarray:
    """L^(-1) of a lower-triangular L: row block k is D_k^(-1) [-L_k,<k L^(-1)_<k | I].

    D_k^(-1) = inv(D_k')' for the k-th diagonal block D_k: an LU factorization
    of the upper-triangular D_k' does not pivot, so the result is exactly lower
    triangular.
    """
    inv = np.zeros_like(low)
    for k in range(0, low.shape[0], width):
        d = inv[k:k + width, k:k + width] = np.linalg.inv(low[k:k + width, k:k + width].T).T
        if k:
            inv[k:k + width, :k] = -d @ (low[k:k + width, :k] @ inv[:k, :k])
    return inv
