"""Shrinkage metrics.

For a centered n x J matrix X and shrinkage constant tau in [0, 1], the
metric is M = tau*I + (1 - tau)*(1/n) X'X. tau = 1 (Mode A) normalizes the
weight vector, tau = 0 (Mode B) normalizes the component variance, and
intermediate values interpolate between the two (Ledoit-Wolf style
shrinkage of the block covariance).

A metric is stored once, as a thin factor B (`factor`, J x r) of the row
space of X with B'MB = I, and `cross` = GB, G = X'X/n, both C-contiguous on
every route. All the solver applies powers of M to lies in that row space:
the image X B, the segments B_b'(G B_super) and the weights M^(-1) X'y, read
off as B u. So M is never formed as a J x J matrix, and
MB = tau*B + (1 - tau)*GB. Only this module knows which route gave B. At
tau = 0 with J < n, when G certifiably has full rank, B = L^(-T) from
G = LL' (`cross` = L): `cholesky_metrics` takes that route for a stack of
same-shape matrices in one call, and `build_metric` for one matrix, as a
stack of one. Otherwise B = V diag(lambda^(-1/2)): V orthonormal, the
eigenvalues of X'X/n on it are `variances` g and lambda = tau + (1 - tau) g,
and M is tau*I on the complement; the eigendecomposition is of the smaller
Gram matrix, XX' when J > n, so thousands of variables on tens of rows cost
an n x n eigendecomposition. At tau = 0 a rank-deficient matrix gets
Moore-Penrose semantics: negative powers annihilate the dropped null
directions. Metrics are immutable; building metrics for distinct blocks is a
pure function of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ModeBInfeasibleError

DEFAULT_RANK_TOLERANCE = 1e-10
_INVERSE_BLOCK = 32  # rows of each diagonal block of the blocked triangular inverse

# Mode A (tau = 1) normalizes the weight vector, Mode B (tau = 0) the component variance
MODES = {"A": 1.0, "B": 0.0}


def mode_tau(mode) -> float:
    """Translate 'A'/'B' (either case) or a number into tau; ModeSelector checks its range."""
    if isinstance(mode, str):
        try:
            return MODES[mode.upper()]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}; expected 'A', 'B' or a number") from None
    return float(mode)


@dataclass(frozen=True)
class ModeSelector:
    """Per-block shrinkage constants plus the superblock one, each checked to lie in [0, 1]."""

    block_taus: tuple[float, ...]
    superblock_tau: float

    def __post_init__(self):
        for name, tau in [*(("block_taus", t) for t in self.block_taus),
                          ("superblock_tau", self.superblock_tau)]:
            if not 0.0 <= tau <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {tau}")

    @staticmethod
    def from_taus(block_taus: Sequence, superblock) -> "ModeSelector":
        return ModeSelector(tuple(mode_tau(t) for t in block_taus), mode_tau(superblock))


@dataclass(frozen=True, eq=False)
class ShrinkageMetric:
    """M = tau*I + (1-tau)*G, G = (1/n) X'X, kept as a thin factor B with B'MB = I.

    B spans the row space of X, and cross = GB; both are C-contiguous on
    every route. From an eigendecomposition, B = V diag(lambda^(-1/2)) with
    V orthonormal, G V = V diag(variances) and
    lambda = tau + (1 - tau) * variances. From a Cholesky factor G = LL'
    (tau = 0, full rank), B = L^(-T), cross = L and variances is None.
    """

    tau: float
    factor: np.ndarray  # J x rank, B
    cross: np.ndarray  # J x rank, G B
    variances: np.ndarray | None  # descending Gram eigenvalues s^2 / n, or None: Cholesky

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def build_metric(data, tau: float, gram: np.ndarray | None = None) -> ShrinkageMetric:
    """Construct the shrinkage metric of a centered n x J matrix.

    `gram`, when given, stands for X'X/n of a matrix with J <= n, such as a
    Gram the caller downdated; the data then only gives the shape.

    At tau = 0 with J < n the factor is `cholesky_metrics`'s, from G =
    X'X/n = LL' as a stack of one, when it certifies full rank: the
    eigendecomposition would then keep every direction too. Otherwise it is
    the eigendecomposition of X'X/n when J <= n, and of XX'/n = U
    diag(s^2/n) U' otherwise, with V = X'U/s. Gram eigenvalues at or below
    the rank cut-off times the largest one are dropped, all of a zero
    matrix's. For tau > 0 the cut-off is roundoff, max(n, J) * machine
    epsilon: M is tau on a dropped direction, and only directions that are
    zero at roundoff go. For tau = 0 it is DEFAULT_RANK_TOLERANCE, and the
    dropped directions get pseudo-inverse semantics.

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
        gram = x @ x.T / n if wide else gram_stack(x[None])[0]
    if (met := cholesky_metrics(x[None], tau, gram[None])[0]) is not None:
        return met
    vals, vecs = np.linalg.eigh(gram)  # reads the lower triangle only
    vals, vecs = vals[::-1], vecs[:, ::-1]
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


def gram_stack(x: np.ndarray) -> np.ndarray:
    """X'X/n of each matrix of a (k, n, J) stack: the one expression for a tall Gram."""
    return x.swapaxes(1, 2) @ x / x.shape[1]


def cholesky_metrics(x: np.ndarray, tau: float,
                     grams: np.ndarray | None = None) -> list[ShrinkageMetric | None]:
    """The Cholesky route for a (k, n, J) stack of centered matrices, or None per member.

    `grams`, when given, stands for their X'X/n. The route is for tau = 0
    with J < n: one Cholesky factorization, one triangular inverse and one
    certificate serve the whole stack, and member i is B = L^(-T), cross =
    L, when its factor certifies full rank: kappa(G) <= ||G||_F
    ||L^(-1)||_F^2 < 1/DEFAULT_RANK_TOLERANCE. Otherwise it is None, and
    `build_metric` decides that member alone. numpy rejects a whole stack
    when one member is not positive definite at roundoff, so such a stack is
    split in halves until that member stands alone: each slice's factor is
    the one its member gets alone, and the others keep the route.
    """
    k, n, j = x.shape
    if tau != 0.0 or j >= n:
        return [None] * k
    grams = gram_stack(x) if grams is None else grams
    try:
        low = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        if k == 1:
            return [None]
        h = k // 2
        return cholesky_metrics(x[:h], tau, grams[:h]) + cholesky_metrics(x[h:], tau, grams[h:])
    upper = _inverse_transpose(low)
    bound = np.sqrt(np.einsum("kij,kij->k", grams, grams)) * np.einsum("kij,kij->k", upper, upper)
    return [ShrinkageMetric(0.0, b, l, None) if ok else None
            for b, l, ok in zip(upper, low, bound < 1.0 / DEFAULT_RANK_TOLERANCE)]


def _inverse_transpose(low: np.ndarray) -> np.ndarray:
    """L^(-T) of each lower-triangular L in a stack, C-contiguous.

    L^(-1) is written through the result's transposed view, a row block of
    _INVERSE_BLOCK rows at a time: row block k is D_k^(-1) [-L_k,<k L^(-1)_<k
    | I], and D_k^(-1) = inv(D_k')' for the k-th diagonal block D_k: an LU
    factorization of the upper-triangular D_k' does not pivot, so the result
    is exactly triangular.
    """
    out = np.zeros_like(low)
    inv, w = out.swapaxes(1, 2), _INVERSE_BLOCK
    for k in range(0, low.shape[-1], w):
        d = inv[:, k:k + w, k:k + w] = np.linalg.inv(
            low[:, k:k + w, k:k + w].swapaxes(1, 2)).swapaxes(1, 2)
        if k:
            inv[:, k:k + w, :k] = -d @ (low[:, k:k + w, :k] @ inv[:, :k, :k])
    return out
