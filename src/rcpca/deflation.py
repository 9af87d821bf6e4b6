"""Higher-order components through deflation.

Each rank re-solves the problem on residual matrices. Four strategies
control what gets deflated:

- global:  every block is regressed out on the previous superblock
           component; superblock components come out uncorrelated, block
           components generally stay correlated and leave their block space.
- block:   each block is regressed out on its own previous block component;
           block components stay in their block space and are uncorrelated
           within a block, superblock components stay correlated.
- loading: each block is deflated in column space on its previous loading
           direction (the unit-normalized image of the superblock component
           under X_b'); block components stay in their block space.
- own:     blocks are deflated on their own block components and the
           superblock matrix, carried forward separately, on the superblock
           component. The deflated superblock is no longer the concatenation
           of the deflated blocks, which is exactly what buys orthogonality
           of block components within blocks and of superblock components
           at the same time.

Under the global/block/loading strategies the superblock is rebuilt by
concatenating the deflated blocks. Metrics are rebuilt from the deflated
matrices at every rank, so the normalization constraints keep their meaning.
Ranks are inherently sequential; each per-rank solve is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import BlockSet
from .errors import RankExhaustedError
from .metrics import ModeSelector
from .solver import Solution, SolverConfig, solve_matrices

_ZERO_RTOL = 1e-12


class DeflationStrategy(str, Enum):
    GLOBAL = "global"
    BLOCK = "block"
    LOADING = "loading"
    OWN = "own"


@dataclass(eq=False)
class MultiSolution:
    """Per-rank solutions plus the orthogonality bookkeeping.

    The superblock components play the role of the global components, so
    `superblock_component_correlations` is the global-component report.
    """

    strategy: DeflationStrategy
    requested_rank: int
    achieved_rank: int
    solutions: list[Solution]
    block_component_correlations: list[np.ndarray]  # per block, R x R
    superblock_component_correlations: np.ndarray  # R x R
    warnings: list[str] = field(default_factory=list)


def deflate(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Residual of the columnwise regression of x on q.

    Every column of the result is orthogonal to q; when q is a combination
    of the columns of x, the combinations of the residual columns are
    exactly the combinations of x orthogonal to q.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    if q.shape[0] != x.shape[0]:
        raise ValueError(f"q has length {q.shape[0]}, expected {x.shape[0]}")
    qq = float(q @ q)
    if qq == 0.0:
        raise ValueError("cannot deflate on a zero vector")
    return x - np.outer(q, (q @ x) / qq)


def _deflate_loading(x: np.ndarray, y_super: np.ndarray) -> np.ndarray:
    # column-space deflation on the unit loading direction p = X'y/|X'y|
    p = x.T @ y_super
    nrm = np.linalg.norm(p)
    if nrm == 0.0:
        return x
    p = p / nrm
    return x - np.outer(x @ p, p)


def extract(
    blockset: BlockSet,
    modes: ModeSelector,
    config: SolverConfig,
    rank: int,
    strategy: DeflationStrategy | str = DeflationStrategy.GLOBAL,
) -> MultiSolution:
    """Extract up to `rank` components under a deflation strategy.

    The achievable rank is capped at the smallest block rank; when the
    request exceeds it, the result is truncated with a warning rather than
    failing. Mode B on the superblock combined with the `own` strategy is
    allowed but flagged: the orthogonality guarantees are weaker there.
    """
    strategy = DeflationStrategy(strategy)
    if rank < 1:
        raise ValueError("rank must be at least 1")

    mats = [b.matrix for b in blockset.blocks]
    smat = blockset.superblock
    ids = list(blockset.ids)
    orig_norms = [np.linalg.norm(m) for m in mats]

    warnings: list[str] = []
    cap = min(int(np.linalg.matrix_rank(m)) for m in mats)
    target = rank
    if rank > cap:
        target = cap
        warnings.append(
            f"requested {rank} components but the smallest block rank is {cap}; "
            f"returning {cap}"
        )
    if strategy is DeflationStrategy.OWN and modes.superblock_tau == 0.0:
        warnings.append(
            "own-component deflation with a Mode B superblock: orthogonality "
            "guarantees are weakened; inspect the correlation report"
        )

    solutions: list[Solution] = []
    for r in range(target):
        sol = solve_matrices(mats, smat, modes, config, ids=ids)
        solutions.append(sol)
        if r + 1 == target:
            break
        if strategy is DeflationStrategy.GLOBAL:
            mats = [deflate(m, sol.y_super) for m in mats]
            smat = np.hstack(mats)
        elif strategy is DeflationStrategy.BLOCK:
            mats = [deflate(m, y_b) for m, y_b in zip(mats, sol.y_blocks)]
            smat = np.hstack(mats)
        elif strategy is DeflationStrategy.LOADING:
            mats = [_deflate_loading(m, sol.y_super) for m in mats]
            smat = np.hstack(mats)
        else:
            mats = [deflate(m, y_b) for m, y_b in zip(mats, sol.y_blocks)]
            smat = deflate(smat, sol.y_super)
        for b, m in enumerate(mats):
            if np.linalg.norm(m) <= _ZERO_RTOL * orig_norms[b]:
                raise RankExhaustedError(
                    f"block {ids[b]!r} was annihilated after {r + 1} components; "
                    f"achievable rank is {r + 1}"
                )

    achieved = len(solutions)
    block_corrs = []
    for b in range(blockset.n_blocks):
        comps = np.column_stack([sol.y_blocks[b] for sol in solutions])
        block_corrs.append(_correlations(comps))
    super_comps = np.column_stack([sol.y_super for sol in solutions])
    return MultiSolution(
        strategy=strategy,
        requested_rank=rank,
        achieved_rank=achieved,
        solutions=solutions,
        block_component_correlations=block_corrs,
        superblock_component_correlations=_correlations(super_comps),
        warnings=warnings,
    )


def _correlations(columns: np.ndarray) -> np.ndarray:
    """Pairwise correlations of already-centered columns."""
    norms = np.linalg.norm(columns, axis=0)
    norms = np.where(norms == 0.0, 1.0, norms)
    u = columns / norms
    return u.T @ u
