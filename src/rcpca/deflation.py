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

Each rank writes one n x J array whose column views are the blocks: the
deflated superblock (global), or the deflated blocks, which are the
superblock too except under own, which passes its superblock separately.
Block metrics are rebuilt at every rank, so the normalization constraints
keep their meaning. A Mode B superblock under global or own is factored once:
deflating it on its own component only projects that component off its
column space, so later ranks solve in the rank-1 factor's coordinates with
the earlier components projected off (`solver.CarriedSuperblock`), and own
no longer deflates a superblock array. Under global it writes no array at
all: X^(r) = Pi_r X with Pi_r = I - YY' on the unit superblock components Y
so far, so each block metric is built from the rank-1 Gram downdated by
A_b = X_b'Y, X_b'Pi_r X_b / n = G_b - A_b A_b' / n, and each block component
is Pi_r (X_b w_b). Ranks are inherently sequential; each per-rank solve is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import BlockSet
from .metrics import ModeSelector
from .solver import CarriedSuperblock, Solution, SolverConfig, solve_matrices


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


def deflate(x: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Residual of the columnwise regression of x on q, written into `out` if given.

    Every column of the result is orthogonal to q; when q is a combination
    of the columns of x, the combinations of the residual columns are
    exactly the combinations of x orthogonal to q. (-q c') + x, one array,
    is x - q c' bit for bit: x + (-p) == x - p in IEEE arithmetic. `out`
    must not overlap x.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    if q.shape[0] != x.shape[0]:
        raise ValueError(f"q has length {q.shape[0]}, expected {x.shape[0]}")
    qq = float(q @ q)
    if qq == 0.0:
        raise ValueError("cannot deflate on a zero vector")
    p = np.multiply.outer(q, -((q @ x) / qq), out=out)
    return np.add(x, p, out=p)


def _deflate_loading(x: np.ndarray, y_super: np.ndarray, out: np.ndarray) -> None:
    # column-space deflation on the unit loading direction p = X'y/|X'y|
    p = x.T @ y_super
    nrm = np.linalg.norm(p)
    if nrm == 0.0:
        out[...] = x
        return
    p = p / nrm
    np.add(x, np.multiply.outer(x @ p, -p, out=out), out=out)


def extract(
    blockset: BlockSet,
    modes: ModeSelector,
    config: SolverConfig,
    rank: int,
    strategy: DeflationStrategy | str = DeflationStrategy.GLOBAL,
) -> MultiSolution:
    """Extract up to `rank` components under a deflation strategy.

    The achievable rank is capped at the smallest block rank, read from
    the rank-1 metric factors; when the request exceeds it, the result is
    truncated with a warning rather than failing. Mode B on the superblock
    combined with the `own` strategy is allowed but flagged: the
    orthogonality guarantees are weaker there.

    Below the cap no deflation annihilates a block, so none is checked for.
    Every deflation is a rank-one projection, so by Cauchy interlacing a
    block deflated r < cap times keeps ||X_b^(r)||_F >= sigma_(r+1)(X_b) >=
    sigma_cap(X_b); the metric's rank cut keeps sigma_cap(X_b) at or above
    sqrt(eps) ||X_b||_F.
    """
    strategy = DeflationStrategy(strategy)
    if rank < 1:
        raise ValueError("rank must be at least 1")

    # smat: own's separate superblock from rank 2 on, or a Mode B superblock's
    # carried factor, since deflating it on its own component only projects that off
    whole, smat = blockset.superblock, None
    if (strategy in (DeflationStrategy.GLOBAL, DeflationStrategy.OWN)
            and modes.superblock_tau == 0.0):
        smat = CarriedSuperblock(whole, separate=strategy is DeflationStrategy.OWN)
    widths = [b.n_vars for b in blockset.blocks]
    cuts = np.cumsum(widths)[:-1]
    ids = list(blockset.ids)

    warnings: list[str] = []
    if strategy is DeflationStrategy.OWN and modes.superblock_tau == 0.0:
        warnings.append(
            "own-component deflation with a Mode B superblock: orthogonality "
            "guarantees are weakened; inspect the correlation report"
        )

    solutions: list[Solution] = []
    target = rank
    for r in range(rank):
        sol = solve_matrices(whole, widths, modes, config, ids=ids, superblock=smat)
        solutions.append(sol)
        if r == 0 and rank > (cap := min(sol.block_ranks)):
            target = cap
            warnings.insert(0, (
                f"requested {rank} components but the smallest block rank is {cap}; "
                f"returning {cap}"
            ))
        if r + 1 >= target:
            break
        if isinstance(smat, CarriedSuperblock):
            smat.deflate(sol.y_super)
        elif strategy is DeflationStrategy.OWN:  # the superblock on its own component
            smat = deflate(whole if smat is None else smat, sol.y_super)
        if strategy is DeflationStrategy.GLOBAL:
            # a carried superblock deflates no array: the blocks stay X_b, deflated
            # implicitly by the components it carries
            if smat is None:
                whole = deflate(whole, sol.y_super)
        else:  # each block on its loading direction or its own y_b, into its columns
            new = np.empty_like(whole)
            for x, y_b, out in zip(np.split(whole, cuts, axis=1), sol.y_blocks,
                                   np.split(new, cuts, axis=1)):
                if strategy is DeflationStrategy.LOADING:
                    _deflate_loading(x, sol.y_super, out)
                else:
                    deflate(x, y_b, out)
            whole = new
            del x  # its view would keep the previous array alive through the next solve

    achieved = len(solutions)
    block_comps = np.empty((blockset.n, blockset.n_blocks, achieved))  # n x B x R
    for r, sol in enumerate(solutions):
        block_comps[:, :, r] = np.array(sol.y_blocks).T
    super_comps = np.column_stack([sol.y_super for sol in solutions])
    return MultiSolution(
        strategy=strategy,
        requested_rank=rank,
        achieved_rank=achieved,
        solutions=solutions,
        block_component_correlations=list(_correlations(block_comps.transpose(1, 0, 2))),
        superblock_component_correlations=_correlations(super_comps),
        warnings=warnings,
    )


def _correlations(columns: np.ndarray) -> np.ndarray:
    """Pairwise correlations of already-centered columns, of each matrix in a stack."""
    norms = np.linalg.norm(columns, axis=-2, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    u = columns / norms
    return np.swapaxes(u, -1, -2) @ u
