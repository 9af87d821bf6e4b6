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
keep their meaning. A Mode B superblock under global or own writes no array
(`solver.CarriedSuperblock`): it is factored once, and block b at rank r is
Pi_b X_b, Pi_b = I - Y_b Y_b' on the unit components Y_b so far (the
superblock's under global, b's own under own). Ranks are inherently
sequential; each per-rank solve is deterministic. The orthogonality above
holds for the components in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import BlockSet
from .metrics import ModeSelector
from .solver import CarriedSuperblock, Solution, SolverConfig, add_rank_warnings, solve_matrices


class DeflationStrategy(str, Enum):
    GLOBAL = "global"
    BLOCK = "block"
    LOADING = "loading"
    OWN = "own"


@dataclass(eq=False)
class MultiSolution:
    """Per-rank solutions of one extract, with its warnings.

    The components are in `solutions`; which of them come out uncorrelated
    depends on the strategy (see the module docstring).
    """

    strategy: DeflationStrategy
    requested_rank: int
    achieved_rank: int
    solutions: list[Solution]
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
    truncated with a warning rather than failing.

    Below the cap no deflation annihilates a block, so none is checked for.
    Every deflation is a rank-one projection, so by Cauchy interlacing a
    block deflated r < cap times keeps ||X_b^(r)||_F >= sigma_(r+1)(X_b) >=
    sigma_cap(X_b); the metric's rank cut keeps sigma_cap(X_b) at or above
    sqrt(eps) ||X_b||_F.
    """
    strategy = DeflationStrategy(strategy)
    own = strategy is DeflationStrategy.OWN
    if rank < 1:
        raise ValueError("rank must be at least 1")

    # smat: own's separate superblock from rank 2 on, or a Mode B superblock carried
    whole, smat = blockset.superblock, None
    widths = [b.n_vars for b in blockset.blocks]
    if (strategy in (DeflationStrategy.GLOBAL, DeflationStrategy.OWN)
            and modes.superblock_tau == 0.0):
        smat = CarriedSuperblock(whole, widths)
    cuts = np.cumsum(widths)[:-1]
    ids = list(blockset.ids)

    warnings: list[str] = []
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
        if isinstance(smat, CarriedSuperblock) and own:  # each block on its own y_b
            smat.deflate(sol.y_super, sol.y_blocks, sol.w_blocks)
        elif isinstance(smat, CarriedSuperblock):  # every block on y_super
            smat.deflate(sol.y_super)
        elif strategy is DeflationStrategy.GLOBAL:
            whole = deflate(whole, sol.y_super)
        else:  # each block on its loading direction or its own y_b, into its columns
            if own:  # the superblock on its own component
                smat = deflate(whole if smat is None else smat, sol.y_super)
            new = np.empty_like(whole)
            for x, y_b, out in zip(np.split(whole, cuts, axis=1), sol.y_blocks,
                                   np.split(new, cuts, axis=1)):
                if strategy is DeflationStrategy.LOADING:
                    _deflate_loading(x, sol.y_super, out)
                else:
                    deflate(x, y_b, out)
            whole = new
            del x  # its view would keep the previous array alive through the next solve

    add_rank_warnings(solutions, widths, modes, ids)
    return MultiSolution(
        strategy=strategy,
        requested_rank=rank,
        achieved_rank=len(solutions),
        solutions=solutions,
        warnings=warnings,
    )
