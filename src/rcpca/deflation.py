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

One record, `solver.Deflation`, keeps for every strategy the unit
directions each block is projected off: in row space (the superblock
components, or each block's own) or in column space (its loadings). A
block's directions are orthonormal, so its rank-r matrix is one orthogonal
projection of its rank-1 one, and one product, X - Y A', forms all blocks.
They are the superblock too, except under own, whose superblock is a second
record, deflated on the superblock components. Block metrics are rebuilt at
every rank, so the normalization constraints keep their meaning. A Mode B
superblock under global or own forms no array: the record carries its
rank-1 factor. Ranks are inherently sequential; each per-rank solve is
deterministic. The orthogonality above holds for the components in the result.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum

from .dataset import BlockSet
from .metrics import ModeSelector
from .solver import Deflation, Solution, SolverConfig, add_rank_warnings, solve_matrices


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
    A block deflated r < cap times is one orthogonal projection of X_b off
    r orthonormal directions, so by Cauchy interlacing it keeps
    ||X_b^(r)||_F >= sigma_(r+1)(X_b) >= sigma_cap(X_b); the metric's rank
    cut keeps sigma_cap(X_b) at or above sqrt(eps) ||X_b||_F.
    """
    strategy = DeflationStrategy(strategy)
    if not isinstance(rank, numbers.Integral):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if rank < 1:
        raise ValueError("rank must be at least 1")

    widths = [b.n_vars for b in blockset.blocks]
    ids = list(blockset.ids)
    blocks = Deflation(blockset.superblock, widths)
    own = strategy is DeflationStrategy.OWN
    # a Mode B superblock under global or own is carried: factored once, blocks never formed
    carried = (own or strategy is DeflationStrategy.GLOBAL) and modes.superblock_tau == 0.0
    # else own's superblock, apart from its blocks, on its own components
    sup = Deflation(blockset.superblock, widths) if own and not carried else None

    warnings: list[str] = []
    solutions: list[Solution] = []
    target = rank
    for r in range(rank):
        if carried:
            sol = solve_matrices(blocks.x, widths, modes, config, ids=ids, superblock=blocks)
        else:  # rank 1's superblock is the blocks side by side under every strategy
            sol = solve_matrices(blocks.deflated(), widths, modes, config, ids=ids,
                                 superblock=sup.deflated() if sup and r else None)
        solutions.append(sol)
        if r == 0 and rank > (cap := min(sol.block_ranks)):
            target = cap
            warnings.insert(0, (
                f"requested {rank} components but the smallest block rank is {cap}; "
                f"returning {cap}"
            ))
        if r + 1 >= target:
            break
        if strategy is DeflationStrategy.GLOBAL:
            blocks.add(sol.y_super)
        elif strategy is DeflationStrategy.LOADING:
            blocks.add_loadings(sol.y_super)
        else:
            blocks.add(sol.y_super, sol.y_blocks, sol.w_blocks)
        if sup:
            sup.add(sol.y_super)

    add_rank_warnings(solutions, widths, modes, ids)
    return MultiSolution(
        strategy=strategy,
        requested_rank=rank,
        achieved_rank=len(solutions),
        solutions=solutions,
        warnings=warnings,
    )
