"""Shared random-instance builders and reference oracles for the test suite.

Generated blocks are standardized and divided by the square root of the
total variable count, which keeps criterion values O(1): the tight absolute
tolerances asserted on traces are only meaningful on that scale.
`scaled_blockset` gives the same instances at other scales.

The per-block loops below are the reference implementation of the
criterion and its gradient that the stacked operator is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from rcpca import ModeSelector, build_blockset, from_matrix
from rcpca.errors import SingularGradientError

M_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)
TAU_GRID = (0.0, 0.3, 1.0)


def random_blockset(seed, b=None, n=None, js=None, scale=True, normalize=True):
    rng = np.random.default_rng(seed)
    if b is None:
        b = int(rng.integers(2, 6))
    if n is None:
        n = int(rng.integers(8, 41))
    if js is None:
        js = [int(rng.integers(1, 7)) for _ in range(b)]
    total = sum(js)
    blocks = []
    for k, j in enumerate(js):
        data = rng.standard_normal((n, j))
        block = from_matrix(f"b{k + 1}", data, scale=scale)
        if normalize:
            block = from_matrix(f"b{k + 1}", block.matrix / np.sqrt(total), scale=False)
        blocks.append(block)
    return build_blockset(blocks)


def random_modes(seed, blockset, taus=TAU_GRID):
    """Random tau per block; tau = 0 on the superblock only when it has full
    column rank (centered columns cap the rank at n - 1)."""
    rng = np.random.default_rng(seed + 7919)
    block_taus = tuple(float(rng.choice(taus)) for _ in range(blockset.n_blocks))
    total_j = blockset.superblock.shape[1]
    if total_j <= blockset.n - 1:
        super_tau = float(rng.choice(taus))
    else:
        positive = [t for t in taus if t > 0.0]
        super_tau = float(rng.choice(positive))
    return ModeSelector(block_taus, super_tau)


def random_m(seed, grid=M_GRID):
    rng = np.random.default_rng(seed + 104729)
    return float(rng.choice(grid))


def full_rank_blockset(seed, b=3, n=20, js=(3, 2, 4), scale=True):
    """Superblock guaranteed full column rank (total J <= n - 1)."""
    assert sum(js) <= n - 1
    return random_blockset(seed, b=len(js), n=n, js=list(js), scale=scale)


def latent_blockset(seed, n=20, js=(3, 2, 4), noise=0.4):
    """Blocks sharing one latent factor: a strong consensus direction.

    The dominant eigenvalue is well separated, so solves converge fast and
    reach tiny fixed-point residuals; use these where a test asserts tight
    identities at convergence.
    """
    assert sum(js) <= n - 1
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal(n)
    blocks = []
    for k, j in enumerate(js):
        loadings = rng.uniform(0.6, 1.4, j) * rng.choice([-1.0, 1.0], j)
        data = np.outer(factor, loadings) + noise * rng.standard_normal((n, j))
        blocks.append(from_matrix(f"b{k + 1}", data, scale=True))
    return build_blockset(blocks)


def scaled_blockset(blockset, factor):
    """The same blocks with every entry multiplied by factor."""
    return build_blockset([
        from_matrix(b.id, b.matrix * factor, scale=False) for b in blockset.blocks
    ])


# ---------------------------------------------------------------------------
# reference oracles


def q_blocks(problem):
    """The Q_b / n segments of a TransformedProblem, one matrix per block."""
    return np.split(problem.stacked, problem.offsets[1:-1])


def reference_criterion(qs, v, m):
    """sum_b ||Q_b v||^m, one block at a time."""
    return float(sum(np.linalg.norm(q @ v) ** m for q in qs))


def reference_gradient(qs, v, m):
    """m * sum_b ||Q_b v||^(m-2) Q_b'Q_b v, one block at a time."""
    g = np.zeros(qs[0].shape[1])
    for b, q in enumerate(qs):
        qv = q @ v
        nrm = float(np.linalg.norm(qv))
        if nrm <= 1e-14 * max(1.0, float(np.abs(q).max()) * math.sqrt(q.size)):
            if m < 2.0:
                raise SingularGradientError(
                    f"block {b + 1}: ||Q v|| vanished and m = {m} < 2 makes the "
                    "gradient singular there"
                )
            continue  # for m >= 2 the term is continuous at 0 and contributes 0
        g += nrm ** (m - 2.0) * (q.T @ qv)
    return m * g


def reference_gram(qs):
    """sum_b Q_b'Q_b, whose dominant eigenvector is the eigen start."""
    g = np.zeros((qs[0].shape[1], qs[0].shape[1]))
    for q in qs:
        g += q.T @ q
    return g


def superblock_from_block_components(solution, blockset, metrics, m):
    """Rebuild the superblock component from the block components.

    At a fixed point the superblock component equals the image of
    sum_b cov(y_b, y_super)^(m-1) y_b under the superblock operator; with a
    Mode B superblock the operator drops and the image is the standardized
    weighted sum itself (for m = 1, the plain standardized sum).
    """
    z = np.zeros(blockset.n)
    for cov, y_b in zip(solution.covs, solution.y_blocks):
        z += cov ** (m - 1.0) * y_b
    met = metrics[-1]
    t = blockset.superblock.T @ z
    num = blockset.superblock @ met.apply(t, -1.0)
    den = float(np.linalg.norm(met.apply(t, -0.5)))
    return num / den
