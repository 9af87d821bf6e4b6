"""Shared random-instance builders and reference oracles for the test suite.

Generated blocks are standardized and divided by the square root of the
total variable count, which keeps criterion values O(1): the tight absolute
tolerances asserted on traces are only meaningful on that scale.
`scaled_blockset` gives the same instances at other scales.

The per-block loops below are the reference implementation of the
criterion and its gradient that the stacked operator is checked against,
in the v-space problem and in the superblock-free n-space problem.
"""

from __future__ import annotations

import math

import numpy as np

from rcpca import ModeSelector, build_blockset, build_metric, from_matrix, sample_cov
from rcpca.errors import BadStartError, InternalAssertionError, SingularGradientError

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


def reference_stationary_image(y, mats, metrics, m):
    """sum_b ||M_b^(-1/2) X_b'y||^(m-2) X_b M_b^(-1) X_b'y, one block at a time.

    Only the block metrics are read; a vanished term (exactly zero) raises
    for m < 2 and is skipped for m >= 2.
    """
    z = np.zeros_like(y)
    for b, (mat, met) in enumerate(zip(mats, metrics[:-1])):
        t = mat.T @ y
        half_norm = float(np.linalg.norm(met.apply(t, -0.5)))
        if half_norm == 0.0:
            if m < 2.0:
                raise SingularGradientError(
                    f"block {b + 1}: cross-term vanished with m = {m} < 2"
                )
            continue
        z += half_norm ** (m - 2.0) * (mat @ met.apply(t, -1.0))
    return z


def reference_auxiliary_solve(blockset, block_taus, m, epsilon=1e-12, max_iter=10_000, y0=None):
    """The superblock-free fixed-point iteration as its own loop.

    The unit-variance component is replaced by the standardized stationary
    image until sum_b cov(y_b, y)^m rises by no more than epsilon. Returns
    the component, the iteration count and the per-iteration values.
    """
    mats = [b.matrix for b in blockset.blocks]
    n = blockset.n
    metrics = [build_metric(mat, tau) for mat, tau in zip(mats, block_taus)]
    metrics.append(None)  # reference_stationary_image only touches block metrics

    if y0 is None:
        u, _, _ = np.linalg.svd(blockset.superblock, full_matrices=False)
        y0 = u[:, 0]
    y = np.asarray(y0, dtype=float).ravel()
    y = y / math.sqrt(sample_cov(y, y))

    def crit(yv):
        total = 0.0
        for mat, met in zip(mats, metrics[:-1]):
            half_norm = np.linalg.norm(met.apply(mat.T @ yv, -0.5))
            total += (half_norm / n) ** m
        return float(total)

    values = [crit(y)]
    if not values[0] > 0.0:
        raise BadStartError("criterion is zero at the start component")
    iterations = 0
    for _ in range(max_iter):
        z = reference_stationary_image(y, mats, metrics, m)
        var = sample_cov(z, z)
        if var == 0.0:
            raise SingularGradientError("fixed-point image vanished")
        y_new = z / math.sqrt(var)
        val = crit(y_new)
        dval = val - values[-1]
        values.append(val)
        iterations += 1
        if dval < -1e-12 * values[-2]:
            raise InternalAssertionError(f"criterion decreased by {-dval:.3e}")
        y = y_new
        if dval <= epsilon:
            break
    return y, iterations, values
