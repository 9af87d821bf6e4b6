"""Shared random-instance builders and reference oracles for the test suite.

Generated blocks are standardized and divided by the square root of the
total variable count, which keeps criterion values O(1): the tight absolute
tolerances asserted on traces are only meaningful on that scale.
`scaled_blockset` gives the same instances at other scales.

The per-block loops below are the reference implementation of the
criterion and its gradient that the stacked operator is checked against,
in the v-space problem and in the superblock-free n-space problem. The
dense J-space metric and Q_b are the reference for the thin factors, and
the per-block image products for the transform's closed form.

`build_metrics`, `transform` and `problem_from_qs` build the metrics and
the transformed problem outside a solve, as the tests need them.
`component_correlations` gives the correlations between an extract's ranks
that the deflation orthogonality tests check.
"""

from __future__ import annotations

import math

import numpy as np

from rcpca import (
    GradientOracle,
    ModeSelector,
    SolverConfig,
    TransformedProblem,
    build_blockset,
    build_metric,
    deflate,
    from_matrix,
    solve_matrices,
    sphere_maximize,
)
from rcpca.errors import (
    BadStartError,
    DimensionError,
    InternalAssertionError,
    SingularGradientError,
)
from rcpca.metrics import DEFAULT_RANK_TOLERANCE
from rcpca.solver import CarriedSuperblock, _transform

M_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)
TAU_GRID = (0.0, 0.3, 1.0)


def sample_cov(x: np.ndarray, y: np.ndarray) -> float:
    """Sample covariance of two centered vectors, 1/n convention."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(x @ y) / x.shape[0]


def component_matrix(solution):
    """Block components side by side (n x B)."""
    return np.column_stack(solution.y_blocks)


def component_correlations(ms):
    """Correlations of an extract's components across ranks.

    Returns the R x R correlation matrix of each block's components and that
    of the superblock components; a zero component correlates 0 with all.
    """
    first = ms.solutions[0]
    block_comps = np.empty((first.y_super.shape[0], len(first.y_blocks), ms.achieved_rank))
    for r, sol in enumerate(ms.solutions):  # n x B x R
        block_comps[:, :, r] = np.array(sol.y_blocks).T
    super_comps = np.column_stack([sol.y_super for sol in ms.solutions])
    return list(_correlations(block_comps.transpose(1, 0, 2))), _correlations(super_comps)


def _correlations(columns):
    """Pairwise correlations of already-centered columns, of each matrix in a stack."""
    norms = np.linalg.norm(columns, axis=-2, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    u = columns / norms
    return np.swapaxes(u, -1, -2) @ u


def build_metrics(blockset, modes):
    """Metrics for every block plus the superblock, in that order."""
    metrics = [build_metric(b.matrix, tau) for b, tau in zip(blockset.blocks, modes.block_taus)]
    metrics.append(build_metric(blockset.superblock, modes.superblock_tau))
    return metrics


def transform(blockset, metrics, m):
    """The TransformedProblem of a solve on `blockset` with these metrics."""
    widths = [b.n_vars for b in blockset.blocks]
    return _transform(blockset.superblock, widths, blockset.ids, metrics, m)


def problem_from_qs(qs, m, n=1):
    """A TransformedProblem with the segments Q_b / n, named '1', '2', ..."""
    qs = [np.asarray(q, dtype=float) / n for q in qs]
    offsets = np.cumsum([0] + [q.shape[0] for q in qs])
    return TransformedProblem(np.vstack(qs), m, [str(b + 1) for b in range(len(qs))], offsets)


def superblock_coordinates(solution, metric):
    """The solution's unit iterate c in the coordinates of the superblock `metric`.

    w_super = B c with B'MB = I, so c is (MB)'w_super, normalized against
    roundoff; MB = tau B + (1 - tau) GB, which is V diag(lambda^(1/2)) for an
    eigenbasis and L for a Cholesky factor.
    """
    mb = metric.tau * metric.factor + (1.0 - metric.tau) * metric.cross
    c = mb.T @ solution.w_super
    return c / np.linalg.norm(c)


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


def uniform_modes(block_mode, superblock_mode, n_blocks):
    """One mode ('A', 'B' or a tau) for every block, and one for the superblock."""
    return ModeSelector.from_taus([block_mode] * n_blocks, superblock_mode)


def random_m(seed, grid=M_GRID):
    rng = np.random.default_rng(seed + 104729)
    return float(rng.choice(grid))


def full_rank_blockset(seed, b=3, n=20, js=(3, 2, 4), scale=True):
    """Superblock guaranteed full column rank (total J <= n - 1)."""
    assert sum(js) <= n - 1
    return random_blockset(seed, b=len(js), n=n, js=list(js), scale=scale)


def wide_blockset(seed):
    """2-4 blocks on 8-20 rows, at least one with more columns than rows."""
    rng = np.random.default_rng(seed + 60013)
    b = int(rng.integers(2, 5))
    n = int(rng.integers(8, 21))
    js = [int(rng.integers(1, 3 * n)) for _ in range(b)]
    js[int(rng.integers(b))] = int(rng.integers(n + 1, 3 * n + 1))
    return random_blockset(seed, b=b, n=n, js=js)


def latent_blockset(seed, n=20, js=(3, 2, 4), noise=0.4, full_rank=True):
    """Blocks sharing one latent factor: a strong consensus direction.

    The dominant eigenvalue is well separated, so solves converge fast and
    reach tiny fixed-point residuals; use these where a test asserts tight
    identities at convergence. full_rank=True guarantees a superblock of
    full column rank (total J <= n - 1); False admits wide blocks.
    """
    assert sum(js) <= n - 1 or not full_rank
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal(n)
    blocks = []
    for k, j in enumerate(js):
        loadings = rng.uniform(0.6, 1.4, j) * rng.choice([-1.0, 1.0], j)
        data = np.outer(factor, loadings) + noise * rng.standard_normal((n, j))
        blocks.append(from_matrix(f"b{k + 1}", data, scale=True))
    return build_blockset(blocks)


def collinear_blockset(seed, n=30, js=(4, 5, 3)):
    """Blocks of rank 2 each, plus 1e-6 noise on the first one.

    The later blocks are exactly collinear (Mode B drops their null
    directions); the first one's Gram matrix is near-singular, with a
    condition number around 1e12.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for k, j in enumerate(js):
        data = rng.standard_normal((n, 2)) @ rng.standard_normal((2, j))
        if k == 0:
            data += 1e-6 * rng.standard_normal((n, j))
        blocks.append(from_matrix(f"c{k + 1}", data))
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


def reference_metric_power(x, tau, power):
    """M^power of M = tau*I + (1-tau)*(1/n) X'X as a dense J x J matrix.

    One eigendecomposition of M itself; at tau = 0 eigenvalues at or below
    DEFAULT_RANK_TOLERANCE times the largest are null directions.
    """
    n, j = x.shape
    vals, vecs = np.linalg.eigh(tau * np.eye(j) + (1.0 - tau) * (x.T @ x) / n)
    if tau == 0.0:
        keep = vals > DEFAULT_RANK_TOLERANCE * vals[-1]
        vals, vecs = vals[keep], vecs[:, keep]
    return (vecs * vals**power) @ vecs.T


def factor_power(met, power):
    """M^power as a dense J x J matrix, rebuilt from a metric's thin factor.

    From an eigenbasis, M^power = V diag(lambda^power) V' + tau^power (I - V V');
    at tau = 0 the complement term is dropped (pseudo-inverse semantics). From
    a Cholesky factor (tau = 0, full rank), M = LL' and M^(-1) = BB'; other
    powers need an eigendecomposition, which that factor does not hold.
    """
    if met.variances is None:
        factor = {1.0: met.cross, -1.0: met.factor}[power]
        return factor @ factor.T
    v = eigenbasis(met)
    rest = met.tau**power if met.tau > 0.0 else 0.0
    return (v * metric_eigenvalues(met) ** power) @ v.T + rest * (np.eye(v.shape[0]) - v @ v.T)


def eigenbasis(met):
    """The orthonormal V of an eigenbasis factor B = V diag(lambda^(-1/2))."""
    return met.factor * np.sqrt(metric_eigenvalues(met))


def metric_eigenvalues(met):
    """lambda = tau + (1 - tau) g, M's eigenvalues on an eigenbasis factor."""
    return met.tau + (1.0 - met.tau) * met.variances


def metric_condition(met):
    """kappa(M) on the factor's span: lambda_max / lambda_min, or kappa(L)^2."""
    if met.variances is None:
        return np.linalg.cond(met.cross) ** 2
    lam = metric_eigenvalues(met)
    return lam.max() / lam.min()


def is_pseudo(met):
    """True when a tau = 0 metric dropped null directions (pseudo-inverse semantics)."""
    return met.tau == 0.0 and met.rank < met.factor.shape[0]


def eigh_factor(x, tau):
    """The eigendecomposition route of `build_metric`, written out: its fields, in order.

    (factor, cross, variances): descending eigenpairs of the smaller
    Gram matrix, cut at DEFAULT_RANK_TOLERANCE (tau = 0) or at roundoff
    (tau > 0), V = X'U/s for a wide matrix, factor V diag(lambda^(-1/2)) and
    cross V diag(g lambda^(-1/2)).
    """
    n, j = x.shape
    vals, vecs = np.linalg.eigh((x @ x.T if j > n else x.T @ x) / n)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    cut = DEFAULT_RANK_TOLERANCE if tau == 0.0 else max(n, j) * np.finfo(float).eps
    rank = int((vals > cut * vals[0]).sum())
    vals, vecs = vals[:rank], vecs[:, :rank]
    if j > n:
        vecs = (x.T @ vecs) / np.sqrt(n * vals)
    vals, vecs = np.ascontiguousarray(vals), np.ascontiguousarray(vecs)
    scale = (tau + (1.0 - tau) * vals) ** -0.5
    return vecs * scale, vecs * (vals * scale), vals


def deficient_superblock(seed):
    """A duplicated column: the rank-1 superblock is rank deficient (the eigh route)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((25, 4))
    return build_blockset([
        from_matrix("dup", np.column_stack([base, base[:, 2]])),
        from_matrix("full", rng.standard_normal((25, 5))),
    ])


def without_cholesky(monkeypatch):
    """Send every metric built from now on down the eigendecomposition route."""

    def refuse(a):
        raise np.linalg.LinAlgError("the Cholesky route is switched off")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)


def reference_q_blocks(mats, smat, metrics):
    """Q_b / n = P_b'P_super / n in the factors' coordinates, one block at a time.

    Each segment is the product of the block image with the superblock
    image over the n rows (r_b x n x r_super), the reference for the
    transform's closed form.
    """
    p_super = metrics[-1].image(smat)
    return [met.image(mat) @ p_super.T / smat.shape[0] for mat, met in zip(mats, metrics)]


def reference_dense_q_blocks(mats, smat, modes):
    """Q_b / n = M_b^(-1/2) X_b' X_super M_super^(-1/2) / n, J_b x J_super each."""
    p_super = smat @ reference_metric_power(smat, modes.superblock_tau, -0.5)
    return [
        reference_metric_power(x, tau, -0.5) @ (x.T @ p_super) / smat.shape[0]
        for x, tau in zip(mats, modes.block_taus)
    ]


def reference_solve(blockset, modes, m, epsilon=1e-10, max_iter=10_000):
    """The J-space solve from the eigen start on dense Q_b, block by block.

    Returns the psi trace and the superblock component.
    """
    mats = [b.matrix for b in blockset.blocks]
    qs = reference_dense_q_blocks(mats, blockset.superblock, modes)
    oracle = GradientOracle(
        value=lambda v: reference_criterion(qs, v, m),
        grad=lambda v: reference_gradient(qs, v, m),
    )
    v0 = np.linalg.eigh(reference_gram(qs))[1][:, -1]
    cfg = SolverConfig(m=m, epsilon=epsilon, max_iter=max_iter)
    v, trace = sphere_maximize(oracle, cfg, v0)
    w_super = reference_metric_power(blockset.superblock, modes.superblock_tau, -0.5) @ v
    return trace.psi, blockset.superblock @ w_super


def superblock_from_block_components(solution, blockset, superblock_tau, m):
    """Rebuild the superblock component from the block components.

    At a fixed point the superblock component equals the image of
    sum_b cov(y_b, y_super)^(m-1) y_b under the superblock operator; with a
    Mode B superblock the operator drops and the image is the standardized
    weighted sum itself (for m = 1, the plain standardized sum).
    """
    z = np.zeros(blockset.n)
    for cov, y_b in zip(solution.covs, solution.y_blocks):
        z += cov ** (m - 1.0) * y_b
    smat = blockset.superblock
    t = smat.T @ z
    num = smat @ (reference_metric_power(smat, superblock_tau, -1.0) @ t)
    den = float(np.linalg.norm(reference_metric_power(smat, superblock_tau, -0.5) @ t))
    return num / den


def reference_stationary_image(y, mats, block_taus, m):
    """sum_b ||M_b^(-1/2) X_b'y||^(m-2) X_b M_b^(-1) X_b'y, one block at a time.

    A vanished term (exactly zero) raises for m < 2 and is skipped for
    m >= 2.
    """
    z = np.zeros_like(y)
    for b, (mat, tau) in enumerate(zip(mats, block_taus)):
        t = mat.T @ y
        half_norm = float(np.linalg.norm(reference_metric_power(mat, tau, -0.5) @ t))
        if half_norm == 0.0:
            if m < 2.0:
                raise SingularGradientError(
                    f"block {b + 1}: cross-term vanished with m = {m} < 2"
                )
            continue
        z += half_norm ** (m - 2.0) * (mat @ (reference_metric_power(mat, tau, -1.0) @ t))
    return z


def reference_residual(y, blockset, modes, m):
    """Unit-normalized distance between y and its stationary image, on dense metrics.

    The image is X_super M_super^(-1) X_super' z with z the stationary image
    of the blocks; it is zero exactly at solutions of the stationary equation.
    """
    mats = [b.matrix for b in blockset.blocks]
    z = reference_stationary_image(y, mats, modes.block_taus, m)
    s_mat = blockset.superblock
    img = s_mat @ (reference_metric_power(s_mat, modes.superblock_tau, -1.0) @ (s_mat.T @ z))
    return float(np.linalg.norm(img / np.linalg.norm(img) - y / np.linalg.norm(y)))


def reference_auxiliary_solve(blockset, block_taus, m, epsilon=1e-12, max_iter=10_000, y0=None):
    """The superblock-free fixed-point iteration as its own loop.

    The unit-variance component is replaced by the standardized stationary
    image until sum_b cov(y_b, y)^m rises by no more than epsilon. Returns
    the component, the iteration count and the per-iteration values.
    """
    mats = [b.matrix for b in blockset.blocks]
    n = blockset.n
    halves = [reference_metric_power(mat, tau, -0.5) for mat, tau in zip(mats, block_taus)]

    if y0 is None:
        u, _, _ = np.linalg.svd(blockset.superblock, full_matrices=False)
        y0 = u[:, 0]
    y = np.asarray(y0, dtype=float).ravel()
    y = y / math.sqrt(sample_cov(y, y))

    def crit(yv):
        total = 0.0
        for mat, half in zip(mats, halves):
            total += (np.linalg.norm(half @ (mat.T @ yv)) / n) ** m
        return float(total)

    values = [crit(y)]
    if not values[0] > 0.0:
        raise BadStartError("criterion is zero at the start component")
    iterations = 0
    for _ in range(max_iter):
        z = reference_stationary_image(y, mats, block_taus, m)
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


class _DeflatedBlocks(CarriedSuperblock):
    """A carried Mode B superblock whose blocks come in deflated, as data."""

    def __init__(self, x):
        super().__init__(x, separate=False)

    def block_data(self, mats):
        return [(mat, None) for mat in mats]

    def deflate(self, y):
        super().deflate(y)
        self.units = self.cross = None  # the blocks are deflated already


def data_deflation_extract(blockset, modes, config, rank):
    """`extract` under global with a Mode B superblock, deflating the data.

    Each rank solves on the n x J superblock deflated on every earlier
    superblock component, with the rank-1 superblock factor carried: block
    metrics from the deflated blocks' own Grams and block components X_b w_b
    of the deflated blocks. Returns (solutions, deflated array per rank).
    """
    widths = [b.n_vars for b in blockset.blocks]
    whole, carried = blockset.superblock, _DeflatedBlocks(blockset.superblock)
    solutions, wholes = [], []
    for _ in range(rank):
        sol = solve_matrices(whole, widths, modes, config, ids=blockset.ids, superblock=carried)
        solutions.append(sol)
        wholes.append(whole)
        carried.deflate(sol.y_super)
        whole = deflate(whole, sol.y_super)
    return solutions, wholes
