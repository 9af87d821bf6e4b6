"""Transformed problem and the normalized-gradient maximizer.

With P_b = X_b M_b^(-1/2) and Q_b = P_b' P_(B+1), maximizing the sum of
m-th powers of block/superblock covariances under the metric constraints
reduces to maximizing

    psi(v) = sum_b ||Q_b v||^m

over unit vectors v. psi is convex and continuously differentiable for
m >= 1, so the normalized-gradient iteration v <- grad(v)/||grad(v)||
ascends psi monotonically (it maximizes the linear minorizer
G(u, v) = psi(v) + grad(v)'(u - v) on the sphere at each step) and every
limit point is a fixed point of the iteration, i.e. a stationary point of
the constrained problem.

Every metric is a thin factor B_b with B_b'M_b B_b = I, so P_b = X_b B_b is
n x r_b and the iterate lives in the superblock factor's coordinates c: the
segments Q_b = P_b'P_super are r_b x r_super whether the blocks are tall or
wide, and read off H = X_B'P_super / n, which is the superblock metric's G
B_super when the superblock is the concatenation of the blocks
(`_transform`). A random start is c = B_super'X_super'y for a seeded
Gaussian y in R^n, whatever basis B_super has; explicit superblock weights
w give c = (M B_super)'w. The back-map reads the superblock weights B_super
c and each block's covariance and weights off the segments Q_b c, in the
block factor's coordinates. `TransformedProblem` is the one evaluator of
psi and its gradient, and `sphere_maximize` the one ascent loop. The
operator stacks its segments into a single matrix, so psi is one matvec and
the gradient one more transposed matvec, reusing psi's product at the
iterate it was taken at. Each run of consecutive blocks of one width (and,
for the metrics, one tau) takes one stacked call per rank: for its Mode B
Cholesky factors (`metrics.cholesky_metrics`), its Gram downdates, its
segments, and its weights and components in the back-map. A run of one
block is the general case; a block whose metric takes the
eigendecomposition gets `build_metric` alone. The iteration and its stop
test are scale-invariant, and so are the solver's slacks; the monotone,
step-bound and sandwich checks run at every iteration. The eigen start is
the top eigenvector of S'S from a dense eigh below a size gate, else from
block Lanczos within a basis budget, falling back to the eigh once Lanczos
has used up the budget or cannot converge within it. A solve is
deterministic given its configuration and never modifies the problem it
reads.

`Deflation` records what an extract has deflated under every strategy and
forms the deflated blocks in one product. Under `global` and `own` it
carries a Mode B superblock instead, factored once, and forms no block:
later ranks solve in those coordinates off the earlier components, with
block metrics from the rank-1 block Grams downdated on the components each
block is deflated on (the superblock's, or its own).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import BlockSet
from .errors import (
    AllStartsFailedError,
    BadStartError,
    DimensionError,
    InternalAssertionError,
    NonContributingBlockError,
    SingularGradientError,
    UndefinedContributionsError,
)
from .metrics import ModeSelector, ShrinkageMetric, build_metric, cholesky_metrics, gram_stack

# slack of the "the criterion never decreased" and sandwich checks, relative to psi
_MONOTONE_TOL = 1e-12
# roundoff slack of the step bound, and of zero tests relative to their inputs
_ROUNDOFF_TOL = 1e-14
# The eigen start takes block Lanczos from this superblock rank on, and the dense
# eigh once the basis would pass dim // 8 vectors (crossover: ROADMAP item 6)
_LANCZOS_MIN_DIM = 256
_LANCZOS_BUDGET_DIVISOR = 8


class TransformedProblem:
    """psi(v) = sum_b ||Q_b v||^m and its gradient.

    The Q_b are stacked row-wise into one (sum r_b) x dim matrix `stacked`;
    offsets[b]:offsets[b + 1] are the rows of block b, at least one, and
    ids[b] names it in errors. value(v) keeps a copy of v and S v as a memo:
    grad at a v equal to it, entry for entry, reuses the product, so an
    ascent step that evaluates psi at v_new and then steps from it pays for
    S v_new once. The O(dim) comparison, not the array's identity, decides,
    so a v changed in place since gets its own product.
    """

    def __init__(self, stacked: np.ndarray, m: float, ids: Sequence[str], offsets: np.ndarray):
        if not (m >= 1.0 and math.isfinite(m)):
            raise ValueError(f"m must be finite and >= 1, got {m!r}")
        self.stacked, self.offsets = stacked, offsets
        self.m = m
        self.ids = list(ids)
        rows = np.diff(offsets)
        if (empty := rows < 1).any():
            raise ValueError(f"block {self.ids[int(np.argmax(empty))]!r} has an empty segment")
        # ||Q_b v|| at or below this counts as zero in the gradient; a block's
        # largest |entry| from the rows' extremes (no |Q| copy)
        row_peak = np.maximum(stacked.max(axis=1, initial=0.0), -stacked.min(axis=1, initial=0.0))
        peak = np.maximum.reduceat(row_peak, offsets[:-1])
        self._zero_tol = _ROUNDOFF_TOL * peak * np.sqrt(rows * self.dim)
        self._last: tuple = (None, None)  # the memo: (v, S v) of the last value(v)

    @property
    def dim(self) -> int:
        return self.stacked.shape[1]

    def _norms(self, sv: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduceat(sv * sv, self.offsets[:-1]))

    def value(self, v: np.ndarray) -> float:
        sv = self.stacked @ v
        self._last = (np.array(v, copy=True), sv)
        return float((self._norms(sv) ** self.m).sum())

    def grad(self, v: np.ndarray) -> np.ndarray:
        """m * sum_b ||Q_b v||^(m-2) Q_b'Q_b v; satisfies v'grad = m*psi."""
        last, sv = self._last
        if last is None or last.shape != np.shape(v) or not (last == v).all():
            sv = self.stacked @ v
        norms = self._norms(sv)
        zero = norms <= self._zero_tol
        if self.m < 2.0 and zero.any():
            b = int(np.argmax(zero))
            raise SingularGradientError(
                f"block {self.ids[b]!r}: ||Q v|| vanished and m = {self.m} < 2 makes the "
                "gradient singular there"
            )
        # for m >= 2 a vanished term is continuous at 0 and contributes 0
        coef = np.where(zero, 0.0, self.m * norms ** (self.m - 2.0))
        return self.stacked.T @ (np.repeat(coef, np.diff(self.offsets)) * sv)


@dataclass
class SolverConfig:
    """Knobs of one solve.

    init is "eigen" (dominant eigenvector of sum(Q_b'Q_b): a dense eigh below
    a superblock rank of 256, else block Lanczos within a basis budget, with
    the eigh as fallback), "random" (the component B'X'y of the superblock X
    for a Gaussian y in R^n with this seed) or superblock weights w, J_super
    long, whose M-projection onto the factor's span is the start: a solution's
    own w_super restarts it. sphere_maximize normalizes the start and rejects
    it (BadStartError) when it is zero or the criterion is not positive at it.
    Additional starts beyond the first are random with seeds seed+1, seed+2,
    ... and the winner is the largest criterion value (ties keep the earliest
    start). When every start fails, the solve raises AllStartsFailedError
    naming the last failure. An init array with a NaN or infinite entry raises
    ValueError at construction.

    A bad m, epsilon, max_iter, n_starts or seed, a count that is not a
    numbers.Integral included, raises ValueError at construction with the
    message "<field> must <condition>, got <value!r>", the field's name
    first: the CLI reports it with the flag in its place.

    epsilon bounds the step ||v_new - v|| between unit iterates, the
    fixed-point residual at v: the solve stops at the first step no longer
    than epsilon, whatever the data's units and m.

    Every iteration checks that psi did not decrease (up to 1e-12 * psi),
    the ascent step bound and the minorizer sandwich; a violation raises
    InternalAssertionError.
    """

    m: float = 2.0
    epsilon: float = 1e-6
    max_iter: int = 10_000
    init: str | np.ndarray = "eigen"
    seed: int = 0
    n_starts: int = 1

    def __post_init__(self):
        if not (self.m >= 1.0 and math.isfinite(self.m)):
            raise ValueError(f"m must be finite and >= 1, got {self.m!r}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        for name in ("max_iter", "n_starts", "seed"):
            if not isinstance(value := getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be at least 1, got {self.n_starts!r}")
        if isinstance(self.init, str) and self.init not in ("eigen", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if not isinstance(self.init, str) and not np.isfinite(np.asarray(self.init, float)).all():
            raise ValueError("init must hold finite numbers")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")


@dataclass
class SolverTrace:
    """Per-iteration record of one maximizer run.

    psi[0] is the start value and psi[s+1] the value after iteration s.
    Every iteration was checked to satisfy, up to roundoff, the ascent bound
    step_norm[s]**2 <= 2*(psi[s+1]-psi[s])/||grad(v_s)||, a gradient norm of
    at least m*psi[0] for the criterion. converged: the last step fell to epsilon.
    """

    psi: list[float]
    step_norm: list[float]
    iterations: int
    converged: bool
    fixed_point_residual: float
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class GradientOracle:
    """Value/gradient pair of a convex differentiable objective.

    sphere_maximize reads only these two attributes, so a TransformedProblem
    can be passed in its place.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Solution:
    """Converged weights, components and diagnostics of one rank.

    block_ranks and superblock_rank hold the factor ranks of the metrics.
    """

    w_super: np.ndarray
    y_super: np.ndarray
    w_blocks: list[np.ndarray]
    y_blocks: list[np.ndarray]
    covs: np.ndarray
    contributions: np.ndarray
    trace: SolverTrace
    block_ranks: tuple[int, ...] = ()
    superblock_rank: int = 0


class Deflation:
    """What an extract has deflated: the directions each block is projected off.

    Each deflation takes rank-one parts u f' off the blocks, and a block's
    parts are orthogonal, so block b deflated is X_b - Y_b A_b', one
    orthogonal projection of it. Y (`units`) holds the u, F (`cross`) the f
    over all of X's columns, `owner` the blocks each column deflates, and A
    is F with block b's rows kept on b's columns. In row space u is a unit
    component and f = X'u: the superblock's, every block's (`global`), or
    b's own (`block`, `own`). In column space (`loading`) f is b's unit
    loading p_b, zero off b's rows, and u = X p_b.

    A Mode B superblock under `global` or `own` is carried instead, factored
    once (`factor`). P = X B has P'P / n = I; each superblock component
    y = P c adds its unit c = P'y / n to E (`off`), so later solves keep X's
    coordinates, off E. The blocks are not formed: A_b = X_b'Y_b downdates
    b's rank-1 Gram G_b = X_b'X_b / n (`grams`), which keeps its relative
    accuracy whatever the superblock's conditioning, to G_b - A_b A_b' / n;
    a wide block gets X_b - Y_b A_b'. Both take one stacked call per run of
    blocks. E, B'F / n and W are kept only while a factor is carried.
    """

    def __init__(self, x: np.ndarray, widths: Sequence[int]):
        self.x, self.widths = x, list(widths)
        self.metric: ShrinkageMetric | None = None
        self.units = self.cross = self.owner = None  # Y, F, owner
        self.off = self.bf = None  # E and B'F / n
        self.grams: list | None = None  # per run, its stack of G_b, or None for wide blocks
        self.weights: np.ndarray | None = None  # W, each block's own earlier weights in its rows

    def factor(self) -> ShrinkageMetric:
        if self.metric is None:
            self.metric = build_metric(self.x, 0.0)
        return self.metric

    def add(self, y: np.ndarray, y_blocks=None, w_blocks=None) -> None:
        """Deflate every block on the superblock component y, or each on its own y_b (from w_b)."""
        xy = self.x.T @ y
        if y_blocks is None:
            nrm = np.linalg.norm(y)
            u, f, owner = (y / nrm)[:, None], (xy / nrm)[:, None], np.ones((len(self.widths), 1))
        else:
            u = np.column_stack(y_blocks)
            u /= np.linalg.norm(u, axis=0)
            f, owner = self.x.T @ u, np.eye(len(y_blocks))
        if self.metric is not None:
            c = self.metric.factor.T @ xy
            self.off = _hstack(self.off, (c / np.linalg.norm(c))[:, None])
            self.bf = _hstack(self.bf, self.metric.factor.T @ f / len(self.x))
            if w_blocks is not None:
                self.weights = _hstack(self.weights, np.concatenate(w_blocks)[:, None])
        self._record(u, f, owner)

    def add_loadings(self, y: np.ndarray) -> None:
        """Deflate each block in column space on X_b'y, off its earlier loadings, made unit."""
        mask = np.repeat(np.eye(len(self.widths)), self.widths, axis=0)
        p = self.x.T @ y
        if self.cross is not None:
            # classical Gram-Schmidt twice: one pass leaves an error of about u ||X_b'y|| / ||p_b||
            p -= self.cross @ (self.cross.T @ p)
            p -= self.cross @ (self.cross.T @ p)
        p = mask * (p / np.sqrt((p * p) @ mask @ mask.T))[:, None]
        self._record(self.x @ p, p, np.eye(len(self.widths)))

    def _record(self, u: np.ndarray, f: np.ndarray, owner: np.ndarray) -> None:
        self.units, self.cross, self.owner = (
            _hstack(old, new) for old, new in zip((self.units, self.cross, self.owner), (u, f, owner)))

    def _owned(self) -> np.ndarray:
        """A: F with block b's rows kept on b's columns of Y only."""
        return self.cross * np.repeat(self.owner, self.widths, axis=0)

    def deflated(self) -> np.ndarray:
        """The blocks deflated on everything recorded, X - Y A', in one product; X while none is."""
        if self.units is None:
            return self.x
        p = self.units @ self._owned().T
        return np.subtract(self.x, p, out=p)

    def block_data(self, runs: list[slice]) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """(data, Grams or None) of each run of blocks deflated on its Y_b, for `_block_metrics`.

        Every call passes the same runs. The rank-1 Grams are formed at the
        first by the plain solve's own expression (`gram_stack`), so rank 1 is
        the plain solve, byte for byte.
        """
        n = self.x.shape[0]
        data = _block_views(self.x, self.widths, runs)
        if self.grams is None:
            self.grams = [gram_stack(x) if x.shape[2] <= n else None for x in data]
        if self.units is None:
            return list(zip(data, self.grams))
        weights = ([None] * len(runs) if self.weights is None
                   else _row_runs(self.weights, self.widths, runs))
        out = []
        for x, g, a, w in zip(data, self.grams, _row_runs(self._owned(), self.widths, runs),
                              weights):
            if g is None:
                out.append((x - self.units @ a.swapaxes(1, 2), None))
                continue
            g = g - a @ a.swapaxes(1, 2) / n
            if w is not None:  # Pi_b X_b W_b = 0; the downdate's is roundoff
                z = np.linalg.qr(w)[0]
                g -= z @ (z.swapaxes(1, 2) @ g)
                g -= (g @ z) @ z.swapaxes(1, 2)
            out.append((x, g))
        return out

    def rows(self) -> np.ndarray:
        """H: block b's rows X_b'Pi_b P / n = (GB - AC')_b, C = B'F / n, off E, in one product."""
        h = self.metric.cross
        if self.off is None:
            return h
        c = self.bf - self.off @ (self.off.T @ self.bf)
        p = np.hstack([h @ self.off, self._owned()]) @ np.vstack([self.off.T, c.T])
        return np.subtract(h, p, out=p)


# ---------------------------------------------------------------------------
# runs of blocks: one stacked call for each


def _runs(keys: Sequence) -> list[slice]:
    """The runs of consecutive equal keys, as slices of their positions."""
    starts = [b for b in range(len(keys)) if b == 0 or keys[b] != keys[b - 1]]
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [len(keys)])]


def _row_runs(a: np.ndarray, sizes: Sequence[int], runs: list[slice]) -> list[np.ndarray]:
    """The rows of `a` of each run of blocks of equal `sizes`, as a (k, size, ...) view."""
    ends = np.cumsum([0, *sizes])
    return [a[ends[r.start]:ends[r.stop]].reshape(r.stop - r.start, sizes[r.start], *a.shape[1:])
            for r in runs]


def _block_views(x: np.ndarray, widths: Sequence[int], runs: list[slice]) -> list[np.ndarray]:
    """The columns of x of each run of blocks of one width, as a (k, n, J) view."""
    return [v.swapaxes(1, 2) for v in _row_runs(x.T, widths, runs)]


def _stack(mats: Sequence[np.ndarray]) -> np.ndarray:
    """(k, J, r) copy of same-shape matrices, each laid out as the first (C or F order).

    The BLAS call on a slice is then the one on the matrix itself, bit for bit.
    """
    if mats[0].flags.c_contiguous:
        return np.array(mats)
    return np.array([a.T for a in mats]).swapaxes(1, 2)


def _hstack(old: np.ndarray | None, new: np.ndarray) -> np.ndarray:
    """`new` as further columns of `old`, or alone while there is none."""
    return new if old is None else np.hstack([old, new])


def _factor_runs(metrics: Sequence[ShrinkageMetric]) -> list[slice]:
    """Runs of block metrics whose factors share a shape and a layout."""
    return _runs([(met.factor.shape, met.factor.strides) for met in metrics])


def _block_metrics(data, taus) -> list[ShrinkageMetric]:
    """The metrics of each run's blocks, from `data` as `Deflation.block_data` gives it.

    Each run takes one `cholesky_metrics` call; each member it leaves
    without a metric gets `build_metric` alone.
    """
    metrics = []
    for (x, grams), tau in zip(data, taus):
        gs = [None] * len(x) if grams is None else grams
        metrics += [met if met is not None else build_metric(xb, tau, g)
                    for met, xb, g in zip(cholesky_metrics(x, tau, grams), x, gs)]
    return metrics


# ---------------------------------------------------------------------------
# transform and starts


def _transform(whole, widths, ids, metrics, m, superblock=None) -> TransformedProblem:
    """Build the segments Q_b / n = P_b'P_super / n in the factors' coordinates.

    Segment b is B_b' H[rows of b], H = X_B'P_super / n: G B_super, the
    superblock metric's `cross`, when the blocks of `whole` are the
    superblock; a carried `Deflation`'s closed form, off its E; else one
    product of X_B' with the image of the separate `superblock`. Each run of
    block factors of one shape and layout takes one product. A segment at
    roundoff of ||P_b||_F ||P_super||_F / n, ||P||_F^2 = n tr(B'GB), raises
    NonContributingBlockError naming the first such block.
    """
    sup = metrics[-1]
    if isinstance(superblock, Deflation):
        h = superblock.rows()
    elif superblock is None:
        h = sup.cross
    else:
        h = whole.T @ sup.image(superblock).T / superblock.shape[0]
    # tr(B'GB) without copies: the rank at tau = 0, where B'GB = I on every route
    norm = math.sqrt(sup.rank if sup.tau == 0.0 else np.einsum("ij,ij->", sup.factor, sup.cross))
    blocks = metrics[:-1]
    ranks = [met.rank for met in blocks]
    offsets = np.cumsum([0] + ranks)
    stacked = np.empty((offsets[-1], h.shape[1]))
    spread = np.empty(len(blocks))  # tr(B_b'G_b B_b)
    runs = _factor_runs(blocks)
    for run, rows, q in zip(runs, _row_runs(h, widths, runs), _row_runs(stacked, ranks, runs)):
        factors = _stack([met.factor for met in blocks[run]])
        np.matmul(factors.swapaxes(1, 2), rows, out=q)
        spread[run] = np.einsum("kij,kij->k", factors, np.array([met.cross for met in blocks[run]]))
    # ||Q_b||_F from one reduction over the rows; a segment of no rows is zero
    norms, full = np.zeros(len(blocks)), np.diff(offsets) > 0
    if full.any():
        norms[full] = np.sqrt(np.add.reduceat(np.einsum("ij,ij->i", stacked, stacked),
                                              offsets[:-1][full]))
    if (zero := norms <= 1e-14 * np.sqrt(spread) * norm).any():
        raise NonContributingBlockError(
            f"block {ids[int(np.argmax(zero))]!r} has zero cross-product with the superblock "
            "and cannot contribute; drop it from the analysis"
        )
    return TransformedProblem(stacked, m, ids, offsets)


def _eigen_start(problem: TransformedProblem) -> tuple[np.ndarray, bool]:
    """Dominant eigenvector of S'S = sum_b Q_b'Q_b, and whether it is numerically multiple.

    From the size gate on: block Lanczos of width 2 on S'(S V) from a fixed
    Gaussian block, two Gram-Schmidt passes per block, until the top Ritz
    residual is at most 1e-14 * theta_1; theta_1 - theta_2 decides the flag.
    Below the gate, or once the basis would pass its budget, the dense eigh;
    so too once the residual could not reach its tolerance within the budget
    even if its last ratio per block step halved at each step left.
    """
    s, dim = problem.stacked, problem.dim
    if dim >= _LANCZOS_MIN_DIM:
        cap = dim // _LANCZOS_BUDGET_DIVISOR
        basis, image = np.empty((dim, cap + 2), order="F"), np.empty((dim, cap), order="F")
        gram = np.zeros((cap, cap))  # lower triangle of basis'S'S basis, the part eigh reads
        last = math.inf  # the previous residual
        basis[:, :2] = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, 2)))[0]
        for k in range(2, cap + 1, 2):
            image[:, k - 2:k] = s.T @ (s @ basis[:, k - 2:k])
            gram[k - 2:k, :k] = image[:, k - 2:k].T @ basis[:, :k]
            vals, vecs = np.linalg.eigh(gram[:k, :k])
            x, top = basis[:, :k] @ vecs[:, -1], vals[-1]
            res = np.linalg.norm(image[:, :k] @ vecs[:, -1] - top * x)
            if res <= _ROUNDOFF_TOL * top:
                return x, bool(top - vals[-2] <= 1e-12 * top)
            # the residual at the budget's end if its last ratio halved at each step left
            left = (cap - k) // 2
            if res * min(1.0, res / last) ** left * 0.5 ** (left * (left + 1) // 2) > (
                    _ROUNDOFF_TOL * top):
                break
            last = res
            block = image[:, k - 2:k]
            for _ in range(2):
                block = np.linalg.qr(block - basis[:, :k] @ (basis[:, :k].T @ block))[0]
            basis[:, k:k + 2] = block
    vals, vecs = np.linalg.eigh(s.T @ s)
    v = vecs[:, -1].copy()
    degenerate = vals.size > 1 and (vals[-1] - vals[-2]) <= 1e-12 * vals[-1]
    return v, degenerate


def _start(sup: ShrinkageMetric, smat, off, config: SolverConfig, k: int) -> np.ndarray:
    """Start k in the superblock factor's coordinates, off E: the init at k = 0, else a draw.

    The draw is c = B'X'y for the rank's superblock X (`smat`) and a standard
    Gaussian y in R^n with seed config.seed + k: Bc = M^+ X'y whatever basis or
    route gave B, and c ~ N(0, nI) at tau = 0. Explicit superblock weights w
    give c = (MB)'w, so that Bc is w's M-projection onto the factor's span. A
    start at roundoff of ||MB||_F ||w||, or of the draw's norm before E, is
    returned as exact zeros, which sphere_maximize rejects as a zero start.
    """
    if k == 0 and not isinstance(config.init, str):
        w = np.asarray(config.init, dtype=float).ravel()
        if len(w) != len(sup.factor):
            raise DimensionError(f"start vector has length {len(w)}, expected {len(sup.factor)}")
        mb = sup.tau * sup.factor + (1.0 - sup.tau) * sup.cross
        c, size = mb.T @ w, np.linalg.norm(mb) * np.linalg.norm(w)
    else:
        y = np.random.default_rng(config.seed + k).standard_normal(len(smat))
        c = sup.factor.T @ (smat.T @ y)
        size = np.linalg.norm(c)
    if off is not None:
        c = c - off @ (off.T @ c)
    return c if np.linalg.norm(c) > _ROUNDOFF_TOL * size else np.zeros_like(c)


# ---------------------------------------------------------------------------
# the maximizer


def sphere_maximize(
    oracle: GradientOracle,
    config: SolverConfig,
    v0: np.ndarray,
) -> tuple[np.ndarray, SolverTrace]:
    """Maximize a convex differentiable objective on the unit sphere.

    Iterates v <- grad(v)/||grad(v)|| until the step ||v_new - v|| drops to
    config.epsilon or max_iter is reached (the latter returns the last
    iterate with converged=False rather than raising). The start v0 must
    have a positive objective value. `oracle` is anything with `value` and
    `grad`, such as a TransformedProblem or a GradientOracle.

    By convexity psi(v_new) - psi(v) >= grad(v)'(v_new - v), which is
    ||grad(v)|| step^2 / 2: the ascent bound, which like the monotonicity
    and sandwich slacks does not depend on the objective's scale.
    """
    v = np.asarray(v0, dtype=float).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise BadStartError("start vector is zero")
    v = v / nrm
    psi = float(oracle.value(v))
    if not psi > 0.0:
        raise BadStartError("objective is not positive at the start vector")

    psis = [psi]
    steps: list[float] = []

    for _ in range(config.max_iter):
        g = oracle.grad(v)
        gn = float(np.linalg.norm(g))
        if gn <= 0.0:
            raise SingularGradientError("gradient vanished at an iterate")
        v_new = g / gn
        psi_new = float(oracle.value(v_new))
        dpsi = psi_new - psi
        step = float(np.linalg.norm(v_new - v))
        bound = 2.0 * dpsi / gn
        psis.append(psi_new)
        steps.append(step)

        slack = _MONOTONE_TOL * psi
        if dpsi < -slack:
            raise InternalAssertionError(
                f"criterion decreased by {-dpsi:.3e} in one iteration"
            )
        if step * step > bound + _ROUNDOFF_TOL:
            raise InternalAssertionError(
                f"ascent bound violated: step^2 = {step * step:.3e} > {bound:.3e}"
            )
        # linear minorizer at v, evaluated at the new iterate
        g_mid = psi + float(g @ (v_new - v))
        if not (g_mid >= psi - slack and psi_new >= g_mid - slack):
            raise InternalAssertionError(
                f"minorizer sandwich violated: psi={psi:.17g} "
                f"G={g_mid:.17g} psi_new={psi_new:.17g}"
            )

        v, psi = v_new, psi_new
        if step <= config.epsilon:
            break

    g = oracle.grad(v)
    gn = float(np.linalg.norm(g))
    residual = float(np.linalg.norm(g / gn - v)) if gn > 0.0 else math.inf
    trace = SolverTrace(
        psi=psis,
        step_norm=steps,
        iterations=len(steps),
        converged=steps[-1] <= config.epsilon,
        fixed_point_residual=residual,
    )
    return v, trace


# ---------------------------------------------------------------------------
# full solve and back-mapping


def solve(blockset: BlockSet, modes: ModeSelector, config: SolverConfig) -> Solution:
    """Run the full pipeline on a BlockSet: metrics, transform, maximize, map back."""
    widths = [b.n_vars for b in blockset.blocks]
    sol = solve_matrices(blockset.superblock, widths, modes, config, ids=blockset.ids)
    add_rank_warnings([sol], widths, modes, blockset.ids)
    return sol


def solve_matrices(
    blocks: np.ndarray,
    widths: Sequence[int],
    modes: ModeSelector,
    config: SolverConfig,
    ids: Sequence[str] | None = None,
    superblock: np.ndarray | Deflation | None = None,
) -> Solution:
    """Solve on the n x J array `blocks`, whose consecutive `widths` columns are the blocks.

    The blocks side by side are the superblock unless a separate
    `superblock` is given: from rank 2 on, `own` passes its superblock
    deflated on its own components, and with a Mode B superblock `global`
    and `own` pass their `Deflation`, which carries its factor and deflates the
    rank-1 `blocks`.
    """
    if len(modes.block_taus) != len(widths):
        raise DimensionError(f"{len(modes.block_taus)} block taus for {len(widths)} blocks")
    if any(w < 1 for w in widths) or sum(widths) != blocks.shape[1]:
        raise DimensionError(f"widths {list(widths)} must be >= 1 and sum to {blocks.shape[1]}")
    carried = superblock if isinstance(superblock, Deflation) else None
    smat = carried.x if carried is not None else blocks if superblock is None else superblock
    if smat.shape[0] != blocks.shape[0]:
        raise DimensionError(f"superblock has {smat.shape[0]} rows, not {blocks.shape[0]}")
    names = list(ids) if ids is not None else [str(b + 1) for b in range(len(widths))]
    widths = list(widths)
    runs = _runs(list(zip(widths, modes.block_taus)))
    data = ([(x, None) for x in _block_views(blocks, widths, runs)] if carried is None
            else carried.block_data(runs))
    metrics = _block_metrics(data, [modes.block_taus[run.start] for run in runs])
    metrics.append(carried.factor() if carried else build_metric(smat, modes.superblock_tau))
    problem = _transform(blocks, widths, names, metrics, config.m, superblock)

    warnings: list[str] = []
    results = []
    last_failure: Exception | None = None
    for k in range(config.n_starts):
        try:
            if k == 0 and isinstance(config.init, str) and config.init == "eigen":
                c0, degenerate = _eigen_start(problem)
                if degenerate:
                    warnings.append(
                        "top eigenvalue of the start operator is numerically "
                        "multiple; the iterate sequence may not be unique"
                    )
            else:
                c0 = _start(metrics[-1], smat, carried and carried.off, config, k)
            c, trace = sphere_maximize(problem, config, c0)
        except (SingularGradientError, BadStartError) as exc:
            last_failure = exc
            continue
        results.append((trace.psi[-1], k, c, trace))
    if not results:
        raise AllStartsFailedError(f"every start failed; last failure: {last_failure}")
    _, _, c, trace = max(results, key=lambda res: res[0])  # ties keep the earliest start
    trace.warnings.extend(warnings)
    return _back_map(c, trace, problem, blocks, widths, smat, names, metrics, config.m, carried)


def _back_map(c, trace, problem, blocks, widths, smat, ids, metrics, m, carried) -> Solution:
    """Weights and components from the solution c (superblock factor coordinates).

    Segment b of problem.stacked @ c is P_b'y_super / n, so its norm is
    cov_b, and w_b = M_b^(-1) X_b'y_super / ||M_b^(-1/2) X_b'y_super|| is
    B_b u_b with u_b the unit segment. w = B_super c solves smat w = y_super.
    Off E, the superblock weights are w less its part in Z = B_super E,
    which spans the null space of the deflated superblock within the row
    space of smat: the least-norm solution for the deflated superblock, which
    is rank deficient by construction, so no warning says so at ranks >= 2.
    A `carried` superblock's blocks are X_b deflated on Y_b, and each block
    component is Pi_b (X_b w_b). Each run of block factors of one shape and
    layout takes one product for its weights and one for its components.
    """
    factor, off = metrics[-1].factor, None if carried is None else carried.off
    w_super = w_smat = factor @ c
    if off is not None:
        z = np.linalg.qr(factor @ off)[0]
        w_super = w_smat - z @ (z.T @ w_smat)
    # the same product that gave psi at c, so that sum(covs**m) is psi exactly
    segments = problem.stacked @ c
    # deterministic sign: the largest-magnitude superblock weight is positive
    pivot = int(np.argmax(np.abs(w_super)))
    if w_super[pivot] < 0.0:
        w_super, w_smat, segments = -w_super, -w_smat, -segments
    y_super = smat @ w_smat

    covs = problem._norms(segments)
    if (zero := covs == 0.0).any():
        raise NonContributingBlockError(
            f"block {ids[int(np.argmax(zero))]!r} is uncorrelated with the superblock component"
        )
    ranks = np.diff(problem.offsets)
    units = segments / np.repeat(covs, ranks)
    runs = _factor_runs(metrics[:-1])
    ys = np.empty((len(widths), smat.shape[0]))
    w_blocks: list[np.ndarray] = []
    for run, u, x in zip(runs, _row_runs(units, ranks, runs), _block_views(blocks, widths, runs)):
        w = np.matmul(_stack([met.factor for met in metrics[run]]), u[..., None])[..., 0]
        np.matmul(x, w[..., None], out=ys[run, :, None])
        w_blocks.extend(w)
    if carried is not None and carried.units is not None:  # Pi_b (X_b w_b)
        ys -= ((ys @ carried.units) * carried.owner) @ carried.units.T
    y_blocks = list(ys)

    return Solution(
        w_super=w_super,
        y_super=y_super,
        w_blocks=w_blocks,
        y_blocks=y_blocks,
        covs=covs,
        contributions=contributions(covs, m),
        trace=trace,
        block_ranks=tuple(met.rank for met in metrics[:-1]),
        superblock_rank=metrics[-1].rank,
    )


def add_rank_warnings(solutions: Sequence[Solution], widths, modes, ids) -> None:
    """Warn at every rank of each Mode B block and superblock whose rank-1 metric is deficient.

    Deflation makes later metrics rank deficient by construction, so only
    rank 1's describe the data. Block warnings go before a solve's own, the
    superblock's after them.
    """
    first = solutions[0]
    blocks = [
        f"block {name!r} is rank deficient under Mode B; using the column-space projector route"
        for name, tau, rank, width in zip(ids, modes.block_taus, first.block_ranks, widths)
        if tau == 0.0 and rank < width
    ]
    sup = [
        "superblock is rank deficient under Mode B: the reported superblock weights are one "
        "least-norm solution; interpret the component through its correlations instead"
    ] if modes.superblock_tau == 0.0 and first.superblock_rank < sum(widths) else []
    for sol in solutions:
        sol.trace.warnings[:] = [*blocks, *sol.trace.warnings, *sup]


def contributions(covs: Sequence[float], m: float) -> np.ndarray:
    """Share c_b = cov_b^m / sum(cov^m) of each block in the consensus.

    Large m concentrates the mass on the most covarying block. Powers are
    taken after dividing by the largest covariance so that extreme m stays
    finite.
    """
    covs = np.asarray(covs, dtype=float)
    if np.any(covs < 0.0):
        raise ValueError("covariances must be nonnegative")
    top = covs.max() if covs.size else 0.0
    if top == 0.0:
        raise UndefinedContributionsError("all block covariances are zero")
    scaled = (covs / top) ** m
    return scaled / scaled.sum()
