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
n x r_b and the iterate lives in the superblock factor's coordinates c:
the segments Q_b = P_b'P_super are r_b x r_super whether the blocks are
tall or wide, and read off H = X_B'P_super / n, which is the superblock
metric's G B_super when the superblock is the concatenation of the blocks
(`_transform`). A random start draws the r_super coordinates, and explicit
superblock weights w give c = (M B_super)'w. The back-map reads the
superblock weights B_super c and each block's covariance and weights off
the segments Q_b c, in the block factor's coordinates. `TransformedProblem`
is the one evaluator of psi and its gradient, and `sphere_maximize` the one
ascent loop. The operator stacks its segments into a single matrix, so psi
is one matvec and the gradient one more transposed matvec. The iteration
and its stop test are scale-invariant, and so are the solver's slacks; the
monotone, step-bound and sandwich checks run at every iteration. The eigen
start is the top eigenvector of S'S from a dense eigh below a size gate,
else from block Lanczos within a basis budget, falling back to the eigh
once Lanczos has used up the budget or cannot converge within it. A solve
is deterministic given its configuration and never modifies the problem it
reads.

Under `global` and `own` deflation a Mode B superblock is factored once, at
rank 1 (`CarriedSuperblock`): later ranks solve in those coordinates with
the earlier components projected off (segments, random and explicit starts,
and the superblock weights), and at rank 1 the solve is the plain one. Under
`global` the deflated blocks are never formed either: their metrics come
from the rank-1 block Grams downdated on the earlier components, and their
components are projected off them.
"""

from __future__ import annotations

import math
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
from .metrics import ModeSelector, ShrinkageMetric, build_metric

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
    offsets[b]:offsets[b + 1] are the rows of block b, and ids[b] names it
    in errors.
    """

    def __init__(self, stacked: np.ndarray, m: float, ids: Sequence[str], offsets: np.ndarray):
        if not (m >= 1.0 and math.isfinite(m)):
            raise ValueError(f"exponent m must be finite and >= 1, got {m}")
        self.stacked, self.offsets = stacked, offsets
        self.m = m
        self.ids = list(ids)
        # ||Q_b v|| at or below this counts as zero in the gradient; a block's
        # largest |entry| from the rows' extremes (no |Q| copy), 0 for a zero-row segment
        rows = np.diff(offsets)
        peak = np.zeros(rows.size)
        if (full := rows > 0).any():
            row_peak = np.maximum(stacked.max(axis=1, initial=0.0),
                                  -stacked.min(axis=1, initial=0.0))
            peak[full] = np.maximum.reduceat(row_peak, offsets[:-1][full])
        self._zero_tol = _ROUNDOFF_TOL * peak * np.sqrt(rows * self.dim)

    @property
    def dim(self) -> int:
        return self.stacked.shape[1]

    def _norms(self, sv: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add.reduceat(sv * sv, self.offsets[:-1]))

    def value(self, v: np.ndarray) -> float:
        return float((self._norms(self.stacked @ v) ** self.m).sum())

    def grad(self, v: np.ndarray) -> np.ndarray:
        """m * sum_b ||Q_b v||^(m-2) Q_b'Q_b v; satisfies v'grad = m*psi."""
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
    the eigh as fallback), "random" (Gaussian draw of the superblock factor's
    coordinates with this seed) or superblock weights w, J_super long, whose
    M-projection onto the factor's span is the start: a solution's own
    w_super restarts it. sphere_maximize normalizes the start and rejects it
    (BadStartError) when it is zero or the criterion is not positive at it.
    Additional starts beyond the first are random with seeds seed+1,
    seed+2, ... and the winner is the largest criterion value (ties keep
    the earliest start). When every start fails, the solve raises
    AllStartsFailedError naming the last failure.

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
            raise ValueError(f"exponent m must be finite and >= 1, got {self.m}")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if isinstance(self.init, str) and self.init not in ("eigen", "random"):
            raise ValueError(f"unknown init {self.init!r}")


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


class CarriedSuperblock:
    """A Mode B superblock X factored once and deflated on its own components.

    The factor B of X is built by the first solve that reads it, and
    P = X B satisfies P'P / n = I. Each component y = P c
    found so far adds its unit c = P'y / n as a column of E (`off`), and X
    deflated on those components has the column-space projector
    P (I - EE') P' / n, so later solves keep X's coordinates, restricted to
    the complement of E. With `separate` the blocks are deflated their own
    way (`own`) and the transform takes their product with P; otherwise they
    are X deflated on the same components (`global`), and the superblock's
    closed form holds.

    Under `global` the deflated blocks are never formed: they are Pi X_b,
    Pi = I - YY' with the unit components Y (`units`), and A = X'Y (`cross`)
    turns the rank-1 Grams G_b = X_b'X_b / n (`grams`) into their Grams
    X_b'Pi X_b / n = G_b - A_b A_b' / n. Downdating the data Grams rather than
    the factor keeps each block's relative accuracy when the superblock factor
    is an eigh of an ill-conditioned X. A wide block, whose metric factors
    X_b X_b' / n, gets Pi X_b = X_b - Y A_b'; `_back_map` returns Pi (X_b w_b).
    """

    def __init__(self, x: np.ndarray, separate: bool):
        self.x, self.separate = x, separate
        self.metric: ShrinkageMetric | None = None
        self.off: np.ndarray | None = None  # E, once there is a component
        self.units = self.cross = None  # Y and A under global, once there is a component
        self.grams: list | None = None  # G_b, or None for a wide block, under global

    def factor(self) -> ShrinkageMetric:
        if self.metric is None:
            self.metric = build_metric(self.x, 0.0)
        return self.metric

    def deflate(self, y: np.ndarray) -> None:
        """Add the component y of the last solve to E, and under global to Y and A."""
        xy = self.x.T @ y
        c = self.metric.factor.T @ xy
        c = (c / np.linalg.norm(c))[:, None]
        self.off = c if self.off is None else np.hstack([self.off, c])
        if not self.separate:
            nrm = np.linalg.norm(y)
            u, a = (y / nrm)[:, None], (xy / nrm)[:, None]
            self.units = u if self.units is None else np.hstack([self.units, u])
            self.cross = a if self.cross is None else np.hstack([self.cross, a])

    def block_data(self, mats: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """(data, Gram or None) of each block deflated on Y, for `build_metric`.

        The rank-1 Grams are formed here by build_metric's own expression, so
        rank 1 is the plain solve, byte for byte.
        """
        n = self.x.shape[0]
        if self.grams is None:
            self.grams = [mat.T @ mat / n if mat.shape[1] <= n else None for mat in mats]
        if self.units is None:
            return list(zip(mats, self.grams))
        rows = np.split(self.cross, np.cumsum([mat.shape[1] for mat in mats])[:-1])
        return [(mat, g - a @ a.T / n) if g is not None else (mat - self.units @ a.T, None)
                for mat, g, a in zip(mats, self.grams, rows)]


# ---------------------------------------------------------------------------
# transform and starts


def _transform(whole, widths, ids, metrics, m, superblock=None) -> TransformedProblem:
    """Build the segments Q_b / n = P_b'P_super / n in the factors' coordinates.

    Segment b is B_b' H[rows of b], H = X_B'P_super / n: G B_super, the
    superblock metric's `cross`, when the blocks of `whole` are the
    superblock, else one product of X_B' with the image of the separate
    `superblock`. A segment at roundoff of ||P_b||_F ||P_super||_F / n,
    ||P||_F^2 = n tr(B'GB), raises NonContributingBlockError.
    """
    sup, off = metrics[-1], None
    if isinstance(superblock, CarriedSuperblock):
        off = superblock.off
        superblock = superblock.x if superblock.separate and off is not None else None
    if superblock is None:
        h = sup.cross
    else:
        h = whole.T @ sup.image(superblock).T / superblock.shape[0]
    if off is None:
        norm = math.sqrt(np.vdot(sup.factor, sup.cross))
    else:
        # the superblock deflated on the components in E: H (I - EE'), and its
        # tr(B'GB), the rank at tau = 0, less one per component
        p = (h @ off) @ off.T
        h = np.subtract(h, p, out=p)
        norm = math.sqrt(sup.rank - off.shape[1])
    offsets = np.cumsum([0] + [met.rank for met in metrics[:-1]])
    stacked = np.empty((offsets[-1], h.shape[1]))
    for b, (met, rows) in enumerate(zip(metrics, np.split(h, np.cumsum(widths)[:-1]))):
        q = np.matmul(met.factor.T, rows, out=stacked[offsets[b]:offsets[b + 1]])
        if np.linalg.norm(q) <= 1e-14 * math.sqrt(np.vdot(met.factor, met.cross)) * norm:
            raise NonContributingBlockError(
                f"block {ids[b]!r} has zero cross-product with the superblock "
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


def _start(sup: ShrinkageMetric, off, config: SolverConfig, k: int) -> np.ndarray:
    """Start k in the superblock factor's coordinates, off E: the init at k = 0, else a draw.

    The draw is standard Gaussian in the factor's r coordinates with seed
    config.seed + k, a uniform point on the sphere once normalized. Explicit
    superblock weights w give c = (MB)'w, so that Bc is w's M-projection onto
    the factor's span. A start at roundoff of ||MB||_F ||w||, or of the
    draw's norm, is returned as exact zeros, which sphere_maximize rejects
    as a zero start.
    """
    if k == 0 and not isinstance(config.init, str):
        w = np.asarray(config.init, dtype=float).ravel()
        if len(w) != len(sup.factor):
            raise DimensionError(f"start vector has length {len(w)}, expected {len(sup.factor)}")
        mb = sup.tau * sup.factor + (1.0 - sup.tau) * sup.cross
        c, size = mb.T @ w, np.linalg.norm(mb) * np.linalg.norm(w)
    else:
        c = np.random.default_rng(config.seed + k).standard_normal(sup.rank)
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
    superblock: np.ndarray | CarriedSuperblock | None = None,
) -> Solution:
    """Solve on the n x J array `blocks`, whose consecutive `widths` columns are the blocks.

    The blocks side by side are the superblock unless a separate
    `superblock` is given. Deflation passes one from rank 2 on: `own`
    deflates the superblock on its own component, so it is no longer the
    concatenation of the deflated blocks, and a Mode B superblock under
    `global` or `own` comes as a CarriedSuperblock, factored at rank 1 only.
    """
    if len(modes.block_taus) != len(widths):
        raise DimensionError(f"{len(modes.block_taus)} block taus for {len(widths)} blocks")
    if any(w < 1 for w in widths) or sum(widths) != blocks.shape[1]:
        raise DimensionError(f"widths {list(widths)} must be >= 1 and sum to {blocks.shape[1]}")
    carried = superblock if isinstance(superblock, CarriedSuperblock) else None
    smat = carried.x if carried is not None else blocks if superblock is None else superblock
    if smat.shape[0] != blocks.shape[0]:
        raise DimensionError(f"superblock has {smat.shape[0]} rows, not {blocks.shape[0]}")
    names = list(ids) if ids is not None else [str(b + 1) for b in range(len(widths))]
    mats = np.split(blocks, np.cumsum(widths)[:-1], axis=1)
    data = ([(mat, None) for mat in mats] if carried is None or carried.separate
            else carried.block_data(mats))
    metrics = [build_metric(x, tau, gram) for (x, gram), tau in zip(data, modes.block_taus)]
    if carried is None:
        metrics.append(build_metric(smat, modes.superblock_tau))
        off = units = None
    else:
        metrics.append(carried.factor())
        off, units = carried.off, carried.units
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
                c0 = _start(metrics[-1], off, config, k)
            c, trace = sphere_maximize(problem, config, c0)
        except (SingularGradientError, BadStartError) as exc:
            last_failure = exc
            continue
        results.append((trace.psi[-1], k, c, trace))
    if not results:
        raise AllStartsFailedError(f"every start failed; last failure: {last_failure}")
    _, _, c, trace = max(results, key=lambda res: res[0])  # ties keep the earliest start
    trace.warnings.extend(warnings)
    return _back_map(c, trace, problem, mats, smat, names, metrics, config.m, off, units)


def _back_map(c, trace, problem, mats, smat, ids, metrics, m, off, units) -> Solution:
    """Weights and components from the solution c (superblock factor coordinates).

    Segment b of problem.stacked @ c is P_b'y_super / n, so its norm is
    cov_b, and w_b = M_b^(-1) X_b'y_super / ||M_b^(-1/2) X_b'y_super|| is
    B_b u_b with u_b the unit segment. w = B_super c solves smat w = y_super.
    Off E, the superblock weights are w less its part in Z = B_super E,
    which spans the null space of the deflated superblock within the row
    space of smat: the least-norm solution for the deflated superblock, which
    is rank deficient by construction, so no warning says so at ranks >= 2.
    With `units` Y (a CarriedSuperblock under global) the blocks are X_b
    deflated on Y, and each block component is Pi (X_b w_b), Pi = I - YY'.
    """
    factor = metrics[-1].factor
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
    w_blocks: list[np.ndarray] = []
    y_blocks: list[np.ndarray] = []
    for b, (mat, met, seg) in enumerate(
        zip(mats, metrics[:-1], np.split(segments, problem.offsets[1:-1]))
    ):
        if covs[b] == 0.0:
            raise NonContributingBlockError(
                f"block {ids[b]!r} is uncorrelated with the superblock component"
            )
        w_b = met.factor @ (seg / covs[b])
        w_blocks.append(w_b)
        y_blocks.append(mat @ w_b)
    if units is not None:
        ys = np.array(y_blocks)
        ys -= (ys @ units) @ units.T
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
