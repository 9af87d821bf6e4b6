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

`TransformedProblem` is the one evaluator of psi and its gradient, and
`sphere_maximize` the one ascent loop. The operator stacks its segments
into a single matrix, so psi is one matvec and the gradient one more
transposed matvec. It serves the v-space problem (segments Q_b / n, psi =
sum_b cov(y_b, y_super)^m) and the superblock-free n-space problem on the
component itself (segments P_b' / sqrt(n), psi = sum_b cov(y_b, y)^m at
y = sqrt(n) v). The iteration is scale-invariant, and the solver's slacks
are relative to psi. A solve is deterministic given its configuration and
never modifies the problem it reads.
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


class TransformedProblem:
    """psi(v) = sum_b ||Q_b v / scale||^m and its gradient.

    The Q_b / scale are stacked row-wise into one (sum J_b) x dim matrix;
    offsets[b]:offsets[b + 1] are the rows of block b.
    """

    def __init__(self, q_matrices: Sequence[np.ndarray], m: float, scale: float = 1):
        if not (m >= 1.0 and math.isfinite(m)):
            raise ValueError(f"exponent m must be finite and >= 1, got {m}")
        if len({q.shape[1] for q in q_matrices}) > 1:
            raise DimensionError("Q matrices disagree on the superblock dimension")
        self.stacked = np.vstack(q_matrices) / scale
        self.offsets = np.cumsum([0] + [q.shape[0] for q in q_matrices])
        self.m = m
        # ||Q_b v / scale|| at or below this counts as zero in the gradient
        self._zero_tol = np.array([
            _ROUNDOFF_TOL * np.abs(seg).max() * math.sqrt(seg.size)
            for seg in np.split(self.stacked, self.offsets[1:-1])
        ])

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
                f"block {b + 1}: ||Q v|| vanished and m = {self.m} < 2 makes the "
                "gradient singular there"
            )
        # for m >= 2 a vanished term is continuous at 0 and contributes 0
        coef = np.where(zero, 0.0, self.m * norms ** (self.m - 2.0))
        return self.stacked.T @ (np.repeat(coef, np.diff(self.offsets)) * sv)


@dataclass
class SolverConfig:
    """Knobs of one solve.

    init is "eigen" (dominant eigenvector of sum(Q_b'Q_b)), "random"
    (seeded draw, uniform on the sphere) or an explicit start vector.
    Additional starts beyond the first are random with seeds seed+1,
    seed+2, ... and the winner is the largest criterion value (ties keep
    the earliest start).

    epsilon is an absolute threshold on the psi increment of one
    iteration, at the covariance scale: the solve stops once psi rises by
    no more than epsilon.

    assert_level controls runtime verification: monotonicity of the
    criterion (up to 1e-12 * psi) is always enforced; "cheap" also enforces
    the ascent step bound, "full" additionally checks the minorizer sandwich
    at every iteration.
    """

    m: float = 2.0
    epsilon: float = 1e-10
    max_iter: int = 10_000
    init: str | np.ndarray = "eigen"
    seed: int = 0
    n_starts: int = 1
    assert_level: str = "cheap"

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
        if self.assert_level not in ("off", "cheap", "full"):
            raise ValueError(f"unknown assert_level {self.assert_level!r}")


@dataclass
class SolverTrace:
    """Per-iteration record of one maximizer run.

    psi[0] is the start value and psi[s+1] the value after iteration s;
    bound[s] is the ascent bound 2*(psi[s+1]-psi[s])/delta that dominates
    step_norm[s]**2, with delta = m*psi[0] for criterion solves.
    """

    psi: list[float]
    step_norm: list[float]
    bound: list[float]
    sandwich_ok: list[bool]
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
    """Converged weights, components and diagnostics of one rank."""

    v_super: np.ndarray
    w_super: np.ndarray
    y_super: np.ndarray
    w_blocks: list[np.ndarray]
    y_blocks: list[np.ndarray]
    covs: np.ndarray
    contributions: np.ndarray
    psi_final: float
    fixed_point_residual: float
    trace: SolverTrace

    @property
    def component_matrix(self) -> np.ndarray:
        """Block components side by side (n x B)."""
        return np.column_stack(self.y_blocks)


# ---------------------------------------------------------------------------
# transform and starts


def transform(blockset: BlockSet, metrics: Sequence[ShrinkageMetric], m: float) -> TransformedProblem:
    """Build P_b = X_b M_b^(-1/2) and Q_b = P_b' P_super from metrics."""
    mats = [b.matrix for b in blockset.blocks]
    return _transform(mats, blockset.superblock, blockset.ids, metrics, m)


def _transform(mats, smat, ids, metrics, m) -> TransformedProblem:
    if len(metrics) != len(mats) + 1:
        raise DimensionError(
            f"need {len(mats) + 1} metrics (blocks plus superblock), got {len(metrics)}"
        )
    ids = ids if ids is not None else [str(b + 1) for b in range(len(mats))]
    p_super = next(_half_images([smat], metrics[-1:])).T
    super_norm = np.linalg.norm(p_super)
    qs = []
    for b, pb_t in enumerate(_half_images(mats, metrics[:-1])):
        q = pb_t @ p_super
        if np.linalg.norm(q) <= 1e-14 * np.linalg.norm(pb_t) * super_norm:
            raise NonContributingBlockError(
                f"block {ids[b]!r} has zero cross-product with the superblock "
                "and cannot contribute; drop it from the analysis"
            )
        qs.append(q)
    return TransformedProblem(qs, m, smat.shape[0])


def _half_images(mats, metrics):
    """P_b' = M_b^(-1/2) X_b' (J_b x n), one block at a time."""
    for mat, met in zip(mats, metrics):
        yield met.apply(mat.T, -0.5)


def _component_problem(mats, metrics, m) -> TransformedProblem:
    """The superblock-free n-space problem: segments P_b' / sqrt(n).

    At a unit v its value is sum_b cov(y_b, y)^m with y = sqrt(n) v.
    """
    n = mats[0].shape[0]
    return TransformedProblem(list(_half_images(mats, metrics)), m, math.sqrt(n))


def _eigen_start(problem: TransformedProblem) -> tuple[np.ndarray, bool]:
    """Dominant eigenvector of sum_b Q_b'Q_b, and whether it is numerically multiple."""
    vals, vecs = np.linalg.eigh(problem.stacked.T @ problem.stacked)
    v = vecs[:, -1].copy()
    degenerate = vals.size > 1 and (vals[-1] - vals[-2]) <= 1e-12 * vals[-1]
    return v, degenerate


def _random_start(problem: TransformedProblem, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        v = rng.standard_normal(problem.dim)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            continue
        v = v / nrm
        if problem.value(v) > 0.0:
            return v
    raise BadStartError("could not draw a start with positive criterion value")


def _given_start(problem: TransformedProblem, vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=float).ravel()
    if v.shape[0] != problem.dim:
        raise DimensionError(f"start vector has length {v.shape[0]}, expected {problem.dim}")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise BadStartError("start vector is zero")
    v = v / nrm
    if not problem.value(v) > 0.0:
        raise BadStartError("criterion is zero at the given start vector")
    return v


# ---------------------------------------------------------------------------
# the maximizer


def sphere_maximize(
    oracle: GradientOracle,
    config: SolverConfig,
    v0: np.ndarray,
    degree: float,
) -> tuple[np.ndarray, SolverTrace]:
    """Maximize a convex differentiable objective on the unit sphere.

    Iterates v <- grad(v)/||grad(v)|| until the objective increment drops
    to config.epsilon or max_iter is reached (the latter returns the best
    iterate with converged=False rather than raising). The start v0 must
    have a positive objective value. `oracle` is anything with `value` and
    `grad`, such as a TransformedProblem or a GradientOracle.

    The objective must be positively homogeneous of the given degree (m for
    the criterion): then v'grad(v) = degree*value(v), so gradient norms stay
    above degree*value(v0), the floor that ties the ascent bound to the
    start value. Monotonicity and sandwich slacks are relative to psi.
    """
    v = np.asarray(v0, dtype=float).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise BadStartError("start vector is zero")
    v = v / nrm
    psi = float(oracle.value(v))
    if not psi > 0.0:
        raise BadStartError("objective is not positive at the start vector")

    floor = degree * psi
    psis = [psi]
    steps: list[float] = []
    bounds: list[float] = []
    sandwich: list[bool] = []
    eps_hit = False

    for _ in range(config.max_iter):
        g = oracle.grad(v)
        gn = float(np.linalg.norm(g))
        if gn <= 0.0:
            raise SingularGradientError("gradient vanished at an iterate")
        v_new = g / gn
        psi_new = float(oracle.value(v_new))
        dpsi = psi_new - psi
        step = float(np.linalg.norm(v_new - v))
        bound = 2.0 * dpsi / floor
        psis.append(psi_new)
        steps.append(step)
        bounds.append(bound)

        slack = _MONOTONE_TOL * psi
        if dpsi < -slack:
            raise InternalAssertionError(
                f"criterion decreased by {-dpsi:.3e} in one iteration"
            )
        if config.assert_level in ("cheap", "full") and step * step > bound + _ROUNDOFF_TOL:
            raise InternalAssertionError(
                f"ascent bound violated: step^2 = {step * step:.3e} > {bound:.3e}"
            )
        if config.assert_level == "full":
            # linear minorizer at v, evaluated at the new iterate
            g_mid = psi + float(g @ (v_new - v))
            ok = g_mid >= psi - slack and psi_new >= g_mid - slack
            sandwich.append(ok)
            if not ok:
                raise InternalAssertionError(
                    f"minorizer sandwich violated: psi={psi:.17g} "
                    f"G={g_mid:.17g} psi_new={psi_new:.17g}"
                )

        v, psi = v_new, psi_new
        if dpsi <= config.epsilon:
            eps_hit = True
            break

    g = oracle.grad(v)
    gn = float(np.linalg.norm(g))
    residual = float(np.linalg.norm(g / gn - v)) if gn > 0.0 else math.inf
    threshold = math.sqrt(2.0 * config.epsilon / floor)
    trace = SolverTrace(
        psi=psis,
        step_norm=steps,
        bound=bounds,
        sandwich_ok=sandwich,
        iterations=len(steps),
        converged=eps_hit and residual <= threshold,
        fixed_point_residual=residual,
    )
    return v, trace


# ---------------------------------------------------------------------------
# full solve and back-mapping


def solve(blockset: BlockSet, modes: ModeSelector, config: SolverConfig) -> Solution:
    """Run the full pipeline on a BlockSet: metrics, transform, maximize, map back."""
    mats = [b.matrix for b in blockset.blocks]
    return solve_matrices(mats, blockset.superblock, modes, config, ids=blockset.ids)


def solve_matrices(
    mats: Sequence[np.ndarray],
    smat: np.ndarray,
    modes: ModeSelector,
    config: SolverConfig,
    ids: Sequence[str] | None = None,
) -> Solution:
    """Solve with an explicit superblock matrix.

    This is the entry point deflation needs: after deflating blocks and
    superblock on their own components the superblock is no longer the
    concatenation of the blocks.
    """
    if len(modes.block_taus) != len(mats):
        raise DimensionError(
            f"{len(modes.block_taus)} block taus for {len(mats)} blocks"
        )
    names = list(ids) if ids is not None else [str(b + 1) for b in range(len(mats))]
    metrics = [build_metric(mat, tau) for mat, tau in zip(mats, modes.block_taus)]
    metrics.append(build_metric(smat, modes.superblock_tau))
    problem = _transform(mats, smat, names, metrics, config.m)

    warnings: list[str] = []
    for b, met in enumerate(metrics[:-1]):
        if met.pseudo:
            warnings.append(
                f"block {names[b]!r} is rank deficient under Mode B; using the "
                "column-space projector route"
            )
    results = []
    last_failure: Exception | None = None
    for k in range(config.n_starts):
        try:
            if k == 0:
                if isinstance(config.init, np.ndarray):
                    v0 = _given_start(problem, config.init)
                elif config.init == "eigen":
                    v0, degenerate = _eigen_start(problem)
                    if degenerate:
                        warnings.append(
                            "top eigenvalue of the start operator is numerically "
                            "multiple; the iterate sequence may not be unique"
                        )
                else:
                    v0 = _random_start(problem, config.seed)
            else:
                v0 = _random_start(problem, config.seed + k)
            v, trace = sphere_maximize(problem, config, v0, config.m)
        except (SingularGradientError, BadStartError) as exc:
            last_failure = exc
            continue
        results.append((trace.psi[-1], k, v, trace))
    if not results:
        raise AllStartsFailedError(f"every start failed; last failure: {last_failure}")
    best = results[0]
    for cand in results[1:]:
        if cand[0] > best[0]:
            best = cand
    _, _, v, trace = best
    trace.warnings.extend(warnings)

    if metrics[-1].pseudo:
        warnings_txt = (
            "superblock is rank deficient under Mode B: the reported superblock "
            "weights are one least-norm solution; interpret the component through "
            "its correlations instead"
        )
        trace.warnings.append(warnings_txt)

    return _back_map(v, trace, mats, smat, metrics, config.m)


def _back_map(v, trace, mats, smat, metrics, m) -> Solution:
    n = smat.shape[0]
    w_super = metrics[-1].apply(v, -0.5)
    # deterministic sign: the largest-magnitude superblock weight is positive
    pivot = int(np.argmax(np.abs(w_super)))
    if w_super[pivot] < 0.0:
        v = -v
        w_super = -w_super
    y_super = smat @ w_super

    w_blocks: list[np.ndarray] = []
    y_blocks: list[np.ndarray] = []
    covs = np.empty(len(mats))
    for b, (mat, met) in enumerate(zip(mats, metrics[:-1])):
        t = mat.T @ y_super
        half_norm = float(np.linalg.norm(met.apply(t, -0.5)))
        if half_norm == 0.0:
            raise NonContributingBlockError(
                f"block {b + 1} is uncorrelated with the superblock component"
            )
        w_b = met.apply(t, -1.0) / half_norm
        w_blocks.append(w_b)
        y_blocks.append(mat @ w_b)
        covs[b] = half_norm / n

    return Solution(
        v_super=v,
        w_super=w_super,
        y_super=y_super,
        w_blocks=w_blocks,
        y_blocks=y_blocks,
        covs=covs,
        contributions=contributions(covs, m),
        psi_final=trace.psi[-1],
        fixed_point_residual=trace.fixed_point_residual,
        trace=trace,
    )


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


# ---------------------------------------------------------------------------
# stationary-equation diagnostics


def stationary_residual(
    y: np.ndarray,
    blockset: BlockSet,
    metrics: Sequence[ShrinkageMetric],
    m: float,
) -> float:
    """Unit-normalized distance between y and its fixed-point image.

    The image is the superblock operator applied to the gradient of the
    superblock-free problem at y, which points along
    sum_b ||P_b'y||^(m-2) X_b M_b^(-1) X_b' y. The residual is zero exactly
    at solutions of the original-coordinate stationary equation; this is
    the method's signature and should agree with the transformed-space
    fixed-point residual at convergence.
    """
    mats = [b.matrix for b in blockset.blocks]
    y_unit = y / np.linalg.norm(y)
    z = _component_problem(mats, metrics[:-1], m).grad(y_unit)
    img = blockset.superblock @ metrics[-1].apply(blockset.superblock.T @ z, -1.0)
    img_norm = np.linalg.norm(img)
    if img_norm == 0.0:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(img / img_norm - y_unit))


def auxiliary_solve(
    blockset: BlockSet,
    block_taus: Sequence[float],
    m: float,
    epsilon: float = 1e-12,
    max_iter: int = 10_000,
    y0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, list[float]]:
    """Superblock-free solve on the component itself.

    Runs sphere_maximize on the n-space problem, whose normalized-gradient
    step replaces the component by the standardized weighted sum of block
    images; with a Mode B superblock this targets the same solutions as the
    explicit-superblock solve. epsilon bounds the per-iteration increase of
    sum_b cov(y_b, y)^m, as in SolverConfig. Returns the unit-variance
    component, the number of iterations and the per-iteration criterion
    values.
    """
    mats = [b.matrix for b in blockset.blocks]
    metrics = [build_metric(mat, tau) for mat, tau in zip(mats, block_taus)]
    if y0 is None:
        # deterministic start: leading left singular vector of the superblock
        u, _, _ = np.linalg.svd(blockset.superblock, full_matrices=False)
        y0 = u[:, 0]
    config = SolverConfig(m=m, epsilon=epsilon, max_iter=max_iter)
    v, trace = sphere_maximize(_component_problem(mats, metrics, m), config, y0, m)
    return math.sqrt(blockset.n) * v, trace.iterations, trace.psi
