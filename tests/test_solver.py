import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    M_GRID,
    TAU_GRID,
    full_rank_blockset,
    latent_blockset,
    q_blocks,
    random_blockset,
    random_m,
    random_modes,
    reference_criterion,
    reference_gradient,
    reference_auxiliary_solve,
    reference_gram,
    reference_stationary_image,
    superblock_from_block_components,
)
from rcpca import (
    GradientOracle,
    ModeSelector,
    SolverConfig,
    TransformedProblem,
    auxiliary_solve,
    build_blockset,
    build_metric,
    build_metrics,
    contributions,
    from_matrix,
    sample_cov,
    solve,
    sphere_maximize,
    transform,
)
from rcpca.errors import (
    BadStartError,
    NonContributingBlockError,
    SingularGradientError,
    UndefinedContributionsError,
)
from rcpca.solver import (
    _component_problem,
    _eigen_start,
    _given_start,
    _random_start,
    stationary_residual,
)


def problem_from_qs(qs, m, n=1):
    """Problem built directly from Q matrices."""
    return TransformedProblem([np.asarray(q, dtype=float) for q in qs], m, n)


def step(problem, v):
    """One normalized-gradient iteration of the maximizer from v."""
    cfg = SolverConfig(m=problem.m, max_iter=1, assert_level="off")
    return sphere_maximize(problem, cfg, v, problem.m)[0]


class TestTransform:
    def test_mode_a_gives_cross_products(self):
        bs = random_blockset(0, b=2, n=10, js=[2, 3], normalize=False)
        metrics = build_metrics(bs, ModeSelector.uniform("A", "A", 2))
        problem = transform(bs, metrics, 2.0)
        for b in range(2):
            np.testing.assert_allclose(
                q_blocks(problem)[b],
                bs.blocks[b].matrix.T @ bs.superblock / bs.n,
                atol=1e-12,
            )

    def test_single_block_mode_a(self):
        bs = random_blockset(1, b=1, n=8, js=[3], normalize=False)
        metrics = build_metrics(bs, ModeSelector.uniform("A", "A", 1))
        problem = transform(bs, metrics, 2.0)
        x = bs.blocks[0].matrix
        np.testing.assert_allclose(q_blocks(problem)[0], x.T @ x / bs.n, atol=1e-12)

    def test_single_column_mode_b(self):
        bs = build_blockset([from_matrix("x", [[1.0], [-1.0]])])
        metrics = build_metrics(bs, ModeSelector.uniform("B", "B", 1))
        problem = transform(bs, metrics, 2.0)
        np.testing.assert_allclose(q_blocks(problem)[0], [[1.0]], atol=1e-12)

    def test_zero_block_does_not_contribute(self):
        good = from_matrix("good", np.random.default_rng(0).standard_normal((6, 2)))
        zero = from_matrix("zero", np.zeros((6, 2)))
        bs = build_blockset([good, zero])
        metrics = build_metrics(bs, ModeSelector.uniform("A", "A", 2))
        with pytest.raises(NonContributingBlockError, match="zero"):
            transform(bs, metrics, 2.0)

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            problem_from_qs([np.eye(2)], m=0.5)

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), 0.5])
    def test_m_must_be_finite_and_at_least_one(self, m):
        with pytest.raises(ValueError, match="finite and >= 1"):
            problem_from_qs([np.eye(2)], m=m)
        with pytest.raises(ValueError, match="finite and >= 1"):
            SolverConfig(m=m)


class TestCriterion:
    def test_identity_q_any_m(self):
        for m in M_GRID:
            problem = problem_from_qs([np.eye(2)], m=m)
            assert problem.value(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_two_identity_blocks(self):
        problem = problem_from_qs([np.eye(2), np.eye(2)], m=3.0)
        v = np.array([0.6, 0.8])
        assert problem.value(v) == pytest.approx(2.0)

    def test_diagonal_fourth_power(self):
        problem = problem_from_qs([np.diag([2.0, 1.0])], m=4.0)
        assert problem.value(np.array([1.0, 0.0])) == pytest.approx(16.0)

    def test_covariance_scale(self):
        problem = problem_from_qs([np.diag([2.0, 1.0])], m=4.0, n=2)
        assert problem.value(np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestGradient:
    def test_m2_is_linear_map(self):
        rng = np.random.default_rng(2)
        qs = [rng.standard_normal((3, 4)) for _ in range(2)]
        problem = problem_from_qs(qs, m=2.0)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        expected = 2.0 * sum(q.T @ (q @ v) for q in qs)
        np.testing.assert_allclose(problem.grad(v), expected, atol=1e-12)

    def test_identity_q_m3(self):
        problem = problem_from_qs([np.eye(2)], m=3.0)
        np.testing.assert_allclose(
            problem.grad(np.array([1.0, 0.0])), [3.0, 0.0], atol=1e-12
        )

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        qs = [rng.standard_normal((4, 5)) for _ in range(3)]
        h = 1e-6
        for m in M_GRID:
            problem = problem_from_qs(qs, m=m)
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            g = problem.grad(v)
            fd = np.empty(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd[i] = (problem.value(v + e) - problem.value(v - e)) / (2 * h)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(M_GRID))
    def test_euler_identity(self, seed, m):
        # v'grad(v) equals m times the criterion for any unit v
        rng = np.random.default_rng(seed)
        qs = [rng.standard_normal((rng.integers(1, 5), 4)) for _ in range(rng.integers(1, 4))]
        problem = problem_from_qs(qs, m=m)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        psi = problem.value(v)
        assert v @ problem.grad(v) == pytest.approx(m * psi, rel=1e-10)

    def test_singular_for_m_below_two(self):
        problem = problem_from_qs([np.array([[1.0, 0.0]])], m=1.5)
        with pytest.raises(SingularGradientError, match="block 1"):
            problem.grad(np.array([0.0, 1.0]))

    def test_zero_term_continuous_for_m_three(self):
        problem = problem_from_qs([np.array([[1.0, 0.0]])], m=3.0)
        np.testing.assert_allclose(
            problem.grad(np.array([0.0, 1.0])), [0.0, 0.0], atol=1e-12
        )


class TestStackedOperator:
    def test_matches_per_block_reference(self):
        rng = np.random.default_rng(12)
        for m in M_GRID:
            for _ in range(20):
                dim = int(rng.integers(1, 7))
                qs = [
                    rng.standard_normal((int(rng.integers(1, 6)), dim))
                    for _ in range(int(rng.integers(1, 6)))
                ]
                n = int(rng.integers(1, 50))
                problem = problem_from_qs(qs, m=m, n=n)
                ref = [q / n for q in qs]
                v = rng.standard_normal(dim)
                v /= np.linalg.norm(v)
                psi = reference_criterion(ref, v, m)
                assert abs(problem.value(v) - psi) <= 1e-12 * psi
                g = reference_gradient(ref, v, m)
                assert np.linalg.norm(problem.grad(v) - g) <= 1e-12 * np.linalg.norm(g)

            # a zero segment adds nothing for m >= 2 and is singular below
            qs = [rng.standard_normal((3, 4)), np.zeros((2, 4)), rng.standard_normal((1, 4))]
            problem = problem_from_qs(qs, m=m)
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            if m >= 2.0:
                g = reference_gradient(qs, v, m)
                assert np.linalg.norm(problem.grad(v) - g) <= 1e-12 * np.linalg.norm(g)
                assert problem.value(v) == pytest.approx(
                    reference_criterion(qs, v, m), rel=1e-12
                )
            else:
                with pytest.raises(SingularGradientError, match="block 2"):
                    problem.grad(v)


class TestComponentOperator:
    """The n-space operator's gradient points along the stationary image."""

    @staticmethod
    def cos_deficit(a, b):
        return 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

    def test_gradient_is_parallel_to_reference_image(self):
        for m in M_GRID:
            for tau in TAU_GRID:
                for seed in range(8):
                    bs = random_blockset(seed + 1300)
                    mats = [b.matrix for b in bs.blocks]
                    metrics = [build_metric(x, tau) for x in mats] + [None]
                    y = np.random.default_rng(seed).standard_normal(bs.n)
                    y -= y.mean()
                    g = _component_problem(mats, metrics[:-1], m).grad(y / np.linalg.norm(y))
                    z = reference_stationary_image(y, mats, metrics, m)
                    assert self.cos_deficit(g, z) <= 1e-12, (m, tau, seed)

    def test_vanished_block_term(self):
        # X_1'y is exactly zero: block 1 lives on rows 0-1, y on rows 2-5
        rng = np.random.default_rng(14)
        bs = build_blockset([
            from_matrix("zero", [[1.0], [-1.0], [0.0], [0.0], [0.0], [0.0]]),
            from_matrix("live", rng.standard_normal((6, 2))),
        ])
        mats = [b.matrix for b in bs.blocks]
        metrics = [build_metric(x, 0.5) for x in mats] + [None]
        y = np.array([0.0, 0.0, 3.0, -1.0, -1.0, -1.0])
        for m in M_GRID:
            problem = _component_problem(mats, metrics[:-1], m)
            if m >= 2.0:
                z = reference_stationary_image(y, mats, metrics, m)
                assert self.cos_deficit(problem.grad(y / np.linalg.norm(y)), z) <= 1e-12
            else:
                with pytest.raises(SingularGradientError, match="block 1"):
                    reference_stationary_image(y, mats, metrics, m)
                with pytest.raises(SingularGradientError, match="block 1"):
                    problem.grad(y / np.linalg.norm(y))


class TestInitV:
    def test_eigen_start_diagonal(self):
        problem = problem_from_qs([np.diag([2.0, 1.0])], m=2.0)
        v = _eigen_start(problem)[0]
        assert abs(abs(v[0]) - 1.0) <= 1e-12
        assert abs(v[1]) <= 1e-12

    def test_random_is_deterministic(self):
        problem = problem_from_qs([np.diag([2.0, 1.0])], m=2.0)
        v1 = _random_start(problem, 42)
        v2 = _random_start(problem, 42)
        np.testing.assert_array_equal(v1, v2)

    def test_given_is_normalized(self):
        problem = problem_from_qs([np.eye(2)], m=2.0)
        np.testing.assert_allclose(
            _given_start(problem, np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12
        )

    def test_given_with_zero_criterion(self):
        problem = problem_from_qs([np.array([[1.0, 0.0]])], m=2.0)
        with pytest.raises(BadStartError):
            _given_start(problem, np.array([0.0, 1.0]))


class TestIterate:
    def test_hand_computed_step(self):
        problem = problem_from_qs([np.diag([2.0, 1.0])], m=2.0)
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected = np.array([4.0, 1.0]) / np.sqrt(17.0)
        np.testing.assert_allclose(step(problem, v), expected, atol=1e-12)

    def test_dominant_eigenvector_is_fixed(self):
        rng = np.random.default_rng(4)
        qs = [rng.standard_normal((3, 4)) for _ in range(2)]
        problem = problem_from_qs(qs, m=2.0)
        _, vecs = np.linalg.eigh(reference_gram(qs))
        v = vecs[:, -1]
        out = step(problem, v)
        assert min(np.linalg.norm(out - v), np.linalg.norm(out + v)) <= 1e-10

    def test_orthogonal_q_leaves_v(self):
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        for m in M_GRID:
            problem = problem_from_qs([q], m=m)
            v = np.array([0.6, 0.8])
            np.testing.assert_allclose(step(problem, v), v, atol=1e-12)


class TestSphereMaximize:
    def test_linear_objective_one_step(self):
        c = np.array([3.0, 4.0])
        oracle = GradientOracle(value=lambda v: float(c @ v), grad=lambda v: c)
        cfg = SolverConfig(epsilon=1e-12, assert_level="full")
        v, trace = sphere_maximize(oracle, cfg, np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(v, [0.6, 0.8], atol=1e-12)
        assert trace.converged
        assert trace.iterations <= 2

    def test_quadratic_objective_reaches_eigenvector(self):
        a = np.diag([4.0, 1.0])
        oracle = GradientOracle(
            value=lambda v: float(v @ a @ v), grad=lambda v: 2.0 * (a @ v)
        )
        cfg = SolverConfig(epsilon=1e-14, assert_level="full", max_iter=200)
        v, trace = sphere_maximize(oracle, cfg, np.array([0.6, 0.8]), 2.0)
        assert abs(abs(v[0]) - 1.0) <= 1e-7
        assert trace.converged

    def test_fixed_point_start_stops_immediately(self):
        a = np.diag([4.0, 1.0])
        oracle = GradientOracle(
            value=lambda v: float(v @ a @ v), grad=lambda v: 2.0 * (a @ v)
        )
        cfg = SolverConfig(epsilon=1e-12, assert_level="full")
        v, trace = sphere_maximize(oracle, cfg, np.array([1.0, 0.0]), 2.0)
        assert trace.iterations == 1
        assert all(s <= 1e-12 for s in trace.step_norm)

    def test_max_iter_returns_unconverged(self):
        a = np.diag([4.0, 3.9])
        oracle = GradientOracle(
            value=lambda v: float(v @ a @ v), grad=lambda v: 2.0 * (a @ v)
        )
        cfg = SolverConfig(epsilon=1e-16, max_iter=2)
        _, trace = sphere_maximize(oracle, cfg, np.array([0.6, 0.8]), 2.0)
        assert not trace.converged
        assert trace.iterations == 2

    def test_zero_start_rejected(self):
        oracle = GradientOracle(value=lambda v: 1.0, grad=lambda v: v)
        with pytest.raises(BadStartError):
            sphere_maximize(oracle, SolverConfig(), np.zeros(2), 1.0)


class TestSolve:
    def test_two_identical_single_column_blocks(self):
        x = np.array([[1.0], [-1.0]])
        bs = build_blockset([from_matrix("a", x), from_matrix("b", x)])
        cfg = SolverConfig(m=2.0, epsilon=1e-14, assert_level="full")
        sol = solve(bs, ModeSelector.uniform("A", "A", 2), cfg)
        np.testing.assert_allclose(np.abs(sol.w_super), [1, 1] / np.sqrt(2), atol=1e-8)
        assert sol.w_super[0] > 0  # sign convention: largest entry positive
        np.testing.assert_allclose(sol.y_super, [np.sqrt(2.0), -np.sqrt(2.0)], atol=1e-8)
        np.testing.assert_allclose(sol.covs, [np.sqrt(2.0)] * 2, atol=1e-8)
        np.testing.assert_allclose(sol.contributions, [0.5, 0.5], atol=1e-10)
        assert sol.psi_final == pytest.approx(4.0, abs=1e-9)

    def test_sign_flipped_block_keeps_contributions(self):
        x = np.array([[1.0], [-1.0]])
        bs = build_blockset([from_matrix("a", x), from_matrix("b", -x)])
        cfg = SolverConfig(m=2.0, epsilon=1e-14)
        sol = solve(bs, ModeSelector.uniform("A", "A", 2), cfg)
        np.testing.assert_allclose(sol.contributions, [0.5, 0.5], atol=1e-10)
        # weights disagree in sign, components track the superblock either way
        assert np.sign(sol.w_blocks[0][0]) != np.sign(sol.w_blocks[1][0])

    def test_single_block_recovers_first_pc(self):
        rng = np.random.default_rng(7)
        x = from_matrix("x", rng.standard_normal((15, 4))).matrix
        bs = build_blockset([from_matrix("x", x)])
        for m in (2.0, 3.0):
            cfg = SolverConfig(m=m, epsilon=1e-14, max_iter=20_000)
            sol = solve(bs, ModeSelector.uniform("A", "A", 1), cfg)
            _, _, vt = np.linalg.svd(x)
            cos = abs(vt[0] @ sol.w_super)
            assert cos >= 1 - 1e-9
            np.testing.assert_allclose(sol.contributions, [1.0])

    def test_constraints_hold_for_shrinkage(self):
        for seed in range(5):
            bs = random_blockset(seed, b=3, n=15, js=[2, 3, 2])
            modes = ModeSelector.from_taus([0.0, 0.3, 1.0], 0.3)
            cfg = SolverConfig(m=2.0, epsilon=1e-13)
            sol = solve(bs, modes, cfg)
            metrics = build_metrics(bs, modes)
            for w, met in zip(sol.w_blocks + [sol.w_super], metrics):
                assert w @ met.apply(w, 1.0) == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.norm(sol.v_super) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_trace(self, seed):
        bs = random_blockset(seed, n=12)
        modes = random_modes(seed, bs)
        m = random_m(seed)
        cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=2000, assert_level="full")
        sol = solve(bs, modes, cfg)
        psi = np.array(sol.trace.psi)
        assert np.all(np.diff(psi) >= -1e-12)

    def test_multi_start_deterministic(self):
        bs = random_blockset(11, b=3, n=10, js=[1, 1, 1])
        modes = ModeSelector.uniform("B", "B", 3)
        cfg = SolverConfig(m=1.0, epsilon=1e-13, n_starts=5, seed=3, init="random")
        s1 = solve(bs, modes, cfg)
        s2 = solve(bs, modes, cfg)
        np.testing.assert_array_equal(s1.y_super, s2.y_super)
        np.testing.assert_array_equal(s1.trace.psi, s2.trace.psi)

    def test_degenerate_spectrum_warns(self):
        # orthogonal equal-norm columns give a numerically multiple top
        # eigenvalue for the eigen start
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        bs = build_blockset([from_matrix("x", x)])
        sol = solve(bs, ModeSelector.uniform("A", "A", 1), SolverConfig(m=2.0))
        assert any("multiple" in w for w in sol.trace.warnings)

    def test_m2_matches_dense_eigensolver(self):
        for seed in range(4):
            bs = random_blockset(seed + 40, n=14)
            modes = random_modes(seed, bs, taus=(0.3, 1.0))
            cfg = SolverConfig(m=2.0, epsilon=1e-14, init="random", seed=1,
                              max_iter=50_000)
            sol = solve(bs, modes, cfg)
            metrics = build_metrics(bs, modes)
            problem = transform(bs, metrics, 2.0)
            vals, vecs = np.linalg.eigh(reference_gram(q_blocks(problem)))
            if (vals[-1] - vals[-2]) / vals[-1] < 1e-3:
                continue
            cos = abs(vecs[:, -1] @ sol.v_super)
            assert cos >= 1 - 1e-8


class TestBackMapping:
    def test_sumcor_criterion_identity(self):
        bs = full_rank_blockset(21)
        modes = ModeSelector.uniform("B", "B", bs.n_blocks)
        cfg = SolverConfig(m=1.0, epsilon=1e-13, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        ys = [y / np.sqrt(sample_cov(y, y)) for y in sol.y_blocks]
        total = sum(sample_cov(a, b) for a in ys for b in ys)
        assert sol.psi_final == pytest.approx(np.sqrt(total), abs=1e-8)

    def test_superblock_is_sum_of_components_m1_mode_b(self):
        bs = latent_blockset(22)
        modes = ModeSelector.uniform("A", "B", bs.n_blocks)
        cfg = SolverConfig(m=1.0, epsilon=1e-15, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        s = np.sum(sol.y_blocks, axis=0)
        expected = s / np.sqrt(sample_cov(s, s))
        np.testing.assert_allclose(sol.y_super, expected, atol=1e-8)

    def test_reconstruction_matches_for_every_metric(self):
        for seed in (30, 31):
            bs = latent_blockset(seed)
            modes = random_modes(seed, bs)
            m = random_m(seed)
            cfg = SolverConfig(m=m, epsilon=1e-15, max_iter=50_000)
            sol = solve(bs, modes, cfg)
            metrics = build_metrics(bs, modes)
            rec = superblock_from_block_components(sol, bs, metrics, m)
            assert np.linalg.norm(rec - sol.y_super) / np.linalg.norm(sol.y_super) <= 1e-8

    def test_mode_b_superblock_component_is_pc_of_components(self):
        bs = latent_blockset(23)
        modes = ModeSelector.uniform("A", "B", bs.n_blocks)
        cfg = SolverConfig(m=2.0, epsilon=1e-14, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        yy = sol.component_matrix @ sol.component_matrix.T
        image = yy @ sol.y_super
        lam = (sol.y_super @ image) / (sol.y_super @ sol.y_super)
        assert np.linalg.norm(image - lam * sol.y_super) / lam <= 1e-8

    def test_mode_a_component_identity(self):
        bs = random_blockset(24, b=3, n=16, js=[2, 3, 2])
        modes = ModeSelector.uniform("A", "A", 3)
        cfg = SolverConfig(m=2.0, epsilon=1e-14)
        sol = solve(bs, modes, cfg)
        yy = sol.component_matrix @ sol.component_matrix.T @ sol.y_super
        xx = bs.superblock @ (bs.superblock.T @ sol.y_super)
        np.testing.assert_allclose(yy, xx, atol=1e-8)

    def test_fixed_point_residuals_agree(self):
        bs = latent_blockset(25)
        modes = ModeSelector.uniform("A", "A", bs.n_blocks)
        cfg = SolverConfig(m=2.0, epsilon=1e-13, assert_level="full", max_iter=50_000)
        sol = solve(bs, modes, cfg)
        metrics = build_metrics(bs, modes)
        r_orig = stationary_residual(sol.y_super, bs, metrics, 2.0)
        assert r_orig <= 1e-6
        assert abs(r_orig - sol.fixed_point_residual) <= 1e-8

    def test_shrinkage_solution_satisfies_expanded_fixed_point(self):
        # raw-numpy re-derivation of the whole back-mapping, independent of
        # the metric objects: covers the shrinkage continuum, which the
        # published special-case forms do not
        bs = latent_blockset(77)
        taus = [0.3, 0.7, 0.0]
        stau = 0.4
        m = 3.0
        sol = solve(
            bs,
            ModeSelector.from_taus(taus, stau),
            SolverConfig(m=m, epsilon=1e-15, max_iter=200_000),
        )
        y = sol.y_super
        n = bs.n
        s_mat = bs.superblock

        def metric(x, tau):
            return tau * np.eye(x.shape[1]) + (1 - tau) * (x.T @ x) / n

        def inv_sqrt(mat):
            w, vecs = np.linalg.eigh(mat)
            return (vecs / np.sqrt(w)) @ vecs.T

        z = np.zeros(n)
        for block, tau, w_b, cov in zip(bs.blocks, taus, sol.w_blocks, sol.covs):
            x = block.matrix
            mb = metric(x, tau)
            t = x.T @ y
            z += np.linalg.norm(inv_sqrt(mb) @ t) ** (m - 2) * (x @ np.linalg.solve(mb, t))
            w_direct = np.linalg.solve(mb, t) / np.linalg.norm(inv_sqrt(mb) @ t)
            np.testing.assert_allclose(w_direct, w_b, atol=1e-10)
            assert cov == pytest.approx(sample_cov(x @ w_b, y), abs=1e-12)
        ms = metric(s_mat, stau)
        rhs = s_mat @ np.linalg.solve(ms, s_mat.T @ z)
        rhs /= np.linalg.norm(inv_sqrt(ms) @ (s_mat.T @ z))
        assert np.linalg.norm(rhs - y) / np.linalg.norm(y) <= 1e-8
        assert sol.psi_final == pytest.approx(sum(c**m for c in sol.covs), abs=1e-12)

    def test_random_component_is_not_stationary(self):
        bs = random_blockset(26, b=3, n=14, js=[2, 2, 3])
        modes = ModeSelector.uniform("A", "A", 3)
        metrics = build_metrics(bs, modes)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(bs.n)
        y -= y.mean()
        assert stationary_residual(y, bs, metrics, 2.0) > 0.01

    def test_exact_first_pc_is_a_fixed_point(self):
        # single block, Mode A: the leading principal component solves the
        # stationary equation exactly, no solver involved
        rng = np.random.default_rng(27)
        bs = build_blockset([from_matrix("x", rng.standard_normal((12, 4)))])
        modes = ModeSelector.uniform("A", "A", 1)
        metrics = build_metrics(bs, modes)
        u, s, _ = np.linalg.svd(bs.superblock, full_matrices=False)
        y = u[:, 0] * s[0]
        assert stationary_residual(y, bs, metrics, 2.0) <= 1e-10


class TestRankDeficientModeB:
    def test_superblock_pseudo_route(self):
        # more superblock columns than rows: Mode B runs on the column space,
        # flags weight non-uniqueness, and still meets the variance constraint
        rng = np.random.default_rng(5)
        blocks = [
            from_matrix(f"b{i}", rng.standard_normal((10, 6)), scale=True)
            for i in range(3)
        ]
        bs = build_blockset(blocks)
        modes = ModeSelector.uniform("B", "B", 3)
        cfg = SolverConfig(m=2.0, epsilon=1e-12, max_iter=100_000)
        sol = solve(bs, modes, cfg)
        assert any("least-norm" in w for w in sol.trace.warnings)
        assert sample_cov(sol.y_super, sol.y_super) == pytest.approx(1.0, abs=1e-10)
        metrics = build_metrics(bs, modes)
        rec = superblock_from_block_components(sol, bs, metrics, 2.0)
        assert np.linalg.norm(rec - sol.y_super) / np.linalg.norm(sol.y_super) <= 1e-8

    def test_collinear_block_warns_and_solves(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((12, 2))
        collinear = np.column_stack([base, base @ [1.0, 2.0]])
        bs = build_blockset([
            from_matrix("full", rng.standard_normal((12, 3))),
            from_matrix("thin", collinear),
        ])
        sol = solve(bs, ModeSelector.from_taus([1.0, 0.0], 1.0), SolverConfig(m=2.0))
        assert any("thin" in w for w in sol.trace.warnings)
        # variance constraint holds on the block's column space
        y = sol.y_blocks[1]
        assert sample_cov(y, y) == pytest.approx(1.0, abs=1e-8)


class TestAuxiliarySolve:
    def test_matches_explicit_superblock_solve(self):
        bs = full_rank_blockset(27)
        modes = ModeSelector.uniform("B", "B", bs.n_blocks)
        cfg = SolverConfig(m=2.0, epsilon=1e-14, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        y_aux, _, values = auxiliary_solve(bs, modes.block_taus, 2.0, epsilon=1e-14)
        cos = abs(y_aux @ sol.y_super) / (
            np.linalg.norm(y_aux) * np.linalg.norm(sol.y_super)
        )
        assert cos >= 1 - 1e-6
        assert np.all(np.diff(values) >= -1e-12)

    @staticmethod
    def assert_matches_reference(bs, taus, m, **kwargs):
        y, iterations, values = auxiliary_solve(bs, taus, m, **kwargs)
        y_ref, iterations_ref, values_ref = reference_auxiliary_solve(bs, taus, m, **kwargs)
        assert iterations == iterations_ref
        assert len(values) == len(values_ref) == iterations + 1
        for val, ref in zip(values, values_ref):
            assert abs(val - ref) <= 1e-12 * ref
        cos = abs(y @ y_ref) / (np.linalg.norm(y) * np.linalg.norm(y_ref))
        assert cos >= 1 - 1e-12
        assert sample_cov(y, y) == pytest.approx(1.0, rel=1e-12)

    def test_matches_reference_loop(self):
        bs = full_rank_blockset(27)
        modes = ModeSelector.uniform("B", "B", bs.n_blocks)
        self.assert_matches_reference(bs, modes.block_taus, 2.0, epsilon=1e-14)

    def test_matches_reference_loop_on_criterion_10_instances(self):
        # the 20 instances and starts of acceptance criterion 10
        for seed in range(20):
            js = [(3, 2, 4), (2, 2, 3), (4, 3, 2)][seed % 3]
            bs = (
                latent_blockset(seed + 800, n=20, js=js)
                if seed % 2
                else full_rank_blockset(seed + 800, n=20, js=js)
            )
            block_mode = "A" if seed % 4 < 2 else "B"
            m = 1.0 if seed % 3 == 0 else 2.0
            modes = ModeSelector.uniform(block_mode, "B", bs.n_blocks)
            metrics = build_metrics(bs, modes)
            v0, _ = _eigen_start(transform(bs, metrics, m))
            y0 = bs.superblock @ metrics[-1].apply(v0, -0.5)
            self.assert_matches_reference(
                bs, modes.block_taus, m, epsilon=1e-13, max_iter=200_000, y0=y0
            )


class TestContributions:
    def test_single_block(self):
        np.testing.assert_allclose(contributions([3.0], 2.0), [1.0])

    def test_equal_covs(self):
        np.testing.assert_allclose(
            contributions([np.sqrt(2.0), np.sqrt(2.0)], 2.0), [0.5, 0.5]
        )

    def test_hand_value_m4(self):
        np.testing.assert_allclose(
            contributions([2.0, 1.0], 4.0), [16.0 / 17.0, 1.0 / 17.0]
        )

    def test_sum_is_one(self):
        rng = np.random.default_rng(8)
        for m in M_GRID:
            c = contributions(rng.uniform(0.1, 3.0, size=6), m)
            assert c.sum() == pytest.approx(1.0, abs=1e-10)

    def test_large_m_concentrates(self):
        c = contributions([1.2, 1.0, 0.9], 64.0)
        assert c[0] >= 0.999

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedContributionsError):
            contributions([0.0, 0.0], 2.0)
