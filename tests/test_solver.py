import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    M_GRID,
    TAU_GRID,
    build_metrics,
    collinear_blockset,
    component_matrix,
    deficient_superblock,
    factor_power,
    full_rank_blockset,
    latent_blockset,
    metric_condition,
    problem_from_qs,
    q_blocks,
    random_blockset,
    random_m,
    random_modes,
    reference_criterion,
    reference_gradient,
    reference_auxiliary_solve,
    reference_gram,
    reference_metric_power,
    reference_q_blocks,
    reference_residual,
    reference_solve,
    sample_cov,
    scaled_blockset,
    superblock_coordinates,
    superblock_from_block_components,
    transform,
    uniform_modes,
    wide_blockset,
)
from rcpca import (
    GradientOracle,
    ModeSelector,
    SolverConfig,
    build_blockset,
    build_metric,
    contributions,
    deflate,
    from_matrix,
    solve,
    solve_matrices,
    sphere_maximize,
)
from rcpca.errors import (
    AllStartsFailedError,
    BadStartError,
    DimensionError,
    NonContributingBlockError,
    SingularGradientError,
    UndefinedContributionsError,
)
from rcpca.solver import _eigen_start, _transform


def step(problem, v):
    """One normalized-gradient iteration of the maximizer from v."""
    cfg = SolverConfig(m=problem.m, max_iter=1)
    return sphere_maximize(problem, cfg, v)[0]


class TestTransform:
    def test_mode_a_gives_cross_products(self):
        bs = random_blockset(0, b=2, n=10, js=[2, 3], normalize=False)
        metrics = build_metrics(bs, uniform_modes("A", "A", 2))
        problem = transform(bs, metrics, 2.0)
        basis = metrics[-1].factor
        for b in range(2):
            # segments are in the factors' coordinates: map them back to J-space
            np.testing.assert_allclose(
                metrics[b].factor @ q_blocks(problem)[b] @ basis.T,
                bs.blocks[b].matrix.T @ bs.superblock / bs.n,
                atol=1e-12,
            )

    def test_single_block_mode_a(self):
        bs = random_blockset(1, b=1, n=8, js=[3], normalize=False)
        metrics = build_metrics(bs, uniform_modes("A", "A", 1))
        problem = transform(bs, metrics, 2.0)
        x = bs.blocks[0].matrix
        basis = metrics[0].factor
        np.testing.assert_allclose(
            basis @ q_blocks(problem)[0] @ basis.T, x.T @ x / bs.n, atol=1e-12
        )

    def test_single_column_mode_b(self):
        bs = build_blockset([from_matrix("x", [[1.0], [-1.0]])])
        metrics = build_metrics(bs, uniform_modes("B", "B", 1))
        problem = transform(bs, metrics, 2.0)
        np.testing.assert_allclose(q_blocks(problem)[0], [[1.0]], atol=1e-12)

    def test_zero_block_does_not_contribute(self):
        good = from_matrix("good", np.random.default_rng(0).standard_normal((6, 2)))
        zero = from_matrix("zero", np.zeros((6, 2)))
        bs = build_blockset([good, zero])
        metrics = build_metrics(bs, uniform_modes("A", "A", 2))
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


TRANSFORM_SHAPES = {
    "tall": lambda seed: random_blockset(seed, b=3, n=40, js=[3, 5, 4]),
    "wide": wide_blockset,
    "many_blocks": lambda seed: random_blockset(seed, b=50, n=200, js=[3] * 50),
    "collinear": collinear_blockset,
}


def assert_q_close(stacked, ref, metrics):
    """Two ways of building the stacked Q_b / n agree, relative to ||Q||.

    Both are exact in exact arithmetic; in floating point they part by
    roundoff times the largest condition number among the metrics.
    """
    cond = max(metric_condition(met) for met in metrics)
    assert np.linalg.norm(stacked - ref) <= 1e-14 * cond * np.linalg.norm(ref)


def assert_matches_reference_q(problem, mats, smat, metrics):
    """The transform's segments against the per-block image products."""
    assert_q_close(problem.stacked, np.vstack(reference_q_blocks(mats, smat, metrics)), metrics)


class TestTransformSources:
    """Q_b / n from the superblock factor (concatenated blocks) or from one product."""

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3, 1e-8])
    @pytest.mark.parametrize("shape", sorted(TRANSFORM_SHAPES))
    def test_closed_form_matches_reference(self, shape, scale):
        for seed in range(2):
            bs = scaled_blockset(TRANSFORM_SHAPES[shape](seed), scale)
            mats = [b.matrix for b in bs.blocks]
            for block_tau in TAU_GRID:
                for super_tau in TAU_GRID:
                    modes = uniform_modes(block_tau, super_tau, bs.n_blocks)
                    metrics = build_metrics(bs, modes)
                    problem = transform(bs, metrics, 2.0)
                    assert_matches_reference_q(problem, mats, bs.superblock, metrics)

    def test_own_ranks_use_the_product_and_match_reference(self):
        # rank 2 of `own` deflation: blocks on their own components, superblock on its own
        for seed in range(20):
            bs = random_blockset(seed, js=[2, 3, 4])  # rank 2 leaves every block nonzero
            modes = random_modes(seed, bs)
            sol = solve(bs, modes, SolverConfig(m=random_m(seed)))
            mats = [deflate(b.matrix, y) for b, y in zip(bs.blocks, sol.y_blocks)]
            smat = deflate(bs.superblock, sol.y_super)
            metrics = [build_metric(x, tau) for x, tau in zip(mats, modes.block_taus)]
            metrics.append(build_metric(smat, modes.superblock_tau))
            widths = [x.shape[1] for x in mats]
            problem = _transform(np.hstack(mats), widths, bs.ids, metrics, 2.0, superblock=smat)
            assert_matches_reference_q(problem, mats, smat, metrics)

    def test_both_sources_agree_on_the_same_input(self):
        # a superblock passed separately takes the product, even when it is the concatenation
        for seed in range(10):
            bs = wide_blockset(seed) if seed % 2 else random_blockset(seed)
            modes = random_modes(seed, bs)
            metrics = build_metrics(bs, modes)
            widths = [b.n_vars for b in bs.blocks]
            product = _transform(
                bs.superblock, widths, bs.ids, metrics, 2.0, superblock=bs.superblock
            ).stacked
            assert_q_close(transform(bs, metrics, 2.0).stacked, product, metrics)

    def test_non_contributing_block_on_both_sources(self):
        rng = np.random.default_rng(0)
        good = from_matrix("good", rng.standard_normal((6, 2)))
        zero = from_matrix("zero", np.zeros((6, 2)))
        modes = uniform_modes("A", "A", 2)
        with pytest.raises(NonContributingBlockError, match="block 'zero'"):
            solve(build_blockset([good, zero]), modes, SolverConfig())
        # an explicit superblock orthogonal to the second block's columns
        other = from_matrix("other", rng.standard_normal((6, 2)))
        x, o = good.matrix, other.matrix
        smat = x - o @ np.linalg.lstsq(o, x, rcond=None)[0]
        with pytest.raises(NonContributingBlockError, match="block 'other'"):
            solve_matrices(np.hstack([x, o]), [2, 2], modes, SolverConfig(),
                           ids=["good", "other"], superblock=smat)

    @pytest.mark.parametrize("widths, superblock_rows, message", [
        ([2, 2], 6, r"widths \[2, 2\] must be >= 1 and sum to 5"),
        ([5, 0], 6, r"widths \[5, 0\] must be >= 1 and sum to 5"),
        ([2, 3], 7, "superblock has 7 rows, not 6"),
    ])
    def test_solve_matrices_checks_its_arguments(self, widths, superblock_rows, message):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((6, 5))
        superblock = rng.standard_normal((superblock_rows, 5))
        with pytest.raises(DimensionError, match=f"^{message}$"):
            solve_matrices(blocks, widths, uniform_modes("A", "A", 2), SolverConfig(),
                           superblock=superblock)

    def test_back_map_names_an_uncorrelated_block_by_id(self):
        # exactly orthogonal blocks; the start lies in the first one and stays there
        p = from_matrix("p", [[1.0], [-1.0], [0.0], [0.0]])
        q = from_matrix("q", [[0.0], [0.0], [1.0], [-1.0]])
        cfg = SolverConfig(m=2.0, init=np.array([1.0, 0.0]))
        with pytest.raises(NonContributingBlockError, match="block 'q' is uncorrelated"):
            solve(build_blockset([p, q]), uniform_modes("A", "A", 2), cfg)


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
        with pytest.raises(SingularGradientError, match="block '1'"):
            problem.grad(np.array([0.0, 1.0]))

    def test_zero_term_continuous_for_m_three(self):
        problem = problem_from_qs([np.array([[1.0, 0.0]])], m=3.0)
        np.testing.assert_allclose(
            problem.grad(np.array([0.0, 1.0])), [0.0, 0.0], atol=1e-12
        )

    def test_solve_names_the_vanished_block_by_id(self):
        # orthogonal blocks: the start on p's coordinate leaves Q_q v exactly zero
        bs = build_blockset([
            from_matrix("p", [[1.0], [-1.0], [0.0], [0.0]]),
            from_matrix("q", [[0.0], [0.0], [1.0], [-1.0]]),
        ])
        config = SolverConfig(m=1.5, init=np.array([1.0, 0.0]))
        with pytest.raises(AllStartsFailedError) as info:
            solve(bs, uniform_modes("A", "A", 2), config)
        assert str(info.value).startswith(
            "every start failed; last failure: block 'q': ||Q v|| vanished and m = 1.5 < 2"
        ), str(info.value)


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
                with pytest.raises(SingularGradientError, match="block '2'"):
                    problem.grad(v)


class TestThinFactor:
    """The thin-factor solve against the dense J-space reference."""

    SHAPES = {"wide": (10, [25, 14, 30]), "tall": (30, [4, 6, 3]), "mixed": (12, [3, 40, 7])}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_dense_reference(self, shape):
        n, js = self.SHAPES[shape]
        for m in M_GRID:
            for tau in TAU_GRID:
                for seed in range(2):
                    bs = latent_blockset(seed + 1500, n=n, js=tuple(js), full_rank=False)
                    # Mode B on a superblock of rank n - 1 is the identity on components
                    modes = uniform_modes(tau, tau if sum(js) < n - 1 else 0.3, 3)
                    cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=20_000)
                    sol = solve(bs, modes, cfg)
                    psi_ref, y_ref = reference_solve(bs, modes, m, epsilon=1e-10, max_iter=20_000)
                    assert abs(sol.trace.psi[-1] - psi_ref[-1]) <= 1e-10 * psi_ref[-1]
                    cos = abs(sol.y_super @ y_ref) / (
                        np.linalg.norm(sol.y_super) * np.linalg.norm(y_ref)
                    )
                    assert 1.0 - cos <= 1e-10, (shape, m, tau, seed)

    def test_wide_metric_matches_dense_powers(self):
        x = random_blockset(1600, b=1, n=9, js=[20]).superblock
        for tau in TAU_GRID:
            met = build_metric(x, tau)
            assert met.rank == 8  # centered: n - 1
            for p in (1.0, -0.5, -1.0):
                np.testing.assert_allclose(
                    factor_power(met, p), reference_metric_power(x, tau, p), atol=1e-10
                )


def many_block_problem(scale):
    """40 Mode A blocks of 8 columns on 400 rows sharing 3 factors: r_super = 320."""
    rng = np.random.default_rng(12)
    f = rng.standard_normal((400, 3)) * [1.0, 0.5, 0.3]
    blocks = []
    for b in range(40):
        x = f @ rng.standard_normal((3, 8)) + rng.standard_normal((400, 8))
        blocks.append(from_matrix(f"b{b + 1}", scale * x, scale=False))
    bs = build_blockset(blocks)
    return transform(bs, build_metrics(bs, uniform_modes("A", "B", 40)), 2.0)


def spectrum_blockset(eigenvalues, n=420):
    """One centred block whose Gram X'X/n has exactly these eigenvalues.

    Under Mode A with a Mode B superblock, S'S = L'L, G = LL', which has
    these eigenvalues too.
    """
    rng = np.random.default_rng(3)
    d = len(eigenvalues)
    g = rng.standard_normal((n, d))
    u = np.linalg.qr(g - g.mean(axis=0))[0]  # orthonormal columns orthogonal to 1
    v = np.linalg.qr(rng.standard_normal((d, d)))[0]
    x = (u * np.sqrt(n * np.asarray(eigenvalues))) @ v.T
    return build_blockset([from_matrix("x", x, scale=False)])


def eigh_sizes(monkeypatch):
    """Record the order of every matrix np.linalg.eigh factors from now on."""
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def top_gap_spectrum(gap, d=400):
    """lambda_1 = 1, lambda_2 = 1 - gap and the rest uniform in [0.05, 0.5]."""
    rest = np.random.default_rng(9).uniform(0.05, 0.5, d - 2)
    return np.concatenate([[1.0, 1.0 - gap], rest])


# superblock -> (blockset, tau_super), with Mode A blocks and m = 4
WARM_STARTS = {
    "mode_a": (lambda: random_blockset(7, b=3, n=30, js=[3, 4, 5]), 1.0),
    "rank_deficient_mode_b": (lambda: deficient_superblock(21), 0.0),
    "half_shrinkage": (lambda: random_blockset(7, b=3, n=30, js=[3, 4, 5]), 0.5),
    "full_rank_mode_b": (lambda: random_blockset(7, b=3, n=30, js=[3, 4, 5]), 0.0),
}


class TestInitV:
    def test_eigen_start_diagonal(self):
        problem = problem_from_qs([np.diag([2.0, 1.0])], m=2.0)
        v = _eigen_start(problem)[0]
        assert abs(abs(v[0]) - 1.0) <= 1e-12
        assert abs(v[1]) <= 1e-12

    def test_random_is_deterministic(self):
        # the seeded draw of the superblock factor's coordinates, J of them for
        # the Cholesky factor of a full-rank Mode B superblock
        bs = random_blockset(5, b=2, n=12, js=[3, 2])
        modes = uniform_modes("A", "B", 2)
        cfg = SolverConfig(m=2.0, init="random", seed=42)
        s1, s2 = solve(bs, modes, cfg), solve(bs, modes, cfg)
        np.testing.assert_array_equal(s1.trace.psi, s2.trace.psi)
        np.testing.assert_array_equal(s1.w_super, s2.w_super)
        metrics = build_metrics(bs, modes)
        assert metrics[-1].variances is None
        c = np.random.default_rng(42).standard_normal(5)
        problem = transform(bs, metrics, 2.0)
        assert s1.trace.psi[0] == pytest.approx(problem.value(c / np.linalg.norm(c)), rel=1e-12)

    @pytest.mark.parametrize("tau_super, n, rank", [(0.0, 12, 5), (0.5, 12, 5), (0.5, 4, 3)],
                             ids=["cholesky", "eigh", "eigh_wide"])
    def test_random_is_a_draw_of_the_factor_coordinates(self, tau_super, n, rank):
        # the seeded standard Gaussian draw of the superblock factor's r
        # coordinates, whichever route factored it
        bs = random_blockset(5, b=2, n=n, js=[3, 2])
        modes = uniform_modes("A", tau_super, 2)
        sol = solve(bs, modes, SolverConfig(m=2.0, init="random", seed=42))
        metrics = build_metrics(bs, modes)
        assert (metrics[-1].variances is None) == (tau_super == 0.0)
        assert metrics[-1].rank == rank
        c = np.random.default_rng(42).standard_normal(rank)
        problem = transform(bs, metrics, 2.0)
        assert sol.trace.psi[0] == pytest.approx(problem.value(c / np.linalg.norm(c)), rel=1e-12)

    def test_given_is_normalized(self):
        # full-rank Mode A superblock: the basis is orthogonal, so ||V'v|| = ||v|| = 5
        bs = random_blockset(6, b=1, n=10, js=[2])
        modes = uniform_modes("A", "A", 1)
        metrics = build_metrics(bs, modes)
        problem = transform(bs, metrics, 2.0)
        sol = solve(bs, modes, SolverConfig(m=2.0, init=np.array([3.0, 4.0])))
        unit = metrics[-1].factor.T @ np.array([0.6, 0.8])
        assert sol.trace.psi[0] == pytest.approx(problem.value(unit), rel=1e-12)
        unit_sol = solve(bs, modes, SolverConfig(m=2.0, init=np.array([0.6, 0.8])))
        np.testing.assert_allclose(sol.trace.psi, unit_sol.trace.psi, rtol=1e-12)

    @pytest.mark.parametrize("superblock", list(WARM_STARTS))
    def test_own_weights_restart_at_the_solution(self, superblock):
        # an explicit start holds superblock weights: Bc, c = (MB)'w, is w's
        # M-projection onto the factor's span, which is w_super itself
        make, tau_super = WARM_STARTS[superblock]
        bs = make()
        modes = uniform_modes("A", tau_super, bs.n_blocks)
        sol = solve(bs, modes, SolverConfig(m=4.0, epsilon=1e-10))
        assert sol.trace.converged
        warm = solve(bs, modes, SolverConfig(m=4.0, epsilon=1e-10, init=sol.w_super))
        assert warm.trace.iterations == 1
        assert abs(warm.trace.psi[0] - sol.trace.psi[-1]) <= 1e-12 * sol.trace.psi[-1]

    def test_given_with_zero_criterion(self):
        # the start's superblock component [0, 0, 2, -2] is orthogonal to the only block
        block = np.array([[1.0], [-1.0], [0.0], [0.0]])
        superblock = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        modes = uniform_modes("A", "A", 1)
        cfg = SolverConfig(m=2.0, init=np.array([0.0, 1.0]))
        with pytest.raises(AllStartsFailedError) as info:
            solve_matrices(block, [1], modes, cfg, superblock=superblock)
        assert str(info.value) == (
            "every start failed; last failure: objective is not positive at the start vector"
        )

    @pytest.mark.parametrize("start", [[0.0, 0.0], [0.0, 1.0]],
                             ids=["zero", "orthogonal_to_the_superblock"])
    def test_given_start_that_projects_to_zero(self, start):
        # the zero second column leaves e1 as the superblock basis, exactly
        x = [[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]
        bs = build_blockset([from_matrix("x", x, scale=False)])
        modes = uniform_modes("A", "A", 1)
        cfg = SolverConfig(m=2.0, init=np.array(start))
        with pytest.raises(AllStartsFailedError) as info:
            solve(bs, modes, cfg)
        assert str(info.value) == "every start failed; last failure: start vector is zero"
        # a second start draws at random (seed 1) and succeeds
        sol = solve(bs, modes, SolverConfig(m=2.0, init=np.array(start), n_starts=2))
        assert sol.trace.psi[-1] > 0.0

    def test_given_start_orthogonal_to_the_superblock_up_to_roundoff(self):
        # two equal columns: [1, -1, 0] is orthogonal to the row space, and its
        # projection onto the eigenvectors is roundoff, not a direction
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 10))
        bs = build_blockset([from_matrix("x", np.column_stack([a, a, b]), scale=False)])
        modes = uniform_modes("A", "A", 1)
        cfg = SolverConfig(m=2.0, init=np.array([1.0, -1.0, 0.0]))
        with pytest.raises(AllStartsFailedError) as info:
            solve(bs, modes, cfg)
        assert str(info.value) == "every start failed; last failure: start vector is zero"

    # at or above the size gate: block Lanczos, with the dense eigh as fallback

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
    def test_krylov_start_agrees_with_dense(self, scale, monkeypatch):
        problem = many_block_problem(scale)
        assert problem.dim >= 256
        vals, vecs = np.linalg.eigh(problem.stacked.T @ problem.stacked)
        sizes = eigh_sizes(monkeypatch)
        v, degenerate = _eigen_start(problem)
        assert max(sizes) < problem.dim  # the Krylov route ran, not the dense eigh
        assert 1.0 - abs(v @ vecs[:, -1]) <= 1e-12
        assert degenerate == bool(vals[-1] - vals[-2] <= 1e-12 * vals[-1])

    def test_krylov_start_is_deterministic(self):
        problem = many_block_problem(1.0)
        v1, _ = _eigen_start(problem)
        v2, _ = _eigen_start(problem)
        np.testing.assert_array_equal(v1, v2)

    @pytest.mark.parametrize("gap, multiple", [(0.0, True), (1e-6, False)])
    def test_krylov_start_double_top_eigenvalue(self, gap, multiple, monkeypatch):
        bs = spectrum_blockset(top_gap_spectrum(gap))
        modes = uniform_modes("A", "B", 1)
        problem = transform(bs, build_metrics(bs, modes), 2.0)
        assert problem.dim == 400
        top = np.linalg.eigh(problem.stacked.T @ problem.stacked)[1][:, -2:]
        sizes = eigh_sizes(monkeypatch)
        v, degenerate = _eigen_start(problem)
        assert max(sizes) < problem.dim
        assert degenerate == multiple
        assert np.linalg.norm(v - top @ (top.T @ v)) <= 1e-12  # in the top eigenspace
        monkeypatch.undo()
        sol = solve(bs, modes, SolverConfig(m=2.0))
        assert any("numerically multiple" in w for w in sol.trace.warnings) == multiple

    def test_krylov_start_gives_up_before_the_budget(self, monkeypatch):
        # the flat top of the test below: the residual falls so slowly that even a
        # ratio halving at every step left cannot reach 1e-14 within the budget
        lam = np.concatenate([[1.0, 0.99], np.random.default_rng(5).uniform(0.0, 0.99, 398)])
        bs = spectrum_blockset(lam)
        problem = transform(bs, build_metrics(bs, uniform_modes("A", "B", 1)), 2.0)
        sizes = eigh_sizes(monkeypatch)
        _eigen_start(problem)
        assert sizes[-1] == problem.dim  # the dense eigh
        assert 2 * len(sizes[:-1]) == max(sizes[:-1]) < problem.dim // 8  # 34 of 50 vectors

    def test_krylov_start_exhausted_budget_returns_the_dense_result(self):
        # lambda_2 / lambda_1 = 0.99 over a bulk packed just below: Lanczos
        # needs about 200 vectors at d = 400, past the budget of 50
        lam = np.concatenate([[1.0, 0.99], np.random.default_rng(5).uniform(0.0, 0.99, 398)])
        bs = spectrum_blockset(lam)
        problem = transform(bs, build_metrics(bs, uniform_modes("A", "B", 1)), 2.0)
        vals, vecs = np.linalg.eigh(problem.stacked.T @ problem.stacked)
        v, degenerate = _eigen_start(problem)
        np.testing.assert_array_equal(v, vecs[:, -1])
        assert not degenerate


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
        cfg = SolverConfig(epsilon=1e-10)
        v, trace = sphere_maximize(oracle, cfg, np.array([1.0, 0.0]))
        np.testing.assert_allclose(v, [0.6, 0.8], atol=1e-12)
        assert trace.converged
        assert trace.iterations <= 2

    def test_quadratic_objective_reaches_eigenvector(self):
        a = np.diag([4.0, 1.0])
        oracle = GradientOracle(
            value=lambda v: float(v @ a @ v), grad=lambda v: 2.0 * (a @ v)
        )
        cfg = SolverConfig(epsilon=1e-10, max_iter=200)
        v, trace = sphere_maximize(oracle, cfg, np.array([0.6, 0.8]))
        assert abs(abs(v[0]) - 1.0) <= 1e-7
        assert trace.converged

    def test_fixed_point_start_stops_immediately(self):
        a = np.diag([4.0, 1.0])
        oracle = GradientOracle(
            value=lambda v: float(v @ a @ v), grad=lambda v: 2.0 * (a @ v)
        )
        cfg = SolverConfig(epsilon=1e-10)
        v, trace = sphere_maximize(oracle, cfg, np.array([1.0, 0.0]))
        assert trace.iterations == 1
        assert all(s <= 1e-12 for s in trace.step_norm)

    def test_max_iter_returns_unconverged(self):
        a = np.diag([4.0, 3.9])
        oracle = GradientOracle(
            value=lambda v: float(v @ a @ v), grad=lambda v: 2.0 * (a @ v)
        )
        cfg = SolverConfig(epsilon=1e-10, max_iter=2)
        _, trace = sphere_maximize(oracle, cfg, np.array([0.6, 0.8]))
        assert not trace.converged
        assert trace.iterations == 2

    def test_zero_start_rejected(self):
        oracle = GradientOracle(value=lambda v: 1.0, grad=lambda v: v)
        with pytest.raises(BadStartError, match="^start vector is zero$"):
            sphere_maximize(oracle, SolverConfig(), np.zeros(2))

    def test_start_without_positive_objective_rejected(self):
        oracle = GradientOracle(value=lambda v: 0.0, grad=lambda v: v)
        with pytest.raises(BadStartError, match="^objective is not positive at the start vector$"):
            sphere_maximize(oracle, SolverConfig(), np.array([3.0, 4.0]))

    @pytest.mark.parametrize("delta", [1e-8, 1e-14])
    @pytest.mark.parametrize("seed", [17, 29, 193])
    def test_ascent_bound_holds_down_to_roundoff_steps(self, seed, delta):
        # criterion 03's instances from random starts, where psi ends 13-99 times
        # above psi[0]: the bound 2*dpsi/||grad|| is relative to psi, while
        # 2*dpsi/(m*psi[0]) read a one-ulp dip of psi as a violated bound
        bs = random_blockset(1000 + seed, n=int(8 + (seed % 20)))
        cfg = SolverConfig(m=2.0, epsilon=delta, max_iter=100_000, init="random", seed=seed)
        sol = solve(bs, random_modes(seed, bs), cfg)  # a violation raises InternalAssertionError
        assert sol.trace.converged and sol.trace.step_norm[-1] <= delta


class TestSolve:
    def test_two_identical_single_column_blocks(self):
        x = np.array([[1.0], [-1.0]])
        bs = build_blockset([from_matrix("a", x), from_matrix("b", x)])
        cfg = SolverConfig(m=2.0, epsilon=1e-10)
        sol = solve(bs, uniform_modes("A", "A", 2), cfg)
        np.testing.assert_allclose(np.abs(sol.w_super), [1, 1] / np.sqrt(2), atol=1e-8)
        assert sol.w_super[0] > 0  # sign convention: largest entry positive
        np.testing.assert_allclose(sol.y_super, [np.sqrt(2.0), -np.sqrt(2.0)], atol=1e-8)
        np.testing.assert_allclose(sol.covs, [np.sqrt(2.0)] * 2, atol=1e-8)
        np.testing.assert_allclose(sol.contributions, [0.5, 0.5], atol=1e-10)
        assert sol.trace.psi[-1] == pytest.approx(4.0, abs=1e-9)

    def test_sign_flipped_block_keeps_contributions(self):
        x = np.array([[1.0], [-1.0]])
        bs = build_blockset([from_matrix("a", x), from_matrix("b", -x)])
        cfg = SolverConfig(m=2.0, epsilon=1e-10)
        sol = solve(bs, uniform_modes("A", "A", 2), cfg)
        np.testing.assert_allclose(sol.contributions, [0.5, 0.5], atol=1e-10)
        # weights disagree in sign, components track the superblock either way
        assert np.sign(sol.w_blocks[0][0]) != np.sign(sol.w_blocks[1][0])

    def test_single_block_recovers_first_pc(self):
        rng = np.random.default_rng(7)
        x = from_matrix("x", rng.standard_normal((15, 4))).matrix
        bs = build_blockset([from_matrix("x", x)])
        for m in (2.0, 3.0):
            cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=20_000)
            sol = solve(bs, uniform_modes("A", "A", 1), cfg)
            _, _, vt = np.linalg.svd(x)
            cos = abs(vt[0] @ sol.w_super)
            assert cos >= 1 - 1e-9
            np.testing.assert_allclose(sol.contributions, [1.0])

    def test_constraints_hold_for_shrinkage(self):
        for seed in range(5):
            bs = random_blockset(seed, b=3, n=15, js=[2, 3, 2])
            modes = ModeSelector.from_taus([0.0, 0.3, 1.0], 0.3)
            cfg = SolverConfig(m=2.0, epsilon=1e-10)
            sol = solve(bs, modes, cfg)
            metrics = build_metrics(bs, modes)
            for w, met in zip(sol.w_blocks + [sol.w_super], metrics):
                assert w @ factor_power(met, 1.0) @ w == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_trace(self, seed):
        bs = random_blockset(seed, n=12)
        modes = random_modes(seed, bs)
        m = random_m(seed)
        cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=2000)
        sol = solve(bs, modes, cfg)
        psi = np.array(sol.trace.psi)
        assert np.all(np.diff(psi) >= -1e-12)

    def test_multi_start_deterministic(self):
        bs = random_blockset(11, b=3, n=10, js=[1, 1, 1])
        modes = uniform_modes("B", "B", 3)
        cfg = SolverConfig(m=1.0, epsilon=1e-10, n_starts=5, seed=3, init="random")
        s1 = solve(bs, modes, cfg)
        s2 = solve(bs, modes, cfg)
        np.testing.assert_array_equal(s1.y_super, s2.y_super)
        np.testing.assert_array_equal(s1.trace.psi, s2.trace.psi)

    def test_degenerate_spectrum_warns(self):
        # orthogonal equal-norm columns give a numerically multiple top
        # eigenvalue for the eigen start
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        bs = build_blockset([from_matrix("x", x)])
        sol = solve(bs, uniform_modes("A", "A", 1), SolverConfig(m=2.0))
        assert any("multiple" in w for w in sol.trace.warnings)

    def test_m2_matches_dense_eigensolver(self):
        for seed in range(4):
            bs = random_blockset(seed + 40, n=14)
            modes = random_modes(seed, bs, taus=(0.3, 1.0))
            cfg = SolverConfig(m=2.0, epsilon=1e-10, init="random", seed=1,
                              max_iter=50_000)
            sol = solve(bs, modes, cfg)
            metrics = build_metrics(bs, modes)
            problem = transform(bs, metrics, 2.0)
            vals, vecs = np.linalg.eigh(reference_gram(q_blocks(problem)))
            if (vals[-1] - vals[-2]) / vals[-1] < 1e-3:
                continue
            cos = abs(vecs[:, -1] @ superblock_coordinates(sol, metrics[-1]))
            assert cos >= 1 - 1e-8


class TestBackMapping:
    def test_sumcor_criterion_identity(self):
        bs = full_rank_blockset(21)
        modes = uniform_modes("B", "B", bs.n_blocks)
        cfg = SolverConfig(m=1.0, epsilon=1e-10, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        ys = [y / np.sqrt(sample_cov(y, y)) for y in sol.y_blocks]
        total = sum(sample_cov(a, b) for a in ys for b in ys)
        assert sol.trace.psi[-1] == pytest.approx(np.sqrt(total), abs=1e-8)

    def test_superblock_is_sum_of_components_m1_mode_b(self):
        bs = latent_blockset(22)
        modes = uniform_modes("A", "B", bs.n_blocks)
        cfg = SolverConfig(m=1.0, epsilon=1e-10, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        s = np.sum(sol.y_blocks, axis=0)
        expected = s / np.sqrt(sample_cov(s, s))
        np.testing.assert_allclose(sol.y_super, expected, atol=1e-8)

    def test_reconstruction_matches_for_every_metric(self):
        for seed in (30, 31):
            bs = latent_blockset(seed)
            modes = random_modes(seed, bs)
            m = random_m(seed)
            cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=50_000)
            sol = solve(bs, modes, cfg)
            rec = superblock_from_block_components(sol, bs, modes.superblock_tau, m)
            assert np.linalg.norm(rec - sol.y_super) / np.linalg.norm(sol.y_super) <= 1e-8

    def test_mode_b_superblock_component_is_pc_of_components(self):
        bs = latent_blockset(23)
        modes = uniform_modes("A", "B", bs.n_blocks)
        cfg = SolverConfig(m=2.0, epsilon=1e-10, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        yy = component_matrix(sol) @ component_matrix(sol).T
        image = yy @ sol.y_super
        lam = (sol.y_super @ image) / (sol.y_super @ sol.y_super)
        assert np.linalg.norm(image - lam * sol.y_super) / lam <= 1e-8

    def test_mode_a_component_identity(self):
        bs = random_blockset(24, b=3, n=16, js=[2, 3, 2])
        modes = uniform_modes("A", "A", 3)
        cfg = SolverConfig(m=2.0, epsilon=1e-10)
        sol = solve(bs, modes, cfg)
        yy = component_matrix(sol) @ component_matrix(sol).T @ sol.y_super
        xx = bs.superblock @ (bs.superblock.T @ sol.y_super)
        np.testing.assert_allclose(yy, xx, atol=1e-8)

    def test_fixed_point_residuals_agree(self):
        bs = latent_blockset(25)
        modes = uniform_modes("A", "A", bs.n_blocks)
        cfg = SolverConfig(m=2.0, epsilon=1e-10, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        r_orig = reference_residual(sol.y_super, bs, modes, 2.0)
        assert r_orig <= 1e-6
        assert abs(r_orig - sol.trace.fixed_point_residual) <= 1e-8

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
            SolverConfig(m=m, epsilon=1e-10, max_iter=200_000),
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
        assert sol.trace.psi[-1] == pytest.approx(sum(c**m for c in sol.covs), abs=1e-12)

    def test_random_component_is_not_stationary(self):
        bs = random_blockset(26, b=3, n=14, js=[2, 2, 3])
        modes = uniform_modes("A", "A", 3)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(bs.n)
        y -= y.mean()
        assert reference_residual(y, bs, modes, 2.0) > 0.01

    def test_exact_first_pc_is_a_fixed_point(self):
        # single block, Mode A: the leading principal component solves the
        # stationary equation exactly, no solver involved
        rng = np.random.default_rng(27)
        bs = build_blockset([from_matrix("x", rng.standard_normal((12, 4)))])
        modes = uniform_modes("A", "A", 1)
        u, s, _ = np.linalg.svd(bs.superblock, full_matrices=False)
        y = u[:, 0] * s[0]
        assert reference_residual(y, bs, modes, 2.0) <= 1e-10


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
        modes = uniform_modes("B", "B", 3)
        cfg = SolverConfig(m=2.0, epsilon=1e-10, max_iter=100_000)
        sol = solve(bs, modes, cfg)
        assert any("least-norm" in w for w in sol.trace.warnings)
        assert sample_cov(sol.y_super, sol.y_super) == pytest.approx(1.0, abs=1e-10)
        rec = superblock_from_block_components(sol, bs, modes.superblock_tau, 2.0)
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
    """The superblock-free loop and the explicit Mode B superblock solve."""

    def test_matches_explicit_superblock_solve(self):
        bs = full_rank_blockset(27)
        modes = uniform_modes("B", "B", bs.n_blocks)
        cfg = SolverConfig(m=2.0, epsilon=1e-10, max_iter=50_000)
        sol = solve(bs, modes, cfg)
        y_aux, _, values = reference_auxiliary_solve(bs, modes.block_taus, 2.0, epsilon=1e-14)
        cos = abs(y_aux @ sol.y_super) / (
            np.linalg.norm(y_aux) * np.linalg.norm(sol.y_super)
        )
        assert cos >= 1 - 1e-6
        assert np.all(np.diff(values) >= -1e-12)

    @staticmethod
    def assert_residual_is_loop_step(bs, modes, m, y0=None, steps=4):
        # with a Mode B superblock of full column rank the stationary image
        # is the loop's next iterate, so the residual is the step length
        for k in range(1, steps + 1):
            y, _, _ = reference_auxiliary_solve(
                bs, modes.block_taus, m, epsilon=-np.inf, max_iter=k - 1, y0=y0
            )
            y_next, _, _ = reference_auxiliary_solve(
                bs, modes.block_taus, m, epsilon=-np.inf, max_iter=k, y0=y0
            )
            step = np.linalg.norm(y_next / np.linalg.norm(y_next) - y / np.linalg.norm(y))
            assert abs(reference_residual(y, bs, modes, m) - step) <= 1e-12

    def test_matches_reference_loop(self):
        bs = full_rank_blockset(27)
        self.assert_residual_is_loop_step(bs, uniform_modes("B", "B", bs.n_blocks), 2.0)

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
            modes = uniform_modes(block_mode, "B", bs.n_blocks)
            metrics = build_metrics(bs, modes)
            c0, _ = _eigen_start(transform(bs, metrics, m))
            y0 = metrics[-1].image(bs.superblock).T @ c0
            self.assert_residual_is_loop_step(bs, modes, m, y0=y0)


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
