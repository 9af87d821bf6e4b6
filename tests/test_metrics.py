import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import factor_power as power
from rcpca import ModeSelector, build_metric, from_matrix
from rcpca.errors import ModeBInfeasibleError


def random_block_matrix(seed, n=12, j=4):
    rng = np.random.default_rng(seed)
    return from_matrix("x", rng.standard_normal((n, j))).matrix


def projector(x):
    """X M^+ X' / n from the Mode B metric: the projector onto col(X)."""
    return x @ power(build_metric(x, tau=0.0), -1.0) @ x.T / x.shape[0]


class TestBuildMetric:
    def test_mode_a_is_identity(self):
        x = random_block_matrix(0)
        met = build_metric(x, tau=1.0)
        np.testing.assert_allclose(power(met, 1.0), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(power(met, -1.0), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(power(met, -0.5), np.eye(4), atol=1e-12)

    def test_mode_b_single_column(self):
        x = np.array([[1.0], [-1.0]])
        met = build_metric(x, tau=0.0)
        np.testing.assert_allclose(power(met, 1.0), [[1.0]])
        np.testing.assert_allclose(power(met, -1.0), [[1.0]])

    def test_half_shrinkage_single_column(self):
        x = np.array([[1.0], [-1.0]])
        met = build_metric(x, tau=0.5)
        np.testing.assert_allclose(power(met, 1.0), [[1.0]])

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("shape", [(12, 4), (6, 15)])
    def test_variances_are_the_gram_eigenvalues_at_every_tau(self, tau, shape):
        # kept at tau = 1 too, where every eigenvalue of M is 1
        x = random_block_matrix(4, *shape)
        met = build_metric(x, tau)
        v = met.eigenvectors
        np.testing.assert_allclose(x.T @ (x @ v) / shape[0], v * met.variances, atol=1e-12)
        np.testing.assert_array_equal(met.eigenvalues, tau + (1.0 - tau) * met.variances)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            build_metric(random_block_matrix(1), tau=1.5)

    def test_full_row_rank_mode_b_rejected(self):
        with pytest.raises(ModeBInfeasibleError, match="tau"):
            build_metric(np.eye(2), tau=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    def test_continuum_is_affine_in_tau(self, seed, tau):
        x = random_block_matrix(seed)
        m_a = power(build_metric(x, 1.0), 1.0)
        m_b_raw = (x.T @ x) / x.shape[0]
        met = build_metric(x, tau) if tau > 0 else build_metric(x, 0.0)
        np.testing.assert_allclose(
            power(met, 1.0), tau * m_a + (1 - tau) * m_b_raw, atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    def test_inverse_and_root_are_consistent(self, seed, tau):
        x = random_block_matrix(seed)
        met = build_metric(x, tau)
        inv_sqrt = power(met, -0.5)
        if tau > 0:
            np.testing.assert_allclose(
                inv_sqrt @ power(met, 1.0) @ inv_sqrt, np.eye(4), atol=1e-8
            )
            assert met.eigenvalues.min() >= tau - 1e-10
        np.testing.assert_allclose(inv_sqrt @ inv_sqrt, power(met, -1.0), atol=1e-8)

    def test_pseudo_inverse_on_rank_deficient_mode_b(self):
        # two perfectly collinear columns: rank 1 out of 2
        base = np.array([1.0, -1.0, 2.0, -2.0])
        x = np.column_stack([base, 2 * base])
        x = x - x.mean(axis=0)
        met = build_metric(x, tau=0.0)
        assert met.pseudo
        assert met.rank == 1
        # inverse annihilates the null space: M M^+ M = M
        m_mat = power(met, 1.0)
        np.testing.assert_allclose(
            m_mat @ power(met, -1.0) @ m_mat, m_mat, atol=1e-10
        )


class TestInvSqrtApply:
    def test_identity_metric_leaves_w(self):
        met = build_metric(random_block_matrix(3), tau=1.0)
        w = np.arange(8.0).reshape(4, 2)
        np.testing.assert_allclose(power(met, -0.5) @ w, w, atol=1e-12)

    def test_diagonal_metric(self):
        # (1/n) X'X = diag(4, 1) for this block
        x = np.array([
            [np.sqrt(8.0), 0.0],
            [-np.sqrt(8.0), 0.0],
            [0.0, np.sqrt(2.0)],
            [0.0, -np.sqrt(2.0)],
        ])
        met = build_metric(x, tau=0.0)
        np.testing.assert_allclose(power(met, 1.0), np.diag([4.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(
            power(met, -0.5), np.diag([0.5, 1.0]), atol=1e-12
        )

    def test_null_space_annihilated(self):
        # (1/n) X'X = diag(1, 0)
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        met = build_metric(x, tau=0.0)
        np.testing.assert_allclose(power(met, 1.0), np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(
            power(met, -0.5) @ [0.0, 1.0], [0.0, 0.0], atol=1e-12
        )


class TestProjector:
    def test_single_column_hand_value(self):
        np.testing.assert_allclose(
            projector(np.array([[1.0], [-1.0]])), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12
        )

    def test_full_row_rank_rejected(self):
        with pytest.raises(ModeBInfeasibleError):
            projector(np.eye(2))

    def test_identity_on_column_space(self):
        x = random_block_matrix(5, n=10, j=3)
        np.testing.assert_allclose(projector(x) @ x, x, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_idempotent(self, seed):
        x = random_block_matrix(seed, n=9, j=4)
        p = projector(x)
        np.testing.assert_allclose(p, p.T, atol=1e-10)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)

    def test_rank_of_collinear_block(self):
        base = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        x = np.column_stack([base, 2 * base, base[::-1]])
        x = x - x.mean(axis=0)
        assert np.trace(projector(x)) == pytest.approx(2.0, abs=1e-10)


class TestModeSelector:
    def test_uniform(self):
        sel = ModeSelector.uniform("A", "B", 3)
        assert sel.block_taus == (1.0, 1.0, 1.0)
        assert sel.superblock_tau == 0.0

    def test_explicit(self):
        sel = ModeSelector.from_taus([0.0, 0.3, "A"], 0.5)
        assert sel.block_taus == (0.0, 0.3, 1.0)
        assert sel.superblock_tau == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ModeSelector((1.2,), 0.0)
