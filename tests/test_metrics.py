import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    eigenbasis,
    eigh_factor,
    is_pseudo,
    latent_blockset,
    reference_metric_power,
    uniform_modes,
    without_cholesky,
)
from helpers import factor_power as power
from rcpca import (
    ModeSelector,
    SolverConfig,
    build_blockset,
    build_metric,
    from_matrix,
    preset,
    solve,
)
from rcpca.errors import ModeBInfeasibleError
from rcpca.metrics import DEFAULT_RANK_TOLERANCE


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
        # kept at tau = 1 too, where every eigenvalue of M is 1; a tall Mode B
        # block of full rank has a Cholesky factor instead: G B = L = cross, B'GB = I
        x = random_block_matrix(4, *shape)
        met = build_metric(x, tau)
        if tau == 0.0 and shape[1] < shape[0]:
            b = met.factor
            assert met.variances is None
            np.testing.assert_allclose(x.T @ (x @ b) / shape[0], met.cross, atol=1e-12)
            np.testing.assert_allclose(b.T @ met.cross, np.eye(shape[1]), atol=1e-12)
            return
        v = eigenbasis(met)
        np.testing.assert_allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-12)
        np.testing.assert_allclose(x.T @ (x @ v) / shape[0], v * met.variances, atol=1e-12)
        for got, expected in zip((met.factor, met.cross, met.variances), eigh_factor(x, tau)):
            np.testing.assert_array_equal(got, expected)

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
        # the whitener B: B'MB = I and BB' = M^(-1), from either factor; the
        # symmetric root M^(-1/2) = V diag(lambda^(-1/2)) V' from an eigenbasis
        x = random_block_matrix(seed)
        met = build_metric(x, tau)
        whitener = met.factor
        dense = tau * np.eye(4) + (1.0 - tau) * (x.T @ x) / x.shape[0]
        np.testing.assert_allclose(whitener.T @ dense @ whitener, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(
            whitener @ whitener.T, reference_metric_power(x, tau, -1.0), atol=1e-8
        )
        if tau > 0:
            inv_sqrt = power(met, -0.5)
            np.testing.assert_allclose(
                inv_sqrt @ power(met, 1.0) @ inv_sqrt, np.eye(4), atol=1e-8
            )
            assert (tau + (1.0 - tau) * met.variances).min() >= tau - 1e-10
            np.testing.assert_allclose(inv_sqrt @ inv_sqrt, power(met, -1.0), atol=1e-8)

    def test_pseudo_inverse_on_rank_deficient_mode_b(self):
        # two perfectly collinear columns: rank 1 out of 2
        base = np.array([1.0, -1.0, 2.0, -2.0])
        x = np.column_stack([base, 2 * base])
        x = x - x.mean(axis=0)
        met = build_metric(x, tau=0.0)
        assert is_pseudo(met)
        assert met.rank == 1
        # inverse annihilates the null space: M M^+ M = M
        m_mat = power(met, 1.0)
        np.testing.assert_allclose(
            m_mat @ power(met, -1.0) @ m_mat, m_mat, atol=1e-10
        )


def spectrum_matrix(gram_eigenvalues, n=40, seed=0):
    """A centred n x J matrix whose Gram X'X/n has exactly these eigenvalues."""
    rng = np.random.default_rng(seed)
    g = np.asarray(gram_eigenvalues, dtype=float)
    z = rng.standard_normal((n, g.size))
    u = np.linalg.qr(z - z.mean(axis=0))[0]
    return (u * np.sqrt(n * g)) @ np.linalg.qr(rng.standard_normal((g.size, g.size)))[0].T


def certified_bound(x):
    """||G||_F tr(G^(-1)) = ||G||_F ||L^(-1)||_F^2, the bound the Cholesky route checks."""
    gram = x.T @ x / x.shape[0]
    return np.linalg.norm(gram) * np.trace(np.linalg.inv(gram))


# tau = 0 inputs the eigendecomposition factors, as before the Cholesky route:
# (matrix, rank, pseudo)
EIGH_ROUTE_INPUTS = {
    "duplicated_column": (lambda: (lambda b: np.column_stack([b, b[:, 2]]))(
        random_block_matrix(21, n=25, j=4)), 4, True),
    "square": (lambda: random_block_matrix(22, n=10, j=10), 9, True),
    "wide": (lambda: random_block_matrix(23, n=6, j=15), 5, True),
    # kappa = 8.3e9 below 1 / DEFAULT_RANK_TOLERANCE, its bound 1.25e10 above it
    "kappa_just_above_the_bound": (lambda: spectrum_matrix([1.0, 0.5, 1.0, 1.2e-10]), 4, False),
    "kappa_above_1e10": (lambda: spectrum_matrix([1.0, 0.5, 1.0, 1e-12]), 3, True),
}


class TestFactorRoute:
    """tau = 0 with J < n: a Cholesky factor when G = X'X/n is certifiably of full rank."""

    @pytest.mark.parametrize("j", [1, 6, 32, 33, 70])  # one, two and three diagonal blocks
    def test_cholesky_factor(self, j):
        n = 3 * j + 10
        x = random_block_matrix(j, n=n, j=j)
        gram = x.T @ x / n
        met = build_metric(x, 0.0)
        assert met.variances is None and not is_pseudo(met) and met.rank == j
        np.testing.assert_array_equal(met.cross, np.linalg.cholesky(gram))  # GB = L
        b = met.factor
        assert not np.tril(b, -1).any()  # B = L^(-T) is upper triangular
        np.testing.assert_allclose(b.T @ gram @ b, np.eye(j), atol=1e-12)  # B'GB = I
        np.testing.assert_allclose(gram @ b, met.cross, atol=1e-12)
        inverse = np.linalg.inv(gram)  # BB' = G^(-1)
        assert np.linalg.norm(b @ b.T - inverse) <= 1e-13 * np.linalg.norm(inverse)

    def test_certified_bound_decides_the_route(self):
        # kappa = 5e9 and 8.3e9, both below 1 / DEFAULT_RANK_TOLERANCE; with
        # ||G||_F = 1.5 the bound is 7.5e9 and 1.25e10
        below = spectrum_matrix([1.0, 0.5, 1.0, 2.0e-10])
        above = spectrum_matrix([1.0, 0.5, 1.0, 1.2e-10])
        assert certified_bound(below) < 1.0 / DEFAULT_RANK_TOLERANCE < certified_bound(above)
        assert build_metric(below, 0.0).variances is None
        met = build_metric(above, 0.0)
        assert met.variances is not None and met.rank == 4 and not is_pseudo(met)

    @pytest.mark.parametrize("name", sorted(EIGH_ROUTE_INPUTS))
    def test_eigh_route_inputs_keep_their_factor(self, name):
        make, rank, pseudo = EIGH_ROUTE_INPUTS[name]
        x = make()
        met = build_metric(x, 0.0)
        assert met.variances is not None
        assert (met.rank, is_pseudo(met)) == (rank, pseudo)
        fields = (met.factor, met.cross, met.variances)
        for got, expected in zip(fields, eigh_factor(x, 0.0)):
            np.testing.assert_array_equal(got, expected)

    def test_tau_above_zero_keeps_the_eigendecomposition(self):
        x = random_block_matrix(24, n=30, j=6)
        for tau in (1e-12, 0.3, 1.0):
            met = build_metric(x, tau)
            for got, expected in zip((met.factor, met.cross, met.variances),
                                     eigh_factor(x, tau)):
                np.testing.assert_array_equal(got, expected)

    def test_kappa_above_1e10_takes_the_pseudo_route_and_warns(self):
        x = spectrum_matrix([1.0, 0.5, 1.0, 1e-12])
        bs = build_blockset([from_matrix("x", x, scale=False)])
        warnings = solve(bs, uniform_modes("A", "B", 1), SolverConfig()).trace.warnings
        assert any(w.startswith("superblock is rank deficient under Mode B") for w in warnings)
        warnings = solve(bs, uniform_modes("B", "B", 1), SolverConfig()).trace.warnings
        assert any(w.startswith("block 'x' is rank deficient under Mode B") for w in warnings)

    def test_without_cholesky_gives_the_eigh_factor(self, monkeypatch):
        x = random_block_matrix(25, n=30, j=6)
        without_cholesky(monkeypatch)
        met = build_metric(x, 0.0)
        for got, expected in zip((met.factor, met.cross, met.variances),
                                 eigh_factor(x, 0.0)):
            np.testing.assert_array_equal(got, expected)


def extended_basis(x):
    """An orthonormal basis of col(X) in np.longdouble: Gram-Schmidt, twice per column."""
    q = np.asarray(x, dtype=np.longdouble).copy()
    for k in range(q.shape[1]):
        for _ in range(2):
            q[:, k] -= q[:, :k] @ (q[:, :k].T @ q[:, k])
        q[:, k] /= np.sqrt(q[:, k] @ q[:, k])
    return q


def chordal_distance(y, ref):
    """||y/|y| -+ ref|| in np.longdouble, the sign of ref chosen to match y."""
    a, b = (np.asarray(v, dtype=np.longdouble) for v in (y, ref))
    a, b = a / np.sqrt(a @ a), b / np.sqrt(b @ b)
    d = a - np.sign(a @ b) * b
    return float(np.sqrt(d @ d))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is not extended")
class TestRouteError:
    """Both routes against an extended-precision solution.

    Under gcca_carroll (m = 2, every metric Mode B) the superblock component
    is the top eigenvector of sum_b Pi_b, Pi_b the projector onto col(X_b),
    whatever the scales of the columns. Spreading the column scales over
    10^spread leaves the solution alone and raises kappa(X). The eigh route's
    error grows like kappa(X) u (observed up to 8 kappa u); the Cholesky
    factor, which column scaling does not change, stays at roundoff
    (observed at most 4 u).
    """

    @pytest.mark.parametrize("spread", [0, 2, 4])
    def test_superblock_component(self, monkeypatch, spread):
        u = np.finfo(float).eps
        modes = preset("gcca_carroll").selector(3)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            bs = build_blockset([
                from_matrix(b.id, b.matrix * 10.0 ** rng.uniform(-spread / 2, spread / 2, b.n_vars),
                            scale=False)
                for b in latent_blockset(seed, n=40, js=(4, 3, 5)).blocks
            ])
            new = solve(bs, modes, SolverConfig(m=2.0)).y_super
            with monkeypatch.context() as patch:
                without_cholesky(patch)
                old = solve(bs, modes, SolverConfig(m=2.0)).y_super
            bases = [extended_basis(b.matrix) for b in bs.blocks]
            ref = np.asarray(new, dtype=np.longdouble)
            for _ in range(300):  # power iteration, from the solution
                ref = sum(q @ (q.T @ ref) for q in bases)
                ref /= np.sqrt(ref @ ref)
            s = np.linalg.svd(bs.superblock, compute_uv=False)
            kappa = s[0] / s[-1]
            assert chordal_distance(new, ref) <= 16 * u, seed
            assert chordal_distance(old, ref) <= 100 * kappa * u, seed


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
        # the Cholesky factor of a diagonal Gram is its square root
        np.testing.assert_allclose(met.factor, np.diag([0.5, 1.0]), atol=1e-12)

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
        sel = ModeSelector.from_taus(["A"] * 3, "B")
        assert sel.block_taus == (1.0, 1.0, 1.0)
        assert sel.superblock_tau == 0.0

    def test_explicit(self):
        sel = ModeSelector.from_taus([0.0, 0.3, "A"], 0.5)
        assert sel.block_taus == (0.0, 0.3, 1.0)
        assert sel.superblock_tau == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ModeSelector((1.2,), 0.0)
