import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import rcpca
from helpers import component_matrix, full_rank_blockset, latent_blockset, uniform_modes
from rcpca import (
    MethodPreset,
    SolverConfig,
    build_blockset,
    from_matrix,
    guide,
    preset,
    preset_names,
    solve,
    verify_stationary,
)
from rcpca.errors import CatalogError, SingularGradientError, UnsupportedVerificationError


def converged(bs, modes, m, eps=1e-10):
    cfg = SolverConfig(m=m, epsilon=eps, max_iter=100_000)
    return solve(bs, modes, cfg)


class TestCatalog:
    def test_consensus_pca(self):
        p = preset("consensus_pca")
        assert p.m == 2.0
        assert p.tau_blocks == 1.0 and p.tau_superblock == 1.0
        assert p.selector(3).block_taus == (1.0, 1.0, 1.0)

    def test_hierarchical_pca(self):
        p = preset("hierarchical_pca")
        assert p.m == 4.0
        assert p.tau_blocks == 1.0 and p.tau_superblock == 0.0

    def test_sumcor(self):
        p = preset("sumcor")
        assert p.m == 1.0
        assert p.tau_blocks == 0.0 and p.tau_superblock == 0.0
        assert "Horst" in p.citation

    def test_gcca_and_maxvar_share_config(self):
        a, b = preset("gcca_carroll"), preset("maxvar")
        assert (a.m, a.tau_blocks, a.tau_superblock) == (b.m, b.tau_blocks, b.tau_superblock)
        assert "Carroll" in a.citation

    def test_redundancy_presets_leave_m_free(self):
        p = preset("redundancy_blocks")
        assert p.m is None
        with pytest.raises(CatalogError, match="free"):
            p.selector(3)
        q = preset("redundancy_blocks", m=3.0)
        assert q.m == 3.0
        assert q.selector(2).block_taus == (1.0, 1.0)
        assert q.tau_superblock == 0.0
        r = preset("redundancy_superblock", m=2.0)
        assert r.selector(2).block_taus == (0.0, 0.0)
        assert r.tau_superblock == 1.0

    def test_mixed_needs_split(self):
        p = preset("mixed_carroll")
        with pytest.raises(CatalogError, match="split"):
            p.selector(4)
        q = preset("mixed_carroll", split=2)
        assert q.selector(4).block_taus == (0.0, 0.0, 1.0, 1.0)
        assert q.tau_superblock == 0.0

    def test_grid_has_ten_rows(self):
        rows = sorted(
            preset(n).grid_row
            for n in preset_names()
            if n.startswith("m") and preset(n).citation == "method grid"
        )
        assert rows == list(range(1, 11))

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(CatalogError, match="consensus_pca"):
            preset("nope")

    def test_fixed_m_cannot_be_overridden(self):
        with pytest.raises(CatalogError):
            preset("consensus_pca", m=3.0)

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), 0.5])
    def test_free_m_must_be_finite_and_at_least_one(self, m):
        with pytest.raises(CatalogError, match="finite and >= 1"):
            preset("redundancy_blocks", m=m)


class TestVerifyStationary:
    def test_consensus_pca_fixed_point(self):
        bs = latent_blockset(1)
        p = preset("consensus_pca")
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        assert verify_stationary(p, sol, bs).residual <= 1e-6

    def test_hierarchical_pca_fixed_point(self):
        bs = latent_blockset(2)
        p = preset("hierarchical_pca")
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        assert verify_stationary(p, sol, bs).residual <= 1e-6

    def test_gcca_fixed_point(self):
        bs = latent_blockset(3)
        p = preset("gcca_carroll")
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        assert verify_stationary(p, sol, bs).residual <= 1e-6

    def test_sumcor_fixed_point(self):
        bs = latent_blockset(4)
        p = preset("sumcor")
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        assert verify_stationary(p, sol, bs).residual <= 1e-6

    def test_mixed_fixed_point(self):
        bs = latent_blockset(5)
        p = preset("mixed_carroll", split=2)
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        assert verify_stationary(p, sol, bs).residual <= 1e-6

    @pytest.mark.parametrize("split", [0, 4])
    def test_out_of_range_split_rejected(self, split):
        # the same check as the preset's selector: 1 <= split <= B
        bs = latent_blockset(5)
        sol = converged(bs, preset("mixed_carroll", split=2).selector(bs.n_blocks), 2.0)
        with pytest.raises(CatalogError, match="split must lie in 1..3"):
            verify_stationary(preset("mixed_carroll", split=split), sol, bs)

    def test_redundancy_blocks_any_m(self):
        bs = latent_blockset(6)
        for m in (1.0, 3.0, 4.0):
            p = preset("redundancy_blocks", m=m)
            sol = converged(bs, p.selector(bs.n_blocks), m)
            assert verify_stationary(p, sol, bs).residual <= 1e-6

    def test_redundancy_superblock_any_m(self):
        bs = latent_blockset(7)
        for m in (1.0, 2.0):
            p = preset("redundancy_superblock", m=m)
            sol = converged(bs, p.selector(bs.n_blocks), m)
            assert verify_stationary(p, sol, bs).residual <= 1e-6

    def test_random_component_fails_the_check(self):
        bs = latent_blockset(8)
        p = preset("consensus_pca")
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(bs.n)
        y -= y.mean()
        hacked = dataclasses.replace(sol, y_super=y)
        assert verify_stationary(p, hacked, bs).residual > 0.01

    @pytest.mark.parametrize("name", [n for n in preset_names()
                                      if preset(n).citation == "method grid"])
    def test_every_grid_row_fixed_point(self, name):
        bs = latent_blockset(9)
        p = preset(name)
        sol = converged(bs, p.selector(bs.n_blocks), p.m)
        assert verify_stationary(p, sol, bs).residual <= 1e-6


    @pytest.mark.parametrize("tau_blocks, tau_superblock", [(0.5, 1.0), (1.0, 0.25)])
    def test_fractional_shrinkage_is_unsupported(self, tau_blocks, tau_superblock):
        bs = latent_blockset(9)
        p = MethodPreset("hand_built", 2.0, tau_blocks, tau_superblock, "none")
        with pytest.raises(UnsupportedVerificationError, match="fractional shrinkage"):
            verify_stationary(p, SimpleNamespace(y_super=np.ones(bs.n)), bs)


class TestVerifyStationaryVanishedTerm:
    """The component lies in block p, orthogonal to block q, so q's term is exactly zero."""

    blockset = build_blockset([
        from_matrix("p", [[1.0], [-1.0], [0.0], [0.0]], scale=False),
        from_matrix("q", [[0.0], [0.0], [2.0], [-2.0]], scale=False),
    ])
    component = SimpleNamespace(y_super=np.array([1.0, -1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("name, message", [
        ("m1_ab", "block 'q': cross-term vanished"),
        ("sumcor", "block 'q': projection vanished"),
    ])
    def test_raises_below_m_2(self, name, message):
        with pytest.raises(SingularGradientError, match=f"^{message}$"):
            verify_stationary(preset(name), self.component, self.blockset)

    @pytest.mark.parametrize("name", ["consensus_pca", "hierarchical_pca", "gcca_carroll"])
    def test_skipped_from_m_2(self, name):
        # only p's term is left, and it maps the component onto itself
        check = verify_stationary(preset(name), self.component, self.blockset)
        assert check.residual <= 1e-15

    def test_every_term_vanished_scores_sqrt_2(self):
        # X_b'y = 0 exactly for both blocks, so the image is zero and has no direction
        component = SimpleNamespace(y_super=np.array([1.0, 1.0, -1.0, -1.0]))
        check = verify_stationary(preset("consensus_pca"), component, self.blockset)
        assert check.residual == np.sqrt(2.0)


class TestPresetEquivalences:
    def test_m2_mode_a_component_is_eigenvector_twice(self):
        # superblock component solves both eigenproblems at once
        bs = latent_blockset(10)
        p = preset("consensus_pca")
        sol = converged(bs, p.selector(bs.n_blocks), 2.0)
        y = sol.y_super
        for op in (
            bs.superblock @ (bs.superblock.T @ y),
            component_matrix(sol) @ (component_matrix(sol).T @ y),
        ):
            lam = (y @ op) / (y @ y)
            assert np.linalg.norm(op - lam * y) / lam <= 1e-6

    def test_m2_superblock_mode_does_not_change_direction(self):
        # Mode A vs Mode B superblock: same solution up to normalization
        bs = full_rank_blockset(11)
        sol_a = converged(bs, uniform_modes("A", "A", bs.n_blocks), 2.0)
        sol_b = converged(bs, uniform_modes("A", "B", bs.n_blocks), 2.0)
        cos = abs(sol_a.y_super @ sol_b.y_super) / (
            np.linalg.norm(sol_a.y_super) * np.linalg.norm(sol_b.y_super)
        )
        assert cos >= 1 - 1e-8
        for wa, wb in zip(sol_a.w_blocks, sol_b.w_blocks):
            sign = 1.0 if wa @ wb >= 0 else -1.0
            np.testing.assert_allclose(wa, sign * wb, atol=1e-7)


class TestGuide:
    def test_all_pairs_present(self):
        assert guide("A", "A").generalization == "Tucker's inter-battery factor analysis"
        assert guide("B", "B").generalization == "Canonical correlation analysis"
        assert "Redundancy analysis of a block" in guide("A", "B").generalization
        assert "Redundancy analysis of the superblock" in guide("B", "A").generalization

    def test_case_insensitive(self):
        assert guide("a", "b") == guide("A", "B")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            guide("A", "C")


def test_public_api_is_pinned():
    # a helper only the tests need belongs in tests/helpers.py, not here
    assert set(rcpca.__all__) == {
        "__version__", "errors",
        "Block", "BlockSet", "build_blockset", "from_matrix", "load_block",
        "ModeSelector", "ShrinkageMetric", "build_metric",
        "GradientOracle", "Solution", "SolverConfig", "SolverTrace", "TransformedProblem",
        "contributions", "solve", "solve_matrices", "sphere_maximize",
        "MethodPreset", "ModeGuidance", "StationaryCheck", "RELATED_FIXED_POINT_METHODS",
        "guide", "preset", "preset_names", "verify_stationary",
        "DeflationStrategy", "MultiSolution", "extract",
    }
