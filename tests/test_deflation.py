import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    component_correlations,
    data_deflation_extract,
    deficient_superblock,
    latent_blockset,
    random_blockset,
    random_modes,
    scaled_blockset,
    uniform_modes,
    without_cholesky,
)
from rcpca import (
    DeflationStrategy,
    SolverConfig,
    build_blockset,
    deflate,
    deflation,
    extract,
    from_matrix,
    preset,
    preset_names,
    solve,
    solve_matrices,
    solver,
)
from rcpca.metrics import ShrinkageMetric

CFG = SolverConfig(m=2.0, epsilon=1e-10, max_iter=50_000)


def off_diagonal_max(c):
    return np.abs(c - np.diag(np.diag(c))).max()


class TestDeflate:
    def test_hand_computed_residual(self):
        x = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        q = np.array([1.0, -1.0, 0.0])
        e = deflate(x, q)
        np.testing.assert_allclose(e[:, 0], [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(e[:, 1], [0.5, 0.5, -1.0], atol=1e-12)

    def test_own_column_is_zeroed(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        e = deflate(x, x[:, 0])
        np.testing.assert_allclose(e[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(e[:, 1], x[:, 1], atol=1e-12)

    def test_orthogonal_q_is_noop(self):
        x = np.array([[1.0], [-1.0], [0.0]])
        q = np.array([1.0, 1.0, -2.0])
        np.testing.assert_allclose(deflate(x, q), x, atol=1e-12)

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            deflate(np.eye(3), np.zeros(3))

    def test_result_is_orthogonal_to_q(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        q = rng.standard_normal(10)
        e = deflate(x, q)
        assert np.abs(q @ e).max() <= 1e-10 * np.linalg.norm(x)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 3))
        q = rng.standard_normal(8)
        once = deflate(x, q)
        np.testing.assert_allclose(deflate(once, q), once, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6),
        st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]), st.booleans(),
    )
    def test_one_allocation_is_bit_for_bit_the_subtraction(self, seed, n, j, scale, into_view):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, j)) * scale
        x[rng.random((n, j)) < 0.2] = rng.choice([0.0, -0.0])
        q = rng.standard_normal(n) * rng.choice([1e-8, 1.0, 1e8])
        q[rng.random(n) < 0.2] = 0.0
        if not q.any():
            q[0] = 1.0
        expected = x - np.outer(q, (q @ x) / (q @ q))
        if into_view:  # a block's columns of a wider array, as extract writes them
            whole = np.full((n, j + 3), np.nan)
            got = deflate(x, q, whole[:, 2:2 + j])
            assert np.isnan(whole[:, :2]).all() and np.isnan(whole[:, 2 + j:]).all()
        else:
            got = deflate(x, q)
        assert got.shape == expected.shape
        assert np.ascontiguousarray(got).tobytes() == expected.tobytes()

    def test_superblock_deflation_matches_the_blocks(self):
        # global deflates the superblock once; per block is the same regression
        for seed in range(30):
            bs = random_blockset(seed)
            y = solve(bs, random_modes(seed, bs), SolverConfig()).y_super
            per_block = np.hstack([deflate(b.matrix, y) for b in bs.blocks])
            whole = deflate(bs.superblock, y)
            assert np.linalg.norm(whole - per_block) <= 1e-12 * np.linalg.norm(per_block)


class TestExtract:
    @pytest.mark.parametrize("strategy", list(DeflationStrategy))
    def test_blocks_are_superblock_views_without_a_value_check(self, monkeypatch, strategy):
        # only `own` ranks after the first pass a separate superblock, and only
        # there does the transform take the product with the superblock image
        images = []
        image = ShrinkageMetric.image
        monkeypatch.setattr(ShrinkageMetric, "image", lambda met, x: images.append(x) or image(met, x))
        bs = random_blockset(13, b=4, n=30, js=[3, 5, 4, 3])
        modes = uniform_modes("A", "A", 4)
        expected = solve(bs, modes, CFG)
        assert images == []
        with monkeypatch.context() as patch:
            patch.setattr(np, "array_equal", lambda *args: pytest.fail("np.array_equal called"))
            ms = extract(bs, modes, CFG, 3, strategy)
            sol = solve(bs, modes, CFG)
        assert ms.achieved_rank == 3
        assert len(images) == (2 if strategy is DeflationStrategy.OWN else 0)
        for got in (ms.solutions[0], sol):
            np.testing.assert_array_equal(got.y_super, expected.y_super)

    @pytest.mark.parametrize("superblock", ["A", "B"])
    @pytest.mark.parametrize("strategy", list(DeflationStrategy))
    def test_near_collinear_pair_stops_at_the_cap(self, strategy, superblock):
        # [u, u + 10^-k v]: sigma_2 / sigma_1 ~ 10^-k, so the Mode A rank cut
        # (sqrt(40 eps) ~ 1e-7 on singular values) keeps both columns up to
        # k = 6. Below the cap no deflation annihilates the pair (interlacing).
        rng = np.random.default_rng(0)
        u, v, *full = rng.standard_normal((5, 40))
        for k in range(4, 12):
            bs = build_blockset([
                from_matrix("pair", np.column_stack([u, u + 10.0**-k * v])),
                from_matrix("full", np.column_stack(full)),
            ])
            ms = extract(bs, uniform_modes("A", superblock, 2), CFG, 3, strategy)
            cap = 2 if k <= 6 else 1
            assert ms.solutions[0].block_ranks == (cap, 3), k
            assert ms.achieved_rank == cap, k
            assert ms.warnings[0] == (
                f"requested 3 components but the smallest block rank is {cap}; returning {cap}"
            )

    def test_rank_one_equals_plain_solve(self):
        bs = random_blockset(1, b=3, n=15, js=[3, 2, 4])
        modes = uniform_modes("A", "A", 3)
        for strategy in DeflationStrategy:
            ms = extract(bs, modes, CFG, 1, strategy)
            sol = solve(bs, modes, CFG)
            assert ms.achieved_rank == 1
            np.testing.assert_array_equal(ms.solutions[0].y_super, sol.y_super)

    def test_own_strategy_orthogonality(self):
        bs = random_blockset(2, b=3, n=20, js=[4, 4, 4])
        modes = uniform_modes("A", "A", 3)
        blocks, superblock = component_correlations(extract(bs, modes, CFG, 2, "own"))
        for c in blocks:
            assert off_diagonal_max(c) <= 1e-8
        assert off_diagonal_max(superblock) <= 1e-8

    def test_global_strategy_superblock_orthogonality(self):
        bs = random_blockset(3, b=3, n=20, js=[4, 4, 4])
        modes = uniform_modes("A", "A", 3)
        _, superblock = component_correlations(extract(bs, modes, CFG, 2, "global"))
        assert off_diagonal_max(superblock) <= 1e-8

    def test_block_strategy_block_space_and_orthogonality(self):
        bs = random_blockset(4, b=3, n=20, js=[4, 4, 4])
        modes = uniform_modes("A", "A", 3)
        ms = extract(bs, modes, CFG, 3, "block")
        for b, c in enumerate(component_correlations(ms)[0]):
            assert off_diagonal_max(c) <= 1e-8
            basis, _ = np.linalg.qr(bs.blocks[b].matrix)
            for sol in ms.solutions:
                y = sol.y_blocks[b]
                resid = y - basis @ (basis.T @ y)
                assert np.linalg.norm(resid) / np.linalg.norm(y) <= 1e-8

    def test_loading_strategy_keeps_block_space(self):
        bs = random_blockset(5, b=2, n=18, js=[4, 3])
        modes = uniform_modes("A", "A", 2)
        ms = extract(bs, modes, CFG, 2, "loading")
        for b in range(2):
            basis, _ = np.linalg.qr(bs.blocks[b].matrix)
            y = ms.solutions[1].y_blocks[b]
            resid = y - basis @ (basis.T @ y)
            assert np.linalg.norm(resid) / np.linalg.norm(y) <= 1e-8

    def test_rank_capped_with_warning(self):
        bs = random_blockset(6, b=2, n=15, js=[2, 5])
        modes = uniform_modes("A", "A", 2)
        ms = extract(bs, modes, CFG, 5, "block")
        assert ms.achieved_rank == 2
        assert ms.requested_rank == 5
        assert any("rank" in w for w in ms.warnings)

    def test_duplicated_column_caps_like_matrix_rank(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((12, 3))
        bs = build_blockset([
            from_matrix("dup", np.column_stack([base, base[:, 1]])),
            from_matrix("full", rng.standard_normal((12, 5))),
        ])
        cap = min(int(np.linalg.matrix_rank(b.matrix)) for b in bs.blocks)
        assert cap == 3
        for tau in (0.0, 0.5, 1.0):
            ms = extract(bs, uniform_modes(tau, 1.0, 2), CFG, 6, "global")
            assert ms.achieved_rank == cap
            assert ms.warnings == [
                f"requested 6 components but the smallest block rank is {cap}; returning {cap}"
            ]

    def test_wide_block_caps_at_n_minus_one(self):
        bs = random_blockset(12, b=2, n=8, js=[20, 30])
        ms = extract(bs, uniform_modes("A", "A", 2), CFG, 10, "global")
        assert ms.achieved_rank == 7
        assert ms.warnings == [
            "requested 10 components but the smallest block rank is 7; returning 7"
        ]

    def test_mode_b_superblock_own_strategy_warns(self):
        bs = latent_blockset(7)
        modes = uniform_modes("A", "B", bs.n_blocks)
        ms = extract(bs, modes, CFG, 2, "own")
        assert any("Mode B" in w for w in ms.warnings)

    def test_deflated_mode_b_blocks_survive(self):
        # after one deflation a Mode B block is rank deficient; the pseudo
        # metric route must carry the next rank without errors
        bs = latent_blockset(9, n=25, js=(3, 3, 3))
        modes = uniform_modes("B", "B", 3)
        ms = extract(bs, modes, SolverConfig(m=2.0, epsilon=1e-10), 2, "own")
        assert ms.achieved_rank == 2

    def test_bad_rank(self):
        bs = random_blockset(10, b=2, n=10, js=[2, 2])
        with pytest.raises(ValueError):
            extract(bs, uniform_modes("A", "A", 2), CFG, 0, "own")


# ---------------------------------------------------------------------------
# a Mode B superblock factored once per extract (global and own)


def fresh_factor_ranks(bs, modes, config, ms):
    """Each rank of `ms` solved again with a superblock deflated explicitly and factored afresh.

    Rank r's inputs are deflated on the components `ms` found at ranks < r,
    as `extract` deflates them, and its superblock is passed as a separate
    matrix, so that the solve takes its own eigh of it. Returns (solution,
    deflated superblock) per rank.
    """
    widths = [b.n_vars for b in bs.blocks]
    cols = np.cumsum([0] + widths)
    whole, smat = bs.superblock, bs.superblock
    out = []
    for r in range(ms.achieved_rank):
        if r:
            prev = ms.solutions[r - 1]
            smat = deflate(smat, prev.y_super)
            whole = smat if ms.strategy is DeflationStrategy.GLOBAL else np.hstack([
                deflate(whole[:, a:b], y) for a, b, y in zip(cols[:-1], cols[1:], prev.y_blocks)
            ])
        sol = solve_matrices(whole, widths, modes, config, ids=bs.ids, superblock=smat)
        out.append((sol, smat))
    return out


SUPERBLOCK_DEFICIENT = "superblock is rank deficient under Mode B"


def assert_carried_matches_fresh_factor(bs, modes, config, strategy):
    ms = extract(bs, modes, config, 3, strategy)
    assert ms.achieved_rank == 3
    first = solve(bs, modes, config)  # rank 1 is the plain solve, bit for bit
    np.testing.assert_array_equal(ms.solutions[0].y_super, first.y_super)
    np.testing.assert_array_equal(ms.solutions[0].w_super, first.w_super)
    s = np.linalg.svd(bs.superblock, compute_uv=False)
    # of the rank-1 superblock: the weights are computed in its coordinates
    kappa = s[0] / s[(s > 1e-5 * s[0]).sum() - 1]
    for r, (ref, smat) in enumerate(fresh_factor_ranks(bs, modes, config, ms)):
        got = ms.solutions[r]
        assert got.trace.iterations == ref.trace.iterations, r
        # solve_matrices warns of no rank deficiency; extract repeats rank 1's
        # block warnings before each rank's own and its superblock warning after
        deficient = [w for w in first.trace.warnings if "rank deficient under Mode B" in w]
        blocks = [w for w in deficient if not w.startswith(SUPERBLOCK_DEFICIENT)]
        rank_one = [w for w in deficient if w.startswith(SUPERBLOCK_DEFICIENT)]
        assert got.trace.warnings == blocks + ref.trace.warnings + rank_one, r
        y, y_ref = got.y_super, ref.y_super
        assert 1.0 - abs(y @ y_ref) / (np.linalg.norm(y) * np.linalg.norm(y_ref)) <= 1e-12, r
        # the least-norm weights of the deflated superblock, cut where its metric cuts
        least_norm = np.linalg.lstsq(smat, y, rcond=1e-5)[0]
        err = np.linalg.norm(got.w_super - least_norm) / np.linalg.norm(least_norm)
        assert err <= 100 * kappa * np.finfo(float).eps, (r, err / kappa)


# (preset, its split, scale); at x1e-3 the Mode B block of mixed_carroll outweighs
# the Mode A covariances by 1e6, so psi is flat to ~1e-8 over that block's column
# space: its maximizer is ill-determined, and 1 - |cos| reaches ~1e-12 between
# any two solves, whatever the superblock's factor
CARRIED_CASES = [
    (name, split, scale)
    for name, split in [("sumcor", None), ("hierarchical_pca", None), ("gcca_carroll", None),
                        ("mixed_carroll", 1)]
    for scale in (1.0, 1e-3, 1e3)
    if not (split and scale < 1.0)
]


def mode_b_superblock_presets():
    """Every preset with a Mode B superblock, with the m or split it leaves free."""
    out = []
    for name in preset_names():
        entry = preset(name)
        if entry.tau_superblock == 0.0:
            out.append(preset(name, m=None if entry.m else 2.0,
                              split=1 if entry.tau_blocks is None else None))
    return out


def column_scaled(bs, scales=(1e-2, 1.0, 1e2)):
    """The same blocks with column j of the superblock multiplied by scales[j % 3]."""
    x = bs.superblock * np.resize(scales, bs.superblock.shape[1])
    cols = np.cumsum([0] + [b.n_vars for b in bs.blocks])
    return build_blockset([from_matrix(b.id, x[:, lo:hi], scale=False)
                           for b, lo, hi in zip(bs.blocks, cols[:-1], cols[1:])])


DATA_DEFLATION_CASES = {
    "unscaled": lambda seed: random_blockset(seed, b=3, n=30, js=[3, 4, 5]),
    "column_scales": lambda seed: column_scaled(random_blockset(seed, b=3, n=30, js=[3, 4, 5])),
    "wide_block": lambda seed: random_blockset(seed, b=3, n=20, js=[3, 25, 4]),
    "deficient_superblock": deficient_superblock,
}


def cosine_gap(y, y_ref):
    return 1.0 - abs(y @ y_ref) / (np.linalg.norm(y) * np.linalg.norm(y_ref))


class TestCarriedSuperblock:
    @pytest.mark.parametrize("strategy", ["global", "own"])
    @pytest.mark.parametrize("name, split, scale", CARRIED_CASES)
    def test_later_ranks_match_a_fresh_factor(self, name, split, scale, strategy):
        entry = preset(name, split=split)
        for seed in range(4):
            bs = scaled_blockset(random_blockset(seed, b=3, n=30, js=[3, 4, 5]), scale)
            modes = entry.selector(bs.n_blocks)
            assert modes.superblock_tau == 0.0
            config = SolverConfig(m=entry.m)
            assert_carried_matches_fresh_factor(bs, modes, config, strategy)

    @pytest.mark.parametrize("strategy", ["global", "own"])
    @pytest.mark.parametrize("name", ["sumcor", "hierarchical_pca", "gcca_carroll"])
    def test_rank_deficient_first_superblock(self, name, strategy):
        rng = np.random.default_rng(21)
        base = rng.standard_normal((25, 4))
        bs = build_blockset([
            from_matrix("dup", np.column_stack([base, base[:, 2]])),
            from_matrix("full", rng.standard_normal((25, 5))),
        ])
        entry = preset(name)
        modes = entry.selector(2)
        config = SolverConfig(m=entry.m)
        warnings = solve(bs, modes, config).trace.warnings
        assert any("superblock is rank deficient" in w for w in warnings)
        assert_carried_matches_fresh_factor(bs, modes, config, strategy)

    @pytest.mark.parametrize("strategy", ["global", "own"])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_superblock_factored_once(self, monkeypatch, rank, strategy):
        calls = []
        build = solver.build_metric
        monkeypatch.setattr(solver, "build_metric", lambda *args: calls.append(1) or build(*args))
        bs = random_blockset(5, b=4, n=30, js=[3, 4, 3, 5])
        ms = extract(bs, uniform_modes("B", "B", 4), SolverConfig(m=2.0), rank, strategy)
        assert ms.achieved_rank == rank
        assert len(calls) == 4 * rank + 1

    @pytest.mark.parametrize("case", list(DATA_DEFLATION_CASES))
    @pytest.mark.parametrize("entry", mode_b_superblock_presets(), ids=lambda e: e.name)
    def test_global_matches_deflating_the_data(self, entry, case):
        # global carries the block Grams G_b - A_b A_b'/n where the data was deflated
        for seed in range(2):
            bs = DATA_DEFLATION_CASES[case](seed)
            modes = entry.selector(bs.n_blocks)
            config = SolverConfig(m=entry.m)
            ms = extract(bs, modes, config, 3, "global")
            ref, _ = data_deflation_extract(bs, modes, config, 3)
            assert ms.achieved_rank == 3
            for r, (got, exp) in enumerate(zip(ms.solutions, ref)):
                assert got.trace.iterations == exp.trace.iterations, (seed, r)
                assert got.block_ranks == exp.block_ranks, (seed, r)
                pairs = list(zip([got.y_super, *got.y_blocks], [exp.y_super, *exp.y_blocks]))
                if r == 0:  # the rank-1 Grams are build_metric's own
                    for y, y_ref in pairs:
                        np.testing.assert_array_equal(y, y_ref)
                for b, (y, y_ref) in enumerate(pairs):
                    assert cosine_gap(y, y_ref) <= 1e-12, (seed, r, b)

    @pytest.mark.parametrize("strategy", list(DeflationStrategy))
    @pytest.mark.parametrize("superblock", ["A", "B"])
    def test_deflated_arrays_per_strategy(self, monkeypatch, strategy, superblock):
        # 4 blocks, 3 ranks: two deflations of each block (block, own) or of the
        # superblock (global, own's separate one), none under global with Mode B
        calls = []
        monkeypatch.setattr(deflation, "deflate", lambda *args: calls.append(1) or deflate(*args))
        bs = random_blockset(5, b=4, n=30, js=[3, 4, 3, 5])
        ms = extract(bs, uniform_modes("B", superblock, 4), SolverConfig(), 3, strategy)
        assert ms.achieved_rank == 3
        mode_b = superblock == "B"
        expected = {"global": 0 if mode_b else 2, "block": 8, "loading": 0,
                    "own": 8 if mode_b else 10}[DeflationStrategy(strategy).value]
        assert len(calls) == expected

    @pytest.mark.parametrize("strategy", ["global", "own"])
    def test_superblock_warning_only_for_a_rank_deficient_rank_one(self, strategy):
        # ranks >= 2 lose the earlier components' directions by construction
        modes = uniform_modes("A", "B", 3)
        full = extract(random_blockset(3, b=3, n=30, js=[3, 4, 5]), modes, CFG, 3, strategy)
        rng = np.random.default_rng(21)
        base = rng.standard_normal((25, 4))
        deficient = extract(build_blockset([
            from_matrix("dup", np.column_stack([base, base[:, 2]])),
            from_matrix("full", rng.standard_normal((25, 5))),
        ]), uniform_modes("A", "B", 2), CFG, 3, strategy)
        for ms, warned in ((full, False), (deficient, True)):
            assert ms.achieved_rank == 3
            for sol in ms.solutions:
                assert any(w.startswith(SUPERBLOCK_DEFICIENT) for w in sol.trace.warnings) == warned

    @pytest.mark.parametrize("strategy", list(DeflationStrategy))
    def test_rank_deficiency_warnings_follow_rank_one(self, strategy):
        # every deflation leaves a Mode B block or superblock rank deficient; the
        # warnings at every rank name the matrices whose rank-1 metric is
        full, deficient = random_blockset(3, b=3, n=30, js=[3, 4, 5]), deficient_superblock(21)
        expected = [
            "block 'dup' is rank deficient under Mode B; using the column-space projector route",
            SUPERBLOCK_DEFICIENT + ": the reported superblock weights are one least-norm "
            "solution; interpret the component through its correlations instead",
        ]
        for bs, warned in ((full, []), (deficient, expected)):
            ms = extract(bs, uniform_modes("B", "B", bs.n_blocks), CFG, 3, strategy)
            assert ms.achieved_rank == 3
            for r, sol in enumerate(ms.solutions):
                assert [w for w in sol.trace.warnings if "rank deficient" in w] == warned, r


# ---------------------------------------------------------------------------
# the Cholesky route of a Mode B superblock against the eigendecomposition route


def superblocks_per_rank(bs, ms):
    """The superblock each rank of `ms` solved on, deflated as its strategy deflates."""
    widths = [b.n_vars for b in bs.blocks]
    cols = np.cumsum([0] + widths)
    smat = bs.superblock
    out = [smat]
    for prev in ms.solutions[:-1]:
        if ms.strategy in (DeflationStrategy.GLOBAL, DeflationStrategy.OWN):
            smat = deflate(smat, prev.y_super)
        else:
            new = np.empty_like(smat)
            for a, b, y_b in zip(cols[:-1], cols[1:], prev.y_blocks):
                if ms.strategy is DeflationStrategy.LOADING:
                    deflation._deflate_loading(smat[:, a:b], prev.y_super, new[:, a:b])
                else:
                    deflate(smat[:, a:b], y_b, new[:, a:b])
            smat = new
        out.append(smat)
    return out


def condition(x):
    """kappa of x, over its singular values above the Mode B rank cut."""
    s = np.linalg.svd(x, compute_uv=False)
    return s[0] / s[(s > 1e-5 * s[0]).sum() - 1]


class TestCholeskyRoute:
    """Every Mode B superblock preset, strategy and scale, against the eigh factor.

    The same extract runs twice, the second time with every metric factored
    by eigh; at the default epsilon the iteration counts and warnings agree,
    y_super agrees to 1 - |cos| <= 1e-12 and w_super is the least-norm
    solution within 100 kappa u (kappa of the rank-1 superblock or of the
    rank's own superblock, whichever is larger).
    """

    @pytest.mark.parametrize("strategy", list(DeflationStrategy))
    @pytest.mark.parametrize("entry", mode_b_superblock_presets(), ids=lambda e: e.name)
    def test_matches_the_eigh_factor(self, monkeypatch, entry, strategy):
        u = np.finfo(float).eps
        for scale in (1.0, 1e-3, 1e3):
            if entry.split and scale < 1.0:
                continue  # mixed_carroll at x1e-3 is flat to ~1e-8 (CARRIED_CASES)
            for seed in range(2):
                bs = scaled_blockset(random_blockset(seed, b=3, n=30, js=[3, 4, 5]), scale)
                modes = entry.selector(bs.n_blocks)
                config = SolverConfig(m=entry.m)
                ms = extract(bs, modes, config, 3, strategy)
                with monkeypatch.context() as patch:
                    without_cholesky(patch)
                    ref = extract(bs, modes, config, 3, strategy)
                assert ms.achieved_rank == ref.achieved_rank == 3
                smats = superblocks_per_rank(bs, ms)
                for r, (got, exp, smat) in enumerate(zip(ms.solutions, ref.solutions, smats)):
                    case = (scale, seed, r)
                    assert got.trace.iterations == exp.trace.iterations, case
                    assert got.trace.warnings == exp.trace.warnings, case
                    y, y_ref = got.y_super, exp.y_super
                    cos = abs(y @ y_ref) / (np.linalg.norm(y) * np.linalg.norm(y_ref))
                    assert 1.0 - cos <= 1e-12, case
                    least_norm = np.linalg.lstsq(smat, y, rcond=1e-5)[0]
                    err = np.linalg.norm(got.w_super - least_norm) / np.linalg.norm(least_norm)
                    kappa = max(condition(bs.superblock), condition(smat))
                    assert err <= 100 * kappa * u, (case, err / kappa / u)


# ---------------------------------------------------------------------------
# the data's units


def unit_free_presets():
    """Every preset whose blocks share one tau of 0 or 1 and whose superblock's tau is 0 or 1.

    At tau = 1 the metric is I and P = X scales with the data; at tau = 0 it
    is X'X/n and P = X M^(-1/2) does not. Data multiplied by s then multiply
    every Q_b = P_b'P_super by one power of s, which leaves the map
    v -> grad/||grad|| and the step test unchanged. A fractional tau is
    excluded because its metric tau I + (1 - tau) X'X/n is not
    scale-equivariant, and a mix of Mode A and Mode B blocks (mixed_carroll)
    because it reweights the blocks by s.
    """
    out = []
    for name in preset_names():
        entry = preset(name)
        if entry.tau_blocks in (0.0, 1.0) and entry.tau_superblock in (0.0, 1.0):
            out.append(preset(name, m=None if entry.m else 3.0))
    return out


@pytest.mark.parametrize("strategy", ["global", "own"])
@pytest.mark.parametrize("entry", unit_free_presets(), ids=lambda e: e.name)
def test_scaling_the_data_leaves_the_solve_unchanged(entry, strategy):
    config = SolverConfig(m=entry.m)
    for seed in range(2):
        bs = random_blockset(seed, b=3, n=30, js=[3, 4, 5])
        modes = entry.selector(bs.n_blocks)
        ref = extract(bs, modes, config, 2, strategy)
        for scale in (1e-8, 1e-3, 1e3, 1e8):
            ms = extract(scaled_blockset(bs, scale), modes, config, 2, strategy)
            assert ms.achieved_rank == ref.achieved_rank == 2
            for r, (got, exp) in enumerate(zip(ms.solutions, ref.solutions)):
                case = (seed, scale, r)
                assert got.trace.converged and exp.trace.converged, case
                assert got.trace.iterations == exp.trace.iterations, case
                pairs = zip([got.y_super, *got.y_blocks], [exp.y_super, *exp.y_blocks])
                for b, (y, y_ref) in enumerate(pairs):
                    assert cosine_gap(y, y_ref) <= 1e-12, (case, b)
