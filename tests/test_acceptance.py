"""Acceptance suite.

One test per numbered criterion; each prints a single pass/fail line (run
with `pytest -s tests/test_acceptance.py` to see them all). Tolerances are
stated inline and are absolute unless noted. Random instances keep
criterion values O(1) (standardized columns, unit total-variable scaling)
so the absolute trace tolerances are meaningful. The sweep also runs the
same instances rescaled by 1e3 and 1e-3, plus unnormalized instances
rescaled by 1e-8, where the monotonicity tolerance is relative to psi, and
normalized instances with blocks wider than they are tall.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    M_GRID,
    build_metrics,
    component_correlations,
    component_matrix,
    full_rank_blockset,
    latent_blockset,
    problem_from_qs,
    q_blocks,
    random_blockset,
    random_m,
    random_modes,
    reference_auxiliary_solve,
    reference_criterion,
    reference_gram,
    reference_residual,
    scaled_blockset,
    superblock_coordinates,
    transform,
    uniform_modes,
    wide_blockset,
)
from rcpca import (
    SolverConfig,
    contributions,
    extract,
    solve,
    verify_stationary,
)
from rcpca import preset as get_preset
from rcpca.solver import _eigen_start

N_SWEEP = 200
# the normalized sweep is repeated at these scales; 1.0 is the contract set
SWEEP_SCALES = (1.0, 1e3, 1e-3)
# unnormalized instances at this scale, uniform Mode A, m = 2
N_TINY = 50
TINY_SCALE = 1e-8
# normalized instances with at least one block of more columns than rows
N_WIDE = 40
DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"

# roundoff slack for inequalities whose two sides agree to machine precision
ROUNDOFF = 1e-14


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")


def _sweep_cases():
    for scale in SWEEP_SCALES:
        for seed in range(N_SWEEP):
            bs = random_blockset(seed)
            if scale != 1.0:
                bs = scaled_blockset(bs, scale)
            yield scale, seed, bs, random_modes(seed, bs), random_m(seed)
    for seed in range(N_TINY):
        bs = scaled_blockset(random_blockset(seed, normalize=False), TINY_SCALE)
        yield TINY_SCALE, seed, bs, uniform_modes("A", "A", bs.n_blocks), 2.0
    for seed in range(N_WIDE):
        bs = wide_blockset(seed)
        yield 1.0, seed, bs, random_modes(seed, bs), random_m(seed)


@pytest.fixture(scope="session")
def sweep():
    """Random solves, traces kept; every solve checks every iteration."""
    runs = []
    failures = []
    for scale, seed, bs, modes, m in _sweep_cases():
        cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=3000)
        try:
            sol = solve(bs, modes, cfg)
        except Exception as exc:  # any raise fails criteria 1/2/13
            failures.append((scale, seed, repr(exc)))
            continue
        runs.append((scale, m, sol))
    return runs, failures


def test_criterion_01_monotone_ascent(sweep):
    runs, failures = sweep
    worst = 0.0
    worst_rel = 0.0
    for scale, _, sol in runs:
        psi = np.asarray(sol.trace.psi)
        deltas = np.diff(psi)
        if scale == 1.0:
            worst = min(worst, float(deltas.min(initial=0.0)))
        else:
            worst_rel = min(worst_rel, float((deltas / psi[:-1]).min(initial=0.0)))
    expected = N_SWEEP * len(SWEEP_SCALES) + N_TINY + N_WIDE
    ok = not failures and len(runs) == expected and worst >= -1e-12 and worst_rel >= -1e-12
    report(1, "criterion non-decreasing every iteration (tol 1e-12; 1e-12*psi rescaled)",
           ok, f"{len(runs)} runs, worst decrease {worst:.2e}, relative {worst_rel:.2e}")
    assert ok, (failures, worst, worst_rel)


def test_criterion_02_step_norm_bound(sweep):
    runs, failures = sweep
    violations = 0
    worst = -np.inf
    for _, m, sol in runs:
        psi = np.asarray(sol.trace.psi)
        steps = np.asarray(sol.trace.step_norm)
        bounds = 2.0 * np.diff(psi) / (m * psi[0])
        excess = steps**2 - bounds
        worst = max(worst, float(excess.max(initial=-np.inf)))
        violations += int((excess > ROUNDOFF).sum())
    ok = not failures and violations == 0
    report(2, "step-norm bound 2*dpsi/(m*psi0), zero violations", ok,
           f"worst excess {worst:.2e}")
    assert ok


def test_covs_reproduce_psi_exactly(sweep):
    # the back-map reads cov_b off the segments that gave psi at the solution
    runs, failures = sweep
    mismatched = [
        (scale, m) for scale, m, sol in runs if float((sol.covs**m).sum()) != sol.trace.psi[-1]
    ]
    assert not failures and runs and not mismatched, mismatched


def test_criterion_03_eigen_oracle_m2():
    accepted = 0
    seed = 0
    worst = 1.0
    while accepted < 50:
        seed += 1
        bs = random_blockset(1000 + seed, n=int(8 + (seed % 20)))
        modes = random_modes(seed, bs)
        metrics = build_metrics(bs, modes)
        problem = transform(bs, metrics, 2.0)
        # raw-scale Q_b, where the absolute gap floor below was set
        vals, vecs = np.linalg.eigh(reference_gram([q * bs.n for q in q_blocks(problem)]))
        if vals.size < 2:
            continue
        gap = vals[-1] - vals[-2]
        if gap < max(1e-4, 0.02 * vals[-1]):
            continue
        accepted += 1
        cfg = SolverConfig(m=2.0, epsilon=1e-10, max_iter=100_000,
                           init="random", seed=seed)
        sol = solve(bs, modes, cfg)
        # the eigenvector is in the superblock factor's coordinates
        cos = abs(vecs[:, -1] @ superblock_coordinates(sol, metrics[-1]))
        worst = min(worst, cos)
    ok = worst >= 1 - 1e-8
    report(3, "m=2 solution matches dense eigensolver (|cos| >= 1-1e-8)", ok,
           f"50 instances, worst |cos| deficit {1 - worst:.2e}")
    assert ok


def test_criterion_04_pca_identity_mode_a():
    worst = 0.0
    for seed in range(10):
        bs = latent_blockset(seed, n=22, js=(4, 3, 2)) if seed % 2 else \
            random_blockset(seed + 300, b=3, n=20, js=[3, 4, 2])
        modes = uniform_modes("A", "A", bs.n_blocks)
        sol = solve(bs, modes, SolverConfig(m=2.0, epsilon=1e-10, max_iter=100_000))
        y = sol.y_super
        for op in (
            bs.superblock @ (bs.superblock.T @ y),
            component_matrix(sol) @ (component_matrix(sol).T @ y),
        ):
            lam = float(y @ op) / float(y @ y)
            worst = max(worst, float(np.linalg.norm(op - lam * y)) / lam)
    ok = worst <= 1e-6
    report(4, "m=2 Mode A: superblock and component eigen-identities (1e-6)", ok,
           f"worst residual {worst:.2e}")
    assert ok


def _grid_components(x, thetas):
    # unit-norm components over a circle of 2-d weight directions
    u = np.stack([np.cos(thetas), np.sin(thetas)])
    y = x @ u
    return y / np.linalg.norm(y, axis=0)


def test_criterion_05_sumcor_global_optimum():
    cfg = SolverConfig(m=1.0, epsilon=1e-10, max_iter=100_000, n_starts=8)

    # three single-column blocks: sign patterns are enumerable
    rng = np.random.default_rng(99)
    bs3 = random_blockset(99, b=3, n=10, js=[1, 1, 1], normalize=False)
    cols = [b.matrix[:, 0] for b in bs3.blocks]
    cols = [c / np.linalg.norm(c) for c in cols]
    corr = np.array([[a @ b for b in cols] for a in cols])
    best_enum = max(
        float(s @ corr @ s)
        for s in (np.array([i, j, k]) for i in (1, -1) for j in (1, -1) for k in (1, -1))
    )
    sol3 = solve(bs3, uniform_modes("B", "B", 3), cfg)
    err_enum = abs(sol3.trace.psi[-1] - np.sqrt(best_enum))

    # two 2-column blocks: brute-force angle grid, step 1e-3 rad
    bs2 = full_rank_blockset(55, n=8, js=(2, 2))
    thetas = np.arange(0.0, 2 * np.pi, 1e-3)
    y1 = _grid_components(bs2.blocks[0].matrix, thetas)
    y2 = _grid_components(bs2.blocks[1].matrix, thetas)
    best_cor = -np.inf
    for start in range(0, thetas.size, 512):
        a = y1.T @ y2[:, start:start + 512]
        best_cor = max(best_cor, float(a.max()))
    best_grid = 2.0 + 2.0 * best_cor
    sol2 = solve(bs2, uniform_modes("B", "B", 2), cfg)
    err_grid = abs(sol2.trace.psi[-1]**2 - best_grid)

    # criterion value equals the root of the summed correlation matrix
    worst_identity = 0.0
    for sol in (sol3, sol2):
        ys = [y / np.linalg.norm(y) for y in sol.y_blocks]
        total = sum(float(a @ b) for a in ys for b in ys)
        worst_identity = max(worst_identity, abs(sol.trace.psi[-1] - np.sqrt(total)))

    ok = err_enum <= 1e-3 and err_grid <= 1e-3 and worst_identity <= 1e-8
    report(5, "m=1 Mode B criterion matches brute-force SUMCOR maximum", ok,
           f"enum err {err_enum:.2e}, grid err {err_grid:.2e}, identity {worst_identity:.2e}")
    assert ok


def test_criterion_06_gradient_finite_differences():
    h = 1e-6
    worst = 0.0
    for m in M_GRID:
        rng = np.random.default_rng(int(m * 1000))
        for _ in range(50):
            b = int(rng.integers(1, 5))
            dim = int(rng.integers(2, 6))
            qs = [rng.standard_normal((int(rng.integers(1, 5)), dim)) for _ in range(b)]
            problem = problem_from_qs(qs, m)
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            g = problem.grad(v)
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (
                    reference_criterion(qs, v + e, m) - reference_criterion(qs, v - e, m)
                ) / (2 * h)
            worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
    ok = worst <= 1e-5
    report(6, "gradient matches central differences (rel 1e-5)", ok,
           f"max rel err {worst:.2e}")
    assert ok


def test_criterion_07_fixed_point_residuals():
    cases = []
    for seed in range(6):
        bs = latent_blockset(seed + 500, n=24, js=(4, 3, 3))
        cases += [
            (bs, get_preset("consensus_pca")),
            (bs, get_preset("gcca_carroll")),
            (bs, get_preset("hierarchical_pca")),
            (bs, get_preset("sumcor")),
            (bs, get_preset("mixed_carroll", split=2)),
            (bs, get_preset("redundancy_blocks", m=3.0)),
        ]
    worst_fp = 0.0
    worst_stat = 0.0
    all_converged = True
    for bs, p in cases:
        modes = p.selector(bs.n_blocks)
        cfg = SolverConfig(m=p.m, epsilon=1e-10, max_iter=200_000)
        sol = solve(bs, modes, cfg)
        all_converged &= sol.trace.converged
        worst_fp = max(worst_fp, sol.trace.fixed_point_residual)
        worst_fp = max(worst_fp, reference_residual(sol.y_super, bs, modes, p.m))
        worst_stat = max(worst_stat, verify_stationary(p, sol, bs).residual)
    ok = all_converged and worst_fp <= 1e-6 and worst_stat <= 1e-6
    report(7, "converged runs are fixed points; published forms verified (1e-6)", ok,
           f"{len(cases)} runs, worst residual {worst_fp:.2e}, "
           f"worst stationary {worst_stat:.2e}")
    assert ok


def test_criterion_08_hierarchical_pca_signature():
    worst = 0.0
    p = get_preset("hierarchical_pca")
    for seed in range(5):
        bs = latent_blockset(seed + 700, n=26, js=(4, 4, 3))
        cfg = SolverConfig(m=4.0, epsilon=1e-10, max_iter=200_000)
        sol = solve(bs, p.selector(bs.n_blocks), cfg)
        worst = max(worst, verify_stationary(p, sol, bs).residual)
    ok = worst <= 1e-6
    report(8, "m=4 A/B solution solves the hierarchical-PCA fixed point (1e-6)", ok,
           f"worst angular residual {worst:.2e}")
    assert ok


def test_criterion_09_deflation_orthogonality():
    bs = random_blockset(900, b=3, n=20, js=[4, 4, 4])
    modes = uniform_modes("A", "A", 3)
    cfg = SolverConfig(m=2.0, epsilon=1e-10, max_iter=100_000)

    def offdiag(c):
        return float(np.abs(c - np.diag(np.diag(c))).max())

    own_blocks, own_super = component_correlations(extract(bs, modes, cfg, 3, "own"))
    own_worst = max(max(offdiag(c) for c in own_blocks), offdiag(own_super))

    _, glob_super = component_correlations(extract(bs, modes, cfg, 3, "global"))
    glob_worst = offdiag(glob_super)

    blk = extract(bs, modes, cfg, 3, "block")
    blk_worst = max(offdiag(c) for c in component_correlations(blk)[0])
    membership = 0.0
    for b in range(3):
        basis, _ = np.linalg.qr(bs.blocks[b].matrix)
        for sol in blk.solutions:
            y = sol.y_blocks[b]
            resid = np.linalg.norm(y - basis @ (basis.T @ y)) / np.linalg.norm(y)
            membership = max(membership, float(resid))

    ok = own_worst <= 1e-8 and glob_worst <= 1e-8 and blk_worst <= 1e-8 and membership <= 1e-8
    report(9, "deflation orthogonality per strategy (1e-8)", ok,
           f"own {own_worst:.1e}, global {glob_worst:.1e}, block {blk_worst:.1e}, "
           f"membership {membership:.1e}")
    assert ok


def test_criterion_10_mode_b_superblock_equivalence():
    worst = 1.0
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
        cfg = SolverConfig(m=m, epsilon=1e-10, max_iter=200_000)
        sol = solve(bs, modes, cfg)
        y_aux, _, _ = reference_auxiliary_solve(
            bs, modes.block_taus, m, epsilon=1e-13, max_iter=200_000, y0=y0
        )
        cos = abs(y_aux @ sol.y_super) / (
            np.linalg.norm(y_aux) * np.linalg.norm(sol.y_super)
        )
        worst = min(worst, float(cos))
    ok = worst >= 1 - 1e-6
    report(10, "explicit-superblock and superblock-free solves agree (1e-6)", ok,
           f"20 instances, worst |cos| deficit {1 - worst:.2e}")
    assert ok


def test_criterion_11_contribution_behavior(sweep):
    runs, _ = sweep
    worst_sum = 0.0
    for _, _, sol in runs:
        worst_sum = max(worst_sum, abs(float(sol.contributions.sum()) - 1.0))
    concentration = min(
        float(contributions(covs, 64.0).max())
        for covs in ([1.2, 1.0], [2.4, 2.0, 1.9], [0.6, 0.5, 0.45, 0.4])
    )
    ok = worst_sum <= 1e-10 and concentration >= 0.999
    report(11, "contributions sum to 1; m=64 concentrates on the top block", ok,
           f"worst |sum-1| {worst_sum:.2e}, min top share {concentration:.6f}")
    assert ok


def test_criterion_12_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = [
        sys.executable, "-m", "rcpca", "run",
        "--blocks", f"{DEMO / 'process.csv'},{DEMO / 'quality.csv'}",
        "--ids", "process,quality", "--id-column", "--scale", "unit",
        "--preset", "consensus_pca", "--init", "random", "--seed", "11",
        "--components", "2", "--deflate", "own",
    ]
    env = dict(os.environ)
    src = str(DEMO.parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    r1 = subprocess.run(argv + ["--out", str(out1)], capture_output=True, env=env)
    r2 = subprocess.run(argv + ["--out", str(out2)], capture_output=True, env=env)
    identical = (
        r1.returncode == 0
        and r2.returncode == 0
        and sorted(p.name for p in out1.iterdir())
        == sorted(p.name for p in out2.iterdir())
        and all(
            filecmp.cmp(f, out2 / f.name, shallow=False) for f in out1.iterdir()
        )
    )
    report(12, "same config + seed gives byte-identical outputs", identical)
    assert identical


def test_criterion_13_minorizer_sandwich(sweep):
    # sphere_maximize checks the sandwich at every iteration and raises on a
    # violation, so every iteration of a solve that returned passed it
    runs, failures = sweep
    checked = sum(sol.trace.iterations for _, _, sol in runs)
    ok = not failures and checked > 0
    report(13, "minorizer sandwich holds at every iteration (slack 1e-12*psi)", ok,
           f"{checked} iterations checked")
    assert ok
