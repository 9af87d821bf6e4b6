#!/usr/bin/env python3
"""Run the bundled demo dataset through several method presets.

Prints, per preset: criterion value, iteration count, block contributions
and the residual of the published stationary equation.
"""

from pathlib import Path

import numpy as np

from rcpca import (
    SolverConfig,
    build_blockset,
    load_block,
    preset,
    solve,
    verify_stationary,
)

DATA = Path(__file__).resolve().parents[1] / "data" / "demo"

PRESETS = [
    ("consensus_pca", {}),
    ("gcca_carroll", {}),
    ("hierarchical_pca", {}),
    ("sumcor", {}),
    ("mixed_carroll", {"split": 1}),
    ("redundancy_blocks", {"m": 3.0}),
]


def main():
    blocks = [
        load_block(DATA / "process.csv", scale=True, id_column=True),
        load_block(DATA / "quality.csv", scale=True, id_column=True),
    ]
    bs = build_blockset(blocks)
    print(f"demo dataset: n={bs.n}, blocks={[b.n_vars for b in bs.blocks]}\n")
    header = f"{'preset':<22}{'m':>4}{'psi':>12}{'iters':>7}{'conv':>6}{'contributions':>24}{'stationary':>12}"
    print(header)
    print("-" * len(header))
    for name, kwargs in PRESETS:
        p = preset(name, **kwargs)
        modes = p.selector(bs.n_blocks)
        cfg = SolverConfig(m=p.m, epsilon=1e-10, max_iter=100_000)
        sol = solve(bs, modes, cfg)
        stat = f"{verify_stationary(p, sol, bs).residual:.1e}"
        contrib = np.array2string(sol.contributions, precision=3)
        print(
            f"{name:<22}{p.m:>4g}{sol.trace.psi[-1]:>12.6f}{sol.trace.iterations:>7}"
            f"{str(sol.trace.converged):>6}{contrib:>24}{stat:>12}"
        )


if __name__ == "__main__":
    main()
