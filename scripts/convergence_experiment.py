#!/usr/bin/env python3
"""Convergence behavior across the (m, tau) grid on synthetic data.

For every combination of exponent and shrinkage this script runs the solver
on the same random multiblock instance, reports iterations to convergence
and the fixed-point residual, and writes one plot-ready trace file per
configuration (iteration, criterion value, step norm).
"""

import argparse
from pathlib import Path

import numpy as np

from rcpca import ModeSelector, SolverConfig, build_blockset, from_matrix, solve

M_VALUES = (1.0, 1.5, 2.0, 3.0, 4.0)
TAU_VALUES = (0.0, 0.3, 1.0)


def make_instance(seed, n=40, js=(5, 4, 6), shared=0.6):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal(n)
    blocks = []
    for k, j in enumerate(js):
        data = shared * np.outer(factor, rng.uniform(-1, 1, j))
        data += rng.standard_normal((n, j))
        blocks.append(from_matrix(f"b{k + 1}", data, scale=True))
    return build_blockset(blocks)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epsilon", type=float, default=1e-10)
    ap.add_argument("--out", default="convergence_out")
    args = ap.parse_args()

    bs = make_instance(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"instance: n={bs.n}, J={[b.n_vars for b in bs.blocks]}, seed={args.seed}")
    print(f"{'m':>4} {'tau':>5} {'psi':>14} {'iters':>6} {'residual':>10} {'monotone':>9}")
    for m in M_VALUES:
        for tau in TAU_VALUES:
            modes = ModeSelector.from_taus([tau] * bs.n_blocks, tau)
            cfg = SolverConfig(m=m, epsilon=args.epsilon, max_iter=100_000)
            sol = solve(bs, modes, cfg)
            deltas = np.diff(sol.trace.psi)
            monotone = bool(np.all(deltas >= -1e-12))
            print(
                f"{m:>4g} {tau:>5g} {sol.trace.psi[-1]:>14.8f} "
                f"{sol.trace.iterations:>6} {sol.trace.fixed_point_residual:>10.2e} "
                f"{str(monotone):>9}"
            )
            trace_file = out / f"trace_m{m:g}_tau{tau:g}.csv"
            lines = ["iteration,psi,step_norm", f"0,{sol.trace.psi[0]:.12g},"]
            for s in range(sol.trace.iterations):
                lines.append(
                    f"{s + 1},{sol.trace.psi[s + 1]:.12g},{sol.trace.step_norm[s]:.12g}"
                )
            trace_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"\ntraces written to {out}/")


if __name__ == "__main__":
    main()
