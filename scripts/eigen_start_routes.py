"""Route and cost of every eigen start over many-block extracts.

    PYTHONPATH=src python scripts/eigen_start_routes.py --factors 1 --instances 20

Builds the benchmark's many-block shape (50 blocks of 8 columns on 1000 rows,
latent factors plus noise, unnormalized columns), extracts 3 ranks under
`global`, and records each eigen start: whether block Lanczos converged or
the dense eigh ran, how many Lanczos vectors were built, and the seconds the
start took. One factor leaves ranks 2 and 3 fitted to noise, whose flat
spectra stop block Lanczos; three factors of strengths 1, 0.4 and 0.25
(the benchmark's) keep every rank on the Krylov route. Run it with
PYTHONPATH pointing at another checkout's src/ to compare two versions.
"""

from __future__ import annotations

import argparse
import statistics
import time
from collections import defaultdict

import numpy as np

import rcpca
from rcpca import solver

STRENGTHS = {1: (1.0,), 3: (1.0, 0.4, 0.25)}


def latent_blocks(rng, n, js, strengths):
    """Blocks sharing latent factors plus noise, with random column scales and offsets."""
    f = rng.standard_normal((n, len(strengths)))
    s = np.asarray(strengths)[:, None]
    blocks = []
    for j in js:
        x = f @ (s * rng.standard_normal((len(strengths), j))) + rng.standard_normal((n, j))
        blocks.append(x * rng.lognormal(0.0, 1.0, j) + rng.normal(0.0, 10.0, j))
    return blocks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--factors", type=int, choices=sorted(STRENGTHS), default=1)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--preset", default="sumcor")
    args = ap.parse_args()

    starts = []  # (rank, converged by Krylov, Lanczos vectors, seconds)
    eigh, eigen_start = np.linalg.eigh, solver._eigen_start
    sizes: list[int] = []

    def recording_eigh(a, *rest, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *rest, **kwargs)

    def timed_start(problem):
        sizes.clear()
        t = time.perf_counter()
        out = eigen_start(problem)
        seconds = time.perf_counter() - t
        lanczos = [k for k in sizes if k < problem.dim]
        krylov = not sizes or sizes[-1] < problem.dim
        starts.append((len(starts) % 3 + 1, krylov, max(lanczos, default=0), seconds))
        return out

    np.linalg.eigh, solver._eigen_start = recording_eigh, timed_start
    entry = rcpca.preset(args.preset)
    modes, config = entry.selector(50), rcpca.SolverConfig(m=entry.m)
    for k in range(args.instances):
        raws = latent_blocks(np.random.default_rng([args.seed, k]), 1000, (8,) * 50,
                             STRENGTHS[args.factors])
        blocks = [rcpca.from_matrix(f"b{b + 1}", x) for b, x in enumerate(raws)]
        rcpca.extract(rcpca.build_blockset(blocks), modes, config, 3, "global")
    np.linalg.eigh, solver._eigen_start = eigh, eigen_start

    by_rank = defaultdict(list)
    for rank, krylov, vectors, seconds in starts:
        by_rank[rank].append((krylov, vectors, seconds))
    print(f"{args.preset}, {args.factors} factor(s), {args.instances} instances, seed {args.seed}")
    for rank in sorted(by_rank):
        rows = by_rank[rank]
        dense = [v for krylov, v, _ in rows if not krylov]
        print(
            f"  rank {rank}: Krylov {len(rows) - len(dense)}, dense eigh {len(dense)}"
            f" (after {statistics.mean(dense) if dense else 0:.1f} vectors),"
            f" median {1e3 * statistics.median(s for _, _, s in rows):.2f} ms per start"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
