"""Time the pair march on the sweep-critical grids, in one process.

    python tools/march_timing.py [--seed N] [--repeat R]

Run from anywhere; the package comes from this checkout's `src/`.  The
sweep comes from `perfbench/workloads.py` (read only), as the benchmark
makes it from the seed.  For each eps of the ladder, `solve_pair` runs
on the policy grid and on its refinement, the two jobs a
Richardson-certified sweep point runs, one after the other in this
process.  Each grid prints the best of R wall times (ROADMAP layer L2):
microseconds per time step and million cell updates per second
(`GridSpec.cell_updates`); the last line sums the best times.  BLAS runs
on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from oscpot.cli import build_potential, build_problem, build_regime  # noqa: E402
from oscpot.correctors import effective_potential  # noqa: E402
from oscpot.pdesolve import ProblemSpec, policy_grid, solve_pair  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per grid; the best is printed")
    args = parser.parse_args(argv)
    cfg = wl.sweep_config(args.seed, False)
    W = build_potential(cfg)
    regime = build_regime(cfg, W)
    ceff = effective_potential(regime, W)
    T, f, g = build_problem(cfg, W.d)
    checkpoints = cfg["grid"]["checkpoints"]
    print(f"{'eps':>8} {'nx':>5} {'steps':>6} {'best s':>8} "
          f"{'us/step':>8} {'Mcells/s':>9}")
    total = 0.0
    for eps in cfg["sweep"]["epsilons"]:
        p = ProblemSpec(W=W, eps=eps, regime=regime, f=f, g=g)
        grid = policy_grid(eps, regime.k, regime.gamma, T, W.d, checkpoints)
        for grid in (grid, grid.refined()):
            best = min(_timed(p, ceff, grid) for _ in range(args.repeat))
            total += best
            print(f"{eps:8.5f} {grid.nx:5d} {grid.total_steps:6d} "
                  f"{best:8.4f} {1e6 * best / grid.total_steps:8.2f} "
                  f"{grid.cell_updates() / best / 1e6:9.2f}")
    print(f"total best s {total:.4f}")
    return 0


def _timed(p: ProblemSpec, ceff, grid) -> float:
    start = time.perf_counter()
    solve_pair(p, ceff, grid)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
