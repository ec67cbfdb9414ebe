"""Time the pair march on the benchmark's pair grids, in one process.

    python tools/march_timing.py [--seed N] [--repeat R]

Run from anywhere; the package comes from this checkout's `src/`.  The
sweep-critical and solve-2d-frozen problems come from
`perfbench/workloads.py` (read only), as the benchmark makes them from
the seed.  For each eps of the sweep's ladder, `solve_pair` runs on the
policy grid and on its refinement, the two jobs a Richardson-certified
sweep point runs, one after the other in this process.  Each grid
prints the best of R wall times (ROADMAP layer L2): microseconds per
time step and million cell updates per second (`GridSpec.cell_updates`).
The `total best s` line sums the sweep grids' best times; one more row,
tagged solve-2d-frozen, times the 2-D solve's pair after it.  BLAS runs
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
    print(f"{'eps':>8} {'nx':>5} {'steps':>6} {'best s':>8} "
          f"{'us/step':>8} {'Mcells/s':>9}")
    cfg = wl.sweep_config(args.seed, False)
    total = 0.0
    for eps in cfg["sweep"]["epsilons"]:
        p, ceff, grid = _pair(cfg, eps)
        for grid in (grid, grid.refined()):
            total += _row(p, ceff, grid, args.repeat)
    print(f"total best s {total:.4f}")
    cfg = wl.solve_config(args.seed)
    _row(*_pair(cfg, cfg["epsilon"]), args.repeat, " solve-2d-frozen")
    return 0


def _pair(cfg: dict, eps: float):
    """The pair problem of a workload config at eps, its c_eff and its
    policy grid."""
    W = build_potential(cfg)
    regime = build_regime(cfg, W)
    T, f, g = build_problem(cfg, W.d)
    grid = policy_grid(eps, regime.k, regime.gamma, T, W.d,
                       cfg["grid"]["checkpoints"])
    return (ProblemSpec(W=W, eps=eps, regime=regime, f=f, g=g),
            effective_potential(regime, W), grid)


def _row(p: ProblemSpec, ceff, grid, repeat: int, tag: str = "") -> float:
    """Print the best of `repeat` timed pair solves on grid; return it."""
    best = min(_timed(p, ceff, grid) for _ in range(repeat))
    print(f"{p.eps:8.5f} {grid.nx:5d} {grid.total_steps:6d} "
          f"{best:8.4f} {1e6 * best / grid.total_steps:8.2f} "
          f"{grid.cell_updates() / best / 1e6:9.2f}{tag}")
    return best


def _timed(p: ProblemSpec, ceff, grid) -> float:
    start = time.perf_counter()
    solve_pair(p, ceff, grid)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
