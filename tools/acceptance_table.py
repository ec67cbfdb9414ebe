"""Run the seven acceptance sweeps and print their markdown table.

    python tools/acceptance_table.py [--points DIR]

Run from anywhere; the package comes from this checkout's `src/` and the
sweeps from its `tests/test_acceptance.py` (`_sweep` and its potentials),
so running the same command on two checkouts gives a before/after.  Each
row is one `run_sweep` with Richardson on, in the order of the gate
criteria, with its wall time; workers follow OSCPOT_WORKERS (default 1).
`--points DIR` also writes each sweep's points CSV to DIR/<sweep>.csv
and its report, with c_eff, the regime (chain_depth included) and the
identity fields the CSV lacks, to DIR/<sweep>.json (`ratelab.write_json`).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oscpot import GammaMode  # noqa: E402
from oscpot.ratelab import points_csv, write_json  # noqa: E402
import test_acceptance as acc  # noqa: E402

#: (name, criterion, W, k, gamma mode, T, flipped sign)
SWEEPS = (
    ("critical", "c04", acc.W_CRITICAL, 2.0, GammaMode.UNIT, 0.5, False),
    ("subcritical", "c05", acc.W_SUBCRITICAL, 1.5, GammaMode.UNIT, 0.5,
     False),
    ("slow", "c06", acc.W_SLOW, 0.5, GammaMode.UNIT, 0.5, False),
    ("frozen", "c06", acc.W_FROZEN, 0.0, GammaMode.UNIT, 0.5, False),
    ("strong", "c07", acc.W_STRONG, 2.5, GammaMode.K_MINUS_1, 0.25, False),
    ("supercritical", "c08", acc.W_SUPER, 2.5, GammaMode.UNIT, 0.5, False),
    ("flipped sign", "c09", acc.W_CRITICAL, 2.0, GammaMode.UNIT, 0.5, True),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=Path,
                        help="directory for each sweep's points CSV "
                        "and report")
    args = parser.parse_args(argv)
    if args.points:
        args.points.mkdir(parents=True, exist_ok=True)
    print("| sweep | verdict | slope | R² | largest Richardson residual "
          "| wall |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, criterion, W, k, mode, T, flip in SWEEPS:
        start = time.perf_counter()
        report = acc._sweep(W, k, mode, T, flip=flip)
        wall = time.perf_counter() - start
        residual = max(p.richardson for p in report.points)
        print(f"| {name} ({criterion}) | {report.verdict} "
              f"| {report.fit.slope:.4f} | {report.fit.r2:.4f} "
              f"| {residual:.3g} | {wall:.1f} s |", flush=True)
        if args.points:
            stem = args.points / name.replace(' ', '-')
            stem.with_suffix(".csv").write_text(points_csv(report))
            write_json(stem.with_suffix(".json"), report.as_dict())
    return 0


if __name__ == "__main__":
    sys.exit(main())
