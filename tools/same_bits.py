"""Run the four benchmark workloads once and print a sha256 per output file.

    python tools/same_bits.py [--seed N] --out DIR

Run from anywhere; the package comes from this checkout's `src/`.  The
inputs come from `perfbench/workloads.py`, made from the seed as the
benchmark makes them, and each workload runs in one program process of
the benchmark (`perfbench/child.py`): the two sweeps and the 2-D solve
through `oscpot.cli`, verify-random through `run_verify`.  No file
under `perfbench/` is edited.  Each workload writes into DIR/<name>/,
which must not exist yet, inputs included, and one line
`<sha256>  <name>/<file>` is printed per file.  Run on two checkouts,
the printed lines differ only where an output's bytes do.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def _job(name: str, seed: int, outdir: Path, per_cell: int) -> dict:
    """The benchmark's job for one operation of `name`, outputs in outdir."""
    if name != "verify-random":
        return bench.WORKLOADS[name].prepare(seed, outdir).job(outdir)
    batch = bench._write_json(outdir / "batch.json",
                              wl.verify_batch(seed, per_cell))
    return {"kind": "verify", "batch": str(batch),
            "out": str(outdir / "results.json")}


def hashes(name: str, seed: int, out: Path,
           per_cell: int = wl.VERIFY_PER_CELL) -> list[str]:
    """Run workload `name` into out/name and return its hash lines.

    `per_cell` potentials per (family, d) cell make verify-random's batch;
    a smaller count gives a prefix of the benchmark's batch."""
    outdir = out / name
    outdir.mkdir(parents=True)   # a new directory: no stale files hashed
    child = bench.Child()
    child.start()
    _, report = child.run(_job(name, seed, outdir, per_cell))
    if report is None or report.get("rc") != 0:
        raise RuntimeError(f"{name} failed: {report}")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{name}/{path.name}"
            for path in sorted(outdir.iterdir()) if path.is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the workloads' outputs")
    args = parser.parse_args(argv)
    for name in bench.WORKLOADS:
        # Absolute: the program process runs in the checkout's root.
        for line in hashes(name, args.seed, args.out.resolve()):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
