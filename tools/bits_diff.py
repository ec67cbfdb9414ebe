"""Say which values moved between two `tools/same_bits.py` output dirs.

    python tools/bits_diff.py OLD NEW

For every file whose bytes differ between OLD and NEW (same relative
path), prints one line per moved field: a CSV column by its header, a
JSON number by its key path with list indices as [*].  Each line gives
how many values of the field moved, out of how many, and the worst
relative change |new - old| / |old| (inf where old is 0).  A file of
another kind, a file with a different shape (rows, columns or keys)
and a file in one dir only get one line each.  Exits 0 when no file
differs and 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _relative(old: str, new: str) -> float:
    """|new - old| / |old| of two numbers; nan when either is not one."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.nan
    return abs(b - a) / abs(a) if a else math.inf


def _csv_fields(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _json_fields(value, key: str = "", out: dict | None = None
                 ) -> dict[str, list[str]]:
    """Every number and string under `value`, listed per key path."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for name, item in value.items():
            _json_fields(item, f"{key}.{name}" if key else name, out)
    elif isinstance(value, list):
        for item in value:
            _json_fields(item, f"{key}[*]", out)
    else:
        out.setdefault(key, []).append(json.dumps(value))
    return out


def _fields(path: Path) -> dict[str, list[str]] | None:
    if path.suffix == ".csv":
        return _csv_fields(path)
    if path.suffix == ".json":
        return _json_fields(json.loads(path.read_text()))
    return None


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """The report's lines, in the order of the files' relative paths."""
    lines = []
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old_dir, new_dir)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            side = "OLD" if old.is_file() else "NEW"
            lines.append(f"{name}: only in {side}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        a, b = _fields(old), _fields(new)
        if a is None:
            lines.append(f"{name}: differs (neither CSV nor JSON)")
            continue
        if a.keys() != b.keys() or any(len(a[f]) != len(b[f]) for f in a):
            lines.append(f"{name}: differs in shape")
            continue
        for field, values in a.items():
            moved = [_relative(x, y) for x, y in zip(values, b[field])
                     if x != y]
            if moved:
                worst = max(moved, key=lambda r: -1 if math.isnan(r) else r)
                lines.append(f"{name}  {field}: {len(moved)} of "
                             f"{len(values)} moved, worst relative "
                             f"change {worst:.2g}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tools/bits_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines = compare(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
