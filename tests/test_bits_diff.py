"""tools/bits_diff.py on two tiny same_bits-style output dirs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bits_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bits_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_bits_diff_names_each_moved_field_with_its_count_and_worst_change(
        tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    report = {"eps": 0.125, "points": [{"error": 2.0, "nx": 9},
                                       {"error": 4.0, "nx": 19}]}
    _write(old, {
        "solve/norms.csv": "t,l2_eps,l2_diff\n0.0,1.0,0.0\n0.5,2.0,0.25\n",
        "sweep/report.json": json.dumps(report),
        "sweep/same.json": "[1, 2]",
        "sweep/stdout.txt": "slope 1.022\n",
        "sweep/gone.csv": "a\n1\n",
    })
    report["points"][1]["error"] = 4.0 + 2e-15
    _write(new, {
        "solve/norms.csv": "t,l2_eps,l2_diff\n0.0,1.0,1e-17\n0.5,2.5,0.5\n",
        "sweep/report.json": json.dumps(report),
        "sweep/same.json": "[1, 2]",
        "sweep/stdout.txt": "slope 1.023\n",
    })
    assert _tool().compare(old, new) == [
        "solve/norms.csv  l2_eps: 1 of 2 moved, worst relative change 0.25",
        "solve/norms.csv  l2_diff: 2 of 2 moved, worst relative change inf",
        "sweep/gone.csv: only in OLD",
        "sweep/report.json  points[*].error: 1 of 2 moved, worst relative "
        "change 4.4e-16",
        "sweep/stdout.txt: differs (neither CSV nor JSON)",
    ]
    run = subprocess.run([sys.executable, str(TOOL), str(old), str(old)],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "")
    run = subprocess.run([sys.executable, str(TOOL), str(old), str(new)],
                         capture_output=True, text=True)
    assert run.returncode == 1 and len(run.stdout.splitlines()) == 5
