"""tools/march_timing.py prints one line per pair grid of the sweep and of
the 2-D solve."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from oscpot import policy_grid

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "march_timing.py"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_march_timing_prints_each_policy_grid_and_its_refinement():
    # A process of its own: the tool pins BLAS threads and sys.path.
    out = subprocess.run([sys.executable, str(TOOL), "--repeat", "1"],
                         capture_output=True, text=True, check=True).stdout
    header, *rows, total, solve = out.splitlines()
    assert header.split() == ["eps", "nx", "steps", "best", "s", "us/step",
                              "Mcells/s"]
    wl = _workloads()
    cfg = wl.sweep_config(1, False)
    grids = []
    for eps in cfg["sweep"]["epsilons"]:
        grid = policy_grid(eps, 2.0, 1.0, cfg["problem"]["T"], 1,
                           cfg["grid"]["checkpoints"])
        grids += [grid, grid.refined()]
    assert len(rows) == len(grids)
    bests = []
    for row, grid in zip(rows, grids):
        _, nx, steps, best, per_step, rate = row.split()
        assert (int(nx), int(steps)) == (grid.nx, grid.total_steps)
        assert float(best) > 0 and float(per_step) > 0 and float(rate) > 0
        bests.append(float(best))
    # The total sums the sweep grids only, as before the 2-D row.
    assert total.startswith("total best s ")
    assert float(total.split()[-1]) == pytest.approx(sum(bests), abs=1e-3)
    # The last row is the 2-D solve's pair on its policy grid.
    cfg = wl.solve_config(1)
    grid = policy_grid(cfg["epsilon"], 0.0, 1.0, cfg["problem"]["T"], 2,
                       cfg["grid"]["checkpoints"])
    eps, nx, steps, best, per_step, rate, tag = solve.split()
    assert tag == "solve-2d-frozen"
    assert float(eps) == pytest.approx(cfg["epsilon"], abs=1e-5)
    assert (int(nx), int(steps)) == (grid.nx, grid.total_steps)
    assert float(best) > 0 and float(per_step) > 0 and float(rate) > 0
