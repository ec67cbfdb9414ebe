"""The benchmark's own tests: each output check accepts the program's real
answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

The wrong answers are the program's own sign-flipped limit
(regime.sign_override = "flip") and doctored copies of correct outputs.
Takes about half a minute: one real sweep, one 2-D solve and a small
verify batch, each also run flipped.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

SEED = 5


def _run_job(job: dict) -> dict:
    child = run.Child()
    child.start()
    _, report = child.run(job)
    # Exit code 5 is a failed rate verdict; its outputs are still written.
    assert report is not None and report["rc"] in (0, 5), report
    return report


def _run_cli(command: str, cfg: dict, outdir: Path, *extra: str) -> Path:
    outdir.mkdir(parents=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(cfg))
    _run_job({"kind": "cli", "argv": [command, "--config", str(path),
                                      "--out", str(outdir), *extra],
              "stdout": str(outdir / "stdout.txt")})
    return outdir


def _flipped(cfg: dict) -> dict:
    cfg = json.loads(json.dumps(cfg))
    cfg["regime"]["sign_override"] = "flip"
    return cfg


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    cfg = wl.sweep_config(SEED, forced=False)
    base = tmp_path_factory.mktemp("sweep")
    good = _run_cli("sweep", cfg, base / "good", "--workers", "1")
    return cfg, good, base


def test_sweep_accepts_program_output(sweep_outputs):
    cfg, good, _ = sweep_outputs
    assert wl.check_sweep(cfg, good) == []


def test_sweep_rejects_flipped_limit(sweep_outputs):
    cfg, _, base = sweep_outputs
    bad = _run_cli("sweep", _flipped(cfg), base / "flip", "--workers", "1")
    # On this short ladder the corrector error dominates the distance, so
    # the flipped sweep can still fit slope 1; the Parseval oracle for
    # c_eff is what rejects it.
    assert any("c_eff" in e for e in wl.check_sweep(cfg, bad))


@pytest.mark.parametrize("field,value,message", [
    ("slope", 1.5, "slope"),
    ("r2", 0.5, "R^2"),
])
def test_sweep_rejects_bad_fit(sweep_outputs, tmp_path, field, value,
                               message):
    cfg, good, _ = sweep_outputs
    bad = _copy(good, tmp_path / "bad")
    report = json.loads((bad / "report.json").read_text())
    report["fit"][field] = value
    (bad / "report.json").write_text(json.dumps(report))
    assert any(message in e for e in wl.check_sweep(cfg, bad))


def test_sweep_rejects_failed_verdict(sweep_outputs, tmp_path):
    cfg, good, _ = sweep_outputs
    bad = _copy(good, tmp_path / "bad")
    report = json.loads((bad / "report.json").read_text())
    report["verdict"] = "fail"
    (bad / "report.json").write_text(json.dumps(report))
    assert any("verdict" in e for e in wl.check_sweep(cfg, bad))


def test_sweep_rejects_uncertified_point(sweep_outputs, tmp_path):
    cfg, good, _ = sweep_outputs
    bad = _copy(good, tmp_path / "bad")

    def edit(rows):
        rows[2]["richardson"] = "0.2"
    _rewrite_csv(bad / "points.csv", edit)
    assert any("Richardson" in e for e in wl.check_sweep(cfg, bad))


def test_sweep_rejects_non_decreasing_errors(sweep_outputs, tmp_path):
    cfg, good, _ = sweep_outputs
    bad = _copy(good, tmp_path / "bad")

    def edit(rows):
        rows[3]["error"] = rows[1]["error"]
    _rewrite_csv(bad / "points.csv", edit)
    assert any("decrease" in e for e in wl.check_sweep(cfg, bad))


# ---------------------------------------------------------------------------
# 2-D frozen-time solve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solve_outputs(tmp_path_factory):
    cfg = wl.solve_config(SEED)
    base = tmp_path_factory.mktemp("solve")
    return cfg, _run_cli("solve", cfg, base / "good"), base


def test_solve_accepts_program_output(solve_outputs):
    cfg, good, _ = solve_outputs
    assert wl.check_solve(cfg, good) == []


def test_solve_rejects_flipped_limit(solve_outputs):
    cfg, _, base = solve_outputs
    bad = _run_cli("solve", _flipped(cfg), base / "flip")
    errs = wl.check_solve(cfg, bad)
    assert any("c_eff" in e for e in errs)
    assert any("closed form" in e for e in errs)


def test_solve_rejects_distance_below_norm_gap(solve_outputs, tmp_path):
    cfg, good, _ = solve_outputs
    bad = _copy(good, tmp_path / "bad")

    def edit(rows):
        rows[-1]["l2_diff"] = "0.0"
    _rewrite_csv(bad / "checkpoint_norms.csv", edit)
    assert any("exceeds l2_diff" in e for e in wl.check_solve(cfg, bad))


def test_solve_rejects_wrong_error_summary(solve_outputs, tmp_path):
    cfg, good, _ = solve_outputs
    bad = _copy(good, tmp_path / "bad")
    solve = json.loads((bad / "solve.json").read_text())
    solve["error_linf_l2"] *= 0.5
    (bad / "solve.json").write_text(json.dumps(solve))
    assert any("error_linf_l2" in e for e in wl.check_solve(cfg, bad))


# ---------------------------------------------------------------------------
# verify-random
# ---------------------------------------------------------------------------

def _verify(batch, tmp_path: Path, name: str) -> list[dict]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(batch))
    out = tmp_path / f"{name}-results.json"
    _run_job({"kind": "verify", "batch": str(path), "out": str(out)})
    return json.loads(out.read_text())


def test_verify_accepts_program_output_and_rejects_wrong_ones(tmp_path):
    batch = wl.verify_batch(SEED, per_cell=2)
    results = _verify(batch, tmp_path, "good")
    assert wl.check_verify(batch, results) == []

    flipped = [dict(item, sign_override=True) for item in batch]
    errs = wl.check_verify(batch, _verify(flipped, tmp_path, "flip"))
    assert len([e for e in errs if "c_eff" in e]) == len(batch)

    doctored = json.loads(json.dumps(results))
    doctored[3]["checks"][0]["residual"] = 1e-6
    assert any("residual" in e for e in wl.check_verify(batch, doctored))

    doctored = json.loads(json.dumps(results))
    doctored[4]["checks"] = doctored[4]["checks"][1:]
    assert any("identities evaluated" in e
               for e in wl.check_verify(batch, doctored))


def test_oracles_match_known_constants():
    wave = [wl._mode([1], -1, 0.5), wl._mode([-1], 1, 0.5)]
    assert wl.ceff_oracle("critical", wave) == pytest.approx(
        -1 / (2 * (1 + 4 * wl.PI2)), rel=1e-15)
    strong = [wl._mode([s], t, -0.25j * t)
              for s in (1, -1) for t in (1, -1)]
    assert wl.ceff_oracle("strong_fast_time", strong) == pytest.approx(-0.25)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_layer_self_time_subtracts_union_of_foreign_children():
    spans = [
        {"id": "a", "parent": None, "name": "ratelab.run_sweep", "pid": 1,
         "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "name": "ratelab._run_point", "pid": 2,
         "start": 1.0, "end": 6.0},
        {"id": "c", "parent": "a", "name": "ratelab._run_point", "pid": 3,
         "start": 2.0, "end": 9.0},
        {"id": "d", "parent": "b", "name": "pdesolve.solve_epsilon",
         "pid": 2, "start": 1.5, "end": 5.0, "cells": 100, "steps": 10},
        {"id": "e", "parent": "c", "name": "pdesolve.solve_epsilon",
         "pid": 3, "start": 3.0, "end": 8.0, "cells": 100, "steps": 10},
    ]
    m = tracing.layer_metrics(spans)
    assert m["ratelab.run_sweep_self_s"] == pytest.approx(10.0 - 6.5)
    assert m["ratelab.worker_busy_share"] == pytest.approx(12.0 / 20.0)
    assert m["ratelab.longest_point_s"] == pytest.approx(7.0)
    assert m["pdesolve.solves"] == 2
    assert m["pdesolve.solve_epsilon_us_per_step"] == pytest.approx(
        1e6 * 8.5 / 20)


def test_benchmark_json_is_generated_from_definitions():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.benchmark_json()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-critical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
