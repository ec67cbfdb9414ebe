"""oscpot benchmark: time to a certified rate verdict, 2-D solves and
identity checks, with a per-module trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a checkout.  Each operation starts the program in a
fresh process (perfbench/child.py, with PYTHONPATH=src), hands it the
input made from the seed, waits for its outputs, then checks them
against values computed here (perfbench/workloads.py).  Operations repeat
until S seconds have passed.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

RUN_SECONDS = 25
#: Bare launches for setup_s before the first round; each round adds one
#: more, and every operation's own launch is a sample too, so the samples
#: span the whole run.
SETUP_LAUNCHES = 4
#: A child that has not answered by then is killed and its operation
#: counts as failed.
OP_TIMEOUT_S = 60
#: Pin every thread pool the imports may start to one thread: numpy's
#: OpenBLAS would otherwise start nproc threads on import, which makes
#: start-up time depend on other load on the machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


@dataclass
class Workload:
    why: str
    prepare: Callable[[int, Path], "Prepared"]


@dataclass
class Prepared:
    job: Callable[[Path], dict]          # operation directory -> child job
    check: Callable[[Path], list[str]]   # operation directory -> failures
    workers: int = 0                     # worker processes the job starts


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def _cli_job(argv: list[str]) -> Callable[[Path], dict]:
    def job(opdir: Path) -> dict:
        return {"kind": "cli", "argv": argv + ["--out", str(opdir)],
                "stdout": str(opdir / "stdout.txt")}
    return job


def prepare_sweep(forced: bool, workers: int):
    def prepare(seed: int, rundir: Path) -> Prepared:
        cfg = wl.sweep_config(seed, forced)
        path = _write_json(rundir / "config.json", cfg)
        return Prepared(
            job=_cli_job(["sweep", "--config", str(path),
                          "--workers", str(workers)]),
            check=lambda opdir: wl.check_sweep(cfg, opdir),
            workers=workers if workers > 1 else 0)
    return prepare


def prepare_solve(seed: int, rundir: Path) -> Prepared:
    cfg = wl.solve_config(seed)
    path = _write_json(rundir / "config.json", cfg)
    return Prepared(job=_cli_job(["solve", "--config", str(path)]),
                    check=lambda opdir: wl.check_solve(cfg, opdir))


def prepare_verify(seed: int, rundir: Path) -> Prepared:
    batch = wl.verify_batch(seed)
    path = _write_json(rundir / "batch.json", batch)

    def job(opdir: Path) -> dict:
        return {"kind": "verify", "batch": str(path),
                "out": str(opdir / "results.json")}

    def check(opdir: Path) -> list[str]:
        results = json.loads((opdir / "results.json").read_text())
        return wl.check_verify(batch, results)
    return Prepared(job=job, check=check)


WORKLOADS = {
    "sweep-critical": Workload(
        "serial critical-rate sweep with Richardson certification; small "
        "1-D grids, so per-step overhead of the pdesolve marches dominates",
        prepare_sweep(forced=False, workers=1)),
    "sweep-forced-2w": Workload(
        "the same sweep with a time-periodic source over 2 worker "
        "processes; the only use of ratelab's fan-out and the source path",
        prepare_sweep(forced=True, workers=2)),
    "solve-2d-frozen": Workload(
        "one 2-D solve at k = 0: 65k-cell sine transforms, a time-dependent "
        "c_eff, the largest snapshot arrays and no Richardson step",
        prepare_solve),
    "verify-random": Workload(
        "identity reports and corrector sets for 300 random potentials in "
        "all six families, d = 1 and 2; exact coefficient algebra only",
        prepare_verify),
}


# ---------------------------------------------------------------------------
# Program processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.pop("OSCPOT_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class ChildError(RuntimeError):
    pass


class Child:
    """One program process; setup_s is measured by start()."""

    def __init__(self, trace_dir: Path | None = None):
        cmd = [sys.executable, str(BENCH / "child.py")]
        if trace_dir is not None:
            cmd += ["--trace", str(trace_dir)]
        self.cmd = cmd

    def start(self) -> float:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=child_env(),
                                     cwd=ROOT, text=True)
        self.timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        line = self.proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not line.strip().startswith('{"ready"'):
            self.close()
            raise ChildError(f"program process did not start: {line!r}")
        return setup

    def run(self, job: dict) -> tuple[float, dict | None]:
        """Hand over the job; return run_s and the child's report."""
        t0 = time.perf_counter()
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        self.close()
        return elapsed, json.loads(line) if line.strip() else None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "oscpot" / "__init__.py").is_file():
        raise ChildError(f"no oscpot sources under {ROOT / 'src'}")
    RUNS.mkdir(exist_ok=True)
    rundir = RUNS / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        return _measure(WORKLOADS[name], name, seed, seconds, trace, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(workload: Workload, name: str, seed: int, seconds: float,
             trace: bool, rundir: Path) -> dict:
    prepared = workload.prepare(seed, rundir)
    # One launch compiles bytecode and warms the file cache; untimed.
    child = Child()
    child.start()
    child.run({"kind": "exit"})
    setups = [_bare_setup() for _ in range(SETUP_LAUNCHES)]

    plain_s, traced_s, rss, layers = [], [], [], []
    attempted = failed = 0
    failures: list[str] = []            # check failures of finished ops
    t_start = time.perf_counter()
    while True:
        # A round is one operation, or with tracing an untraced and a
        # traced one, then one bare launch; every run attempts whole rounds.
        for traced in ((False, True) if trace else (False,)):
            attempted += 1
            opdir = rundir / f"op-{attempted}"
            opdir.mkdir()
            trace_dir = opdir / "trace" if traced else None
            if traced:
                trace_dir.mkdir()
            child = Child(trace_dir)
            setups.append(child.start())
            run_s, report = child.run(prepared.job(opdir))
            if report is None or report.get("rc") != 0:
                failed += 1
                print(f"operation {attempted} failed: {report}",
                      file=sys.stderr)
                continue
            try:
                failures += prepared.check(opdir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"operation {attempted}: unreadable "
                                f"outputs: {exc!r}")
            if traced:
                spans = tracing.load_spans(trace_dir)
                layers.append(tracing.layer_metrics(spans))
                _keep_trace(name, spans)
                traced_s.append(run_s)
            else:
                plain_s.append(run_s)
                rss.append((report["maxrss_kb"] + prepared.workers
                            * report["children_maxrss_kb"]) / 1024.0)
            shutil.rmtree(opdir)
        setups.append(_bare_setup())
        if time.perf_counter() - t_start >= seconds:
            break

    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if trace:
        metrics = {key: {"value": _median([m[key] for m in layers]),
                         "unit": unit}
                   for key, unit in tracing.PER_LAYER_UNITS.items()
                   if not key.startswith("trace.")}
        metrics["trace.run_s"] = {"value": _median(traced_s), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": _median(traced_s) - _median(plain_s), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": _median(setups), "unit": "s"},
            "run_s": {"value": _median(plain_s), "unit": "s"},
            "peak_rss_mb": {"value": _median(rss), "unit": "MiB"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _bare_setup() -> float:
    child = Child()
    setup = child.start()
    child.run({"kind": "exit"})
    return setup


def _keep_trace(name: str, spans: list[dict]) -> None:
    """Keep the spans of the latest traced operation per workload."""
    with open(RUNS / f"trace-{name}.jsonl", "w") as fh:
        for span in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(span) + "\n")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u in tracing.PER_LAYER_UNITS.items()],
    }


def _better(metric: str) -> str:
    higher = ("_mcells_per_s", "worker_busy_share")
    return "higher" if metric.endswith(higher) else "lower"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        _write_json(ROOT / "BENCHMARK.json", benchmark_json())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except ChildError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
