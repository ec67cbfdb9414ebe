"""One program process of the benchmark.

Protocol over stdin/stdout, one JSON object per line:

  child -> {"ready": true}         after the interpreter has imported
                                    oscpot (with numpy and scipy.fft)
  parent -> job                     {"kind": "exit"}, {"kind": "cli",
                                    "argv": [...], "stdout": path} or
                                    {"kind": "verify", "batch": path,
                                    "out": path}
  child -> {"done": ..., "rc": ...}  after the job's outputs are written

Run as `python3 perfbench/child.py [--trace DIR]`; the parent sets
PYTHONPATH to the checkout's src.  With --trace the child wraps oscpot's
public functions before reporting ready and writes spans into DIR.
"""

import sys

TRACE_DIR = sys.argv[2] if sys.argv[1:2] == ["--trace"] else None

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402,F401
import scipy.fft  # noqa: E402,F401
import oscpot  # noqa: E402
import oscpot.cli  # noqa: E402,F401

tracer = None
if TRACE_DIR is not None:
    import tracing
    tracer = tracing.Tracer(TRACE_DIR)
    tracing.install(tracer)


def run_cli(job: dict) -> int:
    with open(job["stdout"], "w") as fh, contextlib.redirect_stdout(fh):
        return oscpot.cli.main(job["argv"])


def run_verify(job: dict) -> int:
    """identity_report and build_correctors over a batch of potentials,
    through the module attributes so that traced wrappers apply."""
    from oscpot import correctors, potential, ratelab, regimes
    with open(job["batch"]) as fh:
        batch = json.load(fh)
    results = []
    for item in batch:
        W = potential.field_from_descriptor(item["modes"], item["d"])
        regime = regimes.resolve_regime(
            item["k"], potential.GammaMode(item["gamma_mode"]), W,
            sign_override=item.get("sign_override", False))
        report = correctors.identity_report(W, regime)
        cset = correctors.build_correctors(W, regime)
        results.append({"checks": [c.as_dict() for c in report.checks],
                        "all_passed": report.all_passed,
                        "c_eff": ratelab.ceff_as_json(cset.effective)})
    with open(job["out"], "w") as fh:
        json.dump(results, fh)
    return 0


def main() -> int:
    print(json.dumps({"ready": True}), flush=True)
    job = json.loads(sys.stdin.readline() or '{"kind": "exit"}')
    if job["kind"] == "exit":
        return 0
    rc = run_cli(job) if job["kind"] == "cli" else run_verify(job)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"done": True, "rc": rc, "maxrss_kb": usage_self,
                      "children_maxrss_kb": usage_kids}), flush=True)
    if tracer is not None:
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
