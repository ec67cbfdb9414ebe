"""Inputs and independent output checks for the four benchmark workloads.

Every input is made from the seed alone; the program only ever sees the
generated config or batch file.  Every check compares the program's
outputs with values computed here from the input coefficients (Parseval
sums, the heat-kernel closed form), or with a property the method must
have.  Nothing in this file imports oscpot.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

TWO_PI = 2.0 * math.pi
PI2 = math.pi ** 2

#: eps ladder of both sweeps: four points, the fewest a rate fit accepts.
SWEEP_LADDER = (1 / 8, 1 / 10, 1 / 12, 1 / 16)
SWEEP_T = 0.25
#: 96 snapshots; the CLI would default to 64 (see CHANGES.md).
SWEEP_CHECKPOINTS = 96
SOLVE_EPS = 1 / 8
SOLVE_T = 1 / 32
SOLVE_CHECKPOINTS = 64
#: Potentials per (family, d) cell of the verify-random batch.
VERIFY_PER_CELL = 25
#: Distinct conjugate pairs per random potential (24 Fourier entries).
VERIFY_PAIRS = 12

#: (k, gamma_mode) per regime family, one representative each.
FAMILIES = {
    "critical": (2.0, "unit"),
    "supercritical": (2.5, "unit"),
    "subcritical": (1.5, "unit"),
    "slow_time": (0.5, "unit"),
    "frozen_time": (0.0, "unit"),
    "strong_fast_time": (2.5, "k_minus_1"),
}

RICHARDSON_MAX = 0.1
SLOPE_TOL = 0.3
R2_MIN = 0.95
CEFF_TOL = 1e-12
NORM_REL_TOL = 1e-4
IDENTITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _mode(m, n, c: complex) -> dict:
    return {"m": list(m), "n": n, "re": c.real, "im": c.imag}


def sweep_config(seed: int, forced: bool) -> dict:
    """Critical travelling wave W = cos(2 pi (y - tau) + phi), k = 2.

    The seed draws the phase phi and the amplitude of g = a sin(pi x);
    neither changes the amount of work or c_eff.
    """
    rng = random.Random(seed)
    phi = rng.uniform(0.0, TWO_PI)
    amp = rng.uniform(0.5, 2.0)
    problem = {"T": SWEEP_T, "g": [{"amp": amp, "j": [1]}]}
    if forced:
        problem["f"] = [{"amp": 1.0, "j": [1], "omega": TWO_PI}]
    return {
        "potential": {"d": 1, "modes": [
            _mode([1], -1, 0.5 * complex(math.cos(phi), math.sin(phi)))]},
        "regime": {"k": 2.0, "gamma_mode": "unit"},
        "problem": problem,
        "grid": {"checkpoints": SWEEP_CHECKPOINTS},
        "sweep": {"epsilons": list(SWEEP_LADDER)},
    }


def solve_config(seed: int) -> dict:
    """Frozen-time W = cos(2 pi y1 + phi)(1 + cos 2 pi tau) in 2-D, k = 0,
    g = a sin(pi x1) sin(pi x2); the seed draws phi and a."""
    rng = random.Random(seed)
    phi = rng.uniform(0.0, TWO_PI)
    amp = rng.uniform(0.5, 2.0)
    e = complex(math.cos(phi), math.sin(phi))
    return {
        "potential": {"d": 2, "modes": [
            _mode([1, 0], 0, 0.5 * e),
            _mode([1, 0], 1, 0.25 * e),
            _mode([1, 0], -1, 0.25 * e)]},
        "regime": {"k": 0.0, "gamma_mode": "unit"},
        "problem": {"T": SOLVE_T, "g": [{"amp": amp, "j": [1, 1]}]},
        "grid": {"checkpoints": SOLVE_CHECKPOINTS},
        "epsilon": SOLVE_EPS,
    }


def _random_potential(family: str, d: int, rng: random.Random) -> list[dict]:
    """VERIFY_PAIRS distinct conjugate pairs obeying the family's
    structural condition, conjugate partners listed explicitly."""
    keys = []
    for m in _lattice(d):
        for n in range(-2, 3):
            if not any(m) and n == 0:
                continue
            if family == "strong_fast_time" and n == 0:
                continue
            if family in ("slow_time", "frozen_time") and not any(m):
                continue
            if ((m, n) > (tuple(-v for v in m), -n)):
                keys.append((m, n))   # one representative per pair
    chosen = rng.sample(keys, VERIFY_PAIRS)
    modes = []
    for m, n in chosen:
        c = 0.5 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        modes.append(_mode(m, n, c))
        modes.append(_mode([-v for v in m], -n, c.conjugate()))
    return modes


def _lattice(d: int):
    if d == 1:
        return [(a,) for a in range(-3, 4)]
    return [(a, b) for a in range(-3, 4) for b in range(-3, 4)]


def verify_batch(seed: int, per_cell: int = VERIFY_PER_CELL) -> list[dict]:
    """Random admissible potentials, per_cell of each (family, d) pair,
    interleaved so that every prefix mixes all twelve cells."""
    rng = random.Random(seed)
    batch = []
    for _ in range(per_cell):
        for family, (k, gamma_mode) in FAMILIES.items():
            for d in (1, 2):
                batch.append({"family": family, "d": d, "k": k,
                              "gamma_mode": gamma_mode,
                              "modes": _random_potential(family, d, rng)})
    return batch


# ---------------------------------------------------------------------------
# Closed-form effective potentials (Parseval sums over the coefficients)
# ---------------------------------------------------------------------------

def _coeffs(modes: list[dict]) -> dict:
    return {(tuple(e["m"]), e["n"]): complex(e["re"], e["im"]) for e in modes}


def ceff_oracle(family: str, modes: list[dict]):
    """c_eff in the convention du/dt - Lap u + c_eff u = f.

    A float for the constant families, a {n: coefficient} dict for the
    frozen-time series.
    """
    C = _coeffs(modes)
    msq = {key: sum(v * v for v in key[0]) for key in C}
    if family == "critical":
        return -sum(abs(c) ** 2 * 4 * PI2 * msq[key]
                    / ((TWO_PI * key[1]) ** 2 + (4 * PI2 * msq[key]) ** 2)
                    for key, c in C.items())
    if family == "supercritical":
        return -sum(abs(c) ** 2 / (4 * PI2 * msq[key])
                    for key, c in C.items() if key[1] == 0 and msq[key])
    if family in ("subcritical", "slow_time"):
        return -sum(abs(c) ** 2 / (4 * PI2 * msq[key])
                    for key, c in C.items() if msq[key])
    if family == "strong_fast_time":
        return -sum(abs(c) ** 2 * msq[key] / key[1] ** 2
                    for key, c in C.items())
    if family == "frozen_time":
        series: dict[int, complex] = {}
        for (m, n1), c1 in C.items():
            if not msq[(m, n1)]:
                continue
            neg_m = tuple(-v for v in m)
            for (m2, n2), c2 in C.items():
                if m2 == neg_m:
                    series[n1 + n2] = series.get(n1 + n2, 0j) \
                        - c1 * c2 / (4 * PI2 * msq[(m, n1)])
        return series
    raise ValueError(f"unknown family {family!r}")


def ceff_scale(modes: list[dict]) -> float:
    """Round-off scale of the c_eff sums: the largest term they can hold."""
    C = _coeffs(modes)
    return max(1.0, sum(abs(c) ** 2 * max(1, sum(v * v for v in key[0]))
                        for key, c in C.items()))


def _series_from_json(value) -> dict[int, complex]:
    return {e["n"]: complex(e["re"], e["im"]) for e in value["series"]}


def ceff_errors(expected, got, scale: float, where: str) -> list[str]:
    """Compare a program c_eff (JSON form) with the oracle."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{where}: c_eff should be a series, got {got!r}"]
        got_s = _series_from_json(got)
        worst = max((abs(got_s.get(n, 0j) - expected.get(n, 0j))
                     for n in set(got_s) | set(expected)), default=0.0)
    else:
        if isinstance(got, dict):
            return [f"{where}: c_eff should be a constant, got a series"]
        worst = abs(float(got) - expected)
    if not worst <= CEFF_TOL * scale:
        return [f"{where}: c_eff differs from the Parseval sum by {worst:.3e}"]
    return []


# ---------------------------------------------------------------------------
# Output checks; each returns a list of failure messages (empty = correct)
# ---------------------------------------------------------------------------

def check_sweep(cfg: dict, outdir: Path) -> list[str]:
    report = json.loads((outdir / "report.json").read_text())
    with open(outdir / "points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errs = []
    modes = cfg["potential"]["modes"]
    full = modes + [_mode([-v for v in e["m"]], -e["n"],
                          complex(e["re"], -e["im"])) for e in modes]
    errs += ceff_errors(ceff_oracle("critical", full), report["c_eff"],
                        ceff_scale(full), "sweep")
    if report["verdict"] != "pass":
        errs.append(f"verdict {report['verdict']}: {report['reasons']}")
    fit = report["fit"] or {}
    slope, r2 = fit.get("slope", math.nan), fit.get("r2", math.nan)
    if not abs(slope - 1.0) <= SLOPE_TOL:
        errs.append(f"slope {slope} not within {SLOPE_TOL} of the proven rate 1")
    if not r2 >= R2_MIN:
        errs.append(f"R^2 {r2} below {R2_MIN}")
    eps = [float(r["eps"]) for r in rows]
    if eps != [float(e) for e in cfg["sweep"]["epsilons"]]:
        errs.append(f"points cover eps {eps}, not the ladder")
    for r in rows:
        rich = float(r["richardson"]) if r["richardson"] else math.nan
        if not rich <= RICHARDSON_MAX:
            errs.append(f"Richardson residual {r['richardson']!r} at eps "
                        f"{r['eps']} exceeds {RICHARDSON_MAX}")
    errors = [float(r["error"]) for r in rows]
    if any(not b < a for a, b in zip(errors, errors[1:])):
        errs.append(f"errors do not decrease with eps: {errors}")
    return errs


def frozen_ceff_integral(t: float) -> float:
    """int_0^t c_eff for c_eff = -(1 + cos 2 pi s)^2 / (8 pi^2)."""
    return -(1.5 * t + math.sin(TWO_PI * t) / math.pi
             + math.sin(2 * TWO_PI * t) / (4 * TWO_PI)) / (8 * PI2)


def check_solve(cfg: dict, outdir: Path) -> list[str]:
    solve = json.loads((outdir / "solve.json").read_text())
    with open(outdir / "checkpoint_norms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errs = []
    expected = {0: -3 / (16 * PI2), 1: -1 / (8 * PI2), -1: -1 / (8 * PI2),
                2: -1 / (32 * PI2), -2: -1 / (32 * PI2)}
    errs += ceff_errors(expected, solve["c_eff"], 1.0, "solve")
    amp = cfg["problem"]["g"][0]["amp"]
    T = cfg["problem"]["T"]
    n = cfg["grid"]["checkpoints"]
    if len(rows) != n + 1:
        errs.append(f"{len(rows)} checkpoint rows, expected {n + 1}")
    worst_norm = 0.0
    diffs = []
    for i, r in enumerate(rows):
        t, le, lh, ld = (float(r[k]) for k in ("t", "l2_eps", "l2_hom",
                                                 "l2_diff"))
        if abs(t - i * T / n) > 1e-12:
            errs.append(f"checkpoint {i} at t = {t}, expected {i * T / n}")
        # g = a sin(pi x1) sin(pi x2) has L2 norm a/2; the homogenized
        # solution decays by exp(-2 pi^2 t - int c_eff).
        exact = 0.5 * amp * math.exp(-2 * PI2 * t - frozen_ceff_integral(t))
        worst_norm = max(worst_norm, abs(lh - exact) / exact)
        if not abs(le - lh) <= ld * (1 + 1e-12) + 1e-15:
            errs.append(f"t = {t}: |l2_eps - l2_hom| = {abs(le - lh):.3e} "
                        f"exceeds l2_diff = {ld:.3e}")
        diffs.append(ld)
    if not worst_norm <= NORM_REL_TOL:
        errs.append(f"homogenized norms miss the closed form by "
                    f"{worst_norm:.3e} relative (> {NORM_REL_TOL})")
    if diffs and not abs(max(diffs) - solve["error_linf_l2"]) \
            <= 1e-12 * max(diffs):
        errs.append(f"error_linf_l2 {solve['error_linf_l2']} is not the "
                    f"largest checkpoint distance {max(diffs)}")
    return errs


def expected_identity_count(modes: list[dict]) -> int:
    """Identities evaluated (not skipped) for an admissible potential: the
    three energy pairings and two chain means always, plus the three
    tau-primitive identities when W has no n = 0 modes."""
    tau_mean_free = all(e["n"] != 0 for e in modes)
    return 5 + (3 if tau_mean_free else 0)


def check_verify(batch: list[dict], results: list[dict]) -> list[str]:
    if len(results) != len(batch):
        return [f"{len(results)} results for {len(batch)} potentials"]
    errs = []
    for i, (item, res) in enumerate(zip(batch, results)):
        where = f"potential {i} ({item['family']}, d={item['d']})"
        evaluated = [c for c in res["checks"] if not c["skipped"]]
        if len(evaluated) != expected_identity_count(item["modes"]):
            errs.append(f"{where}: {len(evaluated)} identities evaluated, "
                        f"expected {expected_identity_count(item['modes'])}")
        for c in evaluated:
            if not c["residual"] <= IDENTITY_TOL:
                errs.append(f"{where}: {c['name']} residual {c['residual']}")
        if not res["all_passed"]:
            errs.append(f"{where}: identity report did not pass")
        errs += ceff_errors(ceff_oracle(item["family"], item["modes"]),
                            res["c_eff"], ceff_scale(item["modes"]), where)
    return errs
