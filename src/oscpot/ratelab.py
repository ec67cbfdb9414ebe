"""Convergence-rate sweeps over a ladder of eps values.

For each eps the lab solves the singular problem and the homogenized
problem on the policy grid, measures the max-over-checkpoints L2
distance, and optionally certifies the measurement by a joint grid
refinement.  A least-squares line through (log eps, log error) then
produces the empirical rate, which is compared against the proven
exponent of the resolved regime.

A sweep passes when the fitted slope is within `slope_tolerance` of the
theoretical rate, the fit's R^2 is at least `r2_min`, and every
refinement residual stays below `richardson_max`.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .correctors import _identities, build_correctors
from .errors import DegenerateFit
from .potential import GammaMode, ScalarSeries, TrigField
from .pdesolve import (GridSpec, InitialDescriptor, PairNorms, ProblemSpec,
                       SourceDescriptor, check_cost, policy_grid,
                       refinement_residual, solve_pair)
from .regimes import RegimeSpec, resolve_regime

WORKERS_ENV = "OSCPOT_WORKERS"

#: Errors at or below this floor are round-off artifacts and are excluded
#: from rate fits.
ERROR_FLOOR = 1e-12


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


@dataclass(frozen=True)
class SweepConfig:
    """Full specification of one rate sweep."""

    W: TrigField
    k: float
    gamma_mode: GammaMode
    f: SourceDescriptor
    g: InitialDescriptor
    T: float
    epsilons: tuple[float, ...]
    # 96 keeps the snapshot spacing off the half-period lattice of the
    # oscillated potential for the default ladder (e.g. eps = 1/16, k = 1.5
    # has 1/eps^k = 64 oscillations on [0, 1], which 64 checkpoints over
    # T = 1/2 would sample exactly at the zeros of any sine component).
    checkpoints: int = 96
    sign_override: bool = False
    slope_tolerance: float = 0.3
    r2_min: float = 0.95
    richardson_max: float = 0.1
    run_richardson: bool = True
    budget: int | None = None
    workers: int | None = None

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 4:
            raise ValueError(
                f"need at least 4 eps values for a rate fit, got {len(eps)}")
        if any(not 0.0 < e <= 0.25 for e in eps):
            raise ValueError("every eps must lie in (0, 1/4]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps ladder must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")


@dataclass(frozen=True)
class SweepPoint:
    eps: float
    error: float
    richardson: float | None
    max_l2_eps: float
    max_l2_hom: float
    nx: int
    dt: float
    steps: int
    cells: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_used: int
    excluded: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r2": self.r2, "n_used": self.n_used,
                "excluded": list(self.excluded)}


@dataclass(frozen=True)
class RateReport:
    regime: RegimeSpec
    ceff: float | ScalarSeries
    points: tuple[SweepPoint, ...]
    fit: FitResult | None
    theoretical: float
    verdict: str
    reasons: tuple[str, ...]
    uniform_spread: float
    identities_passed: bool
    identities_max_residual: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {
            "regime": self.regime.as_dict(),
            "c_eff": ceff_as_json(self.ceff),
            "points": [p.as_dict() for p in self.points],
            "fit": self.fit.as_dict() if self.fit else None,
            "theoretical_rate": self.theoretical,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "uniform_spread": self.uniform_spread,
            "identities_passed": self.identities_passed,
            "identities_max_residual": self.identities_max_residual,
        }


def ceff_as_json(value: float | TrigField):
    """A constant as a number; a function of tau (d = 0) as its series."""
    if isinstance(value, TrigField):
        return {"series": [{"n": n, "re": c.real, "im": c.imag}
                           for _, n, c in value.terms]}
    return float(value)


def fit_loglog(eps, errors) -> FitResult:
    """Least-squares slope of log(error) against log(eps).

    Errors at or below ERROR_FLOOR are excluded; fewer than 3 surviving
    points raise DegenerateFit.
    """
    eps = [float(e) for e in eps]
    errors = [float(v) for v in errors]
    if len(eps) != len(errors):
        raise ValueError("eps and errors must have equal length")
    used = [(e, v) for e, v in zip(eps, errors) if v > ERROR_FLOOR]
    excluded = tuple(e for e, v in zip(eps, errors) if v <= ERROR_FLOOR)
    if len(used) < 3:
        raise DegenerateFit(
            f"only {len(used)} errors above the floor {ERROR_FLOOR:g}; "
            f"need at least 3 for a slope")
    x = np.log([e for e, _ in used])
    y = np.log([v for _, v in used])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot < 1e-30:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2,
                     n_used=len(used), excluded=excluded)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

def _run_point(cfg: SweepConfig, regime: RegimeSpec, ceff, eps: float,
               grid: GridSpec) -> PairNorms:
    """One job of a sweep: the pair solve of one eps on one grid, the
    policy grid or its refinement."""
    problem = ProblemSpec(W=cfg.W, eps=eps, regime=regime, f=cfg.f, g=cfg.g)
    return solve_pair(problem, ceff, grid)


def _run_jobs(run, jobs: list[tuple[float, GridSpec]],
              workers: int) -> list[PairNorms]:
    """run(*job) for every job, results in job order.

    Over several workers the jobs go to the pool longest first, by cell
    updates with ties in job order (LPT), so that the largest pairs do
    not start last.  A failure is the first failing job in job order, as
    in the serial loop; once it is known, the jobs still queued are
    cancelled."""
    if workers <= 1:
        return [run(*job) for job in jobs]
    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][1].cell_updates())
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(run, *jobs[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(jobs))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_sweep(cfg: SweepConfig) -> RateReport:
    """Execute the sweep and assemble the rate report.

    Each pair solve is one job: the policy grid of every eps, and with
    Richardson on its refinement right after it.  Before any solve it
    raises ChainIdentityViolation at a failing chain stage, BudgetExceeded
    past the budget and resolve_regime's regime or admissibility errors.
    """
    regime = resolve_regime(cfg.k, cfg.gamma_mode, cfg.W,
                            sign_override=cfg.sign_override)
    cset = build_correctors(cfg.W, regime)
    ceff, identities = cset.effective, _identities(cset, cfg.W)

    workers = cfg.workers if cfg.workers is not None else default_workers()
    workers = min(workers, len(cfg.epsilons))
    grids = [policy_grid(eps, regime.k, regime.gamma, cfg.T, cfg.W.d,
                         cfg.checkpoints) for eps in cfg.epsilons]
    jobs = []
    for eps, grid in zip(cfg.epsilons, grids):
        jobs.append((eps, grid))
        if cfg.run_richardson:
            jobs.append((eps, grid.refined()))
    check_cost("sweep", cfg.W, [g for _, g in jobs], cfg.budget, workers)
    norms = _run_jobs(functools.partial(_run_point, cfg, regime, ceff),
                      jobs, workers)
    per_point = len(jobs) // len(grids)
    points = []
    for i, (eps, grid) in enumerate(zip(cfg.epsilons, grids)):
        coarse, *fine = norms[per_point * i:per_point * (i + 1)]
        rich = (refinement_residual(coarse.error, fine[0].error) if fine
                else None)
        points.append(SweepPoint(
            eps=eps, error=coarse.error, richardson=rich,
            max_l2_eps=coarse.max_l2_eps, max_l2_hom=coarse.max_l2_hom,
            nx=grid.nx, dt=grid.dt, steps=grid.total_steps,
            cells=grid.cell_updates()))

    reasons: list[str] = []
    fit = None
    try:
        fit = fit_loglog([p.eps for p in points], [p.error for p in points])
    except DegenerateFit as exc:
        reasons.append(f"degenerate fit: {exc}")

    if fit is not None:
        if abs(fit.slope - regime.rate) > cfg.slope_tolerance:
            reasons.append(
                f"slope {fit.slope:.3f} deviates from theoretical "
                f"{regime.rate:.3f} by more than {cfg.slope_tolerance}")
        if fit.r2 < cfg.r2_min:
            reasons.append(f"R^2 {fit.r2:.4f} below {cfg.r2_min}")
    if cfg.run_richardson:
        for p in points:
            if p.richardson is not None and p.richardson > cfg.richardson_max:
                reasons.append(
                    f"refinement residual {p.richardson:.3f} at eps "
                    f"{p.eps:g} exceeds {cfg.richardson_max}")

    norms = [p.max_l2_eps for p in points]
    low = min(norms)
    spread = math.inf if low <= 0 else max(norms) / low

    return RateReport(
        regime=regime,
        ceff=ceff,
        points=tuple(points),
        fit=fit,
        theoretical=regime.rate,
        verdict="fail" if reasons else "pass",
        reasons=tuple(reasons),
        uniform_spread=spread,
        identities_passed=identities.all_passed,
        identities_max_residual=identities.max_residual,
    )


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------

CSV_HEADER = ("eps,error,richardson,max_l2_eps,max_l2_hom,"
              "nx,dt,steps,cells,excluded\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def points_csv(report: RateReport) -> str:
    """Deterministic CSV of the sweep points (shortest round-trip float
    formatting, fixed row order)."""
    excluded = set(report.fit.excluded) if report.fit else set()
    rows = [CSV_HEADER]
    for p in report.points:
        rows.append(",".join([
            _fmt(p.eps), _fmt(p.error), _fmt(p.richardson),
            _fmt(p.max_l2_eps), _fmt(p.max_l2_hom),
            str(p.nx), _fmt(p.dt), str(p.steps), str(p.cells),
            "1" if p.eps in excluded else "0",
        ]) + "\n")
    return "".join(rows)


def points_dat(report: RateReport) -> str:
    """Two-column gnuplot data file: eps, error."""
    lines = ["# eps  error  (theoretical rate "
             f"{report.theoretical:g})\n"]
    for p in report.points:
        lines.append(f"{_fmt(p.eps)} {_fmt(p.error)}\n")
    return "".join(lines)


def write_json(path: Path, payload: dict) -> None:
    """The one JSON format of every output file: sorted keys, indent 2."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_outputs(report: RateReport, outdir: str | Path) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    paths["report"] = outdir / "report.json"
    write_json(paths["report"], report.as_dict())
    paths["csv"] = outdir / "points.csv"
    paths["csv"].write_text(points_csv(report))
    paths["dat"] = outdir / "points.dat"
    paths["dat"].write_text(points_dat(report))
    return paths
