"""Rate-sweep plumbing: log-log fits, sweep configs, reports, file outputs.

The end-to-end sweeps here use a deliberately coarse eps ladder so the
whole file stays cheap; the calibrated convergence studies live in the
acceptance suite.
"""
import dataclasses
import json
import math
from concurrent.futures import Future

import numpy as np
import pytest

from oscpot import GammaMode, ScalarSeries, TrigField
from oscpot.errors import BudgetExceeded, DegenerateFit
from oscpot.pdesolve import (InitialDescriptor, InitialTerm, SourceDescriptor,
                             SourceTerm, policy_grid)
from oscpot.ratelab import (CSV_HEADER, FitResult, RateReport, SweepConfig,
                            ceff_as_json, default_workers, fit_loglog,
                            points_csv, points_dat, run_sweep, write_outputs)

F_ZERO = SourceDescriptor.zero()
F_FORCED = SourceDescriptor((SourceTerm(1.0, (1,), omega=2 * math.pi),))
G_SINE = InitialDescriptor((InitialTerm(1.0, (1,)),))

# Small enough to finish in seconds, large enough to exercise every
# code path (fit, richardson, spread, verdict).
CHEAP_LADDER = (1 / 4, 1 / 5, 1 / 6, 1 / 8)


def cheap_config(**overrides) -> SweepConfig:
    base = dict(
        W=TrigField.from_cos(1, [1], -1),
        k=2.0,
        gamma_mode=GammaMode.UNIT,
        f=F_ZERO,
        g=G_SINE,
        T=0.125,
        epsilons=CHEAP_LADDER,
        checkpoints=16,
        slope_tolerance=5.0,
        r2_min=0.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


# ---------------------------------------------------------------------------
# fit_loglog
# ---------------------------------------------------------------------------

class TestFitLoglog:
    def test_exact_line_slope_one(self):
        fit = fit_loglog([0.1, 0.05, 0.025], [0.1, 0.05, 0.025])
        assert abs(fit.slope - 1.0) < 1e-12
        assert fit.r2 > 1.0 - 1e-12
        assert fit.n_used == 3
        assert fit.excluded == ()

    def test_exact_quadratic_slope_two(self):
        eps = [0.1, 0.05, 0.01]
        fit = fit_loglog(eps, [e ** 2 for e in eps])
        assert abs(fit.slope - 2.0) < 1e-12
        assert fit.r2 > 1.0 - 1e-12

    def test_constant_errors_slope_zero(self):
        fit = fit_loglog([0.1, 0.05, 0.025, 0.0125], [0.3, 0.3, 0.3, 0.3])
        assert abs(fit.slope) < 1e-12
        assert fit.r2 == 1.0

    def test_intercept_recovers_prefactor(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        fit = fit_loglog(eps, [0.7 * e ** 1.5 for e in eps])
        assert abs(fit.slope - 1.5) < 1e-12
        assert abs(math.exp(fit.intercept) - 0.7) < 1e-12

    def test_rescaling_moves_only_the_intercept(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        errs = [0.3 * e ** 1.37 for e in eps]
        base = fit_loglog(eps, errs)
        for c in (2.0, 97.0, 1e-6):
            scaled = fit_loglog(eps, [c * v for v in errs])
            assert abs(scaled.slope - base.slope) < 1e-12
            assert abs(scaled.intercept - base.intercept - math.log(c)) < 1e-9
            assert abs(scaled.r2 - base.r2) < 1e-12

    def test_noisy_fit_r2_below_one(self):
        rng = np.random.default_rng(4401)
        eps = [0.2, 0.1, 0.05, 0.025, 0.0125]
        errs = [e * math.exp(0.3 * rng.standard_normal()) for e in eps]
        fit = fit_loglog(eps, errs)
        assert 0.0 < fit.r2 < 1.0
        # polyfit cross-check on the same data
        slope_np = np.polyfit(np.log(eps), np.log(errs), 1)[0]
        assert fit.slope == pytest.approx(slope_np, abs=1e-14)

    def test_floor_points_excluded_with_notice(self):
        eps = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        errs = [1e-3, 1e-4, 5e-13, 1e-5, 1e-6]
        fit = fit_loglog(eps, errs)
        assert fit.n_used == 4
        assert fit.excluded == (0.025,)

    def test_all_floor_degenerate(self):
        with pytest.raises(DegenerateFit, match="need at least 3"):
            fit_loglog([0.1, 0.05, 0.025], [0.0, 1e-13, 1e-15])

    def test_two_survivors_degenerate(self):
        with pytest.raises(DegenerateFit, match="only 2"):
            fit_loglog([0.1, 0.05, 0.025], [0.1, 0.05, 1e-13])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_loglog([0.1, 0.05], [0.1, 0.05, 0.025])


# ---------------------------------------------------------------------------
# SweepConfig validation and worker plumbing
# ---------------------------------------------------------------------------

class TestSweepConfig:
    def test_too_few_eps(self):
        with pytest.raises(ValueError, match="at least 4"):
            cheap_config(epsilons=(1 / 4, 1 / 5, 1 / 6))

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1/4\]"):
            cheap_config(epsilons=(0.3, 0.2, 0.1, 0.05))
        with pytest.raises(ValueError, match=r"\(0, 1/4\]"):
            cheap_config(epsilons=(0.25, 0.2, 0.1, 0.0))

    def test_ladder_must_decrease(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            cheap_config(epsilons=(1 / 4, 1 / 4, 1 / 6, 1 / 8))
        with pytest.raises(ValueError, match="strictly decreasing"):
            cheap_config(epsilons=(1 / 8, 1 / 6, 1 / 5, 1 / 4))

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="final time"):
            cheap_config(T=0.0)

    def test_epsilons_coerced_to_floats(self):
        cfg = cheap_config()
        assert all(isinstance(e, float) for e in cfg.epsilons)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("OSCPOT_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("OSCPOT_WORKERS", "4")
        assert default_workers() == 4
        monkeypatch.setenv("OSCPOT_WORKERS", "junk")
        assert default_workers() == 1
        monkeypatch.setenv("OSCPOT_WORKERS", "-3")
        assert default_workers() == 1


# ---------------------------------------------------------------------------
# run_sweep mechanics on the cheap ladder
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cheap_report():
    return run_sweep(cheap_config())


class TestRunSweep:
    def test_report_shape(self, cheap_report):
        rep = cheap_report
        assert len(rep.points) == len(CHEAP_LADDER)
        assert [p.eps for p in rep.points] == list(CHEAP_LADDER)
        assert rep.fit is not None
        assert rep.theoretical == 1.0
        assert rep.identities_passed
        assert rep.identities_max_residual <= 1e-10

    def test_points_match_policy_grids(self, cheap_report):
        cfg = cheap_config()
        for p in cheap_report.points:
            grid = policy_grid(p.eps, 2.0, 1.0, cfg.T, 1, cfg.checkpoints)
            assert p.nx == grid.nx
            assert p.dt == grid.dt_effective
            assert p.steps == grid.total_steps
            assert p.cells == grid.cell_updates()

    def test_errors_positive_and_finite(self, cheap_report):
        for p in cheap_report.points:
            assert 0.0 < p.error < 1.0
            assert p.max_l2_eps > 0.0
            assert p.max_l2_hom > 0.0

    def test_richardson_certified(self, cheap_report):
        for p in cheap_report.points:
            assert p.richardson is not None
            assert p.richardson <= 0.1

    def test_loose_gates_pass(self, cheap_report):
        assert cheap_report.verdict == "pass"
        assert cheap_report.reasons == ()
        assert cheap_report.passed

    def test_spread_is_max_over_min(self, cheap_report):
        norms = [p.max_l2_eps for p in cheap_report.points]
        assert cheap_report.uniform_spread == max(norms) / min(norms)
        assert cheap_report.uniform_spread < 2.0

    def test_deterministic_rerun(self, cheap_report):
        again = run_sweep(cheap_config())
        assert points_csv(again) == points_csv(cheap_report)
        assert again.fit.slope == cheap_report.fit.slope
        assert again.uniform_spread == cheap_report.uniform_spread

    def test_worker_fanout_matches_serial(self, tmp_path):
        # Richardson on and a source term: each refined pair runs as its
        # own job, and its residual in report.json must come out as in
        # the serial sweep, where it follows its coarse partner.
        cfg = cheap_config(f=F_FORCED)
        assert cfg.run_richardson
        files = []
        for workers in (1, 2):
            report = run_sweep(dataclasses.replace(cfg, workers=workers))
            paths = write_outputs(report, tmp_path / str(workers))
            files.append([paths[key].read_bytes()
                          for key in ("report", "csv")])
        assert files[0] == files[1]

    def test_tight_slope_gate_fails_with_reason(self, cheap_report):
        slope = cheap_report.fit.slope
        gap = abs(slope - 1.0)
        assert gap > 1e-6  # coarse ladder is pre-asymptotic
        rep = run_sweep(cheap_config(slope_tolerance=gap / 2))
        assert rep.verdict == "fail"
        assert any("deviates from theoretical" in r for r in rep.reasons)

    def test_tight_r2_gate_fails_with_reason(self):
        rep = run_sweep(cheap_config(r2_min=1.0, run_richardson=False))
        assert rep.verdict == "fail"
        assert any("below 1.0" in r for r in rep.reasons)

    def test_richardson_skippable(self):
        rep = run_sweep(cheap_config(run_richardson=False,
                                     epsilons=(1 / 4, 1 / 5, 1 / 6, 1 / 7)))
        assert all(p.richardson is None for p in rep.points)

    def test_budget_gate(self):
        cfg = cheap_config()
        total = 0
        for eps in cfg.epsilons:
            grid = policy_grid(eps, cfg.k, 1.0, cfg.T, 1, cfg.checkpoints)
            total += 2 * grid.cell_updates() + 2 * grid.refined().cell_updates()
        with pytest.raises(BudgetExceeded, match="cell updates"):
            run_sweep(dataclasses.replace(cfg, budget=total - 1))
        rep = run_sweep(dataclasses.replace(cfg, budget=total))
        assert rep.verdict == "pass"

    def test_zero_potential_degenerates(self):
        rep = run_sweep(cheap_config(W=TrigField(1, []),
                                     run_richardson=False))
        assert rep.fit is None
        assert rep.verdict == "fail"
        assert any("degenerate fit" in r for r in rep.reasons)
        assert all(p.error <= 1e-12 for p in rep.points)

    def test_sign_override_changes_limit(self, cheap_report):
        rep = run_sweep(cheap_config(sign_override=True))
        assert rep.ceff == -cheap_report.ceff
        assert rep.regime.sign_override


# ---------------------------------------------------------------------------
# Report serialization and file outputs
# ---------------------------------------------------------------------------

class TestOutputs:
    def test_csv_layout(self, cheap_report):
        text = points_csv(cheap_report)
        lines = text.splitlines()
        assert lines[0] + "\n" == CSV_HEADER
        assert len(lines) == 1 + len(cheap_report.points)
        for line, p in zip(lines[1:], cheap_report.points):
            cells = line.split(",")
            assert len(cells) == 10
            assert float(cells[0]) == p.eps
            assert float(cells[1]) == p.error
            assert float(cells[2]) == p.richardson
            assert int(cells[5]) == p.nx
            assert cells[9] in {"0", "1"}

    def test_csv_marks_excluded_points(self):
        point_fields = dict(richardson=None, max_l2_eps=1.0, max_l2_hom=1.0,
                            nx=8, dt=0.1, steps=10, cells=80)
        from oscpot.ratelab import SweepPoint
        points = tuple(
            SweepPoint(eps=e, error=v, **point_fields)
            for e, v in [(0.1, 1e-2), (0.05, 1e-13), (0.025, 1e-3),
                         (0.0125, 1e-4)])
        fit = fit_loglog([p.eps for p in points], [p.error for p in points])
        rep = RateReport(regime=run_sweep(cheap_config()).regime, ceff=-1.0,
                         points=points, fit=fit, theoretical=1.0,
                         verdict="pass", reasons=(), uniform_spread=1.0,
                         identities_passed=True, identities_max_residual=0.0)
        rows = points_csv(rep).splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["0", "1", "0", "0"]

    def test_dat_two_columns(self, cheap_report):
        lines = points_dat(cheap_report).splitlines()
        assert lines[0].startswith("# eps")
        for line, p in zip(lines[1:], cheap_report.points):
            e, v = line.split()
            assert float(e) == p.eps
            assert float(v) == p.error

    def test_write_outputs_round_trip(self, cheap_report, tmp_path):
        paths = write_outputs(cheap_report, tmp_path / "out")
        assert sorted(paths) == ["csv", "dat", "report"]
        assert paths["csv"].read_text() == points_csv(cheap_report)
        assert paths["dat"].read_text() == points_dat(cheap_report)
        blob = json.loads(paths["report"].read_text())
        assert blob["verdict"] == "pass"
        assert blob["theoretical_rate"] == 1.0
        assert len(blob["points"]) == len(cheap_report.points)
        assert blob["regime"]["family"] == "critical"
        assert blob["c_eff"] == cheap_report.ceff

    def test_ceff_json_scalar_and_series(self):
        assert ceff_as_json(-0.25) == -0.25
        series = ScalarSeries({0: 0.5, 1: 0.25 - 0.25j, -1: 0.25 + 0.25j})
        blob = ceff_as_json(series)
        modes = {entry["n"]: complex(entry["re"], entry["im"])
                 for entry in blob["series"]}
        assert modes[0] == 0.5
        assert modes[1] == 0.25 - 0.25j

    def test_fit_result_as_dict(self):
        fit = FitResult(slope=1.0, intercept=-2.0, r2=0.99, n_used=4,
                        excluded=(0.1,))
        assert fit.as_dict() == {"slope": 1.0, "intercept": -2.0, "r2": 0.99,
                                 "n_used": 4, "excluded": [0.1]}

    def test_sweep_point_as_dict_key_order(self, cheap_report):
        # report.json sorts its keys, but other writers may not.
        d = cheap_report.points[0].as_dict()
        assert list(d) == ["eps", "error", "richardson", "max_l2_eps",
                           "max_l2_hom", "nx", "dt", "steps", "cells"]
        assert d["cells"] == cheap_report.points[0].cells


def test_sweep_point_solves_each_grid_pair_once(monkeypatch):
    # A point solves its policy pair and, for the certificate, the refined
    # pair; it must not solve the policy pair a second time.
    import oscpot.ratelab as ratelab
    calls = []
    real = ratelab.solve_pair

    def counting(p, ceff, grid, **kw):
        calls.append(grid.nx)
        return real(p, ceff, grid, **kw)

    monkeypatch.setattr(ratelab, "solve_pair", counting)
    cfg = cheap_config(workers=1)
    report = run_sweep(cfg)
    # In ladder order, each policy grid followed by its refinement.
    assert calls == [nx for p in report.points
                     for nx in (p.nx, 2 * p.nx + 1)]
    # The reused coarse error gives the same certificate as a fresh check.
    from oscpot.pdesolve import (ProblemSpec, refinement_residual,
                                 solve_pair)
    p0 = report.points[0]
    problem = ProblemSpec(W=cfg.W, eps=p0.eps, regime=report.regime,
                          f=cfg.f, g=cfg.g)
    grid = policy_grid(p0.eps, 2.0, 1.0, cfg.T, 1, cfg.checkpoints)
    fresh = [solve_pair(problem, report.ceff, g).error
             for g in (grid, grid.refined())]
    assert p0.richardson == refinement_residual(*fresh)


def test_sweep_builds_one_corrector_set(monkeypatch):
    # c_eff and the identity report come from one corrector set; each
    # build of a set solves chi3 once.
    import oscpot.correctors as correctors
    calls = []
    real = correctors.solve_chi3

    def counting(W):
        calls.append(W)
        return real(W)

    monkeypatch.setattr(correctors, "solve_chi3", counting)
    cfg = cheap_config(workers=1, run_richardson=False)
    report = run_sweep(cfg)
    assert len(calls) == 1
    identities = correctors.identity_report(cfg.W, report.regime)
    assert report.ceff == correctors.effective_potential(report.regime,
                                                         cfg.W)
    assert report.identities_passed == identities.all_passed
    assert report.identities_max_residual == identities.max_residual


def test_pool_gets_the_pair_jobs_longest_first(monkeypatch):
    import oscpot.ratelab as ratelab
    submitted = []

    class InlinePool:
        """Runs each job as it is submitted and records the order."""

        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(ratelab, "ProcessPoolExecutor", InlinePool)
    # At 17 checkpoints eps 1/4 and 0.249 share one policy grid, so their
    # coarse jobs tie, and so do their refined jobs.
    cfg = cheap_config(epsilons=(0.25, 0.249, 0.2, 0.125), checkpoints=17,
                       workers=2)
    report = run_sweep(cfg)
    ladder = []
    for eps in cfg.epsilons:
        grid = policy_grid(eps, 2.0, 1.0, cfg.T, 1, cfg.checkpoints)
        ladder += [(eps, grid), (eps, grid.refined())]
    # Longest first: the refined pair of eps 0.2 comes before the coarse
    # pairs of 0.2 and larger eps; ties keep ladder order.
    assert submitted == [ladder[i] for i in (7, 6, 5, 1, 3, 4, 0, 2)]
    cells = [grid.cell_updates() for _, grid in submitted]
    assert cells == sorted(cells, reverse=True)
    assert cells[3] == cells[4] and cells[6] == cells[7]
    serial = run_sweep(dataclasses.replace(cfg, workers=1))
    assert points_csv(report) == points_csv(serial)
