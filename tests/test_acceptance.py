"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run as `pytest tests/test_acceptance.py -v -s`.  Each test prints a
single `criterion NN: PASS/FAIL` line with the measured quantities, then
asserts.  The five rate sweeps reuse one frozen protocol (d=1,
g = sin(pi x), f = 0, eps ladder 1/8..1/32) and together take a few
minutes; everything else is seconds.

Potentials are chosen so the limiting term each study isolates is
actually visible at the ladder's scale:

  * the travelling wave cos(2 pi (y - tau)) is the standard critical
    probe with a closed-form limit;
  * adding the pure-tau mode cos(2 pi tau) activates, below k = 2, the
    slow drift that the iterated time primitives remove only up to
    order eps^(k-1);
  * the slow/frozen potential cos(2 pi y)(1 + cos(2 pi tau)) makes the
    limit genuinely time dependent; the slow sweep scales it by 4 so
    the quadratic-in-amplitude limit term dominates the
    linear-in-amplitude corrector remainder;
  * sin(2 pi tau) cos(2 pi y) has no tau-constant modes, the strongest
    admissible scaling, and limit -1/4;
  * the supercritical probe needs a sin-phase time factor: with
    amplitude A in cos(2 pi y)(1 + A sin(2 pi tau)) the first-order
    remainder carries the secular weight A/(4 pi), which a cos phase
    would cancel, hiding the rate.
"""
import json
import math

import numpy as np
import pytest

from conftest import FAMILY_PARAMS, random_admissible
from oscpot import GammaMode, TrigField
from oscpot.cli import main as cli_main
from oscpot.correctors import (effective_potential, identity_report,
                               solve_chi1, tensor_trapezoid_mean)
from oscpot.pdesolve import (GridSpec, InitialDescriptor, InitialTerm,
                             ProblemSpec, SourceDescriptor, policy_grid,
                             solve_epsilon, solve_homogenized)
from oscpot.potential import sample_oscillated
from oscpot.ratelab import SweepConfig, points_csv, run_sweep
from oscpot.regimes import resolve_regime

LADDER = (1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32)
F_ZERO = SourceDescriptor.zero()
G_SINE = InitialDescriptor((InitialTerm(1.0, (1,)),))

COS_Y = TrigField.from_cos(1, [1], 0)
W_CRITICAL = TrigField.from_cos(1, [1], -1)
W_SUBCRITICAL = W_CRITICAL + TrigField.from_cos(1, [0], 1)
W_SLOW = 4.0 * (COS_Y + COS_Y * TrigField.from_cos(1, [0], 1))
W_FROZEN = COS_Y + COS_Y * TrigField.from_cos(1, [0], 1)
W_STRONG = TrigField.from_sin(1, [0], 1) * COS_Y
W_SUPER = COS_Y + 6.0 * COS_Y * TrigField.from_sin(1, [0], 1)


def _verdict(num: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sweep(W, k, gamma_mode, T, flip=False):
    return run_sweep(SweepConfig(W=W, k=k, gamma_mode=gamma_mode,
                                 f=F_ZERO, g=G_SINE, T=T, epsilons=LADDER,
                                 sign_override=flip))


@pytest.fixture(scope="module")
def critical_sweep():
    return _sweep(W_CRITICAL, 2.0, GammaMode.UNIT, 0.5)


@pytest.fixture(scope="module")
def subcritical_sweep():
    return _sweep(W_SUBCRITICAL, 1.5, GammaMode.UNIT, 0.5)


@pytest.fixture(scope="module")
def slow_sweep():
    return _sweep(W_SLOW, 0.5, GammaMode.UNIT, 0.5)


@pytest.fixture(scope="module")
def frozen_sweep():
    return _sweep(W_FROZEN, 0.0, GammaMode.UNIT, 0.5)


@pytest.fixture(scope="module")
def strong_sweep():
    return _sweep(W_STRONG, 2.5, GammaMode.K_MINUS_1, 0.25)


@pytest.fixture(scope="module")
def supercritical_sweep():
    return _sweep(W_SUPER, 2.5, GammaMode.UNIT, 0.5)


def test_c01_identity_suite():
    rng = np.random.default_rng(612)
    worst = 0.0
    count = 0
    for family, (k, gamma_mode) in FAMILY_PARAMS.items():
        for _ in range(25):
            W = random_admissible(family, rng)
            regime = resolve_regime(k, gamma_mode, W)
            report = identity_report(W, regime)
            worst = max(worst, report.max_residual)
            count += 1
            if not report.all_passed:
                failure = report.first_failure()
                _verdict("01", False,
                         f"{family}: {failure.name} residual "
                         f"{failure.residual:.3e}")
    _verdict("01", worst <= 1e-10,
             f"{count} random admissible potentials, max identity residual "
             f"{worst:.3e} <= 1e-10")


def test_c02_effective_constant_oracles():
    strong = effective_potential(
        resolve_regime(2.5, GammaMode.K_MINUS_1, W_STRONG), W_STRONG)
    crit = effective_potential(
        resolve_regime(2.0, GammaMode.UNIT, W_CRITICAL), W_CRITICAL)
    exact = -0.5 / (1.0 + 4.0 * math.pi ** 2)
    chi1 = solve_chi1(W_CRITICAL)
    quad = -tensor_trapezoid_mean(
        lambda y, tau: np.real(chi1.evaluate(y, tau)
                               * W_CRITICAL.evaluate(y, tau)),
        2, 128)
    err_strong = abs(strong - (-0.25))
    err_crit = abs(crit - exact)
    err_quad = abs(quad - exact)
    ok = err_strong <= 1e-12 and err_crit <= 1e-12 and err_quad <= 1e-8
    _verdict("02", ok,
             f"|c_eff + 1/4| = {err_strong:.2e} <= 1e-12, "
             f"|c_eff - closed form| = {err_crit:.2e} <= 1e-12, "
             f"quadrature gap {err_quad:.2e} <= 1e-8")


def test_c03_solver_validation():
    # pinned heat benchmark: one eigenmode, exact factor e^(-pi^2 t)
    grid = GridSpec(1, 256, 1e-4, 0.25, 50)
    traj = solve_homogenized(0.0, F_ZERO, G_SINE, grid)
    x = grid.axes()[0]
    heat_err = max(
        math.sqrt(grid.h) * float(np.linalg.norm(
            u - math.exp(-math.pi ** 2 * t) * np.sin(math.pi * x)))
        for t, u in zip(traj.times, traj.snapshots))

    # manufactured solution u* = e^(-t) sin(pi x) for the oscillated
    # problem at eps = 1/8, k = 2: the source absorbs the potential term
    eps, k, gamma = 0.125, 2.0, 1.0
    regime = resolve_regime(k, GammaMode.UNIT, W_CRITICAL)
    problem = ProblemSpec(W=W_CRITICAL, eps=eps, regime=regime,
                          f=F_ZERO, g=G_SINE)

    def mms_error(g: GridSpec) -> float:
        xg = g.axes()[0]
        sin_px = np.sin(math.pi * xg)

        def source(t: float) -> np.ndarray:
            u_star = math.exp(-t) * sin_px
            return ((math.pi ** 2 - 1.0) * u_star
                    - sample_oscillated(W_CRITICAL, eps, k, gamma, xg, t)
                    * u_star)

        out = solve_epsilon(problem, g, source_fn=source,
                            enforce_policy=False)
        return max(
            math.sqrt(g.h) * float(np.linalg.norm(
                u - math.exp(-t) * sin_px))
            for t, u in zip(out.times, out.snapshots))

    base = policy_grid(eps, k, gamma, 0.25, 1, 10)
    errors = [mms_error(base), mms_error(base.refined()),
              mms_error(base.refined().refined())]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = heat_err <= 1e-4 and errors[0] <= 1e-3 and min(orders) >= 1.8
    _verdict("03", ok,
             f"heat eigenmode error {heat_err:.3e} <= 1e-4; manufactured "
             f"solution error {errors[0]:.3e} <= 1e-3 at policy resolution, "
             f"refinement orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.8")


def _rate_verdict(num: str, report, lo: float, hi: float) -> None:
    slope, r2 = report.fit.slope, report.fit.r2
    ok = (report.passed and lo <= slope <= hi and r2 >= 0.95)
    _verdict(num, ok,
             f"verdict {report.verdict}, slope {slope:.4f} in "
             f"[{lo}, {hi}], R^2 {r2:.4f} >= 0.95 "
             f"(theoretical {report.theoretical:g})")


@pytest.mark.slow
def test_c04_critical_rate(critical_sweep):
    _rate_verdict("04", critical_sweep, 0.7, 1.3)


@pytest.mark.slow
def test_c05_subcritical_rate(subcritical_sweep):
    _rate_verdict("05", subcritical_sweep, 0.2, 0.8)


@pytest.mark.slow
def test_c06_slow_time_rates(slow_sweep, frozen_sweep):
    slow_ok = (slow_sweep.passed
               and 0.2 <= slow_sweep.fit.slope <= 0.8
               and slow_sweep.fit.r2 >= 0.95)
    frozen_ok = (frozen_sweep.passed
                 and 0.7 <= frozen_sweep.fit.slope <= 1.3
                 and frozen_sweep.fit.r2 >= 0.95
                 and frozen_sweep.regime.time_dependent_limit
                 and any(n != 0 and abs(c) > 0
                         for n, c in frozen_sweep.ceff.modes))
    _verdict("06", slow_ok and frozen_ok,
             f"k=0.5 slope {slow_sweep.fit.slope:.4f} in [0.2, 0.8] "
             f"(R^2 {slow_sweep.fit.r2:.4f}); k=0 slope "
             f"{frozen_sweep.fit.slope:.4f} in [0.7, 1.3] "
             f"(R^2 {frozen_sweep.fit.r2:.4f}) with time-dependent c_eff")


@pytest.mark.slow
def test_c07_strong_fast_rate(strong_sweep):
    _rate_verdict("07", strong_sweep, 0.2, 0.8)


@pytest.mark.slow
def test_c08_supercritical_rate(supercritical_sweep):
    _rate_verdict("08", supercritical_sweep, 0.2, 0.8)


@pytest.mark.slow
def test_c09_negative_controls(tmp_path, capsys):
    flipped = _sweep(W_CRITICAL, 2.0, GammaMode.UNIT, 0.5, flip=True)
    flip_ok = flipped.verdict == "fail" or flipped.fit.slope < 0.2

    cfg = {
        "potential": {"d": 1, "modes": [
            {"m": [1], "n": -1, "re": 0.5, "im": 0.0},
            {"m": [-1], "n": 1, "re": 0.5, "im": 0.0},
            {"m": [0], "n": 0, "re": 0.3, "im": 0.0}]},
        "regime": {"k": 2.0},
    }
    path = tmp_path / "constant_mean.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["verify", "--config", str(path),
                     "--out", str(tmp_path)])
    capsys.readouterr()
    _verdict("09", flip_ok and code == 2,
             f"flipped-sign sweep verdict {flipped.verdict} (slope "
             f"{flipped.fit.slope:.3f}); constant-mean potential exit "
             f"code {code} == 2")


@pytest.mark.slow
def test_c10_uniform_norms(critical_sweep, subcritical_sweep, slow_sweep,
                           frozen_sweep, strong_sweep, supercritical_sweep):
    sweeps = {"k=2": critical_sweep, "k=1.5": subcritical_sweep,
              "k=0.5": slow_sweep, "k=0": frozen_sweep,
              "k=2.5 linked": strong_sweep, "k=2.5": supercritical_sweep}
    worst = max(rep.uniform_spread for rep in sweeps.values())
    monotone = all(
        b.error <= 1.2 * a.error
        for rep in sweeps.values()
        for a, b in zip(rep.points, rep.points[1:]))
    _verdict("10", worst <= 2.0 and monotone,
             f"max over sweeps of max_t L2 spread {worst:.3f} <= 2; errors "
             f"non-increasing in eps up to 20% slack: {monotone}")


@pytest.mark.slow
def test_c11_deterministic_sweep(critical_sweep):
    again = _sweep(W_CRITICAL, 2.0, GammaMode.UNIT, 0.5)
    same = points_csv(again) == points_csv(critical_sweep)
    _verdict("11", same,
             "identical sweep configuration reproduced the points CSV "
             "byte-for-byte" if same else "repeated sweep CSV differs")
