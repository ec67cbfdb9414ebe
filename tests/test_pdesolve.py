"""Solver mechanics: grids, policy, exact reaction, CN diffusion, guards."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.integrate

from oscpot import (BlowUp, BudgetExceeded, GammaMode, GridMismatch, GridSpec,
                    InitialDescriptor, InitialTerm, ProblemSpec,
                    ResolutionViolation, ScalarSeries, SourceDescriptor,
                    SourceTerm, TrigField, effective_potential,
                    error_linf_l2, policy_grid, resolve_regime,
                    solve_epsilon, solve_homogenized)
from oscpot.pdesolve import (CELL_UPDATE_CEILING, DIFFUSIVE_DT_DIVISOR,
                             DT_DIVISOR, MEMORY_LIMIT, POINTS_PER_EPS,
                             POINTS_PER_EPS_DEFAULT, check_cost,
                             check_resolution, checkpoint_distances,
                             pair_cost, refinement_residual, solve_pair)

DIAG = TrigField.from_cos(1, [1], -1)
G1 = InitialDescriptor((InitialTerm(1.0, (1,)),))
F0 = SourceDescriptor.zero()


def l2_error_vs(traj, exact_fn):
    """max over checkpoints of ||snapshot - exact(t)||_L2."""
    grid = traj.grid
    errs = []
    for t, snap in zip(traj.times, traj.snapshots):
        errs.append(grid.h ** (grid.d / 2.0)
                    * float(np.linalg.norm(snap - exact_fn(t))))
    return max(errs)


# -- grids -----------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ValueError, match="dimension"):
        GridSpec(3, 32, 1e-3, 1.0)
    with pytest.raises(ValueError, match="nx"):
        GridSpec(1, 4, 1e-3, 1.0)
    with pytest.raises(ValueError, match="checkpoints"):
        GridSpec(1, 32, 1e-3, 1.0, checkpoints=4)
    with pytest.raises(ValueError, match="final time"):
        GridSpec(1, 32, 1e-3, 0.0)
    with pytest.raises(ValueError, match="dt"):
        GridSpec(1, 32, -1e-3, 1.0)
    with pytest.raises(ValueError, match="divide"):
        GridSpec(1, 32, 3e-3, 1.0, checkpoints=64)


def test_gridspec_derived_quantities():
    g = GridSpec(1, 31, 1.0 / 128, 0.5, checkpoints=8)
    assert g.h == pytest.approx(1.0 / 32)
    assert g.interval == pytest.approx(1.0 / 16)
    assert g.steps_per_interval == 8
    assert g.dt_effective == pytest.approx(1.0 / 128)
    assert g.total_steps == 64
    assert g.shape == (31,)
    assert g.cell_updates() == 31 * 64
    times = g.checkpoint_times()
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.5)
    assert len(times) == 9


def test_gridspec_refinement_is_nested():
    g = GridSpec(1, 16, 1.0 / 64, 0.5, checkpoints=8)
    r = g.refined()
    assert r.nx == 33
    assert r.dt_effective == pytest.approx(g.dt_effective / 2)
    # every coarse node appears among the fine nodes
    xc = g.axes()[0]
    xf = r.axes()[0]
    assert np.allclose(xf[1::2], xc)


def test_gridspec_2d_axes_and_shape():
    g = GridSpec(2, 12, 1.0 / 32, 0.25, checkpoints=8)
    assert g.shape == (12, 12)
    ax = g.axes()
    assert len(ax) == 2 and len(ax[0]) == 12


def test_policy_grid_resolution():
    eps, k, gamma = 1 / 8, 2.0, 1.0
    g = policy_grid(eps, k, gamma, 0.5, 1)
    assert g.nx >= POINTS_PER_EPS_DEFAULT / eps
    cap = min(min(eps ** k, eps ** (gamma + 1)) / DT_DIVISOR,
              eps ** 2 / DIFFUSIVE_DT_DIVISOR)
    assert g.dt_effective <= cap * (1 + 1e-9)
    check_resolution(g, eps, k, gamma)      # does not raise


def test_check_resolution_flags_coarse_grids():
    eps, k, gamma = 1 / 8, 2.0, 1.0
    with pytest.raises(ResolutionViolation, match="nx"):
        check_resolution(GridSpec(1, 64, 1.0 / 1280, 0.5), eps, k, gamma)
    with pytest.raises(ResolutionViolation, match="dt"):
        check_resolution(GridSpec(1, 256, 1.0 / 128, 0.5, checkpoints=8),
                         eps, k, gamma)


# -- data descriptors ------------------------------------------------------

def test_initial_descriptor_builds_sine_modes():
    g = GridSpec(1, 31, 1e-2, 1.0, checkpoints=10)
    u0 = InitialDescriptor((InitialTerm(2.0, (1,)), InitialTerm(-1.0, (3,)))).build(g)
    x = g.axes()[0]
    np.testing.assert_allclose(
        u0, 2 * np.sin(np.pi * x) - np.sin(3 * np.pi * x), atol=1e-14)


def test_initial_descriptor_2d():
    g = GridSpec(2, 9, 1e-2, 1.0, checkpoints=10)
    u0 = InitialDescriptor((InitialTerm(1.0, (1, 2)),)).build(g)
    x = g.axes()[0]
    want = np.outer(np.sin(np.pi * x), np.sin(2 * np.pi * x))
    np.testing.assert_allclose(u0, want, atol=1e-14)


def test_source_descriptor_compile():
    g = GridSpec(1, 15, 1e-2, 1.0, checkpoints=10)
    assert SourceDescriptor.zero().compile(g) is None
    f = SourceDescriptor((SourceTerm(3.0, (2,), sigma=-1.0, omega=2.0),)).compile(g)
    x = g.axes()[0]
    t = 0.4
    want = 3.0 * math.exp(-t) * math.cos(2 * t) * np.sin(2 * np.pi * x)
    np.testing.assert_allclose(f(t), want, atol=1e-14)


def test_descriptor_dimension_mismatch():
    g = GridSpec(1, 15, 1e-2, 1.0, checkpoints=10)
    with pytest.raises(ValueError, match="dimension"):
        InitialDescriptor((InitialTerm(1.0, (1, 1)),)).build(g)


def test_problem_spec_validation():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    with pytest.raises(ValueError, match="eps"):
        ProblemSpec(W=DIAG, eps=1.5, regime=r, f=F0, g=G1)
    p = ProblemSpec(W=DIAG, eps=0.125, regime=r, f=F0, g=G1)
    assert p.d == 1


# -- heat-kernel checks ----------------------------------------------------

def test_heat_eigenmode_1d():
    grid = GridSpec(1, 64, 5e-4, 0.25, checkpoints=10)
    traj = solve_homogenized(0.0, F0, G1, grid)
    x = grid.axes()[0]
    exact = lambda t: math.exp(-math.pi ** 2 * t) * np.sin(np.pi * x)
    assert l2_error_vs(traj, exact) <= 1e-4


def test_heat_eigenmode_2d():
    grid = GridSpec(2, 48, 1e-3, 0.2, checkpoints=10)
    g2 = InitialDescriptor((InitialTerm(1.0, (1, 1)),))
    traj = solve_homogenized(0.0, F0, g2, grid)
    x = grid.axes()[0]
    prof = np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
    exact = lambda t: math.exp(-2 * math.pi ** 2 * t) * prof
    assert l2_error_vs(traj, exact) <= 1e-3


def test_homogenized_manufactured_solution_second_order():
    # u* = e^{-t} sin(pi x) solves du/dt - Lap u + c u = (pi^2 - 1 + c) u*
    c = -0.3
    amp = math.pi ** 2 - 1.0 + c

    def run(grid):
        f = SourceDescriptor((SourceTerm(amp, (1,), sigma=-1.0),))
        traj = solve_homogenized(c, f, G1, grid)
        x = traj.grid.axes()[0]
        return l2_error_vs(traj,
                           lambda t: math.exp(-t) * np.sin(np.pi * x))

    g0 = GridSpec(1, 24, 1.0 / 100, 0.5, checkpoints=10)
    errs = [run(g0), run(g0.refined()), run(g0.refined().refined())]
    assert errs[0] <= 1e-3
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8


def test_constant_series_matches_scalar_ceff():
    grid = GridSpec(1, 32, 1e-3, 0.3, checkpoints=10)
    a = solve_homogenized(-0.7, F0, G1, grid)
    b = solve_homogenized(ScalarSeries.constant(-0.7), F0, G1, grid)
    assert np.array_equal(a.snapshots, b.snapshots)


def test_frozen_series_reaction_uses_closed_form_integral():
    # pure reaction (single Fourier mode in t): compare against quadrature
    series = ScalarSeries({0: -0.4, 1: 0.25, -1: 0.25})
    grid = GridSpec(1, 16, 1.0 / 64, 0.5, checkpoints=8)
    g = InitialDescriptor((InitialTerm(1.0, (1,)),))
    traj = solve_homogenized(series, F0, g, grid)
    x = grid.axes()[0]
    lam1 = -(4.0 / grid.h ** 2) * math.sin(math.pi * grid.h / 2.0) ** 2

    def exact(t):
        phase, _ = scipy.integrate.quad(series.evaluate, 0.0, t)
        # CN resolves the discrete eigenvalue, not pi^2; isolate reaction
        return math.exp(-phase) * np.sin(np.pi * x) * _cn_decay(lam1, grid, t)

    def _cn_decay(lam, grid, t):
        steps = round(t / grid.dt_effective)
        z = 0.5 * grid.dt_effective * lam
        return ((1 + z) / (1 - z)) ** steps

    assert l2_error_vs(traj, exact) <= 1e-10


# -- homogenized march on sine coefficients ------------------------------

def physical_space_march(ceff, f, g, grid):
    """The homogenized Strang/CN scheme stepped in x: transform, multiply
    and transform back at every step."""
    h, dt = grid.h, grid.dt_effective
    lam1 = -(4.0 / h ** 2) * np.sin(np.arange(1, grid.nx + 1)
                                    * math.pi * h / 2.0) ** 2
    lam = lam1 if grid.d == 1 else lam1[:, None] + lam1[None, :]
    z = 0.5 * dt * lam
    source = f.compile(grid)
    u = g.build(grid)
    snaps = [u]
    for i in range(grid.total_steps):
        a, m, b = i * dt, (i + 0.5) * dt, (i + 1) * dt
        u = u * math.exp(-ceff.definite_integral(a, m))
        rhs = (1.0 + z) * scipy.fft.dstn(u, type=1) \
            + scipy.fft.dstn(0.5 * dt * (source(a) + source(b)), type=1)
        u = scipy.fft.idstn(rhs / (1.0 - z), type=1)
        u = u * math.exp(-ceff.definite_integral(m, b))
        if (i + 1) % grid.steps_per_interval == 0:
            snaps.append(u)
    return np.array(snaps)


def frozen_w(d):
    """cos(2 pi y1) (1 + cos 2 pi tau), the frozen-time benchmark potential."""
    m = (1,) + (0,) * (d - 1)
    return (TrigField.from_cos(d, m, 0) + TrigField.from_cos(d, m, 1, 0.5)
            + TrigField.from_cos(d, m, -1, 0.5))


@pytest.mark.parametrize("grid, g_modes, f_modes", [
    # nx = 16: sin(21 pi x) and sin(19 pi x) alias onto modes 13 and 15
    (GridSpec(1, 16, 1.0 / 256, 0.25, checkpoints=8),
     [(1.0, (1,)), (0.3, (21,))], [(1.5, (2,)), (-0.8, (19,))]),
    (GridSpec(2, 12, 1.0 / 128, 0.125, checkpoints=8),
     [(1.0, (1, 1)), (0.3, (2, 17))], [(1.5, (1, 2)), (-0.8, (15, 3))]),
], ids=["1d", "2d"])
def test_coefficient_march_matches_physical_space_march(grid, g_modes,
                                                        f_modes):
    W = frozen_w(grid.d)
    ceff = effective_potential(resolve_regime(0.0, GammaMode.UNIT, W), W)
    assert isinstance(ceff, ScalarSeries) and len(ceff.terms) > 1
    g = InitialDescriptor(tuple(InitialTerm(a, j) for a, j in g_modes))
    f = SourceDescriptor(tuple(SourceTerm(a, j, sigma=-0.7, omega=5.0)
                               for a, j in f_modes))
    got = solve_homogenized(ceff, f, g, grid).snapshots
    want = physical_space_march(ceff, f, g, grid)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_pair_starts_from_identical_snapshots():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    g = InitialDescriptor((InitialTerm(1.0, (1,)), InitialTerm(0.4, (5,))))
    p = ProblemSpec(W=DIAG, eps=0.25, regime=r, f=F0, g=g)
    grid = GridSpec(1, 64, 1.0 / 512, 0.0625, checkpoints=8)
    _, u_eps, u_hom = solve_pair(p, effective_potential(r, DIAG), grid)
    assert checkpoint_distances(u_eps, u_hom)[0] == 0.0


# -- exact oscillated reaction --------------------------------------------

def test_pure_reaction_matches_quadrature():
    eps, k = 1 / 4, 1.0
    r = resolve_regime(k, GammaMode.UNIT, DIAG)
    grid = GridSpec(1, 15, 1.0 / 64, 0.25, checkpoints=8)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    traj = solve_epsilon(p, grid, enforce_policy=False, disable_diffusion=True)
    x = grid.axes()[0]
    t_end = traj.times[-1]
    for i in (0, 7, 14):
        integral, _ = scipy.integrate.quad(
            lambda s: DIAG.evaluate(x[i] / eps, s / eps ** k),
            0.0, t_end, limit=200, epsabs=1e-13)
        want = math.sin(math.pi * x[i]) * math.exp(integral / eps)
        assert traj.snapshots[-1][i] == pytest.approx(want, abs=1e-10)


def test_reaction_phase_accuracy_long_horizon():
    # k = 3 at eps = 1/16: t/eps^k = 2048 periods by t = 0.5
    W = TrigField.from_sin(1, [1], 1)
    r = resolve_regime(2.5, GammaMode.K_MINUS_1, W)
    eps = 1 / 16
    grid = GridSpec(1, 15, 1.0 / 4096, 0.5, checkpoints=8)
    p = ProblemSpec(W=W, eps=eps, regime=r,
                    f=F0, g=G1)
    # swap in k = 3 via a fresh regime resolve
    r3 = resolve_regime(3.0, GammaMode.K_MINUS_1, W)
    p3 = ProblemSpec(W=W, eps=eps, regime=r3, f=F0, g=G1)
    traj = solve_epsilon(p3, grid, enforce_policy=False,
                         disable_diffusion=True)
    x = grid.axes()[0]
    i = 6
    # closed form: per-mode integral of sin(2 pi (y + s/eps^k))
    epsk = eps ** 3
    amp = 1.0 / eps ** (3.0 - 1.0)
    y = x[i] / eps
    t = traj.times[-1]

    def primitive(tv):
        return -epsk * math.cos(2 * math.pi * (y + tv / epsk)) / (2 * math.pi)

    want = math.sin(math.pi * x[i]) * math.exp(amp * (primitive(t) - primitive(0.0)))
    assert traj.snapshots[-1][i] == pytest.approx(want, rel=1e-9)


def test_epsilon_solver_enforces_policy():
    eps = 1 / 8
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    coarse = GridSpec(1, 32, 1.0 / 64, 0.5, checkpoints=8)
    with pytest.raises(ResolutionViolation):
        solve_epsilon(p, coarse)
    traj = solve_epsilon(p, coarse, enforce_policy=False,
                         disable_diffusion=True)
    assert traj.snapshots.shape == (9, 32)


def test_disable_diffusion_rejects_a_source():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    f = SourceDescriptor((SourceTerm(1.0, (1,)),))
    p = ProblemSpec(W=DIAG, eps=1 / 8, regime=r, f=f, g=G1)
    with pytest.raises(ValueError, match="disable_diffusion"):
        solve_epsilon(p, GridSpec(1, 32, 1.0 / 64, 0.5, checkpoints=8),
                      enforce_policy=False, disable_diffusion=True)


def test_epsilon_solver_dimension_mismatch():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=1 / 8, regime=r, f=F0, g=G1)
    with pytest.raises(ValueError, match="dimension"):
        solve_epsilon(p, GridSpec(2, 16, 1e-3, 0.5, checkpoints=10))


# -- trajectories and error measures --------------------------------------

def test_trajectory_l2_series_and_max():
    grid = GridSpec(1, 32, 1e-3, 0.2, checkpoints=10)
    traj = solve_homogenized(0.0, F0, G1, grid)
    series = traj.l2_series()
    assert len(series) == 11
    assert series[0] == pytest.approx(math.sqrt(0.5), abs=1e-3)
    assert traj.max_l2 >= series.max() - 1e-12
    # pure decay: the max is the initial norm
    assert traj.max_l2 == pytest.approx(series[0], abs=1e-12)


def test_error_linf_l2_zero_against_self():
    grid = GridSpec(1, 16, 1e-2, 0.1, checkpoints=10)
    traj = solve_homogenized(-0.1, F0, G1, grid)
    assert error_linf_l2(traj, traj) == 0.0


def test_error_linf_l2_grid_mismatch():
    g1 = GridSpec(1, 16, 1e-2, 0.1, checkpoints=10)
    g2 = GridSpec(1, 24, 1e-2, 0.1, checkpoints=10)
    a = solve_homogenized(0.0, F0, G1, g1)
    b = solve_homogenized(0.0, F0, G1, g2)
    with pytest.raises(GridMismatch, match="grids differ"):
        error_linf_l2(a, b)
    g3 = GridSpec(1, 16, 1e-2, 0.2, checkpoints=10)
    c = solve_homogenized(0.0, F0, G1, g3)
    with pytest.raises(GridMismatch, match="times"):
        error_linf_l2(a, c)


def test_known_separation_is_measured():
    grid = GridSpec(1, 32, 1e-3, 0.25, checkpoints=10)
    a = solve_homogenized(0.0, F0, G1, grid)
    b = solve_homogenized(1.0, F0, G1, grid)
    # constant reaction commutes with diffusion: b(t) = e^{-t} a(t) exactly
    gaps = (1.0 - np.exp(-a.times)) * a.l2_series()
    assert error_linf_l2(a, b) == pytest.approx(gaps.max(), rel=1e-12)


# -- guards ----------------------------------------------------------------

def test_blowup_guard_trips():
    grid = GridSpec(1, 16, 1e-3, 0.1, checkpoints=10)
    with pytest.raises(BlowUp, match="exceeds"):
        solve_homogenized(-2000.0, F0, G1, grid)


def richardson(p, grid, **kw):
    """Refinement residual of the error under one joint refinement."""
    ceff = effective_potential(p.regime, p.W)
    return refinement_residual(*(solve_pair(p, ceff, g, **kw)[0]
                                 for g in (grid, grid.refined())))


def test_richardson_flags_under_resolved_grid():
    eps = 1 / 8
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    coarse = GridSpec(1, 64, 1.0 / 512, 0.25, checkpoints=16)
    resid = richardson(p, coarse, enforce_policy=False)
    assert resid > 0.1


def test_richardson_accepts_policy_grid():
    eps = 1 / 8
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    grid = policy_grid(eps, r.k, r.gamma, 0.25, 1, checkpoints=16)
    resid = richardson(p, grid)
    assert resid <= 0.1


# -- determinism -----------------------------------------------------------

def test_repeat_solve_is_bitwise_identical():
    eps = 1 / 8
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    grid = policy_grid(eps, r.k, r.gamma, 0.25, 1, checkpoints=16)
    a = solve_epsilon(p, grid)
    b = solve_epsilon(p, grid)
    assert np.array_equal(a.snapshots, b.snapshots)
    assert a.max_l2 == b.max_l2


# -- cost model ------------------------------------------------------------

def test_pair_memory_estimate_bounds_the_traced_peak():
    # The 2-D benchmark solve's grid (eps = 1/8, nx 256, 64 checkpoints)
    # over a short T: the peak does not depend on the number of steps.
    W = frozen_w(2)
    regime = resolve_regime(0.0, GammaMode.UNIT, W)
    p = ProblemSpec(W=W, eps=1 / 8, regime=regime, f=F0,
                    g=InitialDescriptor((InitialTerm(1.0, (1, 1)),)))
    grid = GridSpec(2, 256, 1.0 / 16384, 1.0 / 256, checkpoints=64)
    ceff = effective_potential(regime, W)
    tracemalloc.start()
    try:
        solve_pair(p, ceff, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = pair_cost(W, F0, grid)[1]
    assert peak <= estimate <= 1.25 * peak


def test_cost_gate_counts_updates_and_memory_per_worker():
    # Units whose pair needs between 2 and 4 GiB; no grid allocates.
    W = frozen_w(2)
    big = GridSpec(2, 1024, 1.0 / 64, 1.5, checkpoints=96)
    assert 2 * 2 ** 30 < pair_cost(W, F0, big)[1] < MEMORY_LIMIT
    units = [[big], [big]]
    total = 2 * 2 * big.cell_updates()
    check_cost("sweep", W, F0, units, total, workers=1)
    with pytest.raises(BudgetExceeded, match="GiB for nx = 1024 in 2d"):
        check_cost("sweep", W, F0, units, total, workers=2)
    with pytest.raises(BudgetExceeded, match="cell updates, budget is"):
        check_cost("sweep", W, F0, units, total - 1)


def test_cost_gate_holds_the_coarse_pair_during_the_refined_one():
    W = frozen_w(2)
    coarse = GridSpec(2, 730, 1.0 / 64, 1.0, checkpoints=64)
    fine = coarse.refined()
    need = [pair_cost(W, F0, g)[1] for g in (coarse, fine)]
    assert need[1] < MEMORY_LIMIT < sum(need)
    check_cost("sweep", W, F0, [[fine]], None)
    with pytest.raises(BudgetExceeded, match="GiB for nx = 1461"):
        check_cost("sweep", W, F0, [[coarse, fine]], None)


def test_cost_gate_has_a_ceiling_without_a_budget():
    grid = GridSpec(1, 10 ** 6, 1e-3, 1e4, checkpoints=8)
    assert 2 * grid.cell_updates() > CELL_UPDATE_CEILING
    with pytest.raises(BudgetExceeded,
                       match=f"budget is {CELL_UPDATE_CEILING}"):
        check_cost("solve", DIAG, F0, [[grid]], None)


@pytest.mark.parametrize("T, dt", [(1e308, 1e-3), (1e-320, 1e-3),
                                   (1.0, 5e-324)])
def test_unrepresentable_time_grid_is_a_budget_violation(T, dt):
    with pytest.raises(BudgetExceeded, match="no double-precision time grid"):
        GridSpec(1, 32, dt, T, checkpoints=8)


@pytest.mark.parametrize("eps, k, T", [(1e-200, 2.0, 0.5), (5e-324, 2.0, 0.5),
                                       (0.25, 1e300, 0.5), (0.25, 2.0, 1e308)])
def test_policy_grid_time_scale_out_of_range(eps, k, T):
    with pytest.raises(BudgetExceeded, match="no double-precision time grid"):
        policy_grid(eps, k, 1.0, T, 1)
