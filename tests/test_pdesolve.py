"""Solver mechanics: grids, policy, exact reaction, CN diffusion, guards."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.integrate

from oscpot import (BlowUp, BudgetExceeded, GammaMode, GridSpec,
                    InitialDescriptor, InitialTerm, ProblemSpec,
                    ResolutionViolation, ScalarSeries, SourceDescriptor,
                    SourceTerm, TrigField, effective_potential, policy_grid,
                    resolve_regime, solve_epsilon, solve_homogenized)
from oscpot import pdesolve
from oscpot.pdesolve import (BLOCK_CELLS, CELL_UPDATE_CEILING,
                             DIFFUSIVE_DT_DIVISOR, DT_DIVISOR,
                             POINTS_PER_EPS, POINTS_PER_EPS_DEFAULT,
                             _conjugate_pairs, _fold,
                             _homogenized_member, _march,
                             _OscillatedReaction, _dst, _sine_profile,
                             check_cost, check_resolution, pair_cost,
                             refinement_residual, solve_pair)

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


def compile_source(f, grid):
    """The x-space oracle of a declarative source: t -> the sum of its
    terms on the grid."""
    shapes = [_sine_profile(grid, term.j) for term in f.terms]

    def source(t):
        out = np.zeros(grid.shape)
        for term, shape in zip(f.terms, shapes):
            out += term.amplitude(t) * shape
        return out

    return source


def test_source_descriptor_compile():
    g = GridSpec(1, 15, 1e-2, 1.0, checkpoints=10)
    assert not compile_source(SourceDescriptor.zero(), g)(0.3).any()
    f = compile_source(SourceDescriptor(
        (SourceTerm(3.0, (2,), sigma=-1.0, omega=2.0),)), g)
    x = g.axes()[0]
    t = 0.4
    want = 3.0 * math.exp(-t) * math.cos(2 * t) * np.sin(2 * np.pi * x)
    np.testing.assert_allclose(f(t), want, atol=1e-14)


def test_folded_profile_is_the_direct_sine():
    # sin(j pi x) at the nodes has period 2(nx+1) = 34 in j; j = 17 and
    # j = 34 vanish there exactly.
    g = GridSpec(1, 16, 1e-2, 1.0, checkpoints=10)
    x = g.axes()[0]
    for j in range(4 * 17 + 3):
        got = _sine_profile(g, (j,))
        np.testing.assert_allclose(got, np.sin(j * np.pi * x), rtol=0,
                                   atol=1e-13)
        if j % 17 == 0:
            assert not got.any()


def test_a_large_mode_index_keeps_its_grid_profile():
    # In floating point sin(j pi x) loses the grid profile long before
    # j = 1 + 34 * 10^15; the exact fold keeps it.
    g = GridSpec(1, 16, 1e-2, 1.0, checkpoints=10)
    j = 1 + 2 * (g.nx + 1) * 10 ** 15
    np.testing.assert_allclose(_sine_profile(g, (j,)), _sine_profile(g, (1,)),
                               rtol=0, atol=1e-15)


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
    source = compile_source(f, grid)
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
    # nx = 16, 2(nx+1) = 34: sin(17 pi x) is zero on the grid, sin(37 pi x)
    # is sin(3 pi x) and sin(31 pi x) is -sin(3 pi x), in g and in f
    (GridSpec(1, 16, 1.0 / 256, 0.25, checkpoints=8),
     [(1.0, (1,)), (0.5, (17,)), (0.3, (3,)), (0.2, (31,))],
     [(1.5, (37,)), (-0.8, (31,)), (0.6, (17,))]),
    # nx = 12, 2(nx+1) = 26: (25, 2) is -(1, 2), (2, 29) is (2, 3), and
    # (13, 1) and (1, 26) are zero on the grid
    (GridSpec(2, 12, 1.0 / 128, 0.125, checkpoints=8),
     [(1.0, (1, 2)), (0.4, (25, 2)), (0.5, (13, 1))],
     [(1.5, (2, 29)), (-0.8, (2, 3)), (0.7, (1, 26))]),
], ids=["1d", "2d", "1d-aliases", "2d-aliases"])
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


def test_limit_goes_to_x_adding_its_modes_in_order():
    # u in x must be the in-order sum over the modes of their sine
    # profiles, bit for bit: a BLAS matrix product is not, and its bits
    # follow the thread count.
    grid = GridSpec(2, 30, 1.0 / 128, 0.125, checkpoints=8)
    g = InitialDescriptor(tuple(InitialTerm(1.0, (j, 9 - j))
                                for j in range(1, 9)))
    _, to_x = _homogenized_member(-0.7, F0, g, grid)
    v = [math.sin(j + 0.5) for j in range(1, 9)]
    unit = (grid.nx + 1) / 2.0
    want = np.zeros(grid.shape)
    for c, term in zip(v, g.terms):
        want += c / unit * _sine_profile(grid, term.j)
    assert np.array_equal(to_x(v), want)


def test_pair_starts_from_identical_snapshots():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    g = InitialDescriptor((InitialTerm(1.0, (1,)), InitialTerm(0.4, (5,))))
    p = ProblemSpec(W=DIAG, eps=0.25, regime=r, f=F0, g=g)
    grid = GridSpec(1, 64, 1.0 / 512, 0.0625, checkpoints=8)
    norms = solve_pair(p, effective_potential(r, DIAG), grid)
    assert norms.l2_diff[0] == 0.0
    assert norms.l2_eps[0] == norms.l2_hom[0]


@pytest.mark.parametrize("g_modes, f_modes", [
    ([], []), ([(1.0, (17,)), (0.5, (34,))], [(2.0, (51,))]),
], ids=["empty", "zero-profiles"])
def test_a_limit_without_modes_reads_zero(g_modes, f_modes):
    # nx = 16: j = 17, 34 and 51 have zero profiles on the grid.
    grid = GridSpec(1, 16, 1e-2, 0.1, checkpoints=10)
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    g = InitialDescriptor(tuple(InitialTerm(a, j) for a, j in g_modes))
    f = SourceDescriptor(tuple(SourceTerm(a, j) for a, j in f_modes))
    p = ProblemSpec(W=DIAG, eps=0.25, regime=r, f=f, g=g)
    norms = solve_pair(p, -3.0, grid, enforce_policy=False)
    assert not norms.l2_hom.any() and norms.max_l2_hom == 0.0
    assert np.array_equal(norms.l2_diff, norms.l2_eps)
    assert not solve_homogenized(-3.0, f, g, grid).snapshots.any()


# -- exact oscillated reaction --------------------------------------------

def reaction_only(p, grid):
    """u(T) under the reaction alone: g times the exact factors of the
    oscillated potential over every half-step of [0, T], in order."""
    reaction = _OscillatedReaction(p.W, p.eps, p.regime.k, p.regime.gamma,
                                   grid)
    halves = 2 * grid.total_steps
    times = np.arange(halves + 1) * (np.longdouble(grid.T) / halves)
    u = p.g.build(grid)
    for row in reaction._factors(times):
        u = u * row
    return u


def test_pure_reaction_matches_quadrature():
    eps, k = 1 / 4, 1.0
    r = resolve_regime(k, GammaMode.UNIT, DIAG)
    grid = GridSpec(1, 15, 1.0 / 64, 0.25, checkpoints=8)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    u_end = reaction_only(p, grid)
    x = grid.axes()[0]
    t_end = grid.T
    for i in (0, 7, 14):
        integral, _ = scipy.integrate.quad(
            lambda s: DIAG.evaluate(x[i] / eps, s / eps ** k),
            0.0, t_end, limit=200, epsabs=1e-13)
        want = math.sin(math.pi * x[i]) * math.exp(integral / eps)
        assert u_end[i] == pytest.approx(want, abs=1e-10)


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
    u_end = reaction_only(p3, grid)
    x = grid.axes()[0]
    i = 6
    # closed form: per-mode integral of sin(2 pi (y + s/eps^k))
    epsk = eps ** 3
    amp = 1.0 / eps ** (3.0 - 1.0)
    y = x[i] / eps
    t = grid.T

    def primitive(tv):
        return -epsk * math.cos(2 * math.pi * (y + tv / epsk)) / (2 * math.pi)

    want = math.sin(math.pi * x[i]) * math.exp(amp * (primitive(t) - primitive(0.0)))
    assert u_end[i] == pytest.approx(want, rel=1e-9)


#: With the 12-pair W (24 rows) on nx 539, a BLAS matrix product gives a
#: half-step different bits in a 2-row block than in a 30-row one.
FACTOR_GRIDS = pytest.mark.parametrize(
    "grid", [GridSpec(1, 539, 1 / 1024, 1.0), GridSpec(2, 24, 1 / 1024, 1.0)],
    ids=["1d", "2d"])


def complex_mode_factors(W, eps, k, gamma, grid, times):
    """The reaction factors as a complex sum over every mode of W, one
    mode at a time: exp(scale * Re sum_modes w_n(t) c e_m(x))."""
    eps_ld = np.longdouble(eps)
    eps_k_ld = eps_ld ** np.longdouble(k)
    ys = [np.remainder(np.asarray(x, dtype=np.longdouble) / eps_ld, 1.0)
          .astype(float) for x in grid.mesh()]
    tau = np.remainder(times / eps_k_ld, np.longdouble(1.0)).astype(float)
    column = (len(times) - 1,) + (1,) * grid.d
    total = np.zeros(column[:1] + grid.shape, dtype=complex)
    for m, n, c in W.terms:
        s = c * np.exp(2j * math.pi * sum(
            (mj * y for mj, y in zip(m, ys) if mj), np.zeros(grid.shape)))
        if n == 0:
            weight = np.diff(times).astype(float)
        else:
            e = np.exp(2j * math.pi * n * tau)
            weight = float(eps_k_ld) * (e[1:] - e[:-1]) / (2j * math.pi * n)
        total = total + weight.reshape(column) * s
    return np.exp(float(eps_ld ** np.longdouble(-gamma)) * np.real(total))


def twelve_pairs(d):
    """A real W with 12 conjugate pairs: random coefficients on distinct
    modes, an n = 0 mode, a pure-tau mode and the constant among them."""
    rng = np.random.default_rng(12)
    keys = {((0,) * d, 0), ((1,) * d, 0), ((0,) * d, 1)}
    while len(keys) < 12:
        m = tuple(int(v) for v in rng.integers(-3, 4, d))
        n = int(rng.integers(-3, 4))
        if (m, n) > (tuple(-v for v in m), -n):
            keys.add((m, n))
    coeffs = []
    for m, n in sorted(keys):
        c = complex(*rng.uniform(-0.5, 0.5, 2))
        if (m, n) == ((0,) * d, 0):
            coeffs.append(((m, n), c.real))
        else:
            coeffs += [((m, n), c),
                       ((tuple(-v for v in m), -n), c.conjugate())]
    return TrigField(d, coeffs)


def mixed_modes(d):
    """An n = 0 mode, an n != 0 mode, a pure-tau mode and a constant."""
    return (TrigField.from_cos(d, (1,) * d, 0)
            + TrigField.from_sin(d, (2,) * d, -1, 0.5)
            + TrigField.from_cos(d, (0,) * d, 1, 0.2)
            + TrigField.constant(d, 0.3))


@FACTOR_GRIDS
@pytest.mark.parametrize("make_w, pairs", [
    (mixed_modes, 4), (twelve_pairs, 12), (lambda d: TrigField(d, []), 0),
], ids=["mixed", "twelve-pairs", "zero"])
def test_pair_factors_match_the_complex_mode_sum(grid, make_w, pairs):
    W = make_w(grid.d)
    # k = 3 at eps = 1/8: the times reach 120 periods of the potential.
    eps, k, gamma = 0.125, 3.0, 1.0
    reaction = _OscillatedReaction(W, eps, k, gamma, grid)
    assert reaction.profiles.shape == (2 * pairs, grid.nx ** grid.d)
    times = np.longdouble(0.2) + np.arange(31) * np.longdouble(1 / 2048)
    got = reaction._factors(times)
    want = complex_mode_factors(W, eps, k, gamma, grid, times)
    assert got.shape == (30,) + grid.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@FACTOR_GRIDS
def test_factor_rows_do_not_depend_on_the_block(grid):
    reaction = _OscillatedReaction(twelve_pairs(grid.d), 0.125, 3.0, 1.0,
                                   grid)
    times = np.longdouble(0.2) + np.arange(31) * np.longdouble(1 / 2048)
    block = reaction._factors(times)
    for i in range(15):
        assert np.array_equal(reaction._factors(times[2 * i:2 * i + 3]),
                              block[2 * i:2 * i + 2])


@FACTOR_GRIDS
def test_sine_space_source_matches_the_x_space_route(grid):
    # The declarative f adds each term to one sine coefficient; the same
    # f summed in x and transformed at every step is the oracle.  Terms
    # that alias: sin((nx+1) pi x) is zero on the grid, 2(nx+1) - 3 is
    # minus mode 3, 1 + 2(nx+1) 10^12 is mode 1, and 3 and 2(nx+1) + 3
    # fold onto one mode.
    d, period = grid.d, 2 * (grid.nx + 1)
    rest = (2,) * (d - 1)
    f = SourceDescriptor((
        SourceTerm(1.5, (1,) * d, -0.3, 7.0),
        SourceTerm(-0.8, (5,) + rest, 0.0, 2.0),
        SourceTerm(0.4, (17,) * d),
        SourceTerm(0.9, (grid.nx + 1,) + rest, 0.0, 3.0),
        SourceTerm(0.6, (period - 3,) + rest, 0.2, 1.0),
        SourceTerm(0.7, (1 + period * 10 ** 12,) * d, 0.0, 5.0),
        SourceTerm(-0.5, (3,) + rest, -0.1, 4.0),
        SourceTerm(0.3, (period + 3,) + rest)))
    W = frozen_w(d)
    p = ProblemSpec(W=W, eps=0.25, regime=resolve_regime(2.0, GammaMode.UNIT,
                                                         W),
                    f=f, g=InitialDescriptor())
    got = solve_epsilon(p, grid, enforce_policy=False)
    want = solve_epsilon(p, grid, enforce_policy=False,
                         source_fn=compile_source(f, grid))
    assert np.max(np.abs(got.snapshots - want.snapshots)) <= (
        1e-12 * np.max(np.abs(want.snapshots)))


def test_epsilon_solver_enforces_policy():
    eps = 1 / 8
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=eps, regime=r, f=F0, g=G1)
    coarse = GridSpec(1, 32, 1.0 / 64, 0.5, checkpoints=8)
    with pytest.raises(ResolutionViolation):
        solve_epsilon(p, coarse)
    traj = solve_epsilon(p, coarse, enforce_policy=False)
    assert traj.snapshots.shape == (9, 32)


def test_epsilon_solver_dimension_mismatch():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    p = ProblemSpec(W=DIAG, eps=1 / 8, regime=r, f=F0, g=G1)
    with pytest.raises(ValueError, match="dimension"):
        solve_epsilon(p, GridSpec(2, 16, 1e-3, 0.5, checkpoints=10))


# -- the pair's checkpoint norms ---------------------------------------------

def l2_rows(snapshots, grid):
    """Discrete L2 norm of each checkpoint snapshot."""
    return np.array([grid.h ** (grid.d / 2.0) * np.linalg.norm(row)
                     for row in snapshots])


def heat_problem(grid):
    """The eps-problem with W = 0: the heat equation, marched in x."""
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    return ProblemSpec(W=TrigField(grid.d, []), eps=0.25, regime=r, f=F0,
                       g=G1)


def test_pair_norm_columns_and_maxima():
    r = resolve_regime(2.0, GammaMode.UNIT, DIAG)
    cases = [(ProblemSpec(W=DIAG, eps=0.25, regime=r, f=F0, g=G1),
              GridSpec(1, 32, 1e-3, 0.2, checkpoints=10))]
    # The critical sweep pair of perfbench's seed 2 at eps 1/8, phi and
    # the amplitude of g drawn as perfbench/workloads.py draws them.
    # Norms taken again from the rows at the checkpoints put a column's
    # largest value one ulp above its maximum here.
    rng = random.Random(2)
    phi, amp = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 2.0)
    c = 0.5 * complex(math.cos(phi), math.sin(phi))
    wave = TrigField(1, [(((1,), -1), c), (((-1,), 1), c.conjugate())])
    r = resolve_regime(2.0, GammaMode.UNIT, wave)
    grid = policy_grid(1 / 8, r.k, r.gamma, 0.25, 1, checkpoints=96)
    assert grid.nx == 269
    cases.append((ProblemSpec(W=wave, eps=1 / 8, regime=r, f=F0,
                              g=InitialDescriptor((InitialTerm(amp, (1,)),))),
                  grid))
    for p, grid in cases:
        ceff = effective_potential(p.regime, p.W)
        norms = solve_pair(p, ceff, grid, enforce_policy=False)
        u_eps = solve_epsilon(p, grid, enforce_policy=False)
        u_hom = solve_homogenized(ceff, F0, p.g, grid)
        assert np.array_equal(norms.times, grid.checkpoint_times())
        for column, traj in ((norms.l2_eps, u_eps), (norms.l2_hom, u_hom)):
            assert len(column) == grid.checkpoints + 1
            np.testing.assert_allclose(column, l2_rows(traj.snapshots, grid),
                                       rtol=1e-13)
        np.testing.assert_allclose(
            norms.l2_diff, l2_rows(u_eps.snapshots - u_hom.snapshots, grid),
            rtol=1e-13, atol=1e-17)
        assert norms.l2_hom[0] == pytest.approx(
            p.g.terms[0].amp * math.sqrt(0.5), abs=1e-3)
        assert (norms.max_l2_eps, norms.max_l2_hom) == (u_eps.max_l2,
                                                        u_hom.max_l2)
        assert norms.max_l2_eps >= norms.l2_eps.max()
        assert norms.max_l2_hom >= norms.l2_hom.max()
        assert norms.error == norms.l2_diff.max()


@pytest.mark.parametrize("grid", [
    GridSpec(1, 64, 1.0 / 2048, 1.0 / 16, checkpoints=8),
    GridSpec(2, 24, 1.0 / 2048, 1.0 / 16, checkpoints=8),
], ids=["1d", "2d"])
def test_pair_norms_are_the_row_formula_on_two_eager_solves(grid):
    # A time-dependent c_eff and a source, so both marches do all their
    # work; the streamed checkpoints must give the same bits.
    one = (1,) * grid.d
    W = frozen_w(grid.d)
    r = resolve_regime(0.0, GammaMode.UNIT, W)
    p = ProblemSpec(W=W, eps=0.25, regime=r,
                    f=SourceDescriptor((SourceTerm(1.5, one, -0.3, 7.0),)),
                    g=InitialDescriptor((InitialTerm(1.0, one),
                                         InitialTerm(0.3, (3,) * grid.d))))
    ceff = effective_potential(r, W)
    norms = solve_pair(p, ceff, grid, enforce_policy=False)
    u_eps = solve_epsilon(p, grid, enforce_policy=False)
    u_hom = solve_homogenized(ceff, p.f, p.g, grid)
    # The norms are the march's: _l2 of the eps rows, and the limit's
    # guard norm of its coefficients at each checkpoint time.
    scale = grid.h ** (grid.d / 2.0)
    coeffs, _ = per_step_limit(ceff, p.f, p.g, grid)
    sums = [np.sum((a - b) ** 2)
            for a, b in zip(u_eps.snapshots, u_hom.snapshots)]
    assert np.array_equal(norms.l2_eps,
                          [pdesolve._l2(a, grid) for a in u_eps.snapshots])
    assert np.array_equal(norms.l2_hom,
                          [scale * math.hypot(*v) for v in coeffs])
    assert np.array_equal(norms.l2_diff, scale * np.sqrt(sums))
    assert norms.max_l2_eps == u_eps.max_l2
    assert norms.max_l2_hom == u_hom.max_l2


def test_one_problem_in_both_marches_measures_round_off():
    grid = GridSpec(1, 16, 1e-2, 0.1, checkpoints=10)
    norms = solve_pair(heat_problem(grid), 0.0, grid, enforce_policy=False)
    assert norms.l2_diff[0] == 0.0
    assert norms.error <= 1e-14 * norms.max_l2_eps
    # pure decay: the max is the initial norm
    assert norms.max_l2_hom == pytest.approx(norms.l2_hom[0], abs=1e-12)
    assert norms.max_l2_eps == pytest.approx(norms.l2_eps[0], abs=1e-12)


def test_known_separation_is_measured():
    grid = GridSpec(1, 32, 1e-3, 0.25, checkpoints=10)
    norms = solve_pair(heat_problem(grid), 1.0, grid, enforce_policy=False)
    # constant reaction commutes with diffusion: u_hom(t) = e^{-t} u_eps(t)
    gaps = (1.0 - np.exp(-norms.times)) * norms.l2_eps
    assert norms.error == pytest.approx(gaps.max(), rel=1e-12)
    np.testing.assert_allclose(norms.l2_hom, np.exp(-norms.times)
                               * norms.l2_eps, rtol=1e-12)


# -- guards ----------------------------------------------------------------

# -- block stepping ---------------------------------------------------------

def per_step_march(p, grid):
    """The eps march one step at a time: each half-step's reaction factor
    built alone, as the k-ordered sum of real pair rows times their
    weights, the sine transforms through scipy.fft and each source term
    added to the one sine coefficient of its mode.  Returns the snapshots
    and the running norm maximum, or raises BlowUp."""
    eps_ld = np.longdouble(p.eps)
    eps_k_ld = eps_ld ** np.longdouble(p.regime.k)
    eps_k = float(eps_k_ld)
    scale = float(eps_ld ** np.longdouble(-p.regime.gamma))
    ys = [np.remainder(np.asarray(x, dtype=np.longdouble) / eps_ld, 1.0)
          .astype(float) for x in grid.mesh()]
    rows = []
    for m, n, c in _conjugate_pairs(p.W):
        s = c * np.exp(2j * math.pi * sum(
            (mj * y for mj, y in zip(m, ys) if mj), np.zeros(grid.shape)))
        rows.append((n, scale * s.real, scale * s.imag))

    def tau(t):
        return np.float64(np.remainder(t / eps_k_ld, np.longdouble(1.0)))

    def factor(ta, tb):
        total = np.zeros(grid.shape)
        for n, re, im in rows:
            if n == 0:
                w_re, w_im = np.float64(tb - ta), 0.0
            else:
                rate = 2.0 * math.pi * n
                lift = eps_k / rate
                a, b = tau(ta) * rate, tau(tb) * rate
                w_re = lift * (np.sin(b) - np.sin(a))
                w_im = lift * (np.cos(b) - np.cos(a))
            total = total + w_re * re
            total = total + w_im * im
        return np.exp(total)

    h, dt = grid.h, grid.dt_effective
    lam1 = -(4.0 / h ** 2) * np.sin(np.arange(1, grid.nx + 1)
                                    * math.pi * h / 2.0) ** 2
    lam = lam1 if grid.d == 1 else lam1[:, None] + lam1[None, :]
    z = 0.5 * dt * lam
    gain, solve_weight = (1.0 + z) / (1.0 - z), 1.0 / (1.0 - z)
    sources = []
    for term in p.f.terms:
        # The DST-I of a folded profile is sign (nx+1)^d at its mode.
        r, sign = _fold(grid, term.j)
        if sign:
            k = tuple(ri - 1 for ri in r)
            sources.append((term, k, sign * (grid.nx + 1) ** grid.d
                            * solve_weight[k] * 0.5 * dt))
    half = np.longdouble(grid.interval) / grid.steps_per_interval / 2
    u = p.g.build(grid)
    snaps = [u]
    max_l2 = h ** (grid.d / 2.0) * float(np.linalg.norm(u.ravel()))
    for i in range(grid.total_steps):
        ta, tm, tb = (np.longdouble(j) * half for j in (2 * i, 2 * i + 1,
                                                         2 * i + 2))
        u = u * factor(ta, tm)
        uh = gain * scipy.fft.dstn(u, type=1)
        for term, k, s_hat in sources:
            uh[k] = uh[k] + (term.amplitude(float(ta))
                             + term.amplitude(float(tb))) * s_hat
        u = scipy.fft.idstn(uh, type=1) * factor(tm, tb)
        nrm = h ** (grid.d / 2.0) * float(np.linalg.norm(u.ravel()))
        if not math.isfinite(nrm) or nrm > 1e12:
            raise BlowUp(f"L2 norm {nrm:.3e} at t = {float(tb):.6g}")
        max_l2 = max(max_l2, nrm)
        if (i + 1) % grid.steps_per_interval == 0:
            snaps.append(u)
    return np.array(snaps), max_l2


def spans_blocks(grid):
    """True when a checkpoint interval takes several blocks and ends in a
    partial one."""
    per_block = BLOCK_CELLS // grid.nx ** grid.d
    return (1 < per_block < grid.steps_per_interval
            and grid.steps_per_interval % per_block != 0)


def block_grid(d, steps, T):
    """A grid on which a block is 10 steps, whatever BLOCK_CELLS is: nx^d
    cells close under BLOCK_CELLS / 10, `steps` steps per checkpoint
    interval and 8 checkpoints to T."""
    nx = BLOCK_CELLS // 10 if d == 1 else math.isqrt(BLOCK_CELLS // 10)
    return GridSpec(d, nx, T / (8 * steps), T, checkpoints=8)


#: 37 steps per checkpoint interval: three full blocks and one of 7 steps.
SPANNING_1D = block_grid(1, 37, 1.0 / 16)


@pytest.mark.parametrize("grid", [
    SPANNING_1D, block_grid(2, 23, 1.0 / 64),
], ids=["1d", "2d"])
def test_block_march_matches_the_per_step_march_bit_for_bit(grid):
    assert spans_blocks(grid)
    d = grid.d
    one = (1,) * d
    # An n = 0 mode and an n != 0 mode, with a source term.
    W = (TrigField.from_cos(d, one, 0)
         + TrigField.from_cos(d, (2,) * d, -1, 0.5))
    # k = 3: t/eps^k runs to 32 periods, so the torus reduction matters.
    regime = resolve_regime(3.0, GammaMode.UNIT, W)
    p = ProblemSpec(W=W, eps=0.125, regime=regime,
                    f=SourceDescriptor((SourceTerm(1.5, one, -0.3, 7.0),)),
                    g=InitialDescriptor((InitialTerm(1.0, one),
                                         InitialTerm(0.3, (3,) * d))))
    traj = solve_epsilon(p, grid, enforce_policy=False)
    snaps, max_l2 = per_step_march(p, grid)
    assert np.array_equal(traj.snapshots, snaps)
    assert traj.max_l2 == max_l2


def test_blowup_inside_a_block_reports_the_per_step_time():
    grid = SPANNING_1D
    assert spans_blocks(grid)
    W = TrigField(1, [(((0,), 0), 120.0 + 0.0j)])
    p = ProblemSpec(W=W, eps=0.25, regime=resolve_regime(2.0, GammaMode.UNIT,
                                                          DIAG),
                    f=F0, g=G1)
    with pytest.raises(BlowUp) as want:
        per_step_march(p, grid)
    with pytest.raises(BlowUp) as got:
        solve_epsilon(p, grid, enforce_policy=False)
    t = re.search(r"t = (\S+)", str(want.value)).group(1)
    assert f"t = {t} " in str(got.value)
    # The step that tripped the guard is neither the first nor the last of
    # its block.
    per_block = BLOCK_CELLS // grid.nx
    i = round(float(t) / grid.dt_effective) - 1
    assert 0 < i % grid.steps_per_interval % per_block < per_block - 1


@pytest.mark.parametrize("march", ["eps", "homogenized", "pair"])
def test_each_amplitude_is_evaluated_once_per_full_step_time(monkeypatch,
                                                              march):
    # A block evaluates amp at its steps + 1 full-step times; only a
    # block boundary is evaluated twice, once by each block.  The pair's
    # two members share their blocks' evaluations.
    grid = SPANNING_1D
    assert spans_blocks(grid)
    calls = []
    real = SourceTerm.amplitude

    def counting(term, t):
        calls.append(term)
        return real(term, t)

    monkeypatch.setattr(SourceTerm, "amplitude", counting)
    terms = (SourceTerm(1.5, (1,), -0.3, 7.0), SourceTerm(-0.8, (2,)))
    f = SourceDescriptor(terms)
    p = ProblemSpec(W=DIAG, eps=0.25, regime=resolve_regime(
        2.0, GammaMode.UNIT, DIAG), f=f, g=G1)
    if march == "eps":
        solve_epsilon(p, grid, enforce_policy=False)
    elif march == "pair":
        solve_pair(p, 1.0, grid, enforce_policy=False)
    else:
        solve_homogenized(1.0, f, G1, grid)
    per_block = BLOCK_CELLS // grid.nx
    blocks = grid.checkpoints * -(-grid.steps_per_interval // per_block)
    for term in terms:
        assert calls.count(term) == grid.total_steps + blocks


def per_step_limit(ceff, f, g, grid):
    """The modal limit one step at a time, on floats: one orthonormal
    DST-I coefficient per distinct j of g and then f (no j may alias on
    the grid), each half-step's decay from the complex closed form of
    int c_eff, the CN gain of the mode's eigenvalue, and each source
    term's trapezoidal amplitude sum times its s_hat.  Returns the
    coefficients at each checkpoint and the running norm maximum, or
    raises BlowUp."""
    h, dt = grid.h, grid.dt_effective
    lam1 = -(4.0 / h ** 2) * np.sin(np.arange(1, grid.nx + 1)
                                    * math.pi * h / 2.0) ** 2
    modes = list(dict.fromkeys([t.j for t in g.terms + f.terms]))
    assert all(0 < j <= grid.nx for r in modes for j in r)
    z = [0.5 * dt * sum(lam1[j - 1] for j in r) for r in modes]
    gain = [float((1.0 + zk) / (1.0 - zk)) for zk in z]
    unit = ((grid.nx + 1) / 2.0) ** (grid.d / 2.0)
    sources = [(term, modes.index(term.j),
                float(unit * (1.0 / (1.0 - z[modes.index(term.j)]))
                      * 0.5 * dt)) for term in f.terms]
    v = [0.0] * len(modes)
    for term in g.terms:
        v[modes.index(term.j)] += unit * term.amp

    def decay(a, b):
        total = 0.0 + 0.0j
        for _, n, c in ceff.terms:
            if n == 0:
                total += c * (b - a)
            else:
                w = 2j * math.pi * n
                total += c * (np.exp(w * b) - np.exp(w * a)) / w
        return math.exp(-total.real)

    scale = h ** (grid.d / 2.0)
    half = np.longdouble(grid.interval) / grid.steps_per_interval / 2
    coeffs = [list(v)]
    max_l2 = scale * math.hypot(*v)
    for i in range(grid.total_steps):
        ta, tm, tb = (float(np.longdouble(j) * half)
                      for j in (2 * i, 2 * i + 1, 2 * i + 2))
        first, second = decay(ta, tm), decay(tm, tb)
        v = [c * first * a for c, a in zip(v, gain)]
        for term, k, s_hat in sources:
            v[k] += (term.amplitude(ta) + term.amplitude(tb)) * s_hat
        v = [c * second for c in v]
        nrm = scale * math.hypot(*v)
        if not nrm <= 1e12:
            raise BlowUp(f"L2 norm {nrm:.3e} at t = {tb:.6g}")
        max_l2 = max(max_l2, nrm)
        if (i + 1) % grid.steps_per_interval == 0:
            coeffs.append(v)
    return coeffs, max_l2


def test_block_limit_matches_the_per_step_limit_bit_for_bit():
    grid = SPANNING_1D
    assert spans_blocks(grid)
    W = frozen_w(1)
    ceff = effective_potential(resolve_regime(0.0, GammaMode.UNIT, W), W)
    assert isinstance(ceff, ScalarSeries) and len(ceff.terms) > 1
    g = InitialDescriptor((InitialTerm(1.0, (1,)), InitialTerm(0.3, (3,)),
                           InitialTerm(-0.2, (1,))))
    f = SourceDescriptor((SourceTerm(1.5, (2,), -0.3, 7.0),
                          SourceTerm(-0.8, (3,), 0.0, 2.0)))
    member, _ = _homogenized_member(ceff, f, g, grid)
    got = [member[0]]
    [(max_l2, _)] = _march(grid, f, [member],
                           lambda i, v: got.append(list(v)))
    want, want_max = per_step_limit(ceff, f, g, grid)
    assert len(want[0]) == 3 and len(got) == grid.checkpoints + 1
    assert ([[c.hex() for c in v] for v in got]
            == [[c.hex() for c in v] for v in want])
    assert max_l2 == want_max
    assert solve_homogenized(ceff, f, g, grid).max_l2 == want_max


def test_limit_blowup_in_a_pair_is_raised_at_the_end_with_its_step_time(
        monkeypatch):
    grid = SPANNING_1D
    assert spans_blocks(grid)
    ceff = -1000.0
    with pytest.raises(BlowUp) as want:
        per_step_limit(ScalarSeries.constant(ceff), F0, G1, grid)
    t = re.search(r"t = (\S+)", str(want.value)).group(1)
    # The step that tripped the guard is neither the first nor the last of
    # its block, and it is not in the last checkpoint interval.
    per_block = BLOCK_CELLS // grid.nx
    i = round(float(t) / grid.dt_effective) - 1
    assert 0 < i % grid.steps_per_interval % per_block < per_block - 1
    assert i < grid.total_steps - grid.steps_per_interval
    seen = []
    march = pdesolve._march

    def recording(grid, f, members, checkpoint):
        def record(i, *states):
            seen.append(i)
            checkpoint(i, *states)
        return march(grid, f, members, record)

    monkeypatch.setattr(pdesolve, "_march", recording)
    with pytest.raises(BlowUp) as got:
        solve_pair(heat_problem(grid), ceff, grid, enforce_policy=False)
    assert str(got.value).startswith("homogenized: L2 norm")
    assert f"t = {t} " in str(got.value)
    assert seen == list(range(1, grid.checkpoints + 1))


@pytest.mark.parametrize("shape", [(256,), (513,), (1025,), (64, 64)])
def test_direct_sine_transform_is_scipys(shape):
    u = np.random.default_rng(7).standard_normal(shape)
    forward = scipy.fft.dstn(u, type=1)
    assert np.array_equal(_dst(u, 0), forward)
    assert np.array_equal(_dst(forward, 1), scipy.fft.dstn(forward, type=1,
                                                           norm="ortho"))
    want = scipy.fft.idstn(forward, type=1)
    assert np.array_equal(_dst(forward, 2), want)
    assert np.array_equal(_dst(forward, 2, forward), want)


def test_blowup_guard_trips():
    grid = GridSpec(1, 16, 1e-3, 0.1, checkpoints=10)
    with pytest.raises(BlowUp, match="exceeds"):
        solve_homogenized(-2000.0, F0, G1, grid)


def test_overflowing_decay_factor_is_a_homogenized_blowup():
    # exp(1e12 / 2048) over the first half-step is past the largest double.
    grid = GridSpec(1, 64, 1 / 1024, 0.125, checkpoints=8)
    with pytest.raises(BlowUp, match="^homogenized: L2 norm"):
        solve_homogenized(-1e12, F0, G1, grid)


def test_pair_raises_the_eps_blowup_when_the_limit_blows_up_first():
    # c_eff = -1e12 trips the homogenized guard at the first step; the
    # constant W = 120 trips the eps guard near T.
    grid = GridSpec(1, 400, 1.0 / (8 * 37 * 16), 1.0 / 16, checkpoints=8)
    W = TrigField(1, [(((0,), 0), 120.0 + 0.0j)])
    p = ProblemSpec(W=W, eps=0.25, regime=resolve_regime(2.0, GammaMode.UNIT,
                                                          DIAG),
                    f=F0, g=G1)
    with pytest.raises(BlowUp) as hom:
        solve_homogenized(-1e12, F0, G1, grid)
    with pytest.raises(BlowUp) as eps:
        solve_epsilon(p, grid, enforce_policy=False)
    times = [float(re.search(r"t = (\S+)", str(e.value)).group(1))
             for e in (hom, eps)]
    assert times[0] < times[1]
    with pytest.raises(BlowUp) as got:
        solve_pair(p, -1e12, grid, enforce_policy=False)
    assert str(got.value) == str(eps.value)
    assert str(got.value).startswith("eps=0.25: L2 norm")


def test_pair_raises_the_limit_blowup_alone_as_its_own_solve_does():
    grid = GridSpec(1, 64, 1 / 1024, 0.125, checkpoints=8)
    with pytest.raises(BlowUp) as alone:
        solve_homogenized(-1e12, F0, G1, grid)
    with pytest.raises(BlowUp) as got:
        solve_pair(heat_problem(grid), -1e12, grid, enforce_policy=False)
    assert str(got.value) == str(alone.value)
    assert str(got.value).startswith("homogenized: L2 norm")


def richardson(p, grid, **kw):
    """Refinement residual of the error under one joint refinement."""
    ceff = effective_potential(p.regime, p.W)
    return refinement_residual(*(solve_pair(p, ceff, g, **kw).error
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

def frozen_pair_peak(grid, g=InitialDescriptor((InitialTerm(1.0, (1, 1)),)),
                     f=F0):
    """tracemalloc's peak over solve_pair of the frozen-time benchmark
    problem (eps = 1/8) on `grid`, from g, with source f."""
    W = frozen_w(grid.d)
    regime = resolve_regime(0.0, GammaMode.UNIT, W)
    p = ProblemSpec(W=W, eps=1 / 8, regime=regime, f=f, g=g)
    ceff = effective_potential(regime, W)
    tracemalloc.start()
    try:
        solve_pair(p, ceff, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_memory_estimate_bounds_the_traced_peak():
    # The 2-D benchmark solve's grid (eps = 1/8, nx 269, 64 checkpoints)
    # over a short T: the peak does not depend on the number of steps.
    grid = GridSpec(2, 269, 1.0 / 16384, 1.0 / 256, checkpoints=64)
    peak = frozen_pair_peak(grid)
    estimate = pair_cost(frozen_w(2), grid)[1]
    assert peak <= estimate <= 1.25 * peak


def test_pair_memory_does_not_grow_with_the_modes_of_g():
    # pair_cost does not see g: the limit holds one number per mode and
    # builds u in x one mode at a time, so sixteen distinct modes stay
    # within the price of the benchmark pair in 2-D, and 96 within the
    # price of a 1-D pair.  There a limit holding one sine row per mode
    # would peak about 46 cell arrays above the price.
    grid = GridSpec(2, 269, 1.0 / 16384, 1.0 / 256, checkpoints=64)
    g = InitialDescriptor(tuple(InitialTerm(1.0, (j, 17 - j))
                                for j in range(1, 17)))
    assert frozen_pair_peak(grid, g) <= pair_cost(frozen_w(2), grid)[1]
    grid = GridSpec(1, 269, 1.0 / 4096, 1.0 / 16, checkpoints=8)
    g = InitialDescriptor(tuple(InitialTerm(1.0, (j,)) for j in range(1, 97)))
    assert frozen_pair_peak(grid, g) <= pair_cost(frozen_w(1), grid)[1]


def test_pair_memory_does_not_grow_with_the_source_terms():
    # Each source term adds to one sine coefficient of the eps march and
    # to one mode of the limit, so eight terms hold no more cell arrays
    # than one.
    grid = GridSpec(2, 199, 1.0 / 16384, 1.0 / 256, checkpoints=64)
    peaks = [frozen_pair_peak(grid, f=SourceDescriptor(tuple(
        SourceTerm(1.0, (j, 9 - j), -0.3, 7.0) for j in range(1, n + 1))))
        for n in (1, 8)]
    assert peaks[1] - peaks[0] < 8 * grid.nx ** 2


def test_pair_memory_does_not_grow_with_the_checkpoints():
    # One step per checkpoint interval, so 256 checkpoints are 248 more
    # checkpoint times than 8; the pair holds no snapshot array.
    peaks = [frozen_pair_peak(GridSpec(2, 128, 1.0 / 8192, c / 8192,
                                       checkpoints=c)) for c in (8, 256)]
    assert abs(peaks[1] - peaks[0]) < 2 * 8 * 128 ** 2


def test_cost_gate_counts_updates_and_memory_per_worker(monkeypatch):
    # A grid whose pair fits the memory limit once but not twice; no grid
    # allocates.  The limit is set between the two prices, so a
    # re-pricing of pair_cost cannot break the precondition.
    W = frozen_w(2)
    big = GridSpec(2, 4500, 1.0 / 64, 1.5, checkpoints=96)
    price = pair_cost(W, big)[1]
    monkeypatch.setattr(pdesolve, "MEMORY_LIMIT", 3 * price // 2)
    assert price < pdesolve.MEMORY_LIMIT < 2 * price
    grids = [big, big]
    total = 2 * 2 * big.cell_updates()
    check_cost("sweep", W, grids, total, workers=1)
    with pytest.raises(BudgetExceeded, match="GiB for nx = 4500 in 2d"):
        check_cost("sweep", W, grids, total, workers=2)
    with pytest.raises(BudgetExceeded, match="cell updates, budget is"):
        check_cost("sweep", W, grids, total - 1)


def test_cost_gate_prices_a_certified_point_by_its_larger_pair(monkeypatch):
    # A point keeps only the norms of its coarse pair while the refined
    # pair runs, so the two pairs together may exceed the limit.  The
    # limit is set between the refined pair's price and the two pairs'
    # sum, so a re-pricing of pair_cost cannot break the precondition.
    W = frozen_w(2) + TrigField.from_cos(2, (0, 1), 0)
    coarse = GridSpec(2, 2600, 1.0 / 64, 1.0, checkpoints=64)
    fine = coarse.refined()
    need = [pair_cost(W, g)[1] for g in (coarse, fine)]
    monkeypatch.setattr(pdesolve, "MEMORY_LIMIT", need[1] + need[0] // 2)
    assert need[1] < pdesolve.MEMORY_LIMIT < sum(need)
    check_cost("sweep", W, [coarse, fine], None)
    with pytest.raises(BudgetExceeded, match="GiB for nx = 5201 in 2d"):
        check_cost("sweep", W, [coarse, fine] * 2, None, workers=2)


def test_cost_gate_has_a_ceiling_without_a_budget():
    grid = GridSpec(1, 10 ** 6, 1e-3, 1e4, checkpoints=8)
    assert 2 * grid.cell_updates() > CELL_UPDATE_CEILING
    with pytest.raises(BudgetExceeded,
                       match=f"budget is {CELL_UPDATE_CEILING}"):
        check_cost("solve", DIAG, [grid], None)


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
