"""Initial-boundary-value solver for the singular problem and its limit.

Domain: unit interval or unit square, homogeneous Dirichlet boundary.
Equations (potential sign per the package convention):

    eps-problem:   du/dt = Lap(u) + eps^(-gamma) W(x/eps, t/eps^k) u + f
    homogenized:   du/dt = Lap(u) - c_eff(t) u + f

Scheme: Strang splitting, one march for both problems.  Each step is
reaction over half a step, Crank-Nicolson diffusion with trapezoidal
source over a full step, reaction over the second half.  The reaction
factor is exact: W is a trigonometric polynomial, so the in-time integral
of the oscillated potential has a closed form per mode, and the half-step
multiplier exp(eps^(-gamma) * integral) carries no quadrature error.
Diffusion uses the standard second-order finite-difference Laplacian; the
CN solve is done exactly by diagonalizing that operator with the type-I
sine transform, whose basis is the eigenbasis of the Dirichlet
second-difference matrix.

The homogenized problem runs the same scheme on orthonormal DST-I
coefficients: c_eff does not depend on x, so its reaction factor is a
scalar and the CN step a per-coefficient gain.  The transform keeps the
discrete L2 norm, so the blow-up guard reads the same as in x.

Resolution policy for the eps-problem: at least 16 grid points per eps
(spatial oscillation) and dt no larger than min(eps^k, eps^(gamma+1))/8;
eps^k resolves the potential's time oscillation, eps^(gamma+1) keeps the
splitting commutator error in check.  Grids built by `policy_grid` use 32
points per eps: the second-difference error on the eps-wavelength
component scales like (2*pi*h/eps)^2, and 16 points leave ~15% relative
error on the corrector-sized part of u_eps - u_0, too coarse for the 10%
refinement certificate used by rate sweeps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sp_fft

from .errors import BlowUp, BudgetExceeded, ResolutionViolation
from .potential import ScalarSeries, TrigField
from .regimes import RegimeSpec

BLOWUP_LIMIT = 1e12

#: Resolution policy constants: the enforced floor on points per eps, the
#: default used when building policy grids, and the divisor applied to the
#: limiting time scale.
POINTS_PER_EPS = 16
POINTS_PER_EPS_DEFAULT = 32
DT_DIVISOR = 8
#: The eps-wavelength response relaxes on the diffusive time scale
#: eps^2/(4 pi^2); Crank-Nicolson tracks that factor only for
#: dt * (2 pi / eps)^2 below ~1, hence this extra cap on policy grids.
DIFFUSIVE_DT_DIVISOR = 64
#: Fewest snapshot times a grid may have.
MIN_CHECKPOINTS = 8
#: Largest estimated memory the solves of one command may hold (bytes).
MEMORY_LIMIT = 4 * 2 ** 30
#: Cell updates one command may run when no budget is given: about a
#: quarter of an hour at the ~10 M cell-updates/s of a 1-D solve.
CELL_UPDATE_CEILING = 10 ** 10


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time discretization of (0,1)^d x (0,T].

    nx interior points per axis (spacing h = 1/(nx+1)); `checkpoints`
    equispaced snapshot times; dt must divide the checkpoint interval to
    within one part in 1e6 and is nudged to divide it exactly.
    """

    d: int
    nx: int
    dt: float
    T: float
    checkpoints: int = 64

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.d}")
        if self.nx < 8:
            raise ValueError(f"nx must be >= 8, got {self.nx}")
        if self.checkpoints < MIN_CHECKPOINTS:
            raise ValueError(f"checkpoints must be >= {MIN_CHECKPOINTS}, "
                             f"got {self.checkpoints}")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        interval = self.T / self.checkpoints
        steps = round(_step_count(interval, self.dt))
        if steps < 1 or abs(steps * self.dt - interval) > 1e-6 * interval:
            raise ValueError(
                f"dt = {self.dt} does not divide the checkpoint interval "
                f"{interval} to within 1e-6")

    @property
    def h(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def interval(self) -> float:
        return self.T / self.checkpoints

    @property
    def steps_per_interval(self) -> int:
        return round(self.interval / self.dt)

    @property
    def dt_effective(self) -> float:
        """dt nudged so that steps land exactly on checkpoints."""
        return self.interval / self.steps_per_interval

    @property
    def total_steps(self) -> int:
        return self.steps_per_interval * self.checkpoints

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx,) * self.d

    def axes(self) -> tuple[np.ndarray, ...]:
        """Interior grid coordinates per axis."""
        x = np.arange(1, self.nx + 1, dtype=float) * self.h
        return (x,) * self.d

    def mesh(self) -> tuple[np.ndarray, ...]:
        """The axes shaped to broadcast against each other (open mesh)."""
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    def cell_updates(self) -> int:
        """Cost measure: grid cells times time steps."""
        return self.nx ** self.d * self.total_steps

    def refined(self) -> "GridSpec":
        """Halve both mesh sizes (nested grid: nx -> 2nx+1, dt -> dt/2)."""
        return GridSpec(self.d, 2 * self.nx + 1, self.dt_effective / 2.0,
                        self.T, self.checkpoints)

    def checkpoint_times(self) -> np.ndarray:
        return np.arange(self.checkpoints + 1) * self.interval


def _step_count(interval: float, dt: float) -> float:
    """interval / dt; BudgetExceeded when doubles cannot hold that time
    grid: a step that underflows to 0, an interval below the smallest
    normal double, or a count that overflows."""
    fits = dt > 0 and interval >= sys.float_info.min
    steps = interval / dt if fits else math.inf
    if not math.isfinite(steps):
        raise BudgetExceeded(
            f"no double-precision time grid has steps of {dt:.3g} over "
            f"an interval of {interval:.3g}")
    return steps


def policy_grid(eps: float, k: float, gamma: float, T: float, d: int,
                checkpoints: int = 64) -> GridSpec:
    """Default grid for this eps: double the policy floor in space, and
    dt under both the oscillation cap and the diffusive-relaxation cap."""
    interval = T / checkpoints
    dt_cap = min(min(eps ** k, eps ** (gamma + 1.0)) / DT_DIVISOR,
                 eps ** 2 / DIFFUSIVE_DT_DIVISOR)
    # First, so that an eps whose 32/eps overflows (eps^2 is then 0) ends here.
    steps = max(1, math.ceil(_step_count(interval, dt_cap)))
    nx = max(8, math.ceil(POINTS_PER_EPS_DEFAULT / eps))
    return GridSpec(d, nx, interval / steps, T, checkpoints)


def check_resolution(grid: GridSpec, eps: float, k: float, gamma: float) -> None:
    slack = 1.0 + 1e-9
    if grid.nx * slack < POINTS_PER_EPS / eps:
        raise ResolutionViolation(
            f"nx = {grid.nx} < {POINTS_PER_EPS}/eps = {POINTS_PER_EPS / eps:.1f}; "
            f"spatial oscillation unresolved")
    dt_cap = min(eps ** k, eps ** (gamma + 1.0)) / DT_DIVISOR
    if grid.dt_effective > dt_cap * slack:
        raise ResolutionViolation(
            f"dt = {grid.dt_effective:.3e} exceeds policy cap {dt_cap:.3e} "
            f"= min(eps^k, eps^(gamma+1))/{DT_DIVISOR}")


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceTerm:
    """amp * prod_i sin(j_i pi x_i) * exp(sigma t) * cos(omega t)."""

    amp: float
    j: tuple[int, ...]
    sigma: float = 0.0
    omega: float = 0.0

    def amplitude(self, t: float) -> float:
        return self.amp * math.exp(self.sigma * t) * math.cos(self.omega * t)


@dataclass(frozen=True)
class SourceDescriptor:
    terms: tuple[SourceTerm, ...] = ()

    @staticmethod
    def zero() -> "SourceDescriptor":
        return SourceDescriptor(())

    def compile(self, grid: GridSpec) -> Callable[[float], np.ndarray] | None:
        if not self.terms:
            return None
        shapes = [_sine_profile(grid, t.j) for t in self.terms]

        def f(t: float) -> np.ndarray:
            out = np.zeros(grid.shape)
            for term, shape in zip(self.terms, shapes):
                out += term.amplitude(t) * shape
            return out

        return f


@dataclass(frozen=True)
class InitialTerm:
    """amp * prod_i sin(j_i pi x_i)."""

    amp: float
    j: tuple[int, ...]


@dataclass(frozen=True)
class InitialDescriptor:
    terms: tuple[InitialTerm, ...] = ()

    def build(self, grid: GridSpec) -> np.ndarray:
        out = np.zeros(grid.shape)
        for term in self.terms:
            out += term.amp * _sine_profile(grid, term.j)
        return out


def _sine_profile(grid: GridSpec, j: Sequence[int]) -> np.ndarray:
    if len(j) != grid.d:
        raise ValueError(
            f"mode index {tuple(j)} has dimension {len(j)}, grid is {grid.d}d")
    out = 1.0
    for ji, x in zip(j, grid.mesh()):
        out = out * np.sin(ji * math.pi * x)
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the eps-problem."""

    W: TrigField
    eps: float
    regime: RegimeSpec
    f: SourceDescriptor
    g: InitialDescriptor

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")

    @property
    def d(self) -> int:
        return self.W.d


@dataclass
class Trajectory:
    """Checkpoint snapshots of one solve, plus the running norm maximum."""

    grid: GridSpec
    times: np.ndarray
    snapshots: np.ndarray
    max_l2: float


@dataclass(frozen=True)
class PairNorms:
    """What solve_pair measures: the discrete L2 norms of u_eps, u_hom and
    u_eps - u_hom at each checkpoint time, and both running maxima."""

    times: np.ndarray
    l2_eps: np.ndarray
    l2_hom: np.ndarray
    l2_diff: np.ndarray
    max_l2_eps: float
    max_l2_hom: float

    @property
    def error(self) -> float:
        """The L-infinity(0,T; L2) error: the largest checkpoint distance."""
        return float(np.max(self.l2_diff))


def _l2(u: np.ndarray, grid: GridSpec) -> float:
    # Composite trapezoid over the closed box; boundary values are zero,
    # so the interior sum is the whole quadrature.
    return grid.h ** (grid.d / 2.0) * float(np.linalg.norm(u.ravel()))


# ---------------------------------------------------------------------------
# Strang pieces: CN diffusion diagonalized by the type-I sine transform,
# and the exact reaction factor of the eps-problem
# ---------------------------------------------------------------------------

class _Diffusion:
    def __init__(self, grid: GridSpec,
                 source_fn: Callable[[float], np.ndarray] | None = None):
        nx, h, dt = grid.nx, grid.h, grid.dt_effective
        j = np.arange(1, nx + 1)
        lam1 = -(4.0 / h ** 2) * np.sin(j * math.pi * h / 2.0) ** 2
        lam = lam1 if grid.d == 1 else lam1[:, None] + lam1[None, :]
        z = 0.5 * dt * lam
        self.gain = (1.0 + z) / (1.0 - z)
        self.solve_weight = 1.0 / (1.0 - z)
        self.half_dt = 0.5 * dt
        self.source_fn = source_fn

    def step(self, u: np.ndarray, t_a, t_b) -> np.ndarray:
        uh = sp_fft.dstn(u, type=1)
        if self.source_fn is None:
            uh = self.gain * uh
        else:
            f_sum = self.source_fn(float(t_a)) + self.source_fn(float(t_b))
            fh = sp_fft.dstn(self.half_dt * f_sum, type=1)
            uh = self.gain * uh + self.solve_weight * fh
        return sp_fft.idstn(uh, type=1)


def _ortho_dst(u: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I; it is its own inverse and keeps the L2 norm."""
    return sp_fft.dstn(u, type=1, norm="ortho")


class _OscillatedReaction:
    """Multiplier exp(eps^(-gamma) * int_[ta,tb] W(x/eps, s/eps^k) ds).

    Per mode (m, n, c) the time integral over [ta, tb] is
        c * exp(2 pi i m.x/eps) * eps^k (e(n tb/eps^k) - e(n ta/eps^k)) / (2 pi i n)
    for n != 0 and c * exp(...) * (tb - ta) for n = 0, with e(z) =
    exp(2 pi i z).  Torus arguments are reduced mod 1 in long double so
    the phase stays accurate when t/eps^k is large.
    """

    def __init__(self, W: TrigField, eps: float, k: float, gamma: float,
                 grid: GridSpec):
        eps_ld = np.longdouble(eps)
        self.eps_k_ld = eps_ld ** np.longdouble(k)
        self.eps_k = float(self.eps_k_ld)
        self.scale = float(eps_ld ** np.longdouble(-gamma))
        ys = [np.remainder(np.asarray(x, dtype=np.longdouble) / eps_ld, 1.0)
              .astype(float) for x in grid.mesh()]
        self.spatial: list[tuple[int, np.ndarray]] = []
        for m, n, c in W.terms:
            phase = sum((mj * y for mj, y in zip(m, ys) if mj),
                        np.zeros(grid.shape))
            self.spatial.append((n, c * np.exp(2j * math.pi * phase)))

    def _tau(self, t_ld) -> float:
        return float(np.remainder(t_ld / self.eps_k_ld, np.longdouble(1.0)))

    def factor(self, ta_ld, tb_ld) -> np.ndarray:
        tau_a = self._tau(ta_ld)
        tau_b = self._tau(tb_ld)
        total: np.ndarray | complex = 0.0 + 0.0j
        for n, s in self.spatial:
            if n == 0:
                total = total + float(tb_ld - ta_ld) * s
            else:
                two_pi_in = 2j * math.pi * n
                weight = self.eps_k * (np.exp(two_pi_in * tau_b)
                                       - np.exp(two_pi_in * tau_a)) / two_pi_in
                total = total + weight * s
        return np.exp(self.scale * np.real(total))


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _march(grid: GridSpec, u0: np.ndarray, step: Callable,
           label: str) -> Trajectory:
    """Run step(u, t_a, t_m, t_b) (one Strang step, long double times) to T."""
    half_ld = np.longdouble(grid.interval) / grid.steps_per_interval / 2
    u = u0
    snaps = np.empty((grid.checkpoints + 1,) + grid.shape)
    snaps[0] = u
    max_l2 = _l2(u, grid)
    step_index = 0
    for ci in range(grid.checkpoints):
        for _ in range(grid.steps_per_interval):
            t_a = np.longdouble(2 * step_index) * half_ld
            t_m = np.longdouble(2 * step_index + 1) * half_ld
            t_b = np.longdouble(2 * step_index + 2) * half_ld
            u = step(u, t_a, t_m, t_b)
            step_index += 1
            nrm = _l2(u, grid)
            if not math.isfinite(nrm) or nrm > BLOWUP_LIMIT:
                raise BlowUp(
                    f"{label}: L2 norm {nrm:.3e} at "
                    f"t = {float(t_b):.6g} exceeds {BLOWUP_LIMIT:.0e}")
            max_l2 = max(max_l2, nrm)
        snaps[ci + 1] = u
    return Trajectory(grid=grid, times=grid.checkpoint_times(),
                      snapshots=snaps, max_l2=max_l2)


def solve_epsilon(p: ProblemSpec, grid: GridSpec, *,
                  enforce_policy: bool = True,
                  disable_diffusion: bool = False,
                  source_fn: Callable[[float], np.ndarray] | None = None
                  ) -> Trajectory:
    """March the eps-problem to T on the given grid.

    disable_diffusion is a test hook: with it the scheme reduces to the
    exact reaction factor alone, and a source is rejected.  source_fn
    overrides the declarative source with an arbitrary array-valued
    function of time (used for manufactured solutions).
    """
    if p.d != grid.d:
        raise ValueError(
            f"potential dimension {p.d} does not match grid dimension {grid.d}")
    if enforce_policy:
        check_resolution(grid, p.eps, p.regime.k, p.regime.gamma)
    reaction = _OscillatedReaction(p.W, p.eps, p.regime.k, p.regime.gamma, grid)
    if source_fn is None:
        source_fn = p.f.compile(grid)
    if disable_diffusion and source_fn is not None:
        raise ValueError("disable_diffusion does not take a source")
    diffuse = ((lambda u, t_a, t_b: u) if disable_diffusion
               else _Diffusion(grid, source_fn).step)

    def step(u, t_a, t_m, t_b):
        u = u * reaction.factor(t_a, t_m)
        u = diffuse(u, t_a, t_b)
        return u * reaction.factor(t_m, t_b)

    return _march(grid, p.g.build(grid), step, label=f"eps={p.eps:g}")


def solve_homogenized(ceff: float | TrigField, f: SourceDescriptor,
                      g: InitialDescriptor, grid: GridSpec) -> Trajectory:
    """March the homogenized problem du/dt - Lap u + c_eff u = f on sine
    coefficients (see the module docstring); snapshot 0 is g itself."""
    if not isinstance(ceff, TrigField):
        ceff = ScalarSeries.constant(ceff)
    cn = _Diffusion(grid)
    sources = [(term, cn.solve_weight * cn.half_dt
                * _ortho_dst(_sine_profile(grid, term.j)))
               for term in f.terms]

    def step(v, t_a, t_m, t_b):
        a, m, b = float(t_a), float(t_m), float(t_b)
        v = cn.gain * (math.exp(-ceff.definite_integral(a, m)) * v)
        for term, s_hat in sources:
            v = v + (term.amplitude(a) + term.amplitude(b)) * s_hat
        return math.exp(-ceff.definite_integral(m, b)) * v

    u0 = g.build(grid)
    traj = _march(grid, _ortho_dst(u0), step, label="homogenized")
    traj.snapshots[0] = u0
    for i in range(1, grid.checkpoints + 1):
        traj.snapshots[i] = _ortho_dst(traj.snapshots[i])
    return traj


# ---------------------------------------------------------------------------
# The pair, its cost and the refinement diagnostic
# ---------------------------------------------------------------------------

def solve_pair(p: ProblemSpec, ceff: float | TrigField, grid: GridSpec, *,
               enforce_policy: bool = True) -> PairNorms:
    """Solve the eps-problem and its homogenized limit on one grid and
    measure both, and their distance, at every checkpoint."""
    u_eps = solve_epsilon(p, grid, enforce_policy=enforce_policy)
    u_hom = solve_homogenized(ceff, p.f, p.g, grid)
    # One checkpoint row at a time, so no difference array of the whole
    # trajectory is built.
    sums = np.array([(np.sum(a ** 2), np.sum(b ** 2), np.sum((a - b) ** 2))
                     for a, b in zip(u_eps.snapshots, u_hom.snapshots)])
    l2_eps, l2_hom, l2_diff = grid.h ** (grid.d / 2.0) * np.sqrt(sums.T)
    return PairNorms(times=u_eps.times, l2_eps=l2_eps, l2_hom=l2_hom,
                     l2_diff=l2_diff, max_l2_eps=u_eps.max_l2,
                     max_l2_hom=u_hom.max_l2)


def pair_cost(W: TrigField, f: SourceDescriptor,
              grid: GridSpec) -> tuple[int, int]:
    """(cell updates, peak bytes) of solve_pair on `grid`: both snapshot
    arrays, one complex profile per W mode and one per source."""
    per_cell = 2 * (grid.checkpoints + 1) + 2 * len(W.terms) + len(f.terms)
    return 2 * grid.cell_updates(), 8 * per_cell * grid.nx ** grid.d


def check_cost(command: str, W: TrigField, f: SourceDescriptor,
               grids: Sequence[GridSpec], budget: int | None,
               workers: int = 1) -> None:
    """Raise BudgetExceeded unless the pair solves on `grids`, run
    min(workers, len(grids)) at a time, fit in MEMORY_LIMIT bytes, and all
    of them in `budget` cell updates.  Memory is checked first, as the
    harder limit."""
    size, nx = max((pair_cost(W, f, g)[1], g.nx) for g in grids)
    need = size * max(1, min(workers, len(grids)))
    if need > MEMORY_LIMIT:
        raise BudgetExceeded(
            f"{command} needs about {need / 2 ** 30:.1f} GiB for nx = {nx} "
            f"in {grids[0].d}d, limit is {MEMORY_LIMIT / 2 ** 30:g} GiB")
    total = sum(pair_cost(W, f, g)[0] for g in grids)
    cap = CELL_UPDATE_CEILING if budget is None else budget
    if total > cap:
        raise BudgetExceeded(
            f"{command} needs about {total} cell updates, budget is {cap}")


def refinement_residual(e_coarse: float, e_fine: float) -> float:
    """Relative change of the error from a grid to its refinement."""
    top = max(e_coarse, e_fine)
    if top <= 1e-12:
        return 0.0
    return abs(e_coarse - e_fine) / top

