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

The homogenized problem runs the same scheme on its own sine modes.
c_eff does not depend on x, and each sin(j pi x) term of g and f is, on
the grid, plus or minus one DST-I basis vector or zero (`_fold`): an
eigenvector of the second-difference matrix.  So u_0 stays in the span
of the distinct modes of g and f, and the state is its orthonormal
DST-I coefficient on each of them: the reaction factor is a scalar, the
CN step a gain per mode, and a source term adds to its own mode.  The
coefficients keep the discrete L2 norm, so the blow-up guard reads the
same as in x.  The state goes to x only at a checkpoint, one mode's sine
profile at a time, so the limit holds no cell array per mode.

The eps march adds the declarative source the same way: a term's
profile has the forward DST-I sign * (nx+1)^d at its mode and zero
elsewhere, so it adds to one coefficient (`_source_entries`), and an eps
step takes two transforms whatever f is.  A block evaluates each term's
amplitude once per full-step time.  A `source_fn` given to
`solve_epsilon` is summed in x and transformed at every step.  The eps
march stores each conjugate pair of the real W once, as two real rows,
so the exponent of a half-step's reaction factor is a real contraction
of per-pair weights with those rows (`_OscillatedReaction`).

Block stepping: the march takes the steps of a checkpoint interval in
blocks.  For each block it computes the long-double half-step boundary
times and the source amplitude sums once, for every member, and the
eps-problem builds the reaction factors of all the block's half-steps in
one contraction (row j is the multiplier over the j-th half-step).  The
result does not depend on the blocking: every weight is computed
elementwise from its own two times, and the contraction is numpy's
einsum, which adds each cell's products of weights and profile rows one
after another in profile order, exactly as a factor built for one
half-step alone does.  A BLAS matrix product would not do: its summation
order varies with the number of half-steps.  Each member then takes the
whole block in one call and returns its L2 norm after every step, from
which the march keeps the running maxima and applies the blow-up guard,
so a BlowUp still names the time of the step that tripped it.  The eps
member steps in place on its state (factor row 2i, CN, row 2i+1); the
limit steps on floats, with the half-step decays of the whole block from
one evaluation of the integral of c_eff (`_decays`).  The norm after the
last step of an interval is also the member's norm at that checkpoint,
so a checkpoint norm never exceeds the running maximum.  A block holds at
most BLOCK_CELLS cells (steps times grid cells), so its factor arrays
stay a few hundred KiB; a grid with more cells than that (every 2-D
policy grid) takes one step per block.  The sine transforms call
pocketfft's DST-I directly, which skips scipy.fft's argument handling on
every call.

`solve_pair` marches the eps-problem and its limit in lockstep and
takes their distance from the live states at each checkpoint, so it
holds no snapshot array; `solve_epsilon` and `solve_homogenized` keep
their snapshots.

Resolution policy for the eps-problem: at least 16 grid points per eps
(spatial oscillation) and dt no larger than min(eps^k, eps^(gamma+1))/8;
eps^k resolves the potential's time oscillation, eps^(gamma+1) keeps the
splitting commutator error in check.  Grids built by `policy_grid` use 32
points per eps: the second-difference error on the eps-wavelength
component scales like (2*pi*h/eps)^2, and 16 points leave ~15% relative
error on the corrector-sized part of u_eps - u_0, too coarse for the 10%
refinement certificate used by rate sweeps.  `policy_grid` then rounds
nx+1 up to scipy.fft's `next_fast_len(real=True)`, the next 2^a 3^b 5^c:
pocketfft's DST-I of length nx is a real FFT of length 2(nx+1), several
times slower when nx+1 has a large prime factor (nx 256: 257).
`GridSpec.refined` maps nx+1 to 2(nx+1), so refined policy grids stay
smooth.  Grids given by the user are taken as they are.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.fft import next_fast_len
from scipy.fft._pocketfft.pypocketfft import dst as _pocketfft_dst

from .errors import BlowUp, BudgetExceeded, ResolutionViolation
from .potential import ScalarSeries, TrigField, _frac_div
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
#: Most cells (time steps times grid cells) one block of the march steps;
#: it bounds the reaction factors built at once (see the module docstring).
#: A block's set-up (its reaction factors, the limit's decays, the source
#: amplitudes, one call per member) is the larger fixed cost of the march.
#: On the critical sweep's eight pair grids (nx 269 to 1079), blocks of
#: 2^12 cells took a median 9% longer than these and blocks of 2^16 8%
#: less; against 2^12, the sweep's peak RSS rose 0.3 MiB with 2^14 and
#: 1.2 MiB with 2^16.
BLOCK_CELLS = 2 ** 14


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
        """Halve both mesh sizes (nested: nx+1 -> 2(nx+1), dt -> dt/2)."""
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
                checkpoints: int = GridSpec.checkpoints) -> GridSpec:
    """Default grid for this eps: double the policy floor in space, nx+1
    rounded up to a 5-smooth number (see the module docstring), and dt
    under both the oscillation cap and the diffusive-relaxation cap."""
    interval = T / checkpoints
    dt_cap = min(_oscillation_cap(eps, k, gamma), diffusive_cap(eps))
    # First, so that an eps whose 32/eps overflows (eps^2 is then 0) ends here.
    steps = max(1, math.ceil(_step_count(interval, dt_cap)))
    floor = max(8, math.ceil(POINTS_PER_EPS_DEFAULT / eps))
    try:   # it raises ValueError or OverflowError past about 1e18
        nx = next_fast_len(floor + 1, real=True) - 1
    except (ValueError, OverflowError):
        raise BudgetExceeded(f"nx = {floor} is past the longest FFT") from None
    return GridSpec(d, nx, interval / steps, T, checkpoints)


def _oscillation_cap(eps: float, k: float, gamma: float) -> float:
    """The policy's cap on dt, min(eps^k, eps^(gamma+1))/DT_DIVISOR."""
    return min(eps ** k, eps ** (gamma + 1.0)) / DT_DIVISOR


def diffusive_cap(eps: float) -> float:
    """The policy's diffusive-relaxation cap on dt, eps^2/64.  Policy grids
    keep it; `check_resolution` does not enforce it on user grids."""
    return eps ** 2 / DIFFUSIVE_DT_DIVISOR


def check_resolution(grid: GridSpec, eps: float, k: float, gamma: float) -> None:
    slack = 1.0 + 1e-9
    if grid.nx * slack < POINTS_PER_EPS / eps:
        raise ResolutionViolation(
            f"nx = {grid.nx} < {POINTS_PER_EPS}/eps = {POINTS_PER_EPS / eps:.1f}; "
            f"spatial oscillation unresolved")
    dt_cap = _oscillation_cap(eps, k, gamma)
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

    def amplitude_sums(self, t: list[float]) -> list[list[float]]:
        """Per term, amp(t[2i]) + amp(t[2i+2]) for each step i of a block
        with half-step times t.  Each amplitude is evaluated once per
        full-step time: a step's amp(t_b) is the next step's amp(t_a)."""
        sums = []
        for term in self.terms:
            amp = [term.amplitude(x) for x in t[::2]]
            sums.append([a + b for a, b in zip(amp, amp[1:])])
        return sums


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


def _fold(grid: GridSpec, j: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(r, sign): at the grid nodes prod_i sin(j_i pi x_i) is sign times
    prod_i sin(r_i pi x_i), with 1 <= r_i <= nx, or zero when sign is 0.

    Per axis, sin(j pi x) on the grid is sin(r pi x) with r = j mod
    2(nx+1).  It is -sin((2(nx+1) - r) pi x) when r > nx+1, and zero when
    r is 0 or nx+1.  The reduction is exact integer arithmetic, so a large
    j keeps its grid profile."""
    if len(j) != grid.d:
        raise ValueError(
            f"mode index {tuple(j)} has dimension {len(j)}, grid is {grid.d}d")
    period, r, sign = 2 * (grid.nx + 1), [], 1
    for ji in j:
        ri = ji % period
        if ri > grid.nx + 1:
            ri, sign = period - ri, -sign
        elif ri in (0, grid.nx + 1):
            sign = 0
        r.append(ri)
    return tuple(r), sign


def _sine_profile(grid: GridSpec, j: Sequence[int]) -> np.ndarray:
    """prod_i sin(j_i pi x_i) on the grid, evaluated at the folded index."""
    r, sign = _fold(grid, j)
    out = float(sign)
    for ri, x in zip(r, grid.mesh()):
        out = out * np.sin(ri * math.pi * x)
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


#: Longest dot product in `_l2`: OpenBLAS's ddot splits a sum of more
#: than 10,000 elements across its threads, so its bits would follow the
#: thread count.
_L2_CHUNK = 8192


def _l2(u: np.ndarray, grid: GridSpec) -> float:
    # Composite trapezoid over the closed box; boundary values are zero,
    # so the interior sum is the whole quadrature: sqrt(x.x), as
    # np.linalg.norm runs it, with x.x added up in order from the dots
    # of _L2_CHUNK-element pieces.
    x = u.ravel()
    if len(x) <= _L2_CHUNK:
        total = x.dot(x)
    else:
        total = sum(x[i:i + _L2_CHUNK].dot(x[i:i + _L2_CHUNK])
                    for i in range(0, len(x), _L2_CHUNK))
    return grid.h ** (grid.d / 2.0) * math.sqrt(total)


# ---------------------------------------------------------------------------
# Strang pieces: CN diffusion diagonalized by the type-I sine transform,
# and the exact reaction factor of the eps-problem
# ---------------------------------------------------------------------------

def _dst(u: np.ndarray, inorm: int, out: np.ndarray | None = None
         ) -> np.ndarray:
    """DST-I over every axis of u, as scipy.fft.dstn(type=1) computes it:
    inorm 0 is the forward transform and 2 its inverse (idstn), the two
    the eps march takes; 1 is the orthonormal one, its own inverse.  out
    may be u itself."""
    return _pocketfft_dst(u, 1, tuple(range(u.ndim)), inorm, out, 1)


def _cn_weights(grid: GridSpec, modes) -> tuple[np.ndarray, np.ndarray]:
    """The CN gain and solve weight on the sine modes r = `modes`, one
    index array per axis (broadcast together), from the eigenvalue
    sum_i -(4/h^2) sin(r_i pi h/2)^2 of the second-difference matrix."""
    h = grid.h
    lam = sum(-(4.0 / h ** 2) * np.sin(r * math.pi * h / 2.0) ** 2
              for r in modes)
    z = 0.5 * grid.dt_effective * lam
    return (1.0 + z) / (1.0 - z), 1.0 / (1.0 - z)


def _source_entries(f: SourceDescriptor, grid: GridSpec, weight,
                    place: Callable, unit: float) -> list[tuple]:
    """(n, k, s_hat) per term n of f on a nonzero profile (`_fold`): k =
    place(r) indexes its mode r in the state, where the unsigned profile
    has coefficient unit, and s_hat = solve_weight * dt/2 * sign * unit."""
    entries = []
    for n, term in enumerate(f.terms):
        r, sign = _fold(grid, term.j)
        if sign:
            k = place(r)
            entries.append((n, k, sign * unit * weight[k] * 0.5
                            * grid.dt_effective))
    return entries


def _conjugate_pairs(W: TrigField) -> list[tuple[tuple[int, ...], int,
                                                 complex]]:
    """W's modes, one (m, n, C) per conjugate pair, in W's order: C =
    c + conj(c') for the pair of (m, n, c) and its partner (-m, -n, c'),
    which is 2c when c' is the exact conjugate, and C = c for the
    self-conjugate constant mode.  The pair adds Re(C * mode) to W."""
    coeff = W.coeff_map()
    pairs = []
    for m, n, c in W.terms:
        partner = (tuple(-v for v in m), -n)
        if (m, n) > partner:
            pairs.append((m, n, c + coeff[partner].conjugate()))
        elif (m, n) == partner:
            pairs.append((m, n, c))
    return pairs


class _OscillatedReaction:
    """Multipliers exp(eps^(-gamma) * int_[ta,tb] W(x/eps, s/eps^k) ds).

    Per conjugate pair (m, n, C) of W (see `_conjugate_pairs`) the
    integral over [ta, tb] is Re(C e_m(x) w_n), with e_m(x) =
    exp(2 pi i m.x/eps) and w_n = tb - ta for n = 0, else
        w_n = eps^k (e(n tb/eps^k) - e(n ta/eps^k)) / (2 pi i n),
    e(z) = exp(2 pi i z).  Torus arguments are reduced mod 1 in long
    double so the phase stays accurate when t/eps^k is large.  The pair
    is stored once, as the real rows scale*Re(C e_m) and scale*Im(C e_m)
    of `profiles`, so that the exponent is the real contraction
        Re(w_n) * row_re - Im(w_n) * row_im
    summed over the pairs.
    """

    def __init__(self, W: TrigField, eps: float, k: float, gamma: float,
                 grid: GridSpec):
        eps_ld = np.longdouble(eps)
        self.eps_k_ld = eps_ld ** np.longdouble(k)
        eps_k = float(self.eps_k_ld)
        scale = float(eps_ld ** np.longdouble(-gamma))
        ys = [_frac_div(x, eps_ld) for x in grid.mesh()]
        pairs = _conjugate_pairs(W)
        self.profiles = np.empty((2 * len(pairs), grid.nx ** grid.d))
        for p, (m, n, c) in enumerate(pairs):
            phase = sum((mj * y for mj, y in zip(m, ys) if mj),
                        np.zeros(grid.shape))
            s = (c * np.exp(2j * math.pi * phase)).ravel()
            self.profiles[2 * p] = scale * s.real
            self.profiles[2 * p + 1] = scale * s.imag
        ns = np.array([n for _, n, _ in pairs], dtype=float)
        #: Per pair 2 pi n and eps^k / (2 pi n) (0 for n = 0); the pairs
        #: with n = 0.
        self.rate = 2.0 * math.pi * ns
        self.lift = np.divide(eps_k, self.rate, out=np.zeros_like(ns),
                              where=ns != 0)[:, None]
        self.still = np.flatnonzero(ns == 0)
        self.shape = grid.shape

    def _factors(self, times: np.ndarray) -> np.ndarray:
        """Row j: the multiplier over [times[j], times[j+1]] (long double
        times), shaped like the grid.

        With theta = 2 pi n tau, the weights of a pair's rows are
        (Re w_n, -Im w_n) = eps^k/(2 pi n) (sin, cos)(theta) differenced
        over the half-step, or (tb - ta, 0) for n = 0.  The exponent is
        einsum's contraction of the weights with the rows (not a matrix
        product; see the module docstring)."""
        tau = _frac_div(times, self.eps_k_ld)
        theta = np.multiply.outer(tau, self.rate)
        ring = np.empty(theta.shape + (2,))
        np.sin(theta, out=ring[..., 0])
        np.cos(theta, out=ring[..., 1])
        weights = ring[1:] - ring[:-1]
        weights *= self.lift
        if len(self.still):
            weights[:, self.still, 0] = np.diff(times).astype(float)[:, None]
        rows = weights.reshape(len(times) - 1, len(self.profiles))
        total = np.einsum("ik,kj->ij", rows, self.profiles)
        return np.exp(total, out=total).reshape((-1,) + self.shape)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _block_steps(grid: GridSpec) -> int:
    """Steps in a full block: BLOCK_CELLS cells, at least one step and at
    most a checkpoint interval."""
    return max(1, min(grid.steps_per_interval,
                      BLOCK_CELLS // grid.nx ** grid.d))


def _march(grid: GridSpec, f: SourceDescriptor, members: Sequence[tuple],
           checkpoint: Callable) -> list[tuple[float, np.ndarray]]:
    """March the members to T in lockstep, one block of steps at a time
    (see the module docstring); return, per member, the running maximum
    of its L2 norm and its L2 norm at each checkpoint time.

    A member is (u0, l2, block, label), l2 the L2 norm of u0.
    block(u, times, t, sums) advances the state u over every step of a
    block and returns the new state and its L2 norm after each step.
    times are the block's long-double half-step boundary times t_0 < ...
    < t_2s (step i runs from times[2i] through times[2i+1] to
    times[2i+2]), t the same times as floats, and sums
    f.amplitude_sums(t), evaluated once per block for every member.
    checkpoint(i, *states) gets the live states at checkpoint time i, for
    i = 1 .. grid.checkpoints.  A norm past BLOWUP_LIMIT (or not finite)
    is a BlowUp at the end of its step: the first member's is raised once
    its block is stepped, a later member's when the march ends.  numpy's
    overflow and NaN warnings are off."""
    half_ld = np.longdouble(grid.interval) / grid.steps_per_interval / 2
    per_block = _block_steps(grid)
    per_interval = grid.steps_per_interval
    states = [u0 for u0, _, _, _ in members]
    max_l2 = [l2 for _, l2, _, _ in members]
    columns = np.empty((len(members), grid.checkpoints + 1))
    columns[:, 0] = max_l2
    held = None
    with np.errstate(over="ignore", invalid="ignore"):
        for ci in range(grid.checkpoints):
            end = (ci + 1) * per_interval
            for first in range(ci * per_interval, end, per_block):
                count = min(per_block, end - first)
                times = np.arange(2 * first, 2 * (first + count) + 1,
                                  dtype=np.longdouble) * half_ld
                t = times.astype(float).tolist()
                sums = f.amplitude_sums(t)
                for j, (_, _, block, label) in enumerate(members):
                    states[j], norms = block(states[j], times, t, sums)
                    max_l2[j] = max(max_l2[j], *norms)
                    columns[j, ci + 1] = norms[-1]
                    if held is None or j == 0:
                        bad = next((i for i, nrm in enumerate(norms)
                                    if not nrm <= BLOWUP_LIMIT), None)
                        if bad is not None:
                            held = BlowUp(
                                f"{label}: L2 norm {norms[bad]:.3e} at t = "
                                f"{t[2 * bad + 2]:.6g} exceeds "
                                f"{BLOWUP_LIMIT:.0e}")
                            if j == 0:
                                raise held
            checkpoint(ci + 1, *states)
    if held is not None:
        raise held
    return list(zip(max_l2, columns))


def _epsilon_member(p: ProblemSpec, grid: GridSpec, enforce_policy: bool,
                    f: SourceDescriptor,
                    source_fn: Callable[[float], np.ndarray] | None = None
                    ) -> tuple:
    """The eps-problem with source f as a member (u0, l2, block, label) of
    `_march`; its state is u in x.  source_fn, if given, is added in x
    (f should then have no terms)."""
    if p.d != grid.d:
        raise ValueError(
            f"potential dimension {p.d} does not match grid dimension {grid.d}")
    if enforce_policy:
        check_resolution(grid, p.eps, p.regime.k, p.regime.gamma)
    reaction = _OscillatedReaction(p.W, p.eps, p.regime.k, p.regime.gamma, grid)
    axis = np.arange(1, grid.nx + 1)
    gain, weight = _cn_weights(grid, np.ix_(*[axis] * grid.d))
    # A profile's forward DST-I is (nx+1)^d at its mode, index r - 1.
    sources = _source_entries(f, grid, weight,
                              lambda r: tuple(ri - 1 for ri in r),
                              (grid.nx + 1) ** grid.d)

    def block(u, times, t, sums):
        # In place: u is the march's own state, and the transforms and
        # the source all act on it.
        factors = reaction._factors(times)
        norms = []
        for i in range(len(t) // 2):
            u *= factors[2 * i]
            _dst(u, 0, u)
            u *= gain
            if source_fn is not None:
                f_sum = source_fn(t[2 * i]) + source_fn(t[2 * i + 2])
                u += weight * _dst(0.5 * grid.dt_effective * f_sum, 0)
            for n, k, s_hat in sources:
                u[k] += sums[n][i] * s_hat
            _dst(u, 2, u)
            u *= factors[2 * i + 1]
            norms.append(_l2(u, grid))
        return u, norms

    u0 = p.g.build(grid)
    return u0, _l2(u0, grid), block, f"eps={p.eps:g}"


def solve_epsilon(p: ProblemSpec, grid: GridSpec, *,
                  enforce_policy: bool = True,
                  source_fn: Callable[[float], np.ndarray] | None = None
                  ) -> Trajectory:
    """March the eps-problem to T on the given grid.

    enforce_policy=False skips the resolution check (for deliberately
    coarse grids).  source_fn overrides the declarative source with an
    arbitrary array-valued function of time (used for manufactured
    solutions).
    """
    f = p.f if source_fn is None else SourceDescriptor()
    member = _epsilon_member(p, grid, enforce_policy, f, source_fn)
    return _trajectory(grid, f, member, member[0], lambda u: u)


def _trajectory(grid: GridSpec, f: SourceDescriptor, member: tuple,
                row0: np.ndarray, to_x: Callable) -> Trajectory:
    """March `member` alone; snapshot 0 is row0, snapshot i to_x(state)."""
    snaps = np.empty((grid.checkpoints + 1,) + grid.shape)
    snaps[0] = row0

    def keep(i, state):
        snaps[i] = to_x(state)

    [(max_l2, _)] = _march(grid, f, [member], keep)
    return Trajectory(grid=grid, times=grid.checkpoint_times(),
                      snapshots=snaps, max_l2=max_l2)


def _decays(ceff: TrigField, t: list[float]) -> list[float]:
    """exp(-int c_eff) over each interval [t[j], t[j+1]]; inf where that
    overflows a double, which the norm guard then reports."""
    ends = np.array(t)
    out = []
    for x in ceff.definite_integral(ends[:-1], ends[1:]).tolist():
        try:
            out.append(math.exp(-x))
        except OverflowError:
            out.append(math.inf)
    return out


def _homogenized_member(ceff: float | TrigField, f: SourceDescriptor,
                        g: InitialDescriptor, grid: GridSpec
                        ) -> tuple[tuple, Callable]:
    """The homogenized problem as a member (v0, l2, block, label) of
    `_march`, and the map of its state to u in x (see the module
    docstring).  v is a list of floats, one per distinct nonzero mode the
    terms of g and f fold onto (`_fold`); at the nodes, sin(r pi x) is
    unit = ((nx+1)/2)^(d/2) times the orthonormal basis vector of mode r."""
    if not isinstance(ceff, TrigField):
        ceff = ScalarSeries.constant(ceff)
    g_folds = [_fold(grid, term.j) for term in g.terms]
    f_folds = [_fold(grid, term.j) for term in f.terms]
    modes = list(dict.fromkeys(r for r, sign in g_folds + f_folds if sign))
    unit = ((grid.nx + 1) / 2.0) ** (grid.d / 2.0)
    axes = np.reshape(modes, (-1, grid.d)).T
    gain, weight = (w.tolist() for w in _cn_weights(grid, axes))
    v0 = [0.0] * len(modes)
    for term, (r, sign) in zip(g.terms, g_folds):
        if sign:
            v0[modes.index(r)] += sign * unit * term.amp
    sources = _source_entries(f, grid, weight, modes.index, unit)
    scale = grid.h ** (grid.d / 2.0)

    def block(v, times, t, sums):
        # The half-step decays of the whole block at once; then each step
        # in the order of the eps march: decay, CN gain, source, decay.
        decays = _decays(ceff, t)
        norms = []
        for i in range(len(t) // 2):
            first, second = decays[2 * i], decays[2 * i + 1]
            v = [c * first * a for c, a in zip(v, gain)]
            for n, k, s_hat in sources:
                v[k] += sums[n][i] * s_hat
            v = [c * second for c in v]
            norms.append(scale * math.hypot(*v))
        return v, norms

    def to_x(v):
        # `InitialDescriptor.build` adds one mode's profile at a time, so
        # the arrays it holds do not grow with the modes of g and f.
        return InitialDescriptor(tuple(
            InitialTerm(c / unit, r) for c, r in zip(v, modes))).build(grid)

    return (v0, scale * math.hypot(*v0), block, "homogenized"), to_x


def solve_homogenized(ceff: float | TrigField, f: SourceDescriptor,
                      g: InitialDescriptor, grid: GridSpec) -> Trajectory:
    """March the homogenized problem du/dt - Lap u + c_eff u = f on its
    sine modes (see the module docstring); snapshot 0 is g itself."""
    member, to_x = _homogenized_member(ceff, f, g, grid)
    return _trajectory(grid, f, member, g.build(grid), to_x)


# ---------------------------------------------------------------------------
# The pair, its cost and the refinement diagnostic
# ---------------------------------------------------------------------------

def solve_pair(p: ProblemSpec, ceff: float | TrigField, grid: GridSpec, *,
               enforce_policy: bool = True) -> PairNorms:
    """Solve the eps-problem and its homogenized limit on one grid, in one
    lockstep march: both norms come from the march, and their distance
    is measured at every checkpoint."""
    # At t = 0 both states are g, at distance 0.
    sums = np.zeros(grid.checkpoints + 1)
    # The eps-problem is the first member, so its BlowUp is the one
    # reported when both would blow up.
    eps_member = _epsilon_member(p, grid, enforce_policy, p.f)
    limit, to_x = _homogenized_member(ceff, p.f, p.g, grid)

    def measure(i, a, v):
        sums[i] = np.sum((a - to_x(v)) ** 2)

    (max_l2_eps, l2_eps), (max_l2_hom, l2_hom) = _march(
        grid, p.f, [eps_member, limit], measure)
    return PairNorms(times=grid.checkpoint_times(), l2_eps=l2_eps,
                     l2_hom=l2_hom,
                     l2_diff=grid.h ** (grid.d / 2.0) * np.sqrt(sums),
                     max_l2_eps=max_l2_eps, max_l2_hom=max_l2_hom)


def pair_cost(W: TrigField, grid: GridSpec) -> tuple[int, int]:
    """(cell updates, peak bytes) of solve_pair on `grid`.  The lockstep
    march keeps no snapshots, so the peak does not depend on the number
    of checkpoints.  It holds five arrays (the eps march's state, CN gain
    and solve weight; two for the temporaries of a step or a checkpoint,
    where the limit's u in x and u_eps - u_hom are both live); two real
    rows per conjugate pair of W; and two blocks of reaction factors,
    each one double per cell for each of a step's two half-steps.  Only
    one block is live at a time, since a member's call frees its factors
    before the march builds the next block's; the second prices the
    complex temporaries of building W's rows, where the 2-D benchmark
    pair peaks (tracemalloc: 13.0 cell arrays against 15 priced, 11.3
    while it marches).  The source adds no cell array, so the price does
    not read it: a source term adds to one coefficient of each member
    (`_source_entries`).  The limit holds one number per mode and goes
    to x one mode's profile at a time (`_homogenized_member`), so g adds
    no cell array.

    It prices per-cell arrays only, not Python objects or arrays whose
    size does not grow with the grid, so it is not an upper bound on
    small grids: on a 1-D nx 269 pair (96 checkpoints, one step each, one
    source term, no potential) tracemalloc reads a peak of 12.7 cell
    arrays against the 9 priced here.  The gap is a few KiB, far
    below the scale of the MEMORY_LIMIT gate.  With 11 steps per
    checkpoint, as on the critical sweep's policy grid, it reads 31.7
    against 49."""
    cells = grid.nx ** grid.d
    per_cell = 5 + 2 * len(_conjugate_pairs(W))
    block = 2 * 2 * _block_steps(grid) * cells
    return 2 * grid.cell_updates(), 8 * (per_cell * cells + block)


def check_cost(command: str, W: TrigField, grids: Sequence[GridSpec],
               budget: int | None, workers: int = 1) -> None:
    """Raise BudgetExceeded unless the pair solves on `grids`, run
    min(workers, len(grids)) at a time, fit in MEMORY_LIMIT bytes, and all
    of them in `budget` cell updates.  Memory is checked first, as the
    harder limit."""
    costs = [pair_cost(W, g) for g in grids]
    size, nx = max((peak, g.nx) for (_, peak), g in zip(costs, grids))
    need = size * max(1, min(workers, len(grids)))
    if need > MEMORY_LIMIT:
        raise BudgetExceeded(
            f"{command} needs about {need / 2 ** 30:.1f} GiB for nx = {nx} "
            f"in {grids[0].d}d, limit is {MEMORY_LIMIT / 2 ** 30:g} GiB")
    total = sum(updates for updates, _ in costs)
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

