"""Cell correctors and effective potentials, exact in coefficient space.

For trigonometric-polynomial potentials every cell problem reduces to a
mode-wise division, so correctors come out exact up to floating round-off
and each average M(chi * W) is a finite coefficient sum.  Modes are
excluded from divisions structurally (the m = 0 or n = 0 slice, as each
problem dictates), never by comparing a denominator against a threshold.

The corrector zoo, with the problems they solve on the torus:

  chi1 : d_tau chi - Lap_y chi = W,        zero full mean   (k = 2)
  chi2 : Lap_y chi = mean_tau(W),          zero y-mean      (k > 2, gamma = 1)
  chi3 : Lap_y chi = W - mean_y(W),        zero y-mean per tau (k < 2, k = 0)
  chi5 : primitive of W in tau, chi5(y, 0) = 0
  chi5_tilde = chi5 - mean_tau(chi5)
  chi4 : primitive of chi5_tilde in tau               (gamma = k - 1)
  chi7 : primitive of chi5_tilde * W in tau           (diagnostic)
  chi3_chain : iterated primitives of mean_y(W)       (1 < k < 2 argument)

Sign convention: the homogenized problem is always written

    du0/dt - Lap(u0) + c_eff * u0 = f,

and with that convention every regime produces c_eff <= 0.  For the
k <= 1 families a flipped sign is sometimes quoted; set sign_override on
the regime to reproduce it for comparison runs.

build_correctors alone builds a corrector set, with the chain as deep as
the regime needs; effective_potential, identity_report and sweeps read it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ChainIdentityViolation, SolvabilityViolation
from .potential import (TWO_PI, ScalarSeries, TrigField, _build_ordered,
                        _check_product)
from .regimes import RegimeFamily, RegimeSpec, _tau_mean_free, _zero_mean

#: Relative tolerance for exact-in-principle coefficient identities.
COEFF_TOL = 1e-12
#: Relative tolerance of the identity report's checks (see identity_report).
IDENTITY_TOL = 1e-10


def solve_chi1(W: TrigField) -> TrigField:
    """Space-time cell corrector: d_tau chi - Lap_y chi = W, zero mean."""
    zero = (0,) * W.d
    entries = []
    for m, n, c in W.terms:
        if m == zero and n == 0:
            raise SolvabilityViolation(
                f"space-time cell problem needs a zero-mean right-hand side; "
                f"mean is {c:.6g}")
        denom = TWO_PI * 1j * n + TWO_PI ** 2 * sum(v * v for v in m)
        entries.append((m, n, c / denom))
    return _build_ordered(W.d, entries)


def solve_chi2(W: TrigField) -> TrigField:
    """Spatial corrector from the tau-mean: Lap_y chi = mean_tau(W)."""
    rhs = W.mean_tau()
    zero = (0,) * W.d
    entries = []
    for m, _, c in rhs.terms:
        if m == zero:
            raise SolvabilityViolation(
                f"Poisson cell problem needs a zero-mean right-hand side; "
                f"mean of the tau-average is {c:.6g}")
        entries.append((m, 0, -c / (TWO_PI ** 2 * sum(v * v for v in m))))
    return _build_ordered(W.d, entries)


def solve_chi3(W: TrigField) -> TrigField:
    """Per-slice spatial corrector: Lap_y chi = W - mean_y(W), y-mean zero.

    Always solvable: the right-hand side has zero y-mean by construction.
    """
    entries = []
    for m, n, c in W.terms:
        if any(m):
            entries.append((m, n, -c / (TWO_PI ** 2 * sum(v * v for v in m))))
    return _build_ordered(W.d, entries)


@dataclass(frozen=True)
class TimePrimitives:
    """chi5 family produced by chi5_chain."""

    chi5: TrigField
    chi5_tilde: TrigField
    chi4: TrigField


def chi5_chain(W: TrigField) -> TimePrimitives:
    """Iterated tau-primitives used in the gamma = k - 1 regime.

    Requires a potential whose tau-mean vanishes for every y (no n = 0
    modes); otherwise the first primitive is not periodic.
    """
    chi5 = W.antiderivative_tau()
    chi5_tilde = chi5 - chi5.mean_tau()
    chi4 = chi5_tilde.antiderivative_tau()
    return TimePrimitives(chi5=chi5, chi5_tilde=chi5_tilde, chi4=chi4)


def _strip_tau_mean(P: TrigField, where: str) -> TrigField:
    """Check that the tau-mean of P vanishes up to round-off, then drop it.

    The mean vanishes exactly in exact arithmetic whenever this is called;
    the residual only carries accumulated rounding from the coefficient
    products, so it is measured against the coefficient mass.
    """
    resid = P.mean_tau()
    scale = max(1.0, P.coeff_mass)
    worst = max((abs(c) for _, _, c in resid.terms), default=0.0)
    if worst > COEFF_TOL * scale:
        raise ChainIdentityViolation(
            f"{where}: tau-mean residual {worst:.3e} exceeds "
            f"{COEFF_TOL:.0e} * scale; next primitive would not be periodic")
    return P - resid


def solve_chi7(W: TrigField) -> TrigField:
    """Primitive in tau of chi5_tilde * W.

    The product provably has zero tau-mean for every y; that is asserted
    (round-off tolerance) before the residual mean is stripped and the
    primitive taken.  The result satisfies mean_tau(chi7 * W) = 0.
    """
    return _chi7(chi5_chain(W), W)


def _chi7(parts: TimePrimitives, W: TrigField) -> TrigField:
    P = _strip_tau_mean(parts.chi5_tilde * W, "chi7 integrand")
    return P.antiderivative_tau()


def chi3_chain(W: TrigField, depth: int) -> list[TrigField]:
    """Iterated primitives of W4 = mean_y(W), functions of tau (d = 0):
    the stage-i corrector is the primitive of (previous stage) * W4,
    starting from the primitive of W4.

    Each stage is periodic because mean_tau(stage_i * W4) collapses to a
    power of mean(W4), which vanishes when M(W) = 0.  The vanishing is
    re-checked numerically at every stage before integrating.
    """
    if depth < 1:
        raise ValueError(f"chain depth must be >= 1, got {depth}")
    W4 = W.mean_y()
    if abs(W4.coeff(0)) != 0.0:
        raise SolvabilityViolation(
            f"iterated time correctors need M(W) = 0, got {W4.coeff(0):.6g}")
    out = [W4.antiderivative_tau()]
    for stage in range(2, depth + 1):
        prod = _strip_tau_mean(out[-1] * W4, f"chain stage {stage - 1}")
        out.append(prod.antiderivative_tau())
    return out


# ---------------------------------------------------------------------------
# Averages and the effective potential
# ---------------------------------------------------------------------------

def mean_product(a: TrigField, b: TrigField) -> float:
    """M(a * b) as an exact coefficient sum, without building a * b.

    The mean is the sum of c * c' over the conjugate pairs (m, n) of a and
    (-m, -n) of b, one lookup per term of a, added in the order of a's
    terms from 0j as the product sums its (0, 0) coefficient.  So it has
    the bits of (a * b).mean_full(), the real part of that sum and 0.0,
    never -0.0, when it cancels, and it raises OverflowError exactly
    where the product does.
    """
    _check_product(a, b)
    partner = {(tuple(-v for v in m), -n): c for m, n, c in b.terms}
    total = 0j
    for m, n, c in a.terms:
        other = partner.get((m, n))
        if other is not None:
            total = total + c * other
    return total.real + 0.0

def grad_pair_mean(a: TrigField, b: TrigField) -> float:
    """M(grad_y a . grad_y b) as an exact coefficient sum."""
    total = 0.0
    for ga, gb in zip(a.grad_y(), b.grad_y()):
        total += mean_product(ga, gb)
    return total


def effective_potential(regime: RegimeSpec, W: TrigField) -> float | ScalarSeries:
    """Effective potential for the homogenized problem
    du0/dt - Lap(u0) + c_eff u0 = f, from build_correctors' set for W and
    a regime resolved for W.

    Constant for every family except FROZEN_TIME (k = 0), where the
    spatial average happens at frozen time and c_eff is a 1-periodic
    function of t.  regime.sign_override flips the sign, which serves as
    a deliberate wrong-limit control in sweeps.
    """
    return build_correctors(W, regime).effective


# ---------------------------------------------------------------------------
# Corrector bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectorSet:
    """Every corrector computable for (W, regime), plus the effective
    potential.  The recipe named by the regime is the one entering the
    homogenized limit; the rest are diagnostics."""

    effective: float | ScalarSeries
    chi1: TrigField | None = None
    chi2: TrigField | None = None
    chi3: TrigField | None = None
    primitives: TimePrimitives | None = None
    chi7: TrigField | None = None
    chain: tuple[TrigField, ...] = ()


def build_correctors(W: TrigField, regime: RegimeSpec) -> CorrectorSet:
    """Decide with the regimes' predicates which correctors W admits, and
    solve each once.  chi3 always exists.  chi1, chi2 and the chain need
    M(W) = 0, which holds in every admissible regime; the chain runs one
    stage past the regime's chain_depth as a diagnostic, else two.  The
    chi5 family and chi7 need all n = 0 modes absent, the strong
    fast-time condition, which can hold incidentally elsewhere."""
    depth = 2 if regime.chain_depth is None else regime.chain_depth + 1
    zero_mean = _zero_mean(W)
    chi1 = solve_chi1(W) if zero_mean else None
    chi2 = solve_chi2(W) if zero_mean else None
    chi3 = solve_chi3(W)
    prim = chi5_chain(W) if _tau_mean_free(W) else None
    fam = regime.family
    if fam is RegimeFamily.CRITICAL:
        value: float | TrigField = -mean_product(chi1, W)
    elif fam is RegimeFamily.SUPERCRITICAL:
        value = mean_product(chi2, W)
    elif fam in (RegimeFamily.SUBCRITICAL, RegimeFamily.SLOW_TIME):
        value = mean_product(chi3, W)
    elif fam is RegimeFamily.FROZEN_TIME:
        value = (chi3 * W).mean_y()
    else:  # STRONG_FAST_TIME
        value = grad_pair_mean(prim.chi4, W)
    if regime.sign_override:
        value = -1.0 * value
    if isinstance(value, TrigField):
        value = ScalarSeries((n, c) for _, n, c in value.terms)
    return CorrectorSet(
        effective=value, chi1=chi1, chi2=chi2, chi3=chi3, primitives=prim,
        chi7=None if prim is None else _chi7(prim, W),
        chain=tuple(chi3_chain(W, depth)) if zero_mean else ())


# ---------------------------------------------------------------------------
# Identity report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float | None
    tol: float
    passed: bool
    skipped: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...] = field(default=())

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks if c.residual is not None),
                   default=0.0)

    def first_failure(self) -> IdentityCheck | None:
        for c in self.checks:
            if not c.passed and not c.skipped:
                return c
        return None

    def as_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.as_dict() for c in self.checks]}


def identity_report(W: TrigField, regime: RegimeSpec) -> IdentityReport:
    """Evaluate the energy and vanishing-mean identities that the limit
    proofs rest on; all are exact for trigonometric potentials, so any
    residual beyond round-off indicates a defect.

    The first two chain stages of build_correctors' set are reported.
    Round-off grows with the terms compared, so each residual is held to
    IDENTITY_TOL * max(1, s), s the larger average of an energy pairing or
    the coefficient mass of the product whose mean must vanish.  A
    vanishing mean that is a field of y, mean_tau(chi7 * W), is measured
    by its coefficient mass, which bounds its value at every y.  A check
    whose corrector W does not admit is reported as skipped, not failed.
    """
    return _identities(build_correctors(W, regime), W)


def _identities(cs: CorrectorSet, W: TrigField) -> IdentityReport:
    checks: list[IdentityCheck] = []

    def add(name, residual, scale):
        bound = IDENTITY_TOL * max(1.0, scale)
        checks.append(IdentityCheck(name, float(residual), bound,
                                    passed=float(residual) <= bound))

    def pair(name, a, b):
        # a + b vanishes for a correct corrector.
        add(name, abs(a + b), max(abs(a), abs(b)))

    def skip(why, *names):
        for name in names:
            checks.append(IdentityCheck(name, None, IDENTITY_TOL, True, why))

    # Energy pairings: each average against W equals (+/-) the Dirichlet
    # energy of the corrector.
    if cs.chi1 is not None:
        pair("chi1_energy", grad_pair_mean(cs.chi1, cs.chi1),
             -mean_product(cs.chi1, W))
        pair("chi2_energy", grad_pair_mean(cs.chi2, cs.chi2),
             mean_product(cs.chi2, W))
    else:
        skip("needs M(W) = 0", "chi1_energy", "chi2_energy")
    pair("chi3_energy", grad_pair_mean(cs.chi3, cs.chi3),
         mean_product(cs.chi3, W))

    if cs.primitives is not None:
        parts = cs.primitives
        pair("chi4_energy", grad_pair_mean(parts.chi4, W),
             grad_pair_mean(parts.chi5_tilde, parts.chi5_tilde))
        # The pairing of W with its own primitive integrates to half the
        # square of the tau-mean, which is zero here.
        prod = parts.chi5 * W
        add("chi5_pair_mean", abs(prod.mean_full()), prod.coeff_mass)
        prod = cs.chi7 * W
        add("chi7_weighted_mean", prod.mean_tau().coeff_mass, prod.coeff_mass)
    else:
        skip("needs mean_tau(W) = 0",
             "chi4_energy", "chi5_pair_mean", "chi7_weighted_mean")

    # Vanishing means of the iterated time correctors: stage i pairs with
    # mean_y(W) to a power of M(W)/(i+1)!, which must vanish.  Two stages
    # are reported: test_identity_report_skips_exactly_the_absent_correctors
    # and the benchmark's expected_identity_count (five or eight evaluated)
    # pin eight rows.  Deeper stages were checked as the chain was built, by
    # _strip_tau_mean at COEFF_TOL, which is stricter than IDENTITY_TOL.
    if cs.chain:
        W4 = W.mean_y()
        for i, stage in enumerate(cs.chain[:2], start=1):
            prod = stage * W4
            add(f"chain_mean_{i}", abs(prod.coeff(0)), prod.coeff_mass)
    else:
        skip("needs M(W) = 0", "chain_mean_1", "chain_mean_2")

    return IdentityReport(tuple(checks))


# ---------------------------------------------------------------------------
# Brute-force quadrature oracle
# ---------------------------------------------------------------------------

def tensor_trapezoid_mean(fn, dims: int, nodes: int = 128) -> float:
    """Average of fn over the unit (dims)-torus by composite trapezoid with
    `nodes` intervals per axis.

    fn receives one flattened array per coordinate.  This integrates point
    values only; it shares no code path with the coefficient-space
    averages and serves as their independent cross-check.
    """
    pts = np.linspace(0.0, 1.0, nodes + 1)
    w1 = np.full(nodes + 1, 1.0 / nodes)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    grids = np.meshgrid(*([pts] * dims), indexing="ij")
    weights = np.ones_like(grids[0])
    for axis in range(dims):
        shape = [1] * dims
        shape[axis] = nodes + 1
        weights = weights * w1.reshape(shape)
    vals = fn(*[g.ravel() for g in grids])
    return float(np.sum(np.asarray(vals) * weights.ravel()))
