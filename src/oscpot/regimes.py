"""Parameter map for the singular potential problem.

The equation under study is

    du/dt - Lap(u) - eps^(-gamma) W(x/eps, t/eps^k) u = f

on the unit box with Dirichlet boundary, W a zero-mean-in-the-right-sense
trigonometric potential on the unit torus.  The pair (k, gamma) decides
which corrector produces the effective potential in the limit and at
which rate in eps the solutions converge.  gamma is never free: it is
either 1 or k - 1, and k - 1 is only meaningful for 2 < k <= 3.

The whole map is one table, REGIMES, with a row per regime family: its
admissibility class, gamma mode, window of k, admissibility condition on
W, corrector and rate.  resolve_regime() is the single entry point that
turns (k, gamma mode, potential) into a fully resolved RegimeSpec, whose
`rate` is the proven exponent and whose `corrector` names the recipe, or
rejects the combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import NoApplicableRegime, UnsupportedK
from .potential import GammaMode, TrigField

#: Most iterated time correctors the subcritical chain may need.  The
#: depth grows like 1/(k - 1) as k approaches 1, so this bounds the work
#: of build_correctors; it admits k >= 64/63.
MAX_CHAIN_DEPTH = 64


class RegimeFamily(Enum):
    """Qualitative behaviour of the limit, keyed by (k, gamma)."""

    CRITICAL = "critical"                  # k = 2, gamma = 1
    SUPERCRITICAL = "supercritical"        # k > 2, gamma = 1
    SUBCRITICAL = "subcritical"            # 1 < k < 2, gamma = 1
    SLOW_TIME = "slow_time"                # 0 < k <= 1, gamma = 1
    FROZEN_TIME = "frozen_time"            # k = 0, gamma = 1
    STRONG_FAST_TIME = "strong_fast_time"  # 2 < k <= 3, gamma = k - 1


@dataclass(frozen=True)
class RegimeRow:
    """One family of the parameter map.  `assumption` numbers its
    admissibility class (1 strong fast time, 2 subcritical, 3 critical,
    4 supercritical, 5 k <= 1).  `rejection` may name W's coefficient of
    the (0, ..., 0; 0) mode, its full mean, as {mean}."""

    family: RegimeFamily
    assumption: int
    gamma_mode: GammaMode
    k_window: Callable[[float], bool]
    admissible: Callable[[TrigField], bool]
    rejection: str
    corrector: str
    rate: Callable[[float], float]


def _zero_mean(W: TrigField) -> bool:
    # Structural, as the correctors need it: the mean mode is absent.
    return ((0,) * W.d, 0) not in W.coeff_map()


def _y_mean_free(W: TrigField) -> bool:
    return W.mean_y().is_zero()


def _tau_mean_free(W: TrigField) -> bool:
    return W.mean_tau().is_zero()


_NEEDS_ZERO_MEAN = ("k > 1 with gamma = 1 requires the constant coefficient "
                    "of W, its space-time mean, to vanish; got {mean:.6g}")
_NEEDS_Y_MEAN_FREE = ("k <= 1 requires the y-mean of W to vanish for every "
                      "tau (no m = 0 modes)")

#: The parameter map; the first row whose gamma mode and k window match
#: applies.  Proven rates p in ||u_eps - u_hom|| = O(eps^p).
REGIMES = (
    RegimeRow(RegimeFamily.STRONG_FAST_TIME, 1,
              GammaMode.K_MINUS_1, lambda k: 2.0 < k <= 3.0, _tau_mean_free,
              "gamma = k - 1 requires the tau-mean of W to vanish for "
              "every y (no n = 0 modes)",
              "chi4", lambda k: k - 2.0),
    RegimeRow(RegimeFamily.FROZEN_TIME, 5,
              GammaMode.UNIT, lambda k: k == 0.0, _y_mean_free,
              _NEEDS_Y_MEAN_FREE, "chi3", lambda k: 1.0),
    RegimeRow(RegimeFamily.SLOW_TIME, 5,
              GammaMode.UNIT, lambda k: 0.0 < k <= 1.0, _y_mean_free,
              _NEEDS_Y_MEAN_FREE, "chi3", lambda k: k),
    RegimeRow(RegimeFamily.SUBCRITICAL, 2,
              GammaMode.UNIT, lambda k: 1.0 < k < 2.0, _zero_mean,
              _NEEDS_ZERO_MEAN, "chi3", lambda k: min(2.0 - k, k - 1.0)),
    RegimeRow(RegimeFamily.CRITICAL, 3,
              GammaMode.UNIT, lambda k: k == 2.0, _zero_mean,
              _NEEDS_ZERO_MEAN, "chi1", lambda k: 1.0),
    RegimeRow(RegimeFamily.SUPERCRITICAL, 4,
              GammaMode.UNIT, lambda k: k > 2.0, _zero_mean,
              _NEEDS_ZERO_MEAN, "chi2", lambda k: min(k - 2.0, 1.0)),
)

_BY_FAMILY = {row.family: row for row in REGIMES}


@dataclass(frozen=True)
class RegimeSpec:
    """Resolved parameter regime; immutable record attached to all reports."""

    k: float
    gamma: float
    gamma_mode: GammaMode
    assumption: int
    family: RegimeFamily
    rate: float
    chain_depth: int | None = None
    sign_override: bool = False

    @property
    def corrector(self) -> str:
        return _BY_FAMILY[self.family].corrector

    @property
    def time_dependent_limit(self) -> bool:
        return self.family is RegimeFamily.FROZEN_TIME

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "gamma": self.gamma,
            "gamma_mode": self.gamma_mode.value,
            "assumption": self.assumption,
            "family": self.family.value,
            "corrector": self.corrector,
            "rate": self.rate,
            "chain_depth": self.chain_depth,
            "sign_override": self.sign_override,
        }


def iteration_depth(k: float) -> int:
    """Smallest positive integer i with i*(k-1) >= k, for 1 < k < 2.

    This is how many iterated time-correctors the subcritical argument
    needs before the residual drops below the target order.  The 1e-12
    slack keeps round-off in k - 1 from adding a stage (k = 1.2 needs 6).
    """
    if not 1.0 < k < 2.0:
        raise ValueError(f"iteration depth is defined for 1 < k < 2, got {k}")
    return math.ceil((k - 1e-12) / (k - 1.0))


def resolve_regime(k: float, gamma_mode: GammaMode, W: TrigField,
                   sign_override: bool = False) -> RegimeSpec:
    """Classify (k, gamma_mode, W) and assemble the full regime record.

    Raises UnsupportedK when the (k, gamma) pairing itself is outside the
    map or needs a chain deeper than MAX_CHAIN_DEPTH, NoApplicableRegime
    when the pairing is fine but W violates the admissibility condition.
    """
    if not isinstance(k, (int, float)) or math.isnan(k) or math.isinf(k):
        raise ValueError(f"k must be a finite number, got {k!r}")
    k = float(k)
    if not isinstance(gamma_mode, GammaMode):
        raise ValueError(f"unknown gamma mode {gamma_mode!r}")
    if k < 0:
        raise ValueError(f"time exponent k must be >= 0, got {k}")
    row = next((row for row in REGIMES
                if row.gamma_mode is gamma_mode and row.k_window(k)), None)
    if row is None:
        # Outside 2 < k <= 3 no amplitude exponent of the form k - 1
        # produces a nontrivial limit, so the pairing itself is rejected.
        raise UnsupportedK(
            f"gamma = k - 1 is supported only for 2 < k <= 3, got k = {k}")
    if not row.admissible(W):
        raise NoApplicableRegime(row.rejection.format(mean=W.coeff([0] * W.d)))
    depth = None
    if row.family is RegimeFamily.SUBCRITICAL:
        depth = iteration_depth(k)
        if depth > MAX_CHAIN_DEPTH:
            raise UnsupportedK(
                f"k = {k} needs {depth} iterated time correctors; at most "
                f"{MAX_CHAIN_DEPTH} are supported (k >= "
                f"{MAX_CHAIN_DEPTH / (MAX_CHAIN_DEPTH - 1):.6g})")
    return RegimeSpec(
        k=k,
        gamma=k - 1.0 if gamma_mode is GammaMode.K_MINUS_1 else 1.0,
        gamma_mode=gamma_mode,
        assumption=row.assumption,
        family=row.family,
        rate=row.rate(k),
        chain_depth=depth,
        sign_override=sign_override,
    )
