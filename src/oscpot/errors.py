"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (wrong types, bad argument combinations) raises
plain ValueError/TypeError.
"""

from __future__ import annotations


class OscpotError(Exception):
    """Base class for all package-specific failures."""


class NonPeriodicAntiderivative(OscpotError):
    """Antiderivative in tau requested for a field with a nonzero tau-mean.

    A trigonometric polynomial has a 1-periodic antiderivative in tau
    only if every constant-in-tau mode is absent.
    """


class NoApplicableRegime(OscpotError):
    """The potential violates the admissibility condition of every regime
    compatible with the requested (k, gamma) pairing.

    The message names the first violated condition.
    """


class UnsupportedK(OscpotError):
    """The (k, gamma) pairing is outside the supported parameter map."""


class SolvabilityViolation(OscpotError):
    """A cell problem has no periodic solution for this right-hand side
    (nonzero mean where a zero mean is required)."""


class ChainIdentityViolation(OscpotError):
    """An iterated-corrector stage failed its vanishing-mean identity,
    so the next antiderivative would not be periodic."""


class ResolutionViolation(OscpotError):
    """The requested grid does not resolve the oscillation scales
    demanded by the resolution policy."""


class BlowUp(OscpotError):
    """A solution norm exceeded the blow-up guard during time stepping."""


class GridMismatch(OscpotError):
    """Two trajectories were compared on incompatible grids."""


class DegenerateFit(OscpotError):
    """Too few usable data points remain for a log-log rate fit."""


class BudgetExceeded(OscpotError):
    """The solves of a command need more cell updates than their budget
    (or the fixed ceiling without one) or more memory than the limit, by
    pdesolve.check_cost; or no double-precision time grid holds the
    requested time scales."""
