"""Verification lab for parabolic homogenization with highly oscillating
potentials.

The package computes cell correctors and effective potentials exactly
for trigonometric-polynomial potentials, solves the singular problem and
its homogenized limit numerically, and measures empirical convergence
rates against the proven exponents.
"""

__version__ = "0.1.0"

from .errors import (BlowUp, BudgetExceeded, ChainIdentityViolation,
                     DegenerateFit, NoApplicableRegime,
                     NonPeriodicAntiderivative, OscpotError,
                     ResolutionViolation, SolvabilityViolation, UnsupportedK)
from .potential import (GammaMode, ScalarSeries, TrigField,
                        descriptor_from_field, field_from_descriptor,
                        sample_oscillated)
from .regimes import (RegimeFamily, RegimeSpec, iteration_depth,
                      resolve_regime, theoretical_rate)
from .correctors import (CorrectorSet, build_correctors, chi3_chain,
                         chi5_chain, effective_potential, identity_report,
                         solve_chi1, solve_chi2, solve_chi3, solve_chi7)
from .pdesolve import (GridSpec, InitialDescriptor, InitialTerm, ProblemSpec,
                       SourceDescriptor, SourceTerm, Trajectory, policy_grid,
                       solve_epsilon, solve_homogenized)
from .ratelab import (FitResult, RateReport, SweepConfig, SweepPoint,
                      fit_loglog, run_sweep, write_outputs)

__all__ = [
    "OscpotError", "NonPeriodicAntiderivative", "NoApplicableRegime",
    "UnsupportedK", "SolvabilityViolation", "ChainIdentityViolation",
    "ResolutionViolation", "BlowUp", "DegenerateFit", "BudgetExceeded",
    "GammaMode", "ScalarSeries", "TrigField", "descriptor_from_field",
    "field_from_descriptor", "sample_oscillated",
    "RegimeFamily", "RegimeSpec", "iteration_depth", "resolve_regime",
    "theoretical_rate",
    "CorrectorSet", "build_correctors", "chi3_chain", "chi5_chain",
    "effective_potential", "identity_report", "solve_chi1", "solve_chi2",
    "solve_chi3", "solve_chi7",
    "GridSpec", "InitialDescriptor", "InitialTerm", "ProblemSpec",
    "SourceDescriptor", "SourceTerm", "Trajectory", "policy_grid",
    "solve_epsilon", "solve_homogenized",
    "FitResult", "RateReport", "SweepConfig", "SweepPoint", "fit_loglog",
    "run_sweep", "write_outputs",
]
