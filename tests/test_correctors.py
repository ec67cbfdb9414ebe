"""Cell correctors, effective potentials, and the identity suite.

Closed-form oracle values are derived by hand from single-mode arithmetic
and frozen here; quadrature cross-checks run through evaluate() and
tensor_trapezoid_mean, which share no code with the coefficient algebra.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from oscpot import (ChainIdentityViolation, RegimeFamily, ScalarSeries,
                    SolvabilityViolation, TrigField, build_correctors,
                    chi3_chain, chi5_chain, effective_potential,
                    identity_report, resolve_regime, solve_chi1, solve_chi2,
                    solve_chi3, solve_chi7)
from oscpot.correctors import (grad_pair_mean, mean_product,
                               tensor_trapezoid_mean)

from conftest import FAMILY_PARAMS, random_admissible

TWO_PI = 2.0 * math.pi
PI2 = math.pi ** 2

DIAG = TrigField.from_cos(1, [1], -1)                       # cos(2pi(y - tau))
WMIX = (TrigField.from_cos(1, [1], 0)
        + TrigField.from_cos(1, [1], 0) * TrigField.from_cos(1, [0], 1))
STRONG_W = TrigField.from_sin(1, [0], 1) * TrigField.from_cos(1, [1], 0)

RNG = np.random.default_rng(905)


def regime_for(family: str, W: TrigField, **kw):
    k, mode = FAMILY_PARAMS[family]
    return resolve_regime(k, mode, W, **kw)


# -- cell problems, coefficient-wise --------------------------------------

def test_chi1_satisfies_cell_equation_per_mode():
    W = random_admissible("critical", RNG)
    chi = solve_chi1(W)
    for m, n, c in W.terms:
        denom = TWO_PI * 1j * n + TWO_PI ** 2 * sum(v * v for v in m)
        got = chi.coeff(m, n) * denom
        assert abs(got - c) <= 1e-12 * max(1.0, abs(c))


def test_chi1_closed_form_single_mode():
    chi = solve_chi1(DIAG)
    want = 0.5 / (-TWO_PI * 1j + TWO_PI ** 2)
    assert abs(chi.coeff([1], -1) - want) < 1e-15


def test_chi1_rejects_nonzero_mean():
    with pytest.raises(SolvabilityViolation, match="zero-mean"):
        solve_chi1(DIAG + TrigField.constant(1, 0.25))


def test_chi2_poisson_from_tau_mean():
    chi = solve_chi2(WMIX)
    # tau-mean of WMIX is cos(2 pi y); -Lap^{-1} gives -cos(2 pi y)/(4 pi^2)
    assert chi.evaluate(0.0) == pytest.approx(-1.0 / (4 * PI2), abs=1e-14)
    assert chi.mean_full() == 0.0


def test_chi2_rejects_biased_potential():
    with pytest.raises(SolvabilityViolation):
        solve_chi2(TrigField.constant(1, 1.0))


def test_chi3_inverts_laplacian_per_slice():
    W = random_admissible("slow_time", RNG)
    chi = solve_chi3(W)
    lap = chi.laplacian_y()
    # Lap chi3 = W - mean_y(W); compare mode-wise
    rhs = W - W.mean_y().as_field(W.d)
    for m, n, c in rhs.terms:
        assert abs(lap.coeff(m, n) - c) <= 1e-12 * max(1.0, abs(c))
    assert chi.mean_y().is_zero()


def test_chi3_drops_uniform_modes():
    W = TrigField.from_cos(1, [0], 1) + DIAG
    chi = solve_chi3(W)
    assert chi.coeff([0], 1) == 0.0
    assert chi.coeff([1], -1) == pytest.approx(-0.5 / (4 * PI2))


# -- time primitives -------------------------------------------------------

def test_chi5_family_closed_forms():
    parts = chi5_chain(STRONG_W)
    y, tau = 0.0, 0.2
    # chi5 = (1 - cos(2 pi tau)) cos(2 pi y) / (2 pi), zero at tau = 0
    want5 = (1 - math.cos(TWO_PI * tau)) / TWO_PI
    assert parts.chi5.evaluate(y, tau) == pytest.approx(want5, abs=1e-14)
    assert parts.chi5.evaluate(y, 0.0) == pytest.approx(0.0, abs=1e-14)
    # tilde version has the tau-mean cos(2 pi y)/(2 pi) removed
    want5t = -math.cos(TWO_PI * tau) / TWO_PI
    assert parts.chi5_tilde.evaluate(y, tau) == pytest.approx(want5t, abs=1e-14)
    # chi4 = -sin(2 pi tau) cos(2 pi y) / (4 pi^2)
    want4 = -math.sin(TWO_PI * tau) / (4 * PI2)
    assert parts.chi4.evaluate(y, tau) == pytest.approx(want4, abs=1e-14)


def test_chi5_chain_needs_tau_oscillation():
    from oscpot import NonPeriodicAntiderivative
    with pytest.raises(NonPeriodicAntiderivative):
        chi5_chain(WMIX)           # WMIX has n = 0 modes


def test_chi7_primitive_and_weighted_mean():
    chi7 = solve_chi7(STRONG_W)
    # integrand chi5_tilde * W = -cos^2(2 pi y) sin(4 pi tau) / (4 pi);
    # primitive: -cos^2(2 pi y) (1 - cos(4 pi tau)) / (16 pi^2)
    got = chi7.evaluate(0.0, 0.125)
    assert got == pytest.approx(-1.0 / (16 * PI2), abs=1e-14)
    # mean_tau(chi7 * W) vanishes for every y
    resid = (chi7 * STRONG_W).mean_tau()
    ys = np.linspace(0, 1, 17, endpoint=False)
    np.testing.assert_allclose(resid.evaluate(ys), 0.0, atol=1e-14)


def test_chi3_chain_first_stages_closed_form():
    # mean_y(W) = sin(2 pi tau) for this potential
    W = TrigField.from_sin(1, [0], 1) + DIAG
    stages = chi3_chain(W, 2)
    tau = 0.3
    want1 = (1 - math.cos(TWO_PI * tau)) / TWO_PI
    assert stages[0].evaluate(tau) == pytest.approx(want1, abs=1e-14)
    # stage 2 = int_0^tau stage1 * sin(2 pi s) ds = sin^4(pi tau)/(2 pi^2)
    want2 = math.sin(math.pi * tau) ** 4 / (2 * PI2)
    assert stages[1].evaluate(tau) == pytest.approx(want2, abs=1e-14)


def test_chi3_chain_matches_direct_quadrature():
    W = TrigField.from_sin(1, [0], 1) + DIAG
    stages = chi3_chain(W, 3)
    W4 = W.mean_y()
    for i in (1, 2):
        for tau in (0.35, 0.8):
            want, _ = scipy.integrate.quad(
                lambda s: stages[i - 1].evaluate(s) * W4.evaluate(s),
                0.0, tau, epsabs=1e-13)
            assert stages[i].evaluate(tau) == pytest.approx(want, abs=1e-10)


def test_chi3_chain_depth_six_stays_periodic():
    for _ in range(5):
        W = random_admissible("subcritical", RNG)
        stages = chi3_chain(W, 6)
        assert len(stages) == 6
        W4 = W.mean_y()
        for stage in stages:
            assert abs((stage * W4).coeff(0)) <= 1e-12 * max(
                1.0, stage.coeff_mass * W4.coeff_mass)


def test_chi3_chain_rejects_nonzero_mean():
    with pytest.raises(SolvabilityViolation, match="M\\(W\\) = 0"):
        chi3_chain(TrigField.from_cos(1, [0], 1) + TrigField.constant(1, 0.1), 2)
    with pytest.raises(ValueError, match="depth"):
        chi3_chain(DIAG, 0)


# -- effective potentials: frozen closed forms ----------------------------

def test_ceff_critical_diagonal_wave():
    spec = regime_for("critical", DIAG)
    got = effective_potential(spec, DIAG)
    assert got == pytest.approx(-0.5 / (1 + 4 * PI2), abs=1e-12)


def test_ceff_supercritical_mixed_mode():
    spec = regime_for("supercritical", WMIX)
    got = effective_potential(spec, WMIX)
    assert got == pytest.approx(-1.0 / (8 * PI2), abs=1e-12)


def test_ceff_subcritical_diagonal_wave():
    spec = regime_for("subcritical", DIAG)
    got = effective_potential(spec, DIAG)
    assert got == pytest.approx(-1.0 / (8 * PI2), abs=1e-12)


def test_ceff_slow_time_mixed_mode():
    spec = regime_for("slow_time", WMIX)
    got = effective_potential(spec, WMIX)
    # M(chi3 W) with chi3 = -WMIX/(4 pi^2): -M(WMIX^2)/(4 pi^2) = -3/(16 pi^2)
    assert got == pytest.approx(-3.0 / (16 * PI2), abs=1e-12)


def test_ceff_frozen_time_is_a_series():
    spec = regime_for("frozen_time", WMIX)
    got = effective_potential(spec, WMIX)
    assert isinstance(got, ScalarSeries)
    assert got.mean_full() == pytest.approx(-3.0 / (16 * PI2), abs=1e-12)
    assert got.evaluate(0.0) == pytest.approx(-1.0 / (2 * PI2), abs=1e-12)
    assert got.evaluate(0.5) == pytest.approx(0.0, abs=1e-14)


def test_ceff_strong_fast_time_quarter():
    spec = regime_for("strong_fast_time", STRONG_W)
    got = effective_potential(spec, STRONG_W)
    assert got == pytest.approx(-0.25, abs=1e-12)


def test_ceff_sign_override_flips():
    spec = regime_for("critical", DIAG, sign_override=True)
    got = effective_potential(spec, DIAG)
    assert got == pytest.approx(+0.5 / (1 + 4 * PI2), abs=1e-12)
    frozen = regime_for("frozen_time", WMIX, sign_override=True)
    series = effective_potential(frozen, WMIX)
    assert series.evaluate(0.0) == pytest.approx(+1.0 / (2 * PI2), abs=1e-12)


def test_ceff_nonpositive_on_random_admissible():
    # without the override every family's effective potential is <= 0
    for family in FAMILY_PARAMS:
        for _ in range(5):
            W = random_admissible(family, RNG)
            spec = regime_for(family, W)
            got = effective_potential(spec, W)
            value = got.mean_full() if isinstance(got, ScalarSeries) else got
            assert value <= 1e-14, f"{family}: c_eff = {value}"


# -- quadrature cross-checks ----------------------------------------------

def test_ceff_critical_matches_128sq_quadrature():
    chi = solve_chi1(DIAG)
    brute = tensor_trapezoid_mean(
        lambda y, tau: chi.evaluate(y, tau) * DIAG.evaluate(y, tau),
        dims=2, nodes=128)
    exact = mean_product(chi, DIAG)
    assert brute == pytest.approx(exact, abs=1e-8)
    assert -brute == pytest.approx(-0.5 / (1 + 4 * PI2), abs=1e-8)


def test_ceff_strong_matches_quadrature():
    parts = chi5_chain(STRONG_W)
    gchi = parts.chi4.grad_y()[0]
    gw = STRONG_W.grad_y()[0]
    brute = tensor_trapezoid_mean(
        lambda y, tau: gchi.evaluate(y, tau) * gw.evaluate(y, tau),
        dims=2, nodes=128)
    assert brute == pytest.approx(-0.25, abs=1e-8)


def test_ceff_random_fields_match_quadrature():
    for family in ("critical", "supercritical", "slow_time"):
        W = random_admissible(family, RNG, d=1)
        spec = regime_for(family, W)
        got = effective_potential(spec, W)
        value = got.mean_full() if isinstance(got, ScalarSeries) else got
        if spec.family is RegimeFamily.CRITICAL:
            chi = solve_chi1(W)
            sign = -1.0
        elif spec.family is RegimeFamily.SUPERCRITICAL:
            chi = solve_chi2(W).as_field()
            sign = 1.0
        else:
            chi = solve_chi3(W)
            sign = 1.0
        brute = tensor_trapezoid_mean(
            lambda y, tau: chi.evaluate(y, tau) * W.evaluate(y, tau),
            dims=2, nodes=128)
        assert value == pytest.approx(sign * brute, abs=1e-8)


# -- energy pairings (independent of identity_report internals) -----------

def test_energy_balance_chi1():
    W = random_admissible("critical", RNG)
    chi = solve_chi1(W)
    assert grad_pair_mean(chi, chi) == pytest.approx(
        mean_product(chi, W), abs=1e-12 * max(1.0, W.coeff_mass ** 2))


def test_energy_balance_chi3():
    W = random_admissible("slow_time", RNG)
    chi = solve_chi3(W)
    assert grad_pair_mean(chi, chi) == pytest.approx(
        -mean_product(chi, W), abs=1e-12 * max(1.0, W.coeff_mass ** 2))


# -- corrector bundle ------------------------------------------------------

def test_build_correctors_critical():
    spec = regime_for("critical", DIAG)
    cs = build_correctors(DIAG, spec)
    assert cs.chi1 is not None and cs.chi2 is not None
    assert cs.chi3 is not None
    assert cs.primitives is not None       # DIAG has no n = 0 modes
    assert len(cs.chain) == 2
    assert cs.effective == pytest.approx(-0.5 / (1 + 4 * PI2))


def test_build_correctors_subcritical_chain_depth():
    spec = regime_for("subcritical", DIAG)
    cs = build_correctors(DIAG, spec)
    assert spec.chain_depth == 3
    assert len(cs.chain) == 4              # one past the required depth


def test_build_correctors_strong():
    spec = regime_for("strong_fast_time", STRONG_W)
    cs = build_correctors(STRONG_W, spec)
    assert cs.primitives is not None
    assert cs.chi7 is not None


def test_build_correctors_skips_unavailable():
    spec = regime_for("slow_time", WMIX)
    cs = build_correctors(WMIX, spec)
    assert cs.primitives is None           # WMIX has n = 0 modes
    assert cs.chi7 is None
    assert cs.chi3 is not None


def test_build_correctors_checks_each_chain_stage(monkeypatch):
    # Stage 1 is the primitive of W4 plus W4 itself, so stage 2's product
    # with W4 has the tau-mean M(W4^2) = 1/2, which its check must catch.
    real = TrigField.antiderivative_tau

    def crooked(self):
        return real(self) + self if self.d == 0 else real(self)
    monkeypatch.setattr(TrigField, "antiderivative_tau", crooked)
    W = TrigField.from_cos(1, [0], 1) + DIAG
    with pytest.raises(ChainIdentityViolation, match="^chain stage 1: "):
        build_correctors(W, regime_for("subcritical", W))


def test_chi5_chain_runs_once_per_corrector_set(monkeypatch):
    import oscpot.correctors as mod
    calls = []
    real = mod.chi5_chain

    def counted(W):
        calls.append(W)
        return real(W)
    monkeypatch.setattr(mod, "chi5_chain", counted)
    spec = regime_for("strong_fast_time", STRONG_W)
    mod.build_correctors(STRONG_W, spec)
    assert len(calls) == 1
    mod.identity_report(STRONG_W, spec)
    assert len(calls) == 2


# -- identity report -------------------------------------------------------

#: The corrector set's field that each identity check reads.
CHECKED_FIELD = {
    "chi1_energy": "chi1", "chi2_energy": "chi2", "chi3_energy": "chi3",
    "chi4_energy": "primitives", "chi5_pair_mean": "primitives",
    "chi7_weighted_mean": "chi7", "chain_mean_1": "chain",
    "chain_mean_2": "chain",
}


def test_identity_report_skips_exactly_the_absent_correctors():
    rng = np.random.default_rng(1907)
    for family in FAMILY_PARAMS:
        W = random_admissible(family, rng)
        spec = regime_for(family, W)
        cs = build_correctors(W, spec)
        absent = {name for name, attr in CHECKED_FIELD.items()
                  if getattr(cs, attr) in (None, ())}
        rep = identity_report(W, spec)
        assert [c.name for c in rep.checks] == list(CHECKED_FIELD)
        assert {c.name for c in rep.checks if c.skipped} == absent, family
        if family == "strong_fast_time":
            assert not absent


def test_identity_report_all_pass_on_admissible():
    for family in FAMILY_PARAMS:
        W = random_admissible(family, RNG)
        spec = regime_for(family, W)
        rep = identity_report(W, spec)
        assert rep.all_passed, rep.first_failure()
        assert rep.max_residual <= 1e-10


def test_identity_report_zero_potential():
    W = TrigField(1, [])
    rep = identity_report(W, regime_for("critical", W))
    assert rep.all_passed
    assert rep.max_residual == 0.0


def test_identity_report_skips_are_labelled():
    spec = regime_for("slow_time", WMIX)
    rep = identity_report(WMIX, spec)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["chi4_energy"].skipped is not None
    assert by_name["chi1_energy"].residual is not None
    assert rep.all_passed


def test_identity_report_flags_corrupted_corrector(monkeypatch):
    import oscpot.correctors as mod
    real = mod.solve_chi1

    def crooked(W):
        return real(W) + TrigField.from_cos(W.d, [1] + [0] * (W.d - 1), 0,
                                            amp=1e-3)
    monkeypatch.setattr(mod, "solve_chi1", crooked)
    rep = mod.identity_report(DIAG, regime_for("critical", DIAG))
    assert not rep.all_passed
    assert rep.first_failure().name == "chi1_energy"


def test_chi7_residual_is_exact_between_sample_points(monkeypatch):
    # The corruption adds 1e-6 sin(2 pi 33 y) / 2 to mean_tau(chi7 * W),
    # which vanishes at every point of a 33-point grid in y.
    import oscpot.correctors as mod
    real = mod._chi7

    def crooked(parts, W):
        return real(parts, W) + 1e-6 * TrigField.from_sin(1, [34], -1)
    monkeypatch.setattr(mod, "_chi7", crooked)
    rep = mod.identity_report(DIAG, regime_for("critical", DIAG))
    assert rep.first_failure().name == "chi7_weighted_mean"
    chi7 = next(c for c in rep.checks if c.name == "chi7_weighted_mean")
    assert chi7.residual == pytest.approx(0.5e-6, rel=1e-9)


def test_identity_tolerance_scales_with_the_terms():
    # M(grad chi4 . grad W) is about -5e5 here, so the two energy terms
    # cancel to one rounding error of that size (1.16e-10).
    W = TrigField.from_cos(1, [1000], -1)
    rep = identity_report(W, regime_for("critical", W))
    assert rep.all_passed
    chi4 = next(c for c in rep.checks if c.name == "chi4_energy")
    assert chi4.residual > 1e-10


def test_scaled_tolerance_flags_a_corrupted_chi4(monkeypatch):
    import oscpot.correctors as mod
    real = mod.chi5_chain

    def crooked(W):
        parts = real(W)
        return mod.TimePrimitives(parts.chi5, parts.chi5_tilde,
                                  (1.0 + 1e-9) * parts.chi4)
    monkeypatch.setattr(mod, "chi5_chain", crooked)
    W = TrigField.from_cos(1, [1000], -1)
    rep = mod.identity_report(W, regime_for("critical", W))
    assert rep.first_failure().name == "chi4_energy"


def test_identity_report_as_dict():
    rep = identity_report(DIAG, regime_for("critical", DIAG))
    d = rep.as_dict()
    assert d["all_passed"] is True
    assert {c["name"] for c in d["checks"]} >= {
        "chi1_energy", "chi2_energy", "chi3_energy", "chain_mean_1"}


def test_identity_check_as_dict_key_order():
    # The benchmark's verify batch writes these dicts without sorting keys.
    rep = identity_report(DIAG, regime_for("critical", DIAG))
    for check in rep.checks:
        d = check.as_dict()
        assert list(d) == ["name", "residual", "tol", "passed", "skipped"]
        assert (d["name"], d["tol"]) == (check.name, check.tol)


# -- quadrature helper sanity ---------------------------------------------

def test_tensor_trapezoid_exactness():
    got = tensor_trapezoid_mean(
        lambda y, tau: np.cos(TWO_PI * y) ** 2 + 0.0 * tau, dims=2, nodes=64)
    assert got == pytest.approx(0.5, abs=1e-12)
    got3 = tensor_trapezoid_mean(
        lambda a, b, c: np.ones_like(a), dims=3, nodes=16)
    assert got3 == pytest.approx(1.0, abs=1e-13)
