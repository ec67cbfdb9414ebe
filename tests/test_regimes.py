"""Parameter-map resolution: families, rates, chain depth, rejections."""

import pytest

from oscpot import (GammaMode, NoApplicableRegime, RegimeFamily, TrigField,
                    UnsupportedK, iteration_depth, resolve_regime)
from oscpot.regimes import REGIMES

DIAG = TrigField.from_cos(1, [1], -1)                 # cos(2 pi (y - tau))
SPACE_TIME = (TrigField.from_cos(1, [1], 0)
              + TrigField.from_cos(1, [1], 1))        # no m = 0 modes
TIME_OSC = TrigField.from_sin(1, [1], 1)              # no n = 0 modes


def test_family_assignment_covers_parameter_map():
    cases = [
        (2.0, GammaMode.UNIT, DIAG, RegimeFamily.CRITICAL),
        (2.5, GammaMode.UNIT, DIAG, RegimeFamily.SUPERCRITICAL),
        (1.5, GammaMode.UNIT, DIAG, RegimeFamily.SUBCRITICAL),
        (0.5, GammaMode.UNIT, SPACE_TIME, RegimeFamily.SLOW_TIME),
        (1.0, GammaMode.UNIT, SPACE_TIME, RegimeFamily.SLOW_TIME),
        (0.0, GammaMode.UNIT, SPACE_TIME, RegimeFamily.FROZEN_TIME),
        (2.5, GammaMode.K_MINUS_1, TIME_OSC, RegimeFamily.STRONG_FAST_TIME),
        (3.0, GammaMode.K_MINUS_1, TIME_OSC, RegimeFamily.STRONG_FAST_TIME),
    ]
    for k, mode, W, family in cases:
        spec = resolve_regime(k, mode, W)
        assert spec.family is family
        assert spec.k == k
        assert spec.gamma == (k - 1.0 if mode is GammaMode.K_MINUS_1 else 1.0)


# The README's regime table, one row per family: gamma mode, a sample k,
# an admissible potential, admissibility class, corrector, rate at that k.
README_TABLE = {
    RegimeFamily.STRONG_FAST_TIME: (GammaMode.K_MINUS_1, 2.75, TIME_OSC, 1,
                                    "chi4", 0.75),
    RegimeFamily.SUBCRITICAL: (GammaMode.UNIT, 1.25, DIAG, 2, "chi3", 0.25),
    RegimeFamily.CRITICAL: (GammaMode.UNIT, 2.0, DIAG, 3, "chi1", 1.0),
    RegimeFamily.SUPERCRITICAL: (GammaMode.UNIT, 2.25, DIAG, 4, "chi2", 0.25),
    RegimeFamily.SLOW_TIME: (GammaMode.UNIT, 0.5, SPACE_TIME, 5, "chi3", 0.5),
    RegimeFamily.FROZEN_TIME: (GammaMode.UNIT, 0.0, SPACE_TIME, 5, "chi3",
                               1.0),
}


@pytest.mark.parametrize("row", REGIMES, ids=lambda row: row.family.value)
def test_regime_rows_match_the_readme_table(row):
    mode, k, W, assumption, corrector, rate = README_TABLE[row.family]
    assert (row.gamma_mode, row.assumption, row.corrector) == \
        (mode, assumption, corrector)
    spec = resolve_regime(k, mode, W)
    assert spec.family is row.family
    assert spec.assumption == assumption
    assert spec.as_dict()["assumption"] == assumption
    assert spec.corrector == corrector
    assert spec.rate == pytest.approx(rate)


def test_regime_table_has_one_row_per_family():
    assert sorted(row.family.value for row in REGIMES) == \
        sorted(family.value for family in RegimeFamily)


def test_theoretical_rates():
    # DIAG is admissible in every family: zero mean, no m = 0 and no n = 0
    # modes.
    for k, mode, family, rate in [
            (2.0, GammaMode.UNIT, RegimeFamily.CRITICAL, 1.0),
            (2.5, GammaMode.UNIT, RegimeFamily.SUPERCRITICAL, 0.5),
            (3.5, GammaMode.UNIT, RegimeFamily.SUPERCRITICAL, 1.0),
            (1.5, GammaMode.UNIT, RegimeFamily.SUBCRITICAL, 0.5),
            (1.2, GammaMode.UNIT, RegimeFamily.SUBCRITICAL, pytest.approx(0.2)),
            (1.8, GammaMode.UNIT, RegimeFamily.SUBCRITICAL, pytest.approx(0.2)),
            (0.5, GammaMode.UNIT, RegimeFamily.SLOW_TIME, 0.5),
            (0.0, GammaMode.UNIT, RegimeFamily.FROZEN_TIME, 1.0),
            (2.5, GammaMode.K_MINUS_1, RegimeFamily.STRONG_FAST_TIME, 0.5)]:
        spec = resolve_regime(k, mode, DIAG)
        assert spec.family is family
        assert spec.rate == rate


def test_rate_attached_to_spec():
    spec = resolve_regime(1.25, GammaMode.UNIT, DIAG)
    assert spec.rate == pytest.approx(0.25)
    spec = resolve_regime(2.75, GammaMode.K_MINUS_1, TIME_OSC)
    assert spec.rate == pytest.approx(0.75)


def test_corrector_recipe():
    assert resolve_regime(2.0, GammaMode.UNIT, DIAG).corrector == "chi1"
    assert resolve_regime(2.5, GammaMode.UNIT, DIAG).corrector == "chi2"
    assert resolve_regime(1.5, GammaMode.UNIT, DIAG).corrector == "chi3"
    assert resolve_regime(0.5, GammaMode.UNIT, SPACE_TIME).corrector == "chi3"
    assert resolve_regime(2.5, GammaMode.K_MINUS_1, TIME_OSC).corrector == "chi4"


def test_time_dependent_limit_only_for_frozen_time():
    assert resolve_regime(0.0, GammaMode.UNIT, SPACE_TIME).time_dependent_limit
    assert not resolve_regime(0.5, GammaMode.UNIT, SPACE_TIME).time_dependent_limit
    assert not resolve_regime(2.0, GammaMode.UNIT, DIAG).time_dependent_limit


def test_iteration_depth_values():
    # smallest i with i*(k-1) >= k
    assert iteration_depth(1.5) == 3
    assert iteration_depth(1.75) == 3       # 2*0.75 = 1.5 < 1.75, 3*0.75 ok
    assert iteration_depth(1.2) == 6
    assert iteration_depth(1.9) == 3
    assert iteration_depth(1.99) == 3       # 2*0.99 = 1.98 just misses
    with pytest.raises(ValueError):
        iteration_depth(2.0)
    with pytest.raises(ValueError):
        iteration_depth(1.0)


def test_chain_depth_only_in_subcritical():
    assert resolve_regime(1.5, GammaMode.UNIT, DIAG).chain_depth == 3
    assert resolve_regime(2.0, GammaMode.UNIT, DIAG).chain_depth is None
    assert resolve_regime(0.5, GammaMode.UNIT, SPACE_TIME).chain_depth is None


def test_unsupported_k_for_strong_scaling_outside_window():
    for k in (1.5, 2.0, 3.5):
        with pytest.raises(UnsupportedK):
            resolve_regime(k, GammaMode.K_MINUS_1, TIME_OSC)


def test_admissibility_violations_propagate():
    uniform = TrigField.from_cos(1, [0], 1) + SPACE_TIME
    with pytest.raises(NoApplicableRegime):
        resolve_regime(0.5, GammaMode.UNIT, uniform)
    biased = DIAG + TrigField.constant(1, 1.0)
    with pytest.raises(NoApplicableRegime):
        resolve_regime(2.0, GammaMode.UNIT, biased)
    static_part = TrigField.from_cos(1, [1], 0) + TIME_OSC
    with pytest.raises(NoApplicableRegime):
        resolve_regime(2.5, GammaMode.K_MINUS_1, static_part)


def test_bad_k_values_rejected():
    with pytest.raises(ValueError):
        resolve_regime(float("nan"), GammaMode.UNIT, DIAG)
    with pytest.raises(ValueError):
        resolve_regime(float("inf"), GammaMode.UNIT, DIAG)
    with pytest.raises(ValueError):
        resolve_regime(-0.5, GammaMode.UNIT, SPACE_TIME)


def test_assumption_recorded():
    assert resolve_regime(2.0, GammaMode.UNIT, DIAG).assumption == 3
    assert resolve_regime(2.5, GammaMode.K_MINUS_1, TIME_OSC).assumption == 1


def test_as_dict_is_json_ready():
    d = resolve_regime(1.5, GammaMode.UNIT, DIAG, sign_override=True).as_dict()
    assert d["family"] == "subcritical"
    assert d["corrector"] == "chi3"
    assert d["gamma_mode"] == "unit"
    assert d["sign_override"] is True
    assert d["chain_depth"] == 3
    assert all(isinstance(k, str) for k in d)
