"""Property tests for the one coefficient type and the regime table.

Random real trigonometric polynomials in d = 0 (functions of tau), 1 and
2 space dimensions are checked against pointwise evaluation, which
shares no code with the coefficient algebra beyond the mode sum itself.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscpot import ScalarSeries, TrigField, cli, iteration_depth

SETTINGS = settings(max_examples=25, deadline=None)
TWO_PI = 2.0 * math.pi

coef = st.floats(-1.0, 1.0, allow_nan=False)


def _field(d, raw):
    entries = []
    for m, n, re, im in raw:
        c = 0.5 * complex(re, im)
        entries.append(((m, n), c))
        entries.append(((tuple(-v for v in m), -n), c.conjugate()))
    if d == 0:
        return ScalarSeries([(n, c) for (_, n), c in entries])
    return TrigField(d, entries)


def fields(d, n_values=st.integers(-2, 2)):
    """Real fields of dimension d, built from up to four conjugate pairs."""
    mode = st.tuples(st.tuples(*[st.integers(-2, 2)] * d), n_values,
                     coef, coef)
    return st.lists(mode, min_size=1, max_size=4).map(lambda raw: _field(d, raw))


def any_field(**kw):
    return st.sampled_from([0, 1, 2]).flatmap(lambda d: fields(d, **kw))


def points(d):
    unit = st.floats(0.0, 1.0)
    return st.tuples(st.tuples(*[unit] * d), unit)


def _at(W, y, tau):
    if W.d == 0:
        return W.evaluate(tau)
    return W.evaluate(y if W.d > 1 else y[0], tau)


@SETTINGS
@given(st.sampled_from([0, 1, 2]).flatmap(
    lambda d: st.tuples(fields(d), fields(d), points(d))))
def test_product_of_real_fields_is_real_and_pointwise(case):
    a, b, (y, tau) = case
    ab = a * b
    for m, n, c in ab.terms:
        assert ab.coeff_map()[(tuple(-v for v in m), -n)] == c.conjugate()
    got = _at(ab, y, tau)        # evaluate rejects a non-real mode sum
    assert isinstance(got, float)
    scale = max(1.0, a.coeff_mass * b.coeff_mass)
    assert got == pytest.approx(_at(a, y, tau) * _at(b, y, tau),
                                abs=1e-12 * scale)


@SETTINGS
@given(any_field())
def test_averages_commute(W):
    tau_then_y = W.mean_tau().mean_y()
    y_then_tau = W.mean_y().mean_tau()
    assert tau_then_y == y_then_tau
    assert tau_then_y.d == 0
    assert tau_then_y.mean_full() == W.mean_full()
    assert all(n == 0 for _, n, _ in W.mean_tau().terms)
    assert all(not any(m) for m, _, _ in W.mean_y().as_field(W.d).terms)


@SETTINGS
@given(st.sampled_from([0, 1, 2]).flatmap(
    lambda d: st.tuples(fields(d, n_values=st.sampled_from([-2, -1, 1, 2])),
                        points(d))))
def test_tau_antiderivative_round_trip(case):
    W, (y, tau) = case
    F = W.antiderivative_tau()
    # d/dtau of the primitive is W, mode by mode ...
    for m, n, c in W.terms:
        assert F.coeff_map()[(m, n)] * TWO_PI * 1j * n == pytest.approx(
            c, abs=1e-15)
    # ... and the primitive vanishes at tau = 0.
    assert _at(F, y, 0.0) == pytest.approx(0.0, abs=1e-14)
    if W.d == 0:
        assert F.evaluate(tau) == pytest.approx(
            W.definite_integral(0.0, tau), abs=1e-14)


@SETTINGS
@given(fields(0), fields(0), st.floats(-2.0, 2.0), st.floats(0.0, 1.5))
def test_series_algebra_matches_pointwise(a, b, start, length):
    ab = a * b
    taus = np.linspace(start, start + length, 7)
    np.testing.assert_allclose(ab.evaluate(taus),
                               a.evaluate(taus) * b.evaluate(taus),
                               atol=1e-12)
    want, _ = scipy.integrate.quad(ab.evaluate, start, start + length,
                                   epsabs=1e-13, limit=200)
    assert ab.definite_integral(start, start + length) == pytest.approx(
        want, abs=1e-10)


@SETTINGS
@given(st.floats(64 / 63, 2.0, exclude_max=True))
def test_iteration_depth_is_the_smallest_admissible_stage(k):
    i = iteration_depth(k)
    assert i * (k - 1.0) >= k - 1e-12
    assert i == 1 or (i - 1) * (k - 1.0) < k - 1e-12


# ---------------------------------------------------------------------------
# Config fuzzing: any value at any leaf ends in a documented exit code
# ---------------------------------------------------------------------------

#: A config every command accepts, with every key the parser reads.
FUZZ_BASE = {
    "potential": {"d": 1, "modes": [{"m": [1], "n": -1, "re": 0.5,
                                     "im": 0.0}]},
    "regime": {"k": 2.0, "gamma_mode": "unit", "sign_override": False},
    "problem": {"T": 0.125,
                "f": [{"amp": 1.0, "j": [1], "sigma": 0.0, "omega": 1.0}],
                "g": [{"amp": 1.0, "j": [1]}]},
    "grid": {"nx": 128, "dt": 1 / 512, "checkpoints": 8},
    "epsilon": 0.125,
    "sweep": {"epsilons": [0.25, 0.2, 0.125, 0.1], "slope_tolerance": 0.3,
              "r2_min": 0.95, "richardson_max": 0.1, "richardson": True},
    "output": {"dir": "out"},
    "workers": 1,
    "budget": 1000,
}


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


@SETTINGS
@given(st.sampled_from(list(_leaves(FUZZ_BASE))), json_values)
# Inputs that ended in a traceback before they were mended:
@example(("potential", "modes", 0, "n"), None)
@example(("potential", "modes", 0, "m", 0), 1e300)   # int -> float overflow
@example(("potential", "modes", 0, "m", 0), 2 ** 60)  # exited 0, |m|^2 > 2^53
@example(("potential", "modes", 0, "re"), 1e300)     # c_eff overflows to NaN
@example(("problem", "T"), 5e-324)                   # interval underflows
@example(("problem", "T"), 1e-320)                   # refined dt subnormal
@example(("epsilon",), 5e-324)                       # 32/eps overflows
@example(("sweep", "epsilons", 3), 5e-324)
@example(("budget",), "abc")
@example(("output", "dir"), [1])
def test_any_config_value_ends_in_a_documented_exit_code(path, value):
    cfg = copy.deepcopy(FUZZ_BASE)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in cli._COMMANDS:
            # A budget of one cell update stops solve and sweep at the gate.
            flags = ["--budget", "1"] if command in ("solve", "sweep") else []
            code = cli.main([command, "--config", str(cfg_path),
                             "--out", str(Path(tmp) / "out"), *flags])
            assert code in range(6), (command, code)
