"""Property tests for the one coefficient type, the regime table and
the policy grids.

Random real trigonometric polynomials in d = 0 (functions of tau), 1 and
2 space dimensions are checked against pointwise evaluation, which
shares no code with the coefficient algebra beyond the mode sum itself.
"""

import bisect
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscpot import (ScalarSeries, TrigField, cli, correctors,
                    descriptor_from_field, field_from_descriptor,
                    iteration_depth, policy_grid, potential)
from oscpot.correctors import grad_pair_mean, mean_product
from oscpot.potential import INDEX_LIMIT, _build, _merge, _neg

from conftest import FAMILY_PARAMS, random_admissible

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


def raw_pairs(d, n_values=st.integers(-2, 2), index=2, size=(1, 4)):
    """(m, n, re, im) lists for `_field`: one conjugate pair each."""
    mode = st.tuples(st.tuples(*[st.integers(-index, index)] * d), n_values,
                     coef, coef)
    return st.lists(mode, min_size=size[0], max_size=size[1])


def fields(d, n_values=st.integers(-2, 2), **kw):
    """Real fields of dimension d, built from up to four conjugate pairs."""
    return raw_pairs(d, n_values, **kw).map(lambda raw: _field(d, raw))


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


# -- averages of products and the product loop -----------------------------

def _quarter_turn(d, raw):
    """_field of raw with every pair turned by i: b_k = i a_k and
    b_-k = -i conj(a_k), so each pair's real part of a_k b_-k + a_-k b_k
    cancels exactly."""
    return _field(d, [(m, n, -im, re) for m, n, re, im in raw])


def mean_cases(d):
    """(a, b) for M(a b): independent small and large fields, a field and
    its quarter turn, the zero field on either side, and b with no
    conjugate partner in a (n in {1, 2} against n = 3)."""
    zero = _field(d, [])
    return st.one_of(
        st.tuples(fields(d), fields(d)),
        st.tuples(fields(d, index=3, size=(8, 16)),
                  fields(d, index=3, size=(8, 16))),
        raw_pairs(d).map(lambda raw: (_field(d, raw), _quarter_turn(d, raw))),
        fields(d).map(lambda a: (a, zero)),
        fields(d).map(lambda b: (zero, b)),
        st.tuples(fields(d, st.sampled_from([1, 2])), fields(d, st.just(3))),
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, 1, 2]).flatmap(mean_cases))
def test_mean_product_is_the_product_mean_bit_for_bit(case):
    a, b = case
    got = mean_product(a, b)
    assert got.hex() == (a * b).mean_full().hex()
    assert math.copysign(1.0, got) == 1.0 or got < 0   # never -0.0


@pytest.mark.parametrize("d", [0, 1, 2])
def test_mean_product_of_cancelling_pairs_is_plus_zero(d):
    m = (1,) * d
    a, b = _field(d, [(m, 1, 1.0, 0.0)]), _field(d, [(m, 1, 0.0, -1.0)])
    # cos * sin has no mean: 0.5 (0.5 i) + 0.5 (-0.5 i) cancels exactly.
    assert (a * b).mean_full().hex() == mean_product(a, b).hex() == "0x0.0p+0"
    # cos(theta) against cos(2 theta): no mode has a conjugate partner.
    assert mean_product(a, _field(d, [(m, 2, 1.0, 0.0)])).hex() == "0x0.0p+0"


@SETTINGS
@given(st.sampled_from([0, 1, 2]).flatmap(mean_cases))
def test_grad_pair_mean_is_the_per_axis_product_sum(case):
    a, b = case
    want = 0.0
    for ga, gb in zip(a.grad_y(), b.grad_y()):
        want += (ga * gb).mean_full()
    assert grad_pair_mean(a, b).hex() == want.hex()


def _bits(field):
    return [(m, n, c.real.hex(), c.imag.hex()) for m, n, c in field.terms]


@SETTINGS
@given(any_field(), st.sampled_from([-1.0, -0.0, 0.0, 0.5, -3.25]))
def test_ordered_results_keep_the_bits_of_the_merge(W, scalar):
    # Results whose keys are unique and in order skip `_merge`'s dict and
    # sort.  Through `_build` they must come out the same, signed zeros
    # and dropped zero coefficients included.
    def results():
        out = [scalar * W, W.mean_y(), W.mean_tau(), W.laplacian_y(),
               *W.grad_y(), W.as_field(max(W.d, 1)),
               correctors.solve_chi3(W)]
        if not W.mean_full():
            out += [correctors.solve_chi1(W), correctors.solve_chi2(W)]
        return [_bits(f) for f in out]

    def merged(d, terms, check=False):
        return _build(d, [((m, n), c) for m, n, c in terms], check)

    got = results()
    with mock.patch.object(potential, "_build_ordered", merged), \
            mock.patch.object(correctors, "_build_ordered", merged):
        assert results() == got


def test_mean_product_keeps_the_product_checks():
    W = field_from_descriptor([{"m": [1], "n": -1, "re": 1e300}])
    with pytest.raises(OverflowError, match="overflows double precision"):
        mean_product(W, W)
    with pytest.raises(ValueError, match="dimension mismatch in field product"):
        mean_product(W, TrigField.constant(2, 1.0))


def test_product_and_its_mean_overflow_on_the_same_inputs():
    # Masses of 1e154 multiply to 1e308, a finite double, but the conjugate
    # projection of the product adds two such coefficients before halving.
    W = field_from_descriptor([{"m": [0], "n": 0, "re": 1e154}])
    with pytest.raises(OverflowError, match="overflows double precision"):
        (W * W).mean_full()
    with pytest.raises(OverflowError, match="overflows double precision"):
        mean_product(W, W)
    # Below half the largest double both are finite and agree.
    V = field_from_descriptor([{"m": [0], "n": 0, "re": 9e153}])
    assert (V * V).mean_full() == mean_product(V, V) == 9e153 ** 2


def _reference_product(a, b):
    """a * b with the first product loop: the list of all pair entries,
    merged by `_merge`, then projected onto the real fields."""
    entries = []
    for m1, n1, c1 in a.terms:
        for m2, n2, c2 in b.terms:
            key = (tuple(x + y for x, y in zip(m1, m2)), n1 + n2)
            entries.append((key, c1 * c2))
    merged = _merge(entries)
    sym = []
    for key in set(merged) | {_neg(k) for k in merged}:
        value = 0.5 * (merged.get(key, 0j)
                       + merged.get(_neg(key), 0j).conjugate())
        sym.append((key, value))
    return _build(a.d, sym)


def _bits(field):
    """field's terms with each coefficient part as `float.hex`, so that a
    comparison tells -0.0 from 0.0."""
    return [(m, n, c.real.hex(), c.imag.hex()) for m, n, c in field.terms]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, 2]).flatmap(
    lambda d: st.tuples(fields(d, index=3, size=(8, 16)),
                        fields(d, index=3, size=(8, 16)))))
def test_product_matches_the_entry_list_reference(case):
    a, b = case
    assert _bits(a * b) == _bits(_reference_product(a, b))


def _edge_factors(case):
    rng = np.random.default_rng(5)
    top = INDEX_LIMIT

    def field(d, keys):
        return _field(d, [(m, n, *rng.normal(size=2)) for m, n in keys])

    wide_1d = field(1, [((top,), 1), ((-top,), top), ((1,), -top),
                        ((0,), 0), ((2,), 1)])
    wide_2d = field(2, [((top, -top), top), ((top, 1), 0), ((0, -top), -1),
                        ((1, 1), 1), ((-top, top), 2)])
    if case == "empty-second-factor":
        return wide_1d, _field(1, [])
    if case == "empty-first-factor":
        return _field(2, []), wide_2d
    if case == "d0":
        return field(0, [((), n) for n in range(-4, 5)]), \
            field(0, [((), n) for n in (-7, 0, 2, 3)])
    if case == "index-limit-1d":
        return wide_1d, wide_1d
    if case == "index-limit-2d":
        return wide_2d, field(2, [((-top, -top), -top), ((1, 0), top)])
    if case == "product-of-products":
        # Keys of wide_2d * wide_2d reach 2^27; their product's, 2^28.
        square = wide_2d * wide_2d
        return square, square
    if case == "unpaired-modes":
        # `_build` takes modes without their mirrors; `__add__` can leave
        # one where near-conjugate coefficients cancel on one side only.
        spans = ((range(4), (0, 1)), (range(-1, 3), (0, 2)))
        return tuple(_build(1, [(((m,), n), complex(*rng.normal(size=2)))
                                for m in ms for n in ns])
                     for ms, ns in spans)
    if case == "subnormal-half":
        # Half of the real part -5e-324 rounds to -0.0; the product's
        # coefficient must still read +0.0 + 0.5j.
        return (_build(1, [(((1,), 0), complex(-5e-324, 1.0))]),
                TrigField.constant(1, 1.0))
    # mirror-residue: n = 1 adds its pairs 1, 1e16, -1e16 in row-major
    # order and cancels exactly; n = -1 adds their conjugates in reverse
    # order and keeps 1, so the projection gives both 0.5.
    return (ScalarSeries({-1: 1.0, 0: 1e8, 1: 1.0}),
            ScalarSeries({-2: 1.0, -1: 1e8, 0: -1e16, 1: 1e8, 2: 1.0}))


@pytest.mark.parametrize("case", [
    "empty-second-factor", "empty-first-factor", "d0", "index-limit-1d",
    "index-limit-2d", "product-of-products", "unpaired-modes",
    "subnormal-half", "mirror-residue"])
def test_edge_product_matches_the_entry_list_reference(case):
    a, b = _edge_factors(case)
    ab = a * b
    assert _bits(ab) == _bits(_reference_product(a, b))
    if case == "mirror-residue":
        assert ab.coeff(1) == ab.coeff(-1) == 0.5
    if case == "subnormal-half":
        assert _bits(ab) == [((-1,), 0, "0x0.0p+0", "-0x1.0000000000000p-1"),
                             ((1,), 0, "0x0.0p+0", "0x1.0000000000000p-1")]
    if case.startswith("empty"):
        assert ab.is_zero()


@pytest.mark.parametrize("d, index, n_max", [(0, 0, 120), (1, 7, 7),
                                             (2, 3, 2)])
def test_dense_product_matches_the_entry_list_reference(d, index, n_max):
    rng = np.random.default_rng(d)
    span = range(-index, index + 1)
    keys = [(m, n) for m in np.ndindex(*[len(span)] * d)
            for n in range(-n_max, n_max + 1)]
    raw = [(tuple(int(v) - index for v in m), n, *rng.normal(size=2))
           for m, n in keys]
    a, b = _field(d, raw), _field(d, raw[::-1])
    assert len(a.terms) >= 200
    ab = a * b
    assert len(ab.terms) >= 200
    assert _bits(ab) == _bits(_reference_product(a, b))
    assert mean_product(a, b).hex() == ab.mean_full().hex()


@SETTINGS
@given(st.floats(64 / 63, 2.0, exclude_max=True))
def test_iteration_depth_is_the_smallest_admissible_stage(k):
    i = iteration_depth(k)
    assert i * (k - 1.0) >= k - 1e-12
    assert i == 1 or (i - 1) * (k - 1.0) < k - 1e-12


# ---------------------------------------------------------------------------
# Policy grids: nx+1 rounded up to a 5-smooth number
# ---------------------------------------------------------------------------

def _five_smooth_up_to(limit):
    """Every 2^a 3^b 5^c <= limit, sorted."""
    out = []
    p2 = 1
    while p2 <= limit:
        p23 = p2
        while p23 <= limit:
            p235 = p23
            while p235 <= limit:
                out.append(p235)
                p235 *= 5
            p23 *= 3
        p2 *= 2
    return sorted(out)


FIVE_SMOOTH = _five_smooth_up_to(10 ** 15)


def _is_five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


# Below eps ~ 1e-150 no double-precision time grid exists, and policy_grid
# raises BudgetExceeded (test_pdesolve covers that).
@settings(max_examples=200, deadline=None)
@given(st.floats(1e-12, 0.25))
@example(0.25)
@example(1 / 8)
@example(1 / 96)
def test_policy_grid_nx_plus_one_is_the_next_five_smooth_number(eps):
    grid = policy_grid(eps, 2.0, 1.0, 0.5, 1)
    floor = math.ceil(32 / eps)
    assert grid.nx >= 32 / eps
    assert grid.nx + 1 == FIVE_SMOOTH[bisect.bisect_left(FIVE_SMOOTH,
                                                         floor + 1)]
    assert _is_five_smooth(grid.nx + 1)
    assert _is_five_smooth(grid.refined().nx + 1)


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


# ---------------------------------------------------------------------------
# Admission: a potential either passes, is rejected or fails an identity
# ---------------------------------------------------------------------------

@st.composite
def admissible_configs(draw):
    """(modes, regime) of a `random_admissible` W of any family, scaled to
    coefficients of 1e-2 to 1e3; subcritical k goes down to 1.02."""
    family = draw(st.sampled_from(list(FAMILY_PARAMS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    W = 10.0 ** draw(st.floats(-2.0, 3.0)) * random_admissible(family, rng)
    k, gamma_mode = FAMILY_PARAMS[family]
    if family == "subcritical":
        k = draw(st.floats(1.02, 2.0, exclude_max=True))
    return descriptor_from_field(W), {"k": k, "gamma_mode": gamma_mode.value}


@SETTINGS
@given(admissible_configs())
# Inputs that ended in a traceback before they were mended:
@example(([{"m": [1], "n": -1, "re": 0.5, "im": 0.0},     # imaginary mean
            {"m": [0], "n": 0, "re": 0.0, "im": 1e-13}], {"k": 2.0}))
@example(([{"m": [0], "n": -1, "re": -12.245363180812689,  # deep chain
            "im": 8.351455792001063}], {"k": 1.02}))
def test_admission_ends_in_0_2_or_3_with_at_most_one_line(case):
    modes, regime = case
    cfg = {"potential": {"modes": modes}, "regime": regime}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("correctors", "verify"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(cfg_path),
                                 "--out", str(Path(tmp) / "out")])
            assert code in (0, 2, 3), (command, code, err.getvalue())
            assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
