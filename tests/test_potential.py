"""Exact trig-polynomial algebra: construction, calculus, sampling."""

import math

import numpy as np
import pytest

from oscpot import (GammaMode, NonPeriodicAntiderivative, NoApplicableRegime,
                    ScalarSeries, TrigField, UnsupportedK,
                    descriptor_from_field, field_from_descriptor,
                    resolve_regime, sample_oscillated)

RNG = np.random.default_rng(20240817)


def random_field(d, max_order=2, nmodes=4, rng=RNG):
    """Random real trig polynomial with integer frequencies |m|, |n| <= 2."""
    entries = []
    for _ in range(nmodes):
        m = tuple(int(v) for v in rng.integers(-max_order, max_order + 1, d))
        n = int(rng.integers(-max_order, max_order + 1))
        c = complex(rng.normal(), rng.normal())
        entries.append(((m, n), 0.5 * c))
        entries.append((tuple([tuple(-v for v in m), -n]), 0.5 * c.conjugate()))
    return TrigField(d, entries)


# -- construction and evaluation ------------------------------------------

def test_from_cos_matches_cosine():
    W = TrigField.from_cos(1, [3], -2, amp=1.7)
    for y, tau in [(0.0, 0.0), (0.13, 0.41), (0.77, 0.99)]:
        want = 1.7 * math.cos(2 * math.pi * (3 * y - 2 * tau))
        assert W.evaluate(y, tau) == pytest.approx(want, abs=1e-14)


def test_from_sin_matches_sine():
    W = TrigField.from_sin(2, [1, -2], 1, amp=0.6)
    y = (0.21, 0.58)
    tau = 0.33
    want = 0.6 * math.sin(2 * math.pi * (y[0] - 2 * y[1] + tau))
    assert W.evaluate(y, tau) == pytest.approx(want, abs=1e-14)


def test_constant_and_zero():
    assert TrigField.constant(1, 2.5).evaluate(0.3, 0.9) == pytest.approx(2.5)
    assert TrigField(3, []).is_zero()
    assert TrigField.constant(2, 0.0).is_zero()


def test_non_hermitian_coefficients_rejected():
    with pytest.raises(ValueError, match="not real"):
        TrigField(1, [(((1,), 0), 1.0 + 0.0j)])
    with pytest.raises(ValueError, match="not real"):
        TrigField(1, [(((1,), 1), 0.5j), (((-1,), -1), 0.5j)])


def test_dimension_checks():
    with pytest.raises(ValueError, match="dimension"):
        TrigField(2, [(((1,), 0), 1.0)])
    with pytest.raises(ValueError):
        TrigField(0, [])
    a = TrigField.from_cos(1, [1], 0)
    b = TrigField.from_cos(2, [1, 0], 0)
    with pytest.raises(ValueError, match="mismatch"):
        a + b
    with pytest.raises(ValueError, match="mismatch"):
        a * b


def test_evaluate_broadcasts_over_arrays():
    W = TrigField.from_cos(1, [2], 1)
    y = np.linspace(0.0, 1.0, 7)
    tau = 0.25
    got = W.evaluate(y, tau)
    want = np.cos(2 * np.pi * (2 * y + tau))
    assert got.shape == (7,)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_evaluate_wrong_coordinate_count():
    W = TrigField.from_cos(2, [1, 1], 0)
    with pytest.raises(ValueError, match="coordinates"):
        W.evaluate((0.1, 0.2, 0.3), 0.0)


# -- algebra ---------------------------------------------------------------

def test_product_is_pointwise_product():
    a = random_field(2)
    b = random_field(2)
    ab = a * b
    for _ in range(5):
        y = tuple(RNG.uniform(size=2))
        tau = float(RNG.uniform())
        assert ab.evaluate(y, tau) == pytest.approx(
            a.evaluate(y, tau) * b.evaluate(y, tau), abs=1e-12)


def test_product_coefficients_exactly_conjugate_symmetric():
    # Conjugate modes of a convolution accumulate round-off in different
    # orders; the product must still come out exactly real, or slicing
    # off the tau-mean can lose a partner mode to a dropped exact zero.
    rng = np.random.default_rng(612)
    for _ in range(60):
        d = int(rng.integers(1, 3))
        p = random_field(d, rng=rng) * random_field(d, rng=rng)
        for m, n, c in p.terms:
            assert p.coeff(tuple(-v for v in m), -n) == c.conjugate()
        p.mean_tau()  # reality checks must accept every slice
        p.mean_y()


def test_linear_combinations_evaluate_pointwise():
    a = random_field(1)
    b = random_field(1)
    combo = 2.0 * a - b * 0.5
    y, tau = 0.37, 0.81
    assert combo.evaluate(y, tau) == pytest.approx(
        2.0 * a.evaluate(y, tau) - 0.5 * b.evaluate(y, tau), abs=1e-12)
    assert (-a).evaluate(y, tau) == pytest.approx(-a.evaluate(y, tau))


def test_coeff_lookup_and_mass():
    W = TrigField.from_cos(1, [1], 2, amp=3.0)
    assert W.coeff([1], 2) == pytest.approx(1.5)
    assert W.coeff([-1], -2) == pytest.approx(1.5)
    assert W.coeff([5], 0) == 0.0
    assert W.coeff_mass == pytest.approx(3.0)


def test_cancellation_produces_zero_field():
    a = TrigField.from_sin(1, [1], 1, amp=2.0)
    assert (a - a).is_zero()


# -- averages, cross-checked by quadrature ---------------------------------

def quad_mean(W, d, nodes=64):
    """Trapezoid over the periodic torus; exact for low-order trig polys."""
    axes = [np.arange(nodes) / nodes for _ in range(d + 1)]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = W.evaluate(tuple(grids[:d]) if d > 1 else grids[0], grids[d])
    return float(np.mean(vals))


def test_mean_full_matches_quadrature():
    for d in (1, 2):
        W = random_field(d)
        assert W.mean_full() == pytest.approx(quad_mean(W, d), abs=1e-12)


def test_mean_y_matches_quadrature_slices():
    W = random_field(1) + TrigField.from_cos(1, [0], 1, amp=0.8)
    series = W.mean_y()
    y = np.arange(64) / 64
    for tau in (0.0, 0.3, 0.62):
        slice_mean = float(np.mean(W.evaluate(y, tau)))
        assert series.evaluate(tau) == pytest.approx(slice_mean, abs=1e-12)


def test_mean_tau_matches_quadrature_slices():
    W = random_field(1) + TrigField.from_cos(1, [1], 0, amp=0.8)
    spatial = W.mean_tau()
    tau = np.arange(64) / 64
    for y in (0.1, 0.5, 0.93):
        slice_mean = float(np.mean(W.evaluate(y, tau)))
        assert spatial.evaluate(y) == pytest.approx(slice_mean, abs=1e-12)


# -- calculus --------------------------------------------------------------

def test_grad_y_matches_analytic_derivative():
    W = TrigField.from_cos(2, [3, -1], 2, amp=1.3)
    gx, gy = W.grad_y()
    y = (0.27, 0.64)
    tau = 0.15
    arg = 2 * math.pi * (3 * y[0] - y[1] + 2 * tau)
    assert gx.evaluate(y, tau) == pytest.approx(
        -1.3 * 2 * math.pi * 3 * math.sin(arg), abs=1e-12)
    assert gy.evaluate(y, tau) == pytest.approx(
        1.3 * 2 * math.pi * math.sin(arg), abs=1e-12)


def test_laplacian_is_divergence_of_gradient():
    W = random_field(2)
    lap = W.laplacian_y()
    y = (0.41, 0.09)
    tau = 0.77
    h = 1e-5
    num = 0.0
    for axis in range(2):
        yp = list(y)
        ym = list(y)
        yp[axis] += h
        ym[axis] -= h
        num += (W.evaluate(tuple(yp), tau) - 2 * W.evaluate(y, tau)
                + W.evaluate(tuple(ym), tau)) / h**2
    assert lap.evaluate(y, tau) == pytest.approx(num, rel=1e-4, abs=1e-4)


def test_antiderivative_tau_integrates_from_zero():
    W = TrigField.from_cos(1, [1], 1) + TrigField.from_sin(1, [2], -3, amp=0.4)
    F = W.antiderivative_tau()
    y = 0.35
    assert F.evaluate(y, 0.0) == pytest.approx(0.0, abs=1e-14)
    # compare with composite Simpson on [0, tau]
    tau = 0.63
    s = np.linspace(0.0, tau, 401)
    vals = W.evaluate(y, s)
    import scipy.integrate
    want = scipy.integrate.simpson(vals, x=s)
    assert F.evaluate(y, tau) == pytest.approx(want, abs=1e-9)


def test_antiderivative_tau_requires_oscillation():
    W = TrigField.from_cos(1, [2], 0)
    with pytest.raises(NonPeriodicAntiderivative):
        W.antiderivative_tau()


# -- ScalarSeries and functions of y only ---------------------------------

def test_scalar_series_round_trip():
    s = ScalarSeries({1: 0.5 - 0.25j, -1: 0.5 + 0.25j, 0: 2.0})
    assert s.mean_full() == pytest.approx(2.0)
    assert s.evaluate(0.0) == pytest.approx(2.0 + 1.0)
    F = s.as_field(2)
    assert F.evaluate((0.3, 0.9), 0.25) == pytest.approx(s.evaluate(0.25))


def test_scalar_series_antiderivative_and_integral():
    s = ScalarSeries({2: -0.5j, -2: 0.5j})          # sin(4 pi tau)
    P = s.antiderivative_tau()
    assert P.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
    want = (1.0 - math.cos(4 * math.pi * 0.2)) / (4 * math.pi)
    assert P.evaluate(0.2) == pytest.approx(want, abs=1e-14)
    assert s.definite_integral(0.0, 0.2) == pytest.approx(want, abs=1e-14)
    # integral over whole periods of the oscillating part vanishes
    assert s.definite_integral(0.0, 3.0) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(NonPeriodicAntiderivative):
        ScalarSeries.constant(1.0).antiderivative_tau()


def test_scalar_series_definite_integral_constant_part():
    s = ScalarSeries.constant(2.0) + ScalarSeries({1: -0.5j, -1: 0.5j})
    got = s.definite_integral(0.3, 1.7)
    import scipy.integrate
    want, _ = scipy.integrate.quad(s.evaluate, 0.3, 1.7, epsabs=1e-13)
    assert got == pytest.approx(want, abs=1e-10)


def test_spatial_field_round_trip():
    p = TrigField(1, [(((1,), 0), 0.5), (((-1,), 0), 0.5)])
    assert p.evaluate(0.25) == pytest.approx(math.cos(math.pi / 2), abs=1e-14)
    assert p.mean_full() == pytest.approx(0.0)
    assert (2.0 * p).evaluate(0.1) == pytest.approx(2 * p.evaluate(0.1))
    assert p.as_field().mean_tau().coeff([1]) == pytest.approx(0.5)


# -- admissibility ---------------------------------------------------------

def test_classify_all_five_classes():
    diag = TrigField.from_cos(1, [1], -1)
    space_only = TrigField.from_cos(1, [1], 0)
    mixed = space_only + TrigField.from_cos(1, [1], 1)
    time_osc = TrigField.from_sin(1, [1], 1)
    cases = [
        (time_osc, 2.5, GammaMode.K_MINUS_1, 1),
        (diag, 1.5, GammaMode.UNIT, 2),
        (diag, 2.0, GammaMode.UNIT, 3),
        (diag, 2.5, GammaMode.UNIT, 4),
        (mixed, 0.5, GammaMode.UNIT, 5),
        (mixed, 0.0, GammaMode.UNIT, 5),
    ]
    for W, k, mode, want in cases:
        assert resolve_regime(k, mode, W).assumption == want


def test_classify_rejections():
    diag = TrigField.from_cos(1, [1], -1)
    with pytest.raises(UnsupportedK, match="2 < k <= 3"):
        resolve_regime(2.0, GammaMode.K_MINUS_1, diag)
    with pytest.raises(UnsupportedK, match="2 < k <= 3"):
        resolve_regime(3.5, GammaMode.K_MINUS_1, diag)
    has_static = TrigField.from_cos(1, [1], 0) + TrigField.from_sin(1, [1], 1)
    with pytest.raises(NoApplicableRegime, match="tau-mean"):
        resolve_regime(2.5, GammaMode.K_MINUS_1, has_static)
    has_uniform = TrigField.from_cos(1, [0], 1) + TrigField.from_cos(1, [1], 1)
    with pytest.raises(NoApplicableRegime, match="y-mean"):
        resolve_regime(0.5, GammaMode.UNIT, has_uniform)
    biased = TrigField.from_cos(1, [1], -1) + TrigField.constant(1, 0.3)
    with pytest.raises(NoApplicableRegime, match="mean"):
        resolve_regime(2.0, GammaMode.UNIT, biased)
    with pytest.raises(ValueError, match="k must be >= 0"):
        resolve_regime(-1.0, GammaMode.UNIT, diag)


# -- oscillated sampling ---------------------------------------------------

def test_sample_oscillated_matches_direct_evaluation():
    W = TrigField.from_cos(1, [1], -1)
    eps, k, gamma = 1 / 8, 2.0, 1.0
    x = np.array([0.125, 0.3, 0.71])
    t = 0.41
    got = sample_oscillated(W, eps, k, gamma, x, t)
    want = (1 / eps) * np.cos(2 * np.pi * (x / eps - t / eps**2))
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_sample_oscillated_phase_accuracy_at_many_periods():
    # t / eps^k near 1e5: naive double reduction would lose ~1e-11 phase
    W = TrigField.from_sin(1, [0], 1)
    eps, k = 1 / 32, 3.0
    t = 0.499
    tau = math.remainder(t * 32**3, 1.0)
    want = math.sin(2 * math.pi * tau)
    got = sample_oscillated(W, eps, k, 1.0, 0.0, t) * eps
    assert got == pytest.approx(want, abs=1e-10)


def test_sample_oscillated_vector_coordinates():
    W = TrigField.from_cos(2, [1, 2], 0)
    got = sample_oscillated(W, 0.25, 1.0, 1.0, (0.5, 0.125), 0.0)
    want = 4.0 * math.cos(2 * math.pi * (2.0 + 2 * 0.5))
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="eps"):
        sample_oscillated(W, 0.0, 1.0, 1.0, (0.1, 0.1), 0.0)


# -- descriptor I/O --------------------------------------------------------

def test_descriptor_completes_hermitian_partner():
    W = field_from_descriptor([{"m": [1], "n": -1, "re": 0.5}])
    assert W.coeff([-1], 1) == pytest.approx(0.5)
    assert W.evaluate(0.2, 0.2) == pytest.approx(1.0)


def test_descriptor_round_trip():
    W = random_field(2)
    back = field_from_descriptor(descriptor_from_field(W))
    assert back.terms == W.terms


def test_descriptor_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown key"):
        field_from_descriptor([{"m": [1], "n": 0, "re": 1.0, "amp": 2.0}])
    with pytest.raises(ValueError, match="must give"):
        field_from_descriptor([{"m": [1]}])
    with pytest.raises(ValueError, match="inconsistent"):
        field_from_descriptor([{"m": [1], "n": 0, "re": 1.0},
                               {"m": [1], "n": 0, "re": 2.0}])
    with pytest.raises(ValueError, match="conjugate"):
        field_from_descriptor([{"m": [1], "n": 0, "re": 1.0, "im": 0.5},
                               {"m": [-1], "n": 0, "re": 1.0, "im": 0.5}])
    with pytest.raises(ValueError, match="empty"):
        field_from_descriptor([])
    with pytest.raises(ValueError, match="dimension 2 conflicts"):
        field_from_descriptor([{"m": [1], "n": 0, "re": 1.0},
                               {"m": [1, 1], "n": 0, "re": 1.0}])


@pytest.mark.parametrize("modes, d", [
    ([{"m": [1, 1, 1], "n": -1, "re": 0.5}], None),
    ([{"m": [1, 1, 1], "n": -1, "re": 0.5}], 3),
    ([{"m": [], "n": -1, "re": 0.5}], None),
])
def test_descriptor_dimension_must_be_one_or_two(modes, d):
    # The 2^26 index bound keeps |m|^2 exact only for d <= 2.
    with pytest.raises(ValueError, match=r"dimension \d is not 1 or 2"):
        field_from_descriptor(modes, d)


@pytest.mark.parametrize("entry", [
    {"m": [2 ** 26 + 1], "n": 0}, {"m": [1, -2 ** 26 - 1], "n": 0},
    {"m": [1], "n": 2 ** 26 + 1}, {"m": [2 ** 60], "n": 0},
    {"m": [1e20], "n": 0},
])
def test_descriptor_rejects_indices_past_the_exact_range(entry):
    # |m|^2 = 2^120 for m = 2^60: no double holds it, so the identities
    # compared rounded coefficients and still reported success.
    with pytest.raises(ValueError, match=r"exceeds 2\^26 .* 2\^53"):
        field_from_descriptor([dict(entry, re=0.5)])


def test_descriptor_accepts_indices_at_the_bound():
    W = field_from_descriptor([{"m": [2 ** 26, -2 ** 26], "n": -2 ** 26,
                                "re": 0.5}])
    assert W.coeff([-2 ** 26, 2 ** 26], 2 ** 26) == pytest.approx(0.5)


@pytest.mark.parametrize("key, value", [
    ("n", 0.5), ("m", [1.9]), ("m", [True]), ("m", [None]), ("n", None),
    ("n", True), ("re", None), ("re", [1]), ("im", "0.5"), ("re", 10 ** 400),
])
def test_descriptor_numbers_must_be_numbers_and_indices_integers(key, value):
    # int() used to turn n = 0.5 into 0 and m = [1.9] into [1]: another
    # potential, without a message.
    entry = {"m": [1], "n": -1, "re": 0.5, "im": 0.0, key: value}
    with pytest.raises(ValueError, match=f"mode entry 0: '{key}'"):
        field_from_descriptor([entry])


def test_descriptor_accepts_integral_floats_as_indices():
    W = field_from_descriptor([{"m": [1.0], "n": -1.0, "re": 0.5}])
    assert W == field_from_descriptor([{"m": [1], "n": -1, "re": 0.5}])
    assert all(type(v) is int for m, n, _ in W.terms for v in m + (n,))


def test_algebra_overflow_raises_overflow_error():
    W = field_from_descriptor([{"m": [1], "n": -1, "re": 1e300}])
    with pytest.raises(OverflowError, match="overflows double precision"):
        W * W


def test_descriptor_duplicate_consistent_entries_merge():
    W = field_from_descriptor([{"m": [1], "n": 1, "re": 0.5},
                               {"m": [1], "n": 1, "re": 0.5},
                               {"m": [-1], "n": -1, "re": 0.5}])
    assert W.coeff([1], 1) == pytest.approx(0.5)
