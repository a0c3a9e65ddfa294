"""Decoy-state key-rate bound: entropy, yields, gains, error rates, clamping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from indoorqkd.keyrate import (
    KeyRateReport,
    ProtocolParams,
    binary_entropy,
    secret_key_rate,
)


def params(**overrides):
    defaults = dict(
        mean_photons_per_pulse=0.5,
        sift_factor=1.0,
        error_correction_inefficiency=1.16,
        misalignment_error=0.0,
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


class TestBinaryEntropy:
    def test_endpoints_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)
        assert binary_entropy(0.3) == pytest.approx(0.8812908992306927, rel=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, x):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12

    @given(st.floats(0.0, 0.49))
    def test_increasing_on_left_half(self, x):
        # strictly below the maximum away from 0.5; at 0.5 - ulp the float
        # result rounds to exactly 1.0
        assert binary_entropy(x) < binary_entropy(0.5)


class TestSinglePhotonQuantities:
    """Y1, Q1 and e1 as the key-rate report carries them."""

    def test_yield_combines_signal_and_background(self):
        assert secret_key_rate(params(), 0.1, 1e-5).y1 == pytest.approx(0.10001799990999993, rel=1e-12)

    def test_yield_dark_receiver(self):
        assert secret_key_rate(params(), 0.0, 0.0).y1 == 0.0
        assert secret_key_rate(params(), 1.0, 0.0).y1 == 1.0

    def test_gain_is_poisson_weighted_yield(self):
        report = secret_key_rate(params(), 0.1, 1e-5)
        assert report.q1 == pytest.approx(report.y1 * 0.5 * math.exp(-0.5), rel=1e-12)

    def test_error_known_value(self):
        assert secret_key_rate(params(), 0.1, 1e-5).e1 == pytest.approx(9.498245324354188e-05, rel=1e-9)

    def test_error_all_noise_is_half(self):
        assert secret_key_rate(params(), 0.0, 1e-6).e1 == pytest.approx(0.5, rel=1e-9)

    def test_error_undefined_when_nothing_clicks(self):
        # e1 is 0/0 here; the report flags the point and carries zeros
        report = secret_key_rate(params(), 0.0, 0.0)
        assert report.degenerate
        assert report.e1 == 0.0 and report.rate == 0.0

    def test_misalignment_floors_the_error(self):
        report = secret_key_rate(params(misalignment_error=0.01), 0.5, 0.0)
        assert report.e1 == pytest.approx(0.01, rel=1e-9)


class TestSignalStateQuantities:
    """Qmu and Emu as the key-rate report carries them."""

    def test_gain_known_value(self):
        # eta mu small: Qmu ~ eta mu + 2n
        assert secret_key_rate(params(), 0.1, 1e-5).q_mu == pytest.approx(0.04878959999265298, rel=1e-12)

    def test_qber_undefined_at_zero_gain(self):
        report = secret_key_rate(params(), 0.0, 0.0)
        assert report.q_mu == 0.0
        assert report.degenerate
        assert report.e_mu == 0.0

    def test_qber_known_value(self):
        report = secret_key_rate(params(), 0.1, 1e-5)
        assert report.e_mu == pytest.approx(0.00019996268800031523, rel=1e-9)

    def test_qber_pure_noise_is_half(self):
        assert secret_key_rate(params(), 0.0, 1e-4).e_mu == pytest.approx(0.5, rel=1e-9)


class TestSecretKeyRate:
    def test_perfect_channel_rate_is_poisson_single_fraction(self):
        # lossless, noiseless: everything cancels except the single-photon gain
        report = secret_key_rate(params(), 1.0, 0.0)
        assert report.rate == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)
        assert report.e1 == 0.0
        assert report.e_mu == 0.0
        assert report.secure

    def test_no_source_no_key(self):
        report = secret_key_rate(params(mean_photons_per_pulse=0.0), 0.5, 1e-6)
        assert report.rate == 0.0
        assert not report.secure

    def test_dead_channel_is_degenerate_not_an_error(self):
        report = secret_key_rate(params(), 0.0, 0.0)
        assert report.degenerate
        assert report.rate == 0.0
        assert not report.secure

    def test_negative_bound_clamped_and_flagged_insecure(self):
        report = secret_key_rate(params(), 1e-5, 1e-3)
        assert report.unclamped_rate < 0.0
        assert report.rate == 0.0
        assert not report.secure

    def test_inputs_above_one_saturate(self):
        saturated = secret_key_rate(params(), 1.2, 0.0)
        assert saturated.rate == secret_key_rate(params(), 1.0, 0.0).rate

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            secret_key_rate(params(), -0.1, 0.0)
        with pytest.raises(ValueError):
            secret_key_rate(params(), 0.1, -1e-9)

    def test_report_fields_are_probabilities(self):
        report = secret_key_rate(params(), 0.01, 1e-5)
        for name in ("y1", "q1", "e1", "q_mu", "e_mu"):
            assert 0.0 <= getattr(report, name) <= 1.0

    def test_report_validates_probabilities(self):
        with pytest.raises(ValueError):
            KeyRateReport(y1=1.5, q1=0.0, e1=0.0, q_mu=0.0, e_mu=0.0, rate=0.0, unclamped_rate=0.0)

    def test_protocol_params_validated(self):
        with pytest.raises(ValueError):
            params(mean_photons_per_pulse=-0.1)
        with pytest.raises(ValueError):
            params(sift_factor=0.0)
        with pytest.raises(ValueError):
            params(error_correction_inefficiency=0.9)
        with pytest.raises(ValueError):
            params(misalignment_error=0.6)


class TestMonotonicity:
    def test_rate_grows_with_transmittance(self):
        etas = np.logspace(-5, 0, 30)
        rates = [secret_key_rate(params(), float(e), 1e-6).rate for e in etas]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_rate_falls_with_noise(self):
        noises = np.logspace(-9, -2, 30)
        rates = [secret_key_rate(params(), 1e-3, float(n)).rate for n in noises]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    @given(st.floats(1e-6, 1.0), st.floats(0.0, 1e-2))
    def test_rate_never_negative(self, eta, noise):
        assert secret_key_rate(params(), eta, noise).rate >= 0.0

    def test_single_crossing_along_noise_axis(self):
        """The unclamped bound changes sign at most once as noise grows."""
        noises = np.logspace(-8, -1, 200)
        signs = [
            secret_key_rate(params(), 1e-3, float(n)).unclamped_rate > 0.0
            for n in noises
        ]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips <= 1


REPORT_FIELDS = ("y1", "q1", "e1", "q_mu", "e_mu", "rate", "unclamped_rate", "degenerate")

# Probabilities that reach every branch: zero (with zero noise, a point where
# nothing clicks), ordinary values, and values above one, which saturate.
probability = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1.0),
    st.floats(1.0, 1e3, exclude_min=True),
    st.just(math.inf),
)
protocol = st.sampled_from([
    params(),
    params(misalignment_error=0.01, sift_factor=0.5),
    params(mean_photons_per_pulse=0.0),  # Qmu = 0 without noise: degenerate at any eta
])


def assert_bitwise_equal_to_scalar_calls(vector, scalars):
    for name in REPORT_FIELDS:
        got = np.asarray(getattr(vector, name))
        want = np.array([getattr(r, name) for r in scalars], dtype=got.dtype)
        assert got.tobytes() == want.tobytes(), name


class TestArrayEvaluation:
    @given(protocol, probability, st.lists(probability, min_size=1, max_size=12))
    @example(params(), 0.0, [0.0, 1e-6, 2.0])
    @example(params(), 1e-3, [0.0, 1e-6, math.inf])
    def test_noise_vector_equals_scalar_calls(self, p, eta, noises):
        vector = secret_key_rate(p, eta, np.array(noises))
        assert_bitwise_equal_to_scalar_calls(vector, [secret_key_rate(p, eta, n) for n in noises])

    @given(protocol, st.lists(st.tuples(probability, probability), min_size=1, max_size=12))
    def test_transmittance_and_noise_vectors_equal_scalar_calls(self, p, pairs):
        eta, noise = (np.array(column) for column in zip(*pairs))
        vector = secret_key_rate(p, eta, noise)
        assert_bitwise_equal_to_scalar_calls(vector, [secret_key_rate(p, e, n) for e, n in pairs])

    @given(protocol, st.lists(probability, min_size=1, max_size=6), st.lists(probability, min_size=1, max_size=6))
    @example(params(), [0.0, 1e-3, 2.0], [0.0, 1e-6, math.inf])
    def test_sweep_layout_equals_scalar_calls(self, p, etas, noises):
        # sweep's layout: a transmittance column against a stride-0 broadcast noise grid
        eta, noise = np.array(etas), np.array(noises)
        grid = secret_key_rate(p, eta[:, None], np.broadcast_to(noise, (len(eta), len(noise))))
        assert np.shape(grid.rate) == (len(etas), len(noises))
        assert_bitwise_equal_to_scalar_calls(grid, [secret_key_rate(p, e, n) for e in etas for n in noises])

    def test_degenerate_flag_is_per_element(self):
        report = secret_key_rate(params(), 0.0, np.array([0.0, 1e-6]))
        assert report.degenerate.tolist() == [True, False]
        assert report.rate.tolist() == [0.0, 0.0]
        assert report.e1[1] == pytest.approx(0.5, rel=1e-9)

    def test_empty_arrays_give_empty_reports(self):
        report = secret_key_rate(params(), np.ones((3, 1)), np.empty((3, 0)))
        assert all(np.shape(getattr(report, name)) == (3, 0) for name in REPORT_FIELDS)
        assert binary_entropy(np.array([])).shape == (0,)

    def test_scalar_call_gives_scalars(self):
        report = secret_key_rate(params(), 0.01, 1e-5)
        assert all(np.ndim(getattr(report, name)) == 0 for name in REPORT_FIELDS)
        assert isinstance(report.rate, float)

    @pytest.mark.parametrize("bad", [math.nan, -1e-9])
    def test_bad_element_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            secret_key_rate(params(), 0.01, np.array([1e-6, bad]))
        with pytest.raises(ValueError, match="non-negative"):
            secret_key_rate(params(), np.array([0.01, bad]), 1e-6)

    def test_helpers_reject_nan_elements(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binary_entropy(np.array([0.1, math.nan]))
        with pytest.raises(ValueError, match="non-negative"):
            secret_key_rate(params(), np.array([0.1, 0.2]), np.array([1e-6, math.nan]))
        with pytest.raises(ValueError, match="mean_photons_per_pulse"):
            params(mean_photons_per_pulse=math.nan)

    def test_report_rejects_nan_fields(self):
        with pytest.raises(ValueError, match=r"y1 must lie in \[0, 1\]"):
            KeyRateReport(y1=np.array([0.1, math.nan]), q1=0.0, e1=0.0, q_mu=0.0, e_mu=0.0, rate=0.0, unclamped_rate=0.0)
        for rate in (math.nan, np.array([0.0, math.nan])):
            with pytest.raises(ValueError, match="rate must be non-negative"):
                KeyRateReport(y1=0.1, q1=0.0, e1=0.0, q_mu=0.0, e_mu=0.0, rate=rate, unclamped_rate=0.0)

    def test_undefined_error_rates_flagged_for_any_zero_gain(self):
        report = secret_key_rate(params(), np.array([0.1, 0.0]), 0.0)
        assert report.degenerate.tolist() == [False, True]
        assert report.e1[1] == 0.0 and report.e_mu[1] == 0.0 and report.rate[1] == 0.0
