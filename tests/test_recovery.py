"""Critical ratios, regime classification and minimum RFT sizes.

Brute-force oracles: a grid scan over d checking the direct inequality, and
the direct product evaluation itself.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compresslaw.errors import DomainError, RegimeError
from compresslaw.laws import CompressionLaw, MetricKind
from compresslaw.recovery import (
    RecoveryQuery,
    Regime,
    analyze,
    classify_regime,
    critical_ratio,
    min_rft_size,
    recoverable,
    recovery_margin,
)

# llama-3-8b extrinsic coefficients from the fixture tables
LLAMA8B = CompressionLaw(0.98, -1.18, -0.14, MetricKind.ACCURACY)


def grid_scan_min_d(law, sigma, r, d_max=100.0, step=1e-3):
    """Oracle: smallest grid point whose direct inequality check passes."""
    ds = np.arange(0.0, d_max + step, step)
    ratio = np.exp(law.beta * np.log1p(r) + law.gamma * np.log1p(1.0 / (ds + law.epsilon)))
    ok = ratio >= sigma if law.metric is MetricKind.ACCURACY else ratio <= sigma
    hits = np.nonzero(ok)[0]
    return None if len(hits) == 0 else float(ds[hits[0]])


class TestCriticalRatio:
    def test_worked_example(self):
        # 0.8^(1/-1.18) - 1, the "no more than 80% beyond ~20% compression" case
        assert critical_ratio(-1.18, 0.8, MetricKind.ACCURACY) == pytest.approx(0.208, abs=0.001)

    def test_boundary_sigma_gives_ratio_one(self):
        sigma = 2.0**-1.18
        assert critical_ratio(-1.18, sigma, MetricKind.ACCURACY) == pytest.approx(1.0, abs=1e-12)

    def test_moderate_exponent(self):
        # numeric root of phi(r) = 0 is independent of gamma; oracle value 0.9^-2 - 1
        assert critical_ratio(-0.5, 0.9, MetricKind.ACCURACY) == pytest.approx(0.2345679012, abs=1e-4)

    def test_always_recoverable_band_is_an_error(self):
        with pytest.raises(RegimeError):
            critical_ratio(-1.18, 0.3, MetricKind.ACCURACY)
        with pytest.raises(RegimeError):
            critical_ratio(2.0, 5.0, MetricKind.LOSS)

    def test_loss_variant(self):
        # beta = 2: thresholds in (1, 4] are conditional
        assert critical_ratio(2.0, 2.25, MetricKind.LOSS) == pytest.approx(0.5, abs=1e-12)

    def test_tight_threshold_limit(self):
        assert critical_ratio(-1.18, 1.0 - 1e-9, MetricKind.ACCURACY) < 1e-8

    def test_wrong_sign_rejected(self):
        with pytest.raises(DomainError):
            critical_ratio(1.2, 0.8, MetricKind.ACCURACY)
        with pytest.raises(DomainError):
            critical_ratio(-1.2, 2.0, MetricKind.LOSS)


class TestClassifyRegime:
    def test_accuracy_always(self):
        regime, boundary = classify_regime(-1.18, 0.4, MetricKind.ACCURACY)
        assert regime is Regime.ALWAYS_RECOVERABLE
        assert boundary == pytest.approx(0.441, abs=0.001)

    def test_accuracy_conditional(self):
        regime, _ = classify_regime(-1.18, 0.8, MetricKind.ACCURACY)
        assert regime is Regime.CONDITIONALLY_RECOVERABLE

    def test_loss_always(self):
        regime, boundary = classify_regime(2.0, 5.0, MetricKind.LOSS)
        assert regime is Regime.ALWAYS_RECOVERABLE
        assert boundary == pytest.approx(4.0)

    def test_boundary_sigma_is_conditional(self):
        regime, _ = classify_regime(-1.18, 2.0**-1.18, MetricKind.ACCURACY)
        assert regime is Regime.CONDITIONALLY_RECOVERABLE

    def test_the_loss_boundary_sigma_is_conditional(self):
        assert classify_regime(1.0, 2.0, MetricKind.LOSS) == (Regime.CONDITIONALLY_RECOVERABLE, 2.0)

    @pytest.mark.parametrize("metric, sigma", [(MetricKind.ACCURACY, 0.5), (MetricKind.LOSS, 1.5)])
    def test_a_zero_beta_is_rejected(self, metric, sigma):
        with pytest.raises(DomainError, match=f"{metric.value} analysis needs beta . 0, got 0.0"):
            classify_regime(0.0, sigma, metric)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 1.5, -0.1])
    def test_sigma_interval_accuracy(self, sigma):
        with pytest.raises(DomainError):
            classify_regime(-1.18, sigma, MetricKind.ACCURACY)

    @pytest.mark.parametrize("sigma", [1.0, 0.5, -2.0])
    def test_sigma_interval_loss(self, sigma):
        with pytest.raises(DomainError):
            classify_regime(2.0, sigma, MetricKind.LOSS)

    @pytest.mark.parametrize("call", [
        lambda: classify_regime(1024.0, 1.5, MetricKind.LOSS),
        lambda: critical_ratio(1024.0, 1.5, MetricKind.LOSS),
        lambda: analyze(RecoveryQuery(CompressionLaw(0.5, 1024.0, 1.0, MetricKind.LOSS), sigma=1.5, r=0.5)),
    ], ids=["classify_regime", "critical_ratio", "analyze"])
    def test_an_overflowing_boundary_is_a_domain_error_that_names_beta(self, call):
        with pytest.raises(DomainError, match=r"boundary 2\*\*beta overflowed .* \(beta = 1024\)"):
            call()

    def test_an_underflowing_accuracy_boundary_is_zero(self):
        assert classify_regime(-2000.0, 0.5, MetricKind.ACCURACY) == (Regime.CONDITIONALLY_RECOVERABLE, 0.0)


class TestMinRftSize:
    def test_worked_point(self):
        query = RecoveryQuery(LLAMA8B, sigma=0.8, r=0.19)
        # scalar oracle: 1/phi(0.19) - 1 with phi = (0.8 * 1.19^1.18)^(-1/0.14) - 1
        assert min_rft_size(query) == pytest.approx(6.3412085023, abs=0.01)

    def test_beyond_critical_ratio_unrecoverable(self):
        query = RecoveryQuery(LLAMA8B, sigma=0.8, r=0.25)
        assert min_rft_size(query) == math.inf

    def test_no_rft_needed(self):
        query = RecoveryQuery(LLAMA8B, sigma=0.9, r=0.0)
        assert min_rft_size(query) == 0.0

    def test_agrees_with_grid_scan(self):
        query = RecoveryQuery(LLAMA8B, sigma=0.8, r=0.19)
        d_min = min_rft_size(query)
        d_oracle = grid_scan_min_d(LLAMA8B, 0.8, 0.19)
        assert d_oracle is not None
        assert -1e-9 <= d_oracle - d_min <= 1e-3 + 1e-9

    def test_boundary_is_sharp(self):
        query = RecoveryQuery(LLAMA8B, sigma=0.8, r=0.19)
        d_min = min_rft_size(query)
        assert recoverable(LLAMA8B, 0.8, 0.19, d_min)
        assert not recoverable(LLAMA8B, 0.8, 0.19, d_min - 0.01)

    def test_a_boundary_near_the_largest_float_is_found(self):
        # A huge gamma puts the least accepted size near 1e308, where the sum of the bisection's ends overflows.
        law = CompressionLaw(1.0, 1.0, 3e292, MetricKind.LOSS)
        sigma = math.nextafter(1.0, 2.0)
        d_min = min_rft_size(RecoveryQuery(law, sigma, 0.0))
        assert 1e307 < d_min < math.inf
        assert recoverable(law, sigma, 0.0, d_min)
        assert not recoverable(law, sigma, 0.0, math.nextafter(d_min, 0.0))

    def test_loss_variant(self):
        law = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)
        query = RecoveryQuery(law, sigma=1.5, r=0.1)
        d_min = min_rft_size(query)
        assert math.isfinite(d_min)
        assert recoverable(law, 1.5, 0.1, d_min)
        if d_min > 0:
            assert not recoverable(law, 1.5, 0.1, d_min - min(d_min, 0.01))
        d_oracle = grid_scan_min_d(law, 1.5, 0.1)
        assert d_oracle is not None and -1e-9 <= d_oracle - d_min <= 1e-3 + 1e-9


class TestTinyGamma:
    """A ``gamma`` so small that the RFT term is a few ulps of the ratio term makes :func:`recoverable` coarse near
    the boundary: the closed form can be rejected by more than ``1e-9`` of itself, and the size is then searched."""

    def test_a_boundary_far_above_the_closed_form_is_found(self):
        law = CompressionLaw(1.0, 2.3138641880940938, 2.074624907315345e-10, MetricKind.LOSS)
        sigma, r = 3.768708764441414, 0.7742608010284946
        d_min = min_rft_size(RecoveryQuery(law, sigma, r))
        assert recoverable(law, sigma, r, d_min)
        assert not recoverable(law, sigma, r, math.nextafter(d_min, 0.0))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(metric=st.sampled_from([MetricKind.LOSS, MetricKind.ACCURACY]), beta=st.floats(0.05, 3.0),
           log_gamma=st.floats(-14.0, -6.0), r=st.floats(0.0, 0.99), ulps=st.integers(1, 200))
    def test_min_rft_size_is_the_least_accepted_float(self, metric, beta, log_gamma, r, ulps):
        # sigma a few ulps past the ratio term alone puts the boundary where the RFT term is a few ulps
        sign = 1.0 if metric is MetricKind.LOSS else -1.0
        beta, gamma = sign * beta, sign * 10.0**log_gamma
        base = math.exp(beta * math.log1p(r))
        sigma = base + sign * ulps * math.ulp(base)
        law = CompressionLaw(1.0, beta, gamma, metric)
        d_min = min_rft_size(RecoveryQuery(law, sigma, r))
        if d_min == math.inf:
            return
        assert recoverable(law, sigma, r, d_min)
        assert d_min == 0.0 or not recoverable(law, sigma, r, math.nextafter(d_min, 0.0))


class TestMarginRoundedToZero:
    """``sigma`` within a few ulps of ``(1+r)**beta`` can round ``phi(r)`` to 0 or below while :func:`recoverable`
    still accepts a huge ``d``: the size is then searched from the largest float."""

    def test_a_boundary_past_a_margin_of_zero_is_found(self):
        law = CompressionLaw(1.0, -1.041427262949753, -0.6347404519166445, MetricKind.ACCURACY)
        r = 0.5431711791475088
        sigma = math.exp(law.beta * math.log1p(r))
        assert recovery_margin(law.beta, law.gamma, sigma, r) <= 0.0
        d_min = min_rft_size(RecoveryQuery(law, sigma, r))
        assert d_min == 7622978300610082.0
        assert recoverable(law, sigma, r, d_min)
        assert not recoverable(law, sigma, r, math.nextafter(d_min, 0.0))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(metric=st.sampled_from([MetricKind.LOSS, MetricKind.ACCURACY]), beta=st.floats(0.05, 3.0),
           gamma=st.floats(0.05, 3.0), r=st.floats(0.01, 0.99), ulps=st.integers(-4, 4))
    def test_inf_only_when_the_largest_float_is_refused(self, metric, beta, gamma, r, ulps):
        sign = 1.0 if metric is MetricKind.LOSS else -1.0
        law = CompressionLaw(1.0, sign * beta, sign * gamma, metric)
        base = math.exp(law.beta * math.log1p(r))
        sigma = base + ulps * math.ulp(base)
        d_min = min_rft_size(RecoveryQuery(law, sigma, r))
        assert (d_min == math.inf) == (not recoverable(law, sigma, r, sys.float_info.max))
        if d_min != math.inf:
            assert recoverable(law, sigma, r, d_min)
            assert d_min == 0.0 or not recoverable(law, sigma, r, math.nextafter(d_min, 0.0))


class TestRecoverable:
    def test_above_minimum(self):
        assert recoverable(LLAMA8B, 0.8, 0.19, 10.0)

    def test_without_rft(self):
        assert not recoverable(LLAMA8B, 0.8, 0.19, 0.0)

    def test_tiny_threshold_always_true(self):
        assert recoverable(LLAMA8B, 1e-9, 0.9, 0.0)

    def test_a_loss_ratio_equal_to_sigma_is_recoverable(self):
        # (1 + 0)**1 * (1 + 1/(1 + 1))**1 is exactly 1.5
        assert recoverable(CompressionLaw(1.0, 1.0, 1.0, MetricKind.LOSS), 1.5, 0.0, 1.0)

    @pytest.mark.parametrize("metric, expected", [(MetricKind.LOSS, False), (MetricKind.ACCURACY, True)])
    def test_an_overflowing_ratio_compares_as_infinity(self, metric, expected):
        # (1 + 0.9)**5000 is far above the largest float.
        sigma = 1.5 if metric is MetricKind.LOSS else 0.5
        assert recoverable(CompressionLaw(1.0, 5000.0, 1.0, metric), sigma, 0.9, 0.0) is expected

    def test_input_validation(self):
        with pytest.raises(DomainError):
            recoverable(LLAMA8B, 0.8, 1.2, 0.0)
        with pytest.raises(DomainError):
            recoverable(LLAMA8B, 0.8, 0.5, -1.0)
        with pytest.raises(DomainError):
            recoverable(LLAMA8B, 1.5, 0.5, 0.0)


class TestRecoveryQuery:
    def test_rejects_infeasible_law(self):
        wrong_signs = CompressionLaw(1.0, 1.2, -0.1, MetricKind.ACCURACY)
        with pytest.raises(DomainError, match="feasible"):
            RecoveryQuery(wrong_signs, sigma=0.8, r=0.2)

    def test_rejects_sigma_outside_interval(self):
        with pytest.raises(DomainError):
            RecoveryQuery(LLAMA8B, sigma=1.2, r=0.2)

    def test_rejects_r_at_one(self):
        with pytest.raises(DomainError):
            RecoveryQuery(LLAMA8B, sigma=0.8, r=1.0)

    def test_r_zero_is_the_no_compression_case(self):
        RecoveryQuery(LLAMA8B, sigma=0.8, r=0.0)


class TestTheoremOracleEquivalence:
    """Closed form vs the direct-check grid scan over random feasible draws."""

    def _check_draw(self, law, sigma, r):
        query = RecoveryQuery(law, sigma=sigma, r=r)
        d_min = min_rft_size(query)
        if d_min != math.inf:
            assert recoverable(law, sigma, r, d_min)
            if d_min > 0:
                delta = min(d_min, 0.01)
                assert not recoverable(law, sigma, r, d_min - delta)
        d_oracle = grid_scan_min_d(law, sigma, r)
        if d_min > 100.0:
            assert d_oracle is None
        else:
            assert d_oracle is not None
            assert -1e-6 <= d_oracle - d_min <= 1e-3 + 1e-6

    def test_accuracy_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            law = CompressionLaw(1.0, rng.uniform(-3, -0.05), rng.uniform(-3, -0.05), MetricKind.ACCURACY)
            self._check_draw(law, rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.95))

    def test_loss_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            law = CompressionLaw(1.0, rng.uniform(0.05, 3), rng.uniform(0.05, 3), MetricKind.LOSS)
            self._check_draw(law, rng.uniform(1.05, 6.0), rng.uniform(0.01, 0.95))


class TestRegimeConsistency:
    def _check(self, metric, rng, samples=50):
        for _ in range(samples):
            if metric is MetricKind.ACCURACY:
                beta, gamma = rng.uniform(-3, -0.05, 2)
                sigma = rng.uniform(0.05, 0.95)
            else:
                beta, gamma = rng.uniform(0.05, 3, 2)
                sigma = rng.uniform(1.05, 6.0)
            law = CompressionLaw(1.0, beta, gamma, metric)
            regime, _ = classify_regime(beta, sigma, metric)
            if regime is Regime.ALWAYS_RECOVERABLE:
                for r in rng.uniform(0.01, 0.99, 5):
                    assert math.isfinite(min_rft_size(RecoveryQuery(law, sigma, r)))
            else:
                r_crit = critical_ratio(beta, sigma, metric)
                assert 0.0 < r_crit <= 1.0
                for r in rng.uniform(0.01, 0.99, 8):
                    d_min = min_rft_size(RecoveryQuery(law, sigma, r))
                    if r < r_crit:
                        assert math.isfinite(d_min)
                    else:
                        assert d_min == math.inf

    def test_accuracy(self):
        self._check(MetricKind.ACCURACY, np.random.default_rng(1))

    def test_loss(self):
        self._check(MetricKind.LOSS, np.random.default_rng(2))


class TestMarginProperties:
    def test_phi_strictly_decreasing_in_r_accuracy(self):
        rs = np.linspace(0.0, 0.99, 200)
        values = [recovery_margin(-1.18, -0.14, 0.8, r) for r in rs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_phi_strictly_decreasing_in_r_loss(self):
        rs = np.linspace(0.0, 0.99, 200)
        values = [recovery_margin(1.72, 1.16, 1.5, r) for r in rs]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("metric, beta, gamma, sigma", [
        (MetricKind.ACCURACY, -1.05, -1.7e-16, 0.5),  # an exact fit of a law whose gamma is 0
        (MetricKind.LOSS, 1.72, 1e-300, 1.5),
    ])
    def test_a_vanishing_gamma_margin_is_infinite_where_no_rft_is_needed(self, metric, beta, gamma, sigma):
        # The margin overflows the float range: the ratio term alone meets sigma, so every d recovers.
        law = CompressionLaw(1.0, beta, gamma, metric)
        assert recovery_margin(beta, gamma, sigma, 0.0) == math.inf
        assert min_rft_size(RecoveryQuery(law, sigma, 0.0)) == 0.0
        assert recoverable(law, sigma, 0.0, 0.0)

    def test_min_rft_nonincreasing_in_threshold_leniency(self):
        # a smaller accuracy threshold never demands more data
        sigmas = np.linspace(0.75, 0.45, 30)
        sizes = [min_rft_size(RecoveryQuery(LLAMA8B, s, 0.15)) for s in sigmas]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestAnalyze:
    def test_conditional_report(self):
        report = analyze(RecoveryQuery(LLAMA8B, sigma=0.8, r=0.19))
        assert report.regime is Regime.CONDITIONALLY_RECOVERABLE
        assert report.r_critical == pytest.approx(0.2081674464, abs=1e-6)
        assert report.boundary == pytest.approx(0.4413514981, abs=1e-6)
        assert report.min_d == pytest.approx(6.3412085023, abs=1e-6)

    def test_always_recoverable_report(self):
        report = analyze(RecoveryQuery(LLAMA8B, sigma=0.3, r=0.9))
        assert report.regime is Regime.ALWAYS_RECOVERABLE
        assert report.r_critical is None
        assert math.isfinite(report.min_d)
