"""Evaluation, validation and feasibility checks for the law value types."""

import math

import pytest
from hypothesis import given, strategies as st

from compresslaw.errors import DomainError
from compresslaw.laws import (
    _checked_exp,
    _checked_exps,
    CompressionLaw,
    MetricKind,
    RuntimeLaw,
    check_feasibility,
    evaluate,
    evaluate_runtime,
    log_feature_columns,
    _log_features,
)
from compresslaw.regression import ExperimentRecord, build_design

# aggregate fixture coefficients (intrinsic/extrinsic full-form fits)
INTRINSIC = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)
EXTRINSIC = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)


def scalar_law(alpha, beta, gamma, epsilon, l0, r, d):
    """Independent oracle: direct product of powers, no exp/log rewrite."""
    return l0**alpha * (1 + r) ** beta * (1 + 1 / (d + epsilon)) ** gamma


class TestEvaluate:
    def test_intrinsic_fixture_point(self):
        # high-precision scalar oracle: 2^0.63 * 1.5^1.72 * 2^1.16
        assert evaluate(INTRINSIC, 2.0, 0.5, 0.0) == pytest.approx(6.9457741533, abs=1e-3)

    def test_identity_exponents(self):
        law = CompressionLaw(1.0, 0.0, 0.0, MetricKind.LOSS)
        assert evaluate(law, 3.7, 0.4, 1000.0) == pytest.approx(3.7, rel=1e-12)

    def test_collapses_to_l0_alpha_at_r0_large_d(self):
        # r = 0 and huge d collapse two factors to 1; oracle value is 0.6^0.98
        assert evaluate(EXTRINSIC, 0.6, 0.0, 1e12) == pytest.approx(0.6061613275, abs=1e-3)

    @pytest.mark.parametrize(
        "l0,r,d",
        [
            (0.0, 0.5, 0.0),
            (-2.0, 0.5, 0.0),
            (2.0, 1.0, 0.0),
            (2.0, 1.5, 0.0),
            (2.0, -0.1, 0.0),
            (2.0, 0.5, -1.0),
            (math.nan, 0.5, 0.0),
            (2.0, math.inf, 0.0),
            (2.0, 0.5, math.nan),
        ],
    )
    def test_domain_errors(self, l0, r, d):
        with pytest.raises(DomainError):
            evaluate(INTRINSIC, l0, r, d)

    def test_overflow_is_an_error(self):
        law = CompressionLaw(500.0, 0.0, 0.0, MetricKind.LOSS)
        with pytest.raises(DomainError):
            evaluate(law, 1e300, 0.0, 0.0)

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("bad", [710.0, 1e308, -746.0, -1e308, math.nan])
    def test_bulk_exp_raises_the_first_offenders_error(self, bad, position):
        """One offender among in-range logs, nan (which ``max`` skips) included, raises ``_checked_exp``'s error;
        with two, the first one's."""
        logs = [0.5, -700.0, 709.0, 1.0, -745.0, 2.0, 3.0]
        assert _checked_exps(logs) == tuple(map(math.exp, logs))
        with pytest.raises(DomainError) as expected:
            _checked_exp(bad)
        logs[position] = bad
        with pytest.raises(DomainError) as caught:
            _checked_exps(logs)
        assert str(caught.value) == str(expected.value)
        with pytest.raises(DomainError) as caught:
            _checked_exps(logs[:position] + [bad, -800.0] + logs[position:])
        assert str(caught.value) == str(expected.value)


class TestAblations:
    """The single-factor ablations are ``evaluate`` with the other exponent pinned to zero."""

    def test_ratio_only_fixture(self):
        # 2^0.74 * 1.3^2.02 per the scalar oracle
        law = CompressionLaw(0.74, 2.02, 0.0, MetricKind.LOSS)
        assert evaluate(law, 2.0, 0.3, 0.0) == pytest.approx(2.8374470670, abs=1e-3)

    def test_ratio_only_identity(self):
        law = CompressionLaw(1.0, 0.0, 0.0, MetricKind.LOSS)
        assert evaluate(law, 5.0, 0.9, 0.0) == pytest.approx(5.0, rel=1e-12)

    def test_ratio_only_extrinsic(self):
        # 0.55^1.01 * 1.5^-1.05 per the scalar oracle
        law = CompressionLaw(1.01, -1.05, 0.0, MetricKind.ACCURACY)
        assert evaluate(law, 0.55, 0.5, 0.0) == pytest.approx(0.3571663161, abs=1e-3)

    def test_data_only_fixture(self):
        # 2^1.30 * 2^1.46 = 2^2.76
        law = CompressionLaw(1.30, 0.0, 1.46, MetricKind.LOSS, 1.0)
        assert evaluate(law, 2.0, 0.0, 0.0) == pytest.approx(6.7739624989, abs=1e-3)

    def test_data_only_identity(self):
        law = CompressionLaw(1.0, 0.0, 0.0, MetricKind.LOSS, 1.0)
        assert evaluate(law, 7.0, 0.0, 42.0) == pytest.approx(7.0, rel=1e-12)

    def test_data_only_extrinsic(self):
        # 0.6^1.73 * 1.25^-0.22 per the scalar oracle
        law = CompressionLaw(1.73, 0.0, -0.22, MetricKind.ACCURACY, 1.0)
        assert evaluate(law, 0.6, 0.0, 3.0) == pytest.approx(0.3934426715, abs=1e-3)

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            CompressionLaw(1.0, 0.0, 1.0, MetricKind.LOSS, epsilon=0.0)


class TestRuntime:
    LAW = RuntimeLaw(c=100.0, beta=-0.67)

    def test_half_compression(self):
        assert evaluate_runtime(self.LAW, 0.5) == pytest.approx(76.2112099102, abs=0.05)

    def test_no_compression_recovers_base(self):
        assert evaluate_runtime(self.LAW, 0.0) == pytest.approx(100.0, rel=1e-12)

    def test_high_compression(self):
        # ~35% improvement at r = 0.9
        assert evaluate_runtime(self.LAW, 0.9) == pytest.approx(65.0481706437, abs=0.05)

    @pytest.mark.parametrize("r", [-0.1, 1.0, 1.7, math.nan])
    def test_r_out_of_range(self, r):
        with pytest.raises(DomainError):
            evaluate_runtime(self.LAW, r)


class TestFeasibility:
    def test_feasible_accuracy(self):
        assert check_feasibility(CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)) == []

    def test_feasible_loss(self):
        assert check_feasibility(CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)) == []

    def test_accuracy_beta_violation(self):
        violations = check_feasibility(CompressionLaw(1.0, 0.5, -0.1, MetricKind.ACCURACY))
        assert [v.exponent for v in violations] == ["beta"]

    def test_loss_flags_both_nonpositive(self):
        violations = check_feasibility(CompressionLaw(1.0, -0.5, 0.0, MetricKind.LOSS))
        assert [v.exponent for v in violations] == ["beta", "gamma"]

    def test_runtime_metric_has_no_conditions(self):
        assert check_feasibility(CompressionLaw(1.0, 5.0, -5.0, MetricKind.RUNTIME)) == []


class TestInvariants:
    @given(k=st.floats(0.01, 100), l0=st.floats(0.05, 100), r=st.floats(0, 0.99), d=st.floats(0, 1e6))
    def test_homogeneity_in_l0(self, k, l0, r, d):
        lhs = evaluate(INTRINSIC, k * l0, r, d)
        rhs = k**INTRINSIC.alpha * evaluate(INTRINSIC, l0, r, d)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("law,l0", [(INTRINSIC, 2.0), (EXTRINSIC, 0.6)])
    def test_boundary_convergence(self, law, l0):
        assert evaluate(law, l0, 0.0, 1e12) == pytest.approx(l0**law.alpha, rel=1e-6)

    def test_monotonicity_feasible_accuracy(self):
        rs = [i / 51 for i in range(51)]
        ds = [10.0 * i for i in range(51)]
        along_r = [evaluate(EXTRINSIC, 0.6, r, 100.0) for r in rs]
        along_d = [evaluate(EXTRINSIC, 0.6, 0.5, d) for d in ds]
        assert all(a > b for a, b in zip(along_r, along_r[1:]))
        assert all(a < b for a, b in zip(along_d, along_d[1:]))

    def test_monotonicity_feasible_loss(self):
        rs = [i / 51 for i in range(51)]
        ds = [10.0 * i for i in range(51)]
        along_r = [evaluate(INTRINSIC, 2.0, r, 100.0) for r in rs]
        along_d = [evaluate(INTRINSIC, 2.0, 0.5, d) for d in ds]
        assert all(a < b for a, b in zip(along_r, along_r[1:]))
        assert all(a > b for a, b in zip(along_d, along_d[1:]))

    @given(
        l0=st.floats(1e-3, 1e3),
        r=st.floats(0, 1, exclude_max=True),
        d=st.floats(0, 1e9),
        epsilon=st.floats(1e-6, 1e3),
        alpha=st.floats(-3, 3),
        beta=st.floats(-3, 3),
        gamma=st.floats(-3, 3),
    )
    def test_prediction_uses_the_design_row_exactly(self, l0, r, d, epsilon, alpha, beta, gamma):
        # prediction and regression share one transform, so the match is exact
        record = ExperimentRecord("m", MetricKind.LOSS, l0, r, d, 1.0)
        x, _ = build_design([record] * 4, epsilon=epsilon)
        x0, x1, x2 = x[0].tolist()
        law = CompressionLaw(alpha, beta, gamma, MetricKind.LOSS, epsilon)
        assert evaluate(law, l0, r, d) == math.exp(alpha * x0 + beta * x1 + gamma * x2)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
                st.one_of(st.just(-0.0), st.floats(0, 1, exclude_max=True)),
                st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308]), st.floats(0, 1e308)),
            ),
            max_size=20,
        ),
        epsilon=st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
    )
    def test_batch_kernel_is_the_scalar_kernel_bit_for_bit(self, rows, epsilon):
        l0s, rs, ds = ([row[i] for row in rows] for i in range(3))
        columns = log_feature_columns(l0s, rs, ds, epsilon)
        # float.hex tells -0.0 from 0.0, which == does not
        assert [tuple(map(float.hex, row)) for row in zip(*columns)] == [
            tuple(map(float.hex, _log_features(l0, r, d, epsilon))) for l0, r, d in rows
        ]

    @given(l0=st.floats(0.05, 100), r=st.floats(0, 0.99), d=st.floats(0, 1e9))
    def test_matches_scalar_oracle(self, l0, r, d):
        expected = scalar_law(INTRINSIC.alpha, INTRINSIC.beta, INTRINSIC.gamma, 1.0, l0, r, d)
        assert evaluate(INTRINSIC, l0, r, d) == pytest.approx(expected, rel=1e-12)


class TestConstruction:
    def test_epsilon_must_be_positive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                CompressionLaw(1.0, 1.0, 1.0, MetricKind.LOSS, epsilon=bad)

    def test_exponents_must_be_finite(self):
        with pytest.raises(DomainError):
            CompressionLaw(math.inf, 1.0, 1.0, MetricKind.LOSS)

    def test_metric_must_be_enum(self):
        with pytest.raises(DomainError):
            CompressionLaw(1.0, 1.0, 1.0, "loss")

    def test_runtime_c_positive(self):
        with pytest.raises(DomainError):
            RuntimeLaw(c=0.0, beta=-1.0)
        with pytest.raises(DomainError):
            RuntimeLaw(c=-5.0, beta=-1.0)
