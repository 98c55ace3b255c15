"""Synthetic record generation: determinism, grid validation, refit round trips."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from compresslaw.errors import DomainError, SingularDesignError
from compresslaw.laws import CompressionLaw, MetricKind, evaluate, log_feature_columns
from compresslaw.regression import CONDITION_NUMBER_LIMIT, fit_law
from compresslaw.synth import SyntheticConfig, _grid_condition, generate

INTRINSIC = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)

GRID = dict(
    l0_values=(1.2, 2.0, 3.3, 5.0),
    r_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    d_values=(0.0, 1.0, 10.0, 100.0, 2500.0),
)


class TestGenerate:
    def test_identity_law_reproduces_l0(self):
        config = SyntheticConfig(truth=CompressionLaw(1.0, 0.0, 0.0, MetricKind.LOSS), **GRID)
        for record in generate(config):
            assert record.l == pytest.approx(record.l0, rel=1e-12)

    def test_noiseless_point_matches_scalar_oracle(self):
        config = SyntheticConfig(truth=INTRINSIC, l0_values=(2.0,), r_values=(0.5, 0.1), d_values=(0.0, 10.0))
        records = {(rec.l0, rec.r, rec.d): rec.l for rec in generate(config)}
        # 2^0.63 * 1.5^1.72 * 2^1.16 per the high-precision oracle
        assert records[(2.0, 0.5, 0.0)] == pytest.approx(6.9457741533, abs=1e-3)

    def test_grid_order_is_lexicographic(self):
        config = SyntheticConfig(truth=INTRINSIC, l0_values=(1.0, 2.0), r_values=(0.1, 0.2), d_values=(0.0, 5.0))
        keys = [(rec.l0, rec.r, rec.d) for rec in generate(config)]
        assert keys == sorted(keys)

    def test_record_count_and_metadata(self):
        config = SyntheticConfig(truth=INTRINSIC, model_id="toy", **GRID)
        records = generate(config)
        assert len(records) == 4 * 5 * 5
        assert all(rec.model_id == "toy" and rec.metric is MetricKind.LOSS for rec in records)

    def test_determinism_bit_identical(self):
        config = SyntheticConfig(truth=INTRINSIC, noise_std=0.05, seed=123, **GRID)
        first = generate(config)
        second = generate(config)
        assert first == second

    def test_seed_changes_noise(self):
        a = generate(SyntheticConfig(truth=INTRINSIC, noise_std=0.05, seed=1, **GRID))
        b = generate(SyntheticConfig(truth=INTRINSIC, noise_std=0.05, seed=2, **GRID))
        assert any(x.l != y.l for x, y in zip(a, b))


def _assert_noise_free_equals_evaluate(config):
    records = generate(config)
    for l0, r, d, l in zip(*map(records.column, (2, 3, 4, 5))):
        assert l == evaluate(config.truth, l0, r, d)


class TestEqualsEvaluate:
    def test_20x50x100_grid(self):
        axes = dict(
            l0_values=np.linspace(1.2, 4.0, 20).tolist(),
            r_values=np.linspace(0.0, 0.9, 50).tolist(),
            d_values=[0.0] + np.geomspace(1.0, 1e5, 99).tolist(),
        )
        _assert_noise_free_equals_evaluate(SyntheticConfig(truth=INTRINSIC, **axes))

    @settings(max_examples=60, deadline=2000, derandomize=True, database=None)
    @given(
        truth=st.builds(
            CompressionLaw,
            alpha=st.floats(-3.0, 3.0),
            beta=st.floats(-3.0, 3.0),
            gamma=st.floats(-3.0, 3.0),
            metric=st.sampled_from([MetricKind.LOSS, MetricKind.ACCURACY]),
            epsilon=st.floats(0.01, 10.0),
        ),
        l0_values=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=4, unique=True),
        r_values=st.lists(st.floats(0.0, 0.999), min_size=2, max_size=4, unique=True),
        d_values=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=4, unique=True),
    )
    def test_small_grids(self, truth, l0_values, r_values, d_values):
        config = SyntheticConfig(truth=truth, l0_values=l0_values, r_values=r_values, d_values=d_values)
        try:
            _assert_noise_free_equals_evaluate(config)
        except SingularDesignError:
            assume(False)


class TestRankCheck:
    """``generate``'s rank check reads the axes alone; it agrees with ``np.linalg.cond`` of the meshed design."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        l0_values=st.lists(st.one_of(st.just(1.0), st.floats(0.01, 100.0)), min_size=1, max_size=4),
        r_values=st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 0.999)), min_size=1, max_size=4),
        d_values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4),
        epsilon=st.floats(0.01, 10.0),
    )
    def test_axes_condition_equals_the_meshed_designs(self, l0_values, r_values, d_values, epsilon):
        features = log_feature_columns(l0_values, r_values, d_values, epsilon)
        design = np.column_stack([mesh.ravel() for mesh in np.meshgrid(*features, indexing="ij")])
        meshed, axes = np.linalg.cond(design), _grid_condition(features)
        # The SVD of the meshed design finds its smallest singular value to eps times its largest, so its cond is
        # good to eps * cond relative (l0 = [1, 2] with r = [-0.0, 1e-12] is off by 9e-6 at cond 1.6e12).
        rel = max(1e-12, 64 * np.finfo(float).eps * meshed)
        # With fewer than 3 rows the meshed cond measures only the rows' span; such a grid is singular.
        full_rank = len(design) >= 3 and meshed < 1e12
        if full_rank:
            assert axes == pytest.approx(meshed, rel=rel)
        if not math.isclose(meshed, CONDITION_NUMBER_LIMIT, rel_tol=rel):
            assert (axes <= CONDITION_NUMBER_LIMIT) == (full_rank and meshed <= CONDITION_NUMBER_LIMIT)

    def test_a_grid_of_two_points_is_singular(self):
        config = SyntheticConfig(truth=INTRINSIC, l0_values=(2.0,), r_values=(0.1,), d_values=(0.0, 5.0))
        with pytest.raises(SingularDesignError):
            generate(config)

    def test_an_infinite_rft_feature_gets_evaluates_error_without_lapack_output(self, capfd):
        """At d = 0 a subnormal epsilon makes the RFT feature inf: the first point is out of range, and the rank
        check, which comes after the values, never sees the feature."""
        truth = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS, 1e-320)
        config = SyntheticConfig(truth=truth, l0_values=(2.0, 3.0), r_values=(0.1, 0.5), d_values=(0.0, 5.0))
        with pytest.raises(DomainError) as expected:
            evaluate(truth, 2.0, 0.1, 0.0)
        with pytest.raises(DomainError) as raised:
            generate(config)
        assert type(raised.value) is DomainError and str(raised.value) == str(expected.value)
        assert capfd.readouterr() == ("", "")


class TestRoundTrip:
    def test_noiseless_refit_recovers_truth(self):
        config = SyntheticConfig(truth=INTRINSIC, **GRID)
        law = fit_law(generate(config))
        assert law.alpha == pytest.approx(INTRINSIC.alpha, abs=1e-8)
        assert law.beta == pytest.approx(INTRINSIC.beta, abs=1e-8)
        assert law.gamma == pytest.approx(INTRINSIC.gamma, abs=1e-8)

    def test_noisy_refit_lands_near_truth(self):
        for seed in (0, 1, 2):
            config = SyntheticConfig(truth=INTRINSIC, noise_std=0.05, seed=seed, **GRID)
            law = fit_law(generate(config))
            assert law.alpha == pytest.approx(INTRINSIC.alpha, abs=0.05)
            assert law.beta == pytest.approx(INTRINSIC.beta, abs=0.05)
            assert law.gamma == pytest.approx(INTRINSIC.gamma, abs=0.05)


class TestValidation:
    def test_needs_three_distinct_grid_values(self):
        with pytest.raises(DomainError, match="distinct"):
            SyntheticConfig(truth=INTRINSIC, l0_values=(1.0, 2.0), r_values=(0.1,), d_values=(5.0,))

    def test_rank_deficient_grid_rejected(self):
        # l0 = 1 zeroes the first column and a constant d axis freezes the third
        config = SyntheticConfig(truth=INTRINSIC, l0_values=(1.0,), r_values=(0.1, 0.5), d_values=(5.0,))
        with pytest.raises(SingularDesignError):
            generate(config)

    def test_empty_axis(self):
        with pytest.raises(DomainError):
            SyntheticConfig(truth=INTRINSIC, l0_values=(), r_values=(0.1,), d_values=(0.0, 1.0))

    def test_bad_grid_values(self):
        with pytest.raises(DomainError):
            SyntheticConfig(truth=INTRINSIC, l0_values=(0.0,), r_values=(0.1, 0.2), d_values=(0.0, 1.0))
        with pytest.raises(DomainError):
            SyntheticConfig(truth=INTRINSIC, l0_values=(2.0,), r_values=(0.1, 1.0), d_values=(0.0, 1.0))
        with pytest.raises(DomainError):
            SyntheticConfig(truth=INTRINSIC, l0_values=(2.0,), r_values=(0.1, 0.2), d_values=(-1.0, 1.0))

    def test_negative_noise(self):
        with pytest.raises(DomainError):
            SyntheticConfig(truth=INTRINSIC, noise_std=-0.1, **GRID)
