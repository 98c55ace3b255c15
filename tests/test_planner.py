"""Budget planning: required ratios, ranking and speedup prediction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compresslaw.errors import DomainError, InfeasibleBudgetError
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, evaluate, evaluate_runtime
from compresslaw.planner import (
    CandidateModel,
    PlanRequest,
    plan,
    predict_speedup,
    required_ratio,
)

ACC = MetricKind.ACCURACY
EXTRINSIC = CompressionLaw(0.98, -1.03, -0.14, ACC)


class TestRequiredRatio:
    def test_halving(self):
        assert required_ratio(8e9, 4e9) == pytest.approx(0.5)

    def test_no_compression_needed(self):
        assert required_ratio(3e9, 3e9) == 0.0
        assert required_ratio(3e9, 5e9) == 0.0

    def test_cap_infeasible(self):
        # 1 - 1/14 = 0.9286 exceeds the default cap
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            required_ratio(14e9, 1e9)
        assert excinfo.value.ratio == pytest.approx(1 - 1 / 14, abs=1e-9)

    def test_cap_is_inclusive(self):
        with pytest.raises(InfeasibleBudgetError):
            required_ratio(10e9, 1e9, max_ratio=0.9)
        assert required_ratio(10e9, 1e9, max_ratio=0.95) == pytest.approx(0.9)

    @pytest.mark.parametrize("params,budget", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_nonpositive_inputs(self, params, budget):
        with pytest.raises(DomainError):
            required_ratio(params, budget)


class TestPlan:
    def test_lower_ratio_wins_with_identical_laws(self):
        small = CandidateModel("small", 4e9, 0.6, EXTRINSIC)
        large = CandidateModel("large", 8e9, 0.6, EXTRINSIC)
        result = plan([large, small], PlanRequest(budget=2e9, metric=ACC))
        assert [e.model_id for e in result.entries] == ["small", "large"]
        assert result.entries[0].required_ratio == pytest.approx(0.5)
        assert result.entries[1].required_ratio == pytest.approx(0.75)

    def test_modelwise_extrinsic_example(self):
        # qwen-2.5 3B vs 7B extrinsic coefficients, equal l0, 1.5e9 budget
        qwen3 = CandidateModel("qwen-2.5-3b", 3e9, 0.6, CompressionLaw(0.91, -1.19, -0.11, ACC))
        qwen7 = CandidateModel("qwen-2.5-7b", 7e9, 0.6, CompressionLaw(0.64, -1.34, -0.11, ACC))
        result = plan([qwen7, qwen3], PlanRequest(budget=1.5e9, metric=ACC))
        first, second = result.entries
        assert first.model_id == "qwen-2.5-3b"
        assert first.required_ratio == pytest.approx(0.5)
        # scalar oracle: 0.6^0.91 * 1.5^-1.19 * 2^-0.11
        assert first.predicted_performance == pytest.approx(0.3592987779, abs=1e-3)
        assert second.required_ratio == pytest.approx(1 - 1.5 / 7, abs=1e-12)
        # scalar oracle: 0.6^0.64 * (25/14)^-1.34 * 2^-0.11
        assert second.predicted_performance == pytest.approx(0.3072383732, abs=1e-3)

    def test_single_candidate_within_budget(self):
        cand = CandidateModel("m", 2e9, 0.6, EXTRINSIC)
        result = plan([cand], PlanRequest(budget=4e9, metric=ACC, rft_size=100.0))
        (entry,) = result.entries
        assert entry.required_ratio == 0.0
        assert entry.predicted_performance == pytest.approx(evaluate(EXTRINSIC, 0.6, 0.0, 100.0))

    def test_infeasible_candidates_are_skipped_with_reason(self):
        big = CandidateModel("big", 40e9, 0.6, EXTRINSIC)
        ok = CandidateModel("ok", 4e9, 0.6, EXTRINSIC)
        result = plan([big, ok], PlanRequest(budget=2e9, metric=ACC))
        assert [e.model_id for e in result.entries] == ["ok"]
        assert len(result.skipped) == 1
        assert result.skipped[0].model_id == "big"
        assert "cap" in result.skipped[0].reason

    def test_runtime_factor_attached(self):
        cand = CandidateModel("m", 4e9, 0.6, EXTRINSIC, runtime_law=RuntimeLaw(1.0, -0.67))
        result = plan([cand], PlanRequest(budget=2e9, metric=ACC))
        assert result.entries[0].predicted_runtime_factor == pytest.approx(1.5**-0.67)

    def test_empty_candidates(self):
        with pytest.raises(DomainError):
            plan([], PlanRequest(budget=1e9, metric=ACC))

    def test_metric_mismatch(self):
        cand = CandidateModel("m", 4e9, 2.0, CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS))
        with pytest.raises(DomainError, match="loss"):
            plan([cand], PlanRequest(budget=2e9, metric=ACC))

    def test_loss_ranking_is_ascending(self):
        law = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)
        small = CandidateModel("small", 4e9, 2.0, law)
        large = CandidateModel("large", 8e9, 2.0, law)
        result = plan([large, small], PlanRequest(budget=2e9, metric=MetricKind.LOSS))
        # lower ratio means lower predicted loss for a feasible loss law
        assert [e.model_id for e in result.entries] == ["small", "large"]

    def test_extrapolation_note_above_observed_range(self):
        cand = CandidateModel("m", 20e9, 0.6, EXTRINSIC)
        result = plan([cand], PlanRequest(budget=1.5e9, metric=ACC, max_ratio=1.0))
        assert result.entries[0].required_ratio > 0.9
        assert any("extrapolation" in note for note in result.entries[0].notes)

    @pytest.mark.parametrize("metric", [ACC, MetricKind.LOSS])
    def test_equal_predictions_rank_the_smaller_ratio_then_the_model_id_first(self, metric):
        flat = CompressionLaw(0.98, 0.0, 0.0, metric)  # the prediction does not depend on the ratio
        candidates = [CandidateModel(name, params, 0.6, flat) for name, params in
                      [("a", 8e9), ("b", 4e9), ("c", 6e9), ("d", 4e9)]]
        result = plan(candidates, PlanRequest(budget=2e9, metric=metric))
        assert len({e.predicted_performance for e in result.entries}) == 1
        assert [e.model_id for e in result.entries] == ["b", "d", "c", "a"]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        candidates = [
            CandidateModel(f"m{i}", float(p), 0.6, EXTRINSIC, runtime_law=RuntimeLaw(1.0, -0.67))
            for i, p in enumerate(rng.uniform(2e9, 12e9, 8))
        ]
        request = PlanRequest(budget=2e9, metric=ACC)
        baseline = plan(candidates, request)
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        assert plan(shuffled, request) == baseline
        assert plan(iter(shuffled), request) == baseline  # one pass over the candidates

    def test_ranking_respects_monotonicity(self):
        rng = np.random.default_rng(10)
        candidates = [
            CandidateModel(f"m{i}", float(p), 0.6, EXTRINSIC) for i, p in enumerate(rng.uniform(2.1e9, 15e9, 10))
        ]
        result = plan(candidates, PlanRequest(budget=2e9, metric=ACC))
        ratios = [e.required_ratio for e in result.entries]
        assert ratios == sorted(ratios)


def _numbers(low, high):
    """Floats and ints in ``[low, high]``: a value type keeps the number it was given."""
    return st.one_of(st.floats(low, high), st.integers(math.ceil(low), math.floor(high)))


@st.composite
def plan_cases(draw):
    metric = draw(st.sampled_from([ACC, MetricKind.LOSS]))
    sign = -1.0 if metric is ACC else 1.0
    exponent = st.floats(-3.0, 3.0)
    candidates = []
    for i in range(draw(st.integers(1, 8))):
        law = CompressionLaw(draw(exponent), sign * draw(exponent), sign * draw(exponent), metric,
                             epsilon=draw(st.floats(1e-2, 10.0)))
        runtime = draw(st.one_of(st.none(), st.builds(RuntimeLaw, st.floats(1e-3, 1e3), exponent)))
        candidates.append(CandidateModel(f"m{i}", draw(_numbers(1e8, 1e11)), draw(_numbers(1.0, 5.0)), law, runtime))
    request = PlanRequest(budget=draw(_numbers(1e7, 2e11)), metric=metric, rft_size=draw(_numbers(0.0, 1e6)),
                          max_ratio=draw(st.floats(0.05, 1.0)))
    return candidates, request


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=plan_cases())
def test_plan_entries_are_the_public_functions_bit_for_bit(case):
    """``plan`` runs the unchecked cores of the public functions: each entry is what they return, compared
    with ``==``, each skip reason is the message of the error ``required_ratio`` raises, and the entries are
    ranked best first, ties to the smaller ratio, then to the model id."""
    candidates, request = case
    result = plan(candidates, request)
    by_id = {c.model_id: c for c in candidates}
    assert sorted([e.model_id for e in result.entries] + [s.model_id for s in result.skipped]) == sorted(by_id)
    for entry in result.entries:
        candidate = by_id[entry.model_id]
        ratio = required_ratio(candidate.param_count, request.budget, request.max_ratio)
        assert entry.required_ratio == ratio
        assert entry.predicted_performance == evaluate(candidate.law, candidate.l0, ratio, request.rft_size)
        runtime = candidate.runtime_law
        expected = None if runtime is None else evaluate_runtime(RuntimeLaw(1.0, runtime.beta), ratio)
        assert entry.predicted_runtime_factor == expected
    sign = -1.0 if request.metric is ACC else 1.0
    keys = [(sign * e.predicted_performance, e.required_ratio, e.model_id) for e in result.entries]
    assert keys == sorted(keys)
    assert [s.model_id for s in result.skipped] == sorted(s.model_id for s in result.skipped)
    for skip in result.skipped:
        candidate = by_id[skip.model_id]
        with pytest.raises(InfeasibleBudgetError) as caught:
            required_ratio(candidate.param_count, request.budget, request.max_ratio)
        assert skip.reason == str(caught.value)


class TestPredictSpeedup:
    def test_lower_bound_of_reported_range(self):
        assert predict_speedup(RuntimeLaw(1.0, -0.67), 0.5) == pytest.approx(0.238, abs=0.005)

    def test_upper_bound_of_reported_range(self):
        assert predict_speedup(RuntimeLaw(1.0, -0.67), 0.9) == pytest.approx(0.349, abs=0.005)

    def test_zero_at_no_compression(self):
        assert predict_speedup(RuntimeLaw(1.0, -0.67), 0.0) == 0.0

    def test_a_small_ratio_keeps_its_relative_accuracy(self):
        # 1 - (1 + r)**beta is about -beta * r; 1 - exp(...) would keep only ~4 of its digits at r = 1e-12
        assert predict_speedup(RuntimeLaw(1.0, -0.67), 1e-12) == pytest.approx(0.67e-12, rel=1e-11, abs=0.0)

    def test_nonnegative_beta_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="nonnegative"):
            assert predict_speedup(RuntimeLaw(1.0, 0.3), 0.5) == 0.0

    def test_strictly_increasing_in_r(self):
        law = RuntimeLaw(1.0, -0.67)
        values = [predict_speedup(law, r / 100) for r in range(100)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_r_validation(self):
        with pytest.raises(DomainError):
            predict_speedup(RuntimeLaw(1.0, -0.67), 1.0)


class TestValidation:
    def test_candidate_param_count(self):
        with pytest.raises(DomainError):
            CandidateModel("m", 0.0, 0.6, EXTRINSIC)

    def test_candidate_metric_must_be_performance(self):
        with pytest.raises(DomainError):
            CandidateModel("m", 1e9, 0.6, CompressionLaw(1.0, -0.67, 0.0, MetricKind.RUNTIME))

    def test_request_budget_positive(self):
        with pytest.raises(DomainError):
            PlanRequest(budget=0.0, metric=ACC)

    def test_request_max_ratio_interval(self):
        with pytest.raises(DomainError):
            PlanRequest(budget=1e9, metric=ACC, max_ratio=1.5)
        with pytest.raises(DomainError, match=r"max_ratio must lie in \(0, 1\], got 0.0"):
            PlanRequest(budget=1e9, metric=ACC, max_ratio=0)

    def test_request_max_ratio_is_stored_as_a_float(self):
        assert PlanRequest(1e9, MetricKind.LOSS, 0.0, "0.5").max_ratio == 0.5
        cap = PlanRequest(1e9, ACC, max_ratio=1).max_ratio
        assert type(cap) is float and cap == 1.0

    def test_runtime_law_must_be_a_runtime_law(self):
        """A compression law's beta is no runtime exponent: the candidate refuses it rather than plan with it."""
        with pytest.raises(DomainError, match="runtime_law must be a RuntimeLaw or None, got CompressionLaw"):
            CandidateModel("m", 4e9, 0.6, EXTRINSIC, runtime_law=CompressionLaw(1.0, -0.67, 0.0, ACC))
