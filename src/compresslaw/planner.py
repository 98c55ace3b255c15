"""Budget-constrained compression planning.

Given candidate base models and a target post-compression parameter count,
each candidate needs ratio ``r = 1 - budget/param_count`` (linear in
parameters; the simplest proportional budget-matching rule).  Candidates
are ranked by predicted performance under their compression laws, with the
smaller required ratio breaking ties (less extrapolation risk).

The default ratio cap of 0.9 mirrors the largest ratio the underlying
experiments explored; anything above 0.9 that a raised cap lets through is
flagged as an extrapolation.

:class:`CandidateModel` and :class:`PlanRequest` check their fields once,
when they are built, so :func:`plan` checks only their types and each
candidate's metric, in the one loop over the candidates, and runs the
unchecked cores of :func:`required_ratio`,
:func:`~compresslaw.laws.evaluate` and
:func:`~compresslaw.laws.evaluate_runtime`.  Each entry therefore equals
what those public functions return for its candidate, bit for bit, and each
skip reason is the message of the error :func:`required_ratio` raises.
"""

from __future__ import annotations

import math
import warnings
from operator import attrgetter

from .errors import DomainError, InfeasibleBudgetError
from .laws import (
    OBSERVED_RATIO_MAX, CompressionLaw, MetricKind, RuntimeLaw, _evaluate, _evaluate_runtime, _quote, _require_instance,
    _require_law, _require_metric, _require_runtime_law, _require_text, _require_that, _value_type, require_nonnegative,
    require_positive, require_ratio
)

__all__ = [
    "CandidateModel",
    "PlanRequest",
    "PlanEntry",
    "SkippedCandidate",
    "PlanResult",
    "required_ratio",
    "plan",
    "predict_speedup",
]


@_value_type(model_id=_require_text, param_count=require_positive, l0=require_positive, law=_require_law,
             runtime_law=_require_instance((RuntimeLaw, type(None)), "a RuntimeLaw or None"))
class CandidateModel:
    """A base model that could be compressed down to the budget."""

    model_id: str
    param_count: float
    l0: float
    law: CompressionLaw
    runtime_law: RuntimeLaw | None = None

    def __post_init__(self) -> None:
        if self.law.metric not in (MetricKind.LOSS, MetricKind.ACCURACY):
            raise DomainError("candidate laws must target loss or accuracy")


_require_candidate = _require_instance(CandidateModel, "a CandidateModel")
_require_cap = _require_that(lambda value: 0.0 < value <= 1.0, "lie in (0, 1], got {}")


@_value_type(budget=require_positive, metric=_require_metric, rft_size=require_nonnegative, max_ratio=_require_cap)
class PlanRequest:
    """Target budget (post-compression parameter count) and planning knobs."""

    budget: float
    metric: MetricKind
    rft_size: float = 0.0
    max_ratio: float = OBSERVED_RATIO_MAX


_require_request = _require_instance(PlanRequest, "a PlanRequest")


@_value_type
class PlanEntry:
    model_id: str
    required_ratio: float
    predicted_performance: float
    predicted_runtime_factor: float | None = None
    notes: tuple[str, ...] = ()


@_value_type
class SkippedCandidate:
    model_id: str
    reason: str


@_value_type
class PlanResult:
    """Feasible candidates ranked best-first, plus skipped ones with reasons."""

    entries: tuple[PlanEntry, ...]
    skipped: tuple[SkippedCandidate, ...]


def required_ratio(param_count: float, budget: float, max_ratio: float = OBSERVED_RATIO_MAX) -> float:
    """Compression ratio needed to fit ``param_count`` into ``budget`` parameters.

    Returns 0.0 when the model already fits (no compression needed).

    Raises:
        InfeasibleBudgetError: When the required ratio reaches ``max_ratio``.
        DomainError: On a nonpositive count or budget, or a cap outside ``(0, 1]``.
    """
    return _required_ratio(require_positive("param_count", param_count), require_positive("budget", budget),
                           _require_cap("max_ratio", max_ratio))


def _required_ratio(param_count: float, budget: float, max_ratio: float) -> float:
    """:func:`required_ratio` of a positive ``param_count`` and ``budget``, unchecked."""
    if budget >= param_count:
        return 0.0
    ratio = 1.0 - budget / param_count
    if ratio >= max_ratio:
        raise InfeasibleBudgetError(
            f"requires ratio {ratio:.4f} >= cap {max_ratio:.4f} "
            f"({param_count:.3g} -> {budget:.3g} parameters)",
            ratio=ratio,
        )
    return ratio


def plan(candidates: list[CandidateModel], request: PlanRequest) -> PlanResult:
    """Rank candidates by predicted post-compression performance at the budget.

    Args:
        candidates: Models to consider; their laws must all share
            ``request.metric``.
        request: Budget, assumed RFT size and ratio cap.

    Returns:
        A :class:`PlanResult` with entries sorted best-first (descending
        predicted accuracy, ascending predicted loss; ties broken by the
        smaller required ratio) and over-budget candidates listed as
        skipped.

    Raises:
        DomainError: A request or a candidate of the wrong type, no candidates, or the first candidate whose law
            targets another metric.
    """
    # The candidates and the request checked their fields when they were built: the cores take them as they are.
    budget, max_ratio, rft_size = _require_request("request", request).budget, request.max_ratio, request.rft_size
    entries, skipped = [], []
    try:
        candidates = iter(candidates)
    except TypeError:
        raise DomainError(f"candidates must be a sequence of CandidateModels, got {_quote.repr(candidates)}") from None
    for candidate in candidates:
        if _require_candidate("candidate", candidate).law.metric is not request.metric:
            raise DomainError(f"candidate '{candidate.model_id}' targets {candidate.law.metric.value}, "
                              f"request asks for {request.metric.value}")
        try:
            ratio = _required_ratio(candidate.param_count, budget, max_ratio)
        except InfeasibleBudgetError as exc:
            skipped.append(SkippedCandidate(candidate.model_id, str(exc)))
            continue
        predicted = _evaluate(candidate.law, candidate.l0, ratio, rft_size)
        runtime_law = candidate.runtime_law
        # The runtime factor is the runtime law's prediction normalized to the uncompressed model: c = 1.
        runtime_factor = None if runtime_law is None else _evaluate_runtime(1.0, runtime_law.beta, ratio)
        notes: tuple[str, ...] = ()
        if ratio > OBSERVED_RATIO_MAX:
            notes = (f"ratio {ratio:.4f} exceeds the observed range (<= {OBSERVED_RATIO_MAX}); extrapolation",)
        entries.append(PlanEntry(candidate.model_id, ratio, predicted, runtime_factor, notes))
    if not entries and not skipped:
        raise DomainError("need at least one candidate model")

    # Best first, ties to the smaller ratio, then to the model id: a sort is stable, reversed or not.
    entries.sort(key=attrgetter("required_ratio", "model_id"))
    entries.sort(key=attrgetter("predicted_performance"), reverse=request.metric is MetricKind.ACCURACY)
    skipped.sort(key=attrgetter("model_id"))
    return PlanResult(entries=tuple(entries), skipped=tuple(skipped))


def predict_speedup(runtime_law: RuntimeLaw, r: float) -> float:
    """Fractional inference-time improvement ``1 - (1 + r)**beta`` at ratio ``r``.

    Assumes ``beta < 0`` (compression speeds inference up); for ``beta >= 0``
    a warning is emitted and 0.0 returned.
    """
    _require_runtime_law("runtime_law", runtime_law)
    r = require_ratio("r", r)
    if runtime_law.beta >= 0.0:
        warnings.warn(
            f"runtime exponent beta = {runtime_law.beta:.6g} is nonnegative; no speedup predicted",
            UserWarning,
            stacklevel=2,
        )
        return 0.0
    return -math.expm1(runtime_law.beta * math.log1p(r))
