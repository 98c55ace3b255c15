"""Recovery feasibility: critical compression ratios and minimum RFT sizes.

For a feasible accuracy law (``beta, gamma < 0``) and a recovery threshold
``sigma`` in (0, 1), the compressed model satisfies
``l / l0**alpha >= sigma`` if and only if

    1/(d + epsilon) <= phi(r),    phi(r) = (sigma * (1+r)**(-beta))**(1/gamma) - 1

which yields the closed-form minimum RFT size ``max(0, 1/phi(r) - epsilon)``
when ``phi(r) > 0`` and "no finite size works" when ``phi(r) <= 0``.

Two regimes follow, split at the boundary ``2**beta``:

* ``sigma < 2**beta``: every ratio in (0, 1) is recoverable with enough RFT.
* ``sigma >= 2**beta``: ratios at or above the critical ratio
  ``sigma**(1/beta) - 1`` are unrecoverable no matter how much RFT is spent;
  below it a large enough dataset always exists.

The loss-side analysis mirrors this with ``beta, gamma > 0``, thresholds
``sigma`` in (1, inf), the inequality direction flipped
(``l / l0**alpha <= sigma``), and the always-recoverable band at
``sigma > 2**beta``.  ``phi`` has the same algebraic form in both variants
and is strictly decreasing in ``r`` under feasible signs.

Note the threshold is relative to ``l0**alpha``, not ``l0``; that differs
from the colloquial "fraction of base performance" whenever ``alpha != 1``.
"""

from __future__ import annotations

import enum
import math
import sys

from .errors import DomainError, RegimeError
from .laws import (
    _FEASIBLE_SIGN, CompressionLaw, MetricKind, _log_features, _require_instance, _require_law, _require_metric,
    _require_that, _value_type, check_feasibility, require_finite, require_nonnegative, require_positive, require_ratio
)

__all__ = [
    "Regime",
    "RecoveryQuery",
    "RecoveryAnalysis",
    "classify_regime",
    "critical_ratio",
    "recovery_margin",
    "recoverable",
    "min_rft_size",
    "analyze",
]


class Regime(enum.Enum):
    ALWAYS_RECOVERABLE = "always-recoverable"
    CONDITIONALLY_RECOVERABLE = "conditionally-recoverable"


def _validate_sigma(sigma: float, metric: MetricKind) -> float:
    """``sigma``, a finite float, if it is a threshold of ``metric``, else :class:`DomainError`."""
    if metric is MetricKind.ACCURACY:
        if not 0.0 < sigma < 1.0:
            raise DomainError(f"accuracy thresholds live in (0, 1), got {sigma}")
    elif metric is MetricKind.LOSS:
        if not sigma > 1.0:
            raise DomainError(f"loss thresholds live in (1, inf), got {sigma}")
    else:
        raise DomainError(f"recovery analysis is defined for loss and accuracy laws, not {metric.value}")
    return sigma


def _checked_regime(beta: float, sigma: float, metric: MetricKind) -> tuple[Regime, float, float | None]:
    """:func:`_regime` once ``metric`` is checked, then ``beta`` and ``sigma`` valid for it, or :class:`DomainError`."""
    metric, beta = _require_metric("metric", metric), require_finite("beta", beta)
    sign = _FEASIBLE_SIGN.get(metric)  # None for runtime, which _validate_sigma rejects
    if sign is not None and sign * beta <= 0.0:
        raise DomainError(f"{metric.value} analysis needs beta {'>' if sign > 0 else '<'} 0, got {beta}")
    return _regime(beta, _validate_sigma(require_finite("sigma", sigma), metric), metric)


@_value_type(law=_require_law, sigma=require_finite, r=require_ratio)
class RecoveryQuery:
    """A recovery question: can this law reach threshold ``sigma`` at ratio ``r``?

    The law must pass :func:`compresslaw.laws.check_feasibility`; the regime
    machinery is meaningless for infeasible sign patterns.
    """

    law: CompressionLaw
    sigma: float
    r: float

    def __post_init__(self) -> None:
        violations = check_feasibility(self.law)
        if violations:
            raise DomainError(
                "recovery analysis needs a feasible law; " + "; ".join(str(v) for v in violations)
            )
        _validate_sigma(self.sigma, self.law.metric)


_require_query = _require_instance(RecoveryQuery, "a RecoveryQuery")
_require_nonzero = _require_that(lambda value: value != 0.0 and math.isfinite(value), "be finite and nonzero, got {}")


@_value_type
class RecoveryAnalysis:
    """Answer to a :class:`RecoveryQuery`.

    ``min_d`` is ``math.inf`` when no finite RFT size reaches the threshold.
    ``r_critical`` is ``None`` in the always-recoverable regime.
    """

    regime: Regime
    boundary: float
    r_critical: float | None
    min_d: float


def classify_regime(beta: float, sigma: float, metric: MetricKind) -> tuple[Regime, float]:
    """Classify a threshold against the regime boundary ``2**beta``.

    Accuracy: always recoverable iff ``sigma < 2**beta``.  Loss: always
    recoverable iff ``sigma > 2**beta``.  The boundary value itself is
    conditionally recoverable (its critical ratio is exactly 1, so every
    ``r`` in (0, 1) still admits recovery).

    Returns:
        The regime and the boundary ``2**beta``.
    """
    return _checked_regime(beta, sigma, metric)[:2]


def _regime(beta: float, sigma: float, metric: MetricKind) -> tuple[Regime, float, float | None]:
    """The regime, the boundary ``2**beta`` and the critical ratio, ``None`` in the always-recoverable regime, of
    a float ``beta`` and ``sigma`` already valid for ``metric``: unchecked but for a boundary too large for a
    float.  An accuracy law's ``2**beta`` underflows to 0 without an error."""
    try:
        boundary = 2.0**beta
    except OverflowError:
        raise DomainError(f"regime boundary 2**beta overflowed the finite positive range (beta = {beta:.6g})") from None
    if metric is MetricKind.ACCURACY:
        always = sigma < boundary
    else:
        always = sigma > boundary
    if always:
        return Regime.ALWAYS_RECOVERABLE, boundary, None
    return Regime.CONDITIONALLY_RECOVERABLE, boundary, math.expm1(math.log(sigma) / beta)


def critical_ratio(beta: float, sigma: float, metric: MetricKind) -> float:
    """Critical compression ratio ``sigma**(1/beta) - 1``.

    Only defined in the conditionally recoverable regime (accuracy:
    ``sigma in [2**beta, 1)``; loss: ``sigma in (1, 2**beta]``); compression
    at or beyond the returned ratio cannot reach the threshold with any
    amount of RFT.

    Raises:
        RegimeError: When ``sigma`` falls in the always-recoverable band;
            call :func:`classify_regime` first.
    """
    _, boundary, r_critical = _checked_regime(beta, sigma, metric)
    if r_critical is None:
        raise RegimeError(
            f"sigma = {sigma} is in the always-recoverable band (boundary 2**beta = {boundary:.6g}); "
            "no critical ratio exists"
        )
    return r_critical


def recovery_margin(beta: float, gamma: float, sigma: float, r: float) -> float:
    """The bound function ``phi(r) = (sigma * (1+r)**(-beta))**(1/gamma) - 1``.

    Recovery at ratio ``r`` requires ``1/(d + epsilon) <= phi(r)``; a
    nonpositive margin means no dataset size works.

    Raises:
        DomainError: Unless ``beta`` is finite, ``gamma`` finite and nonzero,
            ``sigma > 0`` and ``r`` in ``[0, 1)``.
    """
    return _recovery_margin(require_finite("beta", beta), _require_nonzero("gamma", gamma),
                            require_positive("sigma", sigma), require_ratio("r", r))


def _recovery_margin(beta: float, gamma: float, sigma: float, r: float) -> float:
    """:func:`recovery_margin` of floats already in its domain, unchecked."""
    try:
        return math.expm1((math.log(sigma) - beta * math.log1p(r)) / gamma)
    except OverflowError:  # gamma near zero, and sigma is met without RFT: every d recovers
        return math.inf


def recoverable(law: CompressionLaw, sigma: float, r: float, d: float) -> bool:
    """Direct check of the recovery inequality at a concrete ``(r, d)``.

    Evaluates ``(1+r)**beta * (1 + 1/(d+epsilon))**gamma`` and compares it
    against ``sigma``: ``>=`` for accuracy, ``<=`` for loss.  A value too
    large for a float compares as ``math.inf``.
    """
    _require_law("law", law)
    sigma = _validate_sigma(require_finite("sigma", sigma), law.metric)
    return _recoverable(law, sigma, require_ratio("r", r), require_nonnegative("d", d))


def _recoverable(law: CompressionLaw, sigma: float, r: float, d: float) -> bool:
    """:func:`recoverable` of a float ``sigma`` valid for the law's metric and a float ``r`` and ``d`` in their
    domains, unchecked."""
    _, x1, x2 = _log_features(1.0, r, d, law.epsilon)
    try:
        ratio = math.exp(law.beta * x1 + law.gamma * x2)
    except OverflowError:
        ratio = math.inf
    if law.metric is MetricKind.ACCURACY:
        return ratio >= sigma
    return ratio <= sigma


def min_rft_size(query: RecoveryQuery) -> float:
    """Minimum RFT dataset size meeting the threshold, or ``math.inf`` when :func:`recoverable` accepts no float.

    The least float that :func:`recoverable` accepts, searched from the closed form ``max(0, 1/phi(r) - epsilon)``
    despite floating-point rounding at the boundary: within a few ulps of it, or farther when a tiny ``gamma`` makes
    the check coarse.  Where rounding puts ``phi(r)`` at or below 0, the search starts from the largest float.
    Callers round up to their own unit granularity.
    """
    law, sigma, r = _require_query("query", query).law, query.sigma, query.r
    phi = _recovery_margin(law.beta, law.gamma, sigma, r)
    d = max(1.0 / phi - law.epsilon, 0.0) if phi > 0.0 else sys.float_info.max
    # Acceptance grows with d: step from d, doubling, down while accepted or up while not, then bisect to the least.
    low, high, step, top = d, d, math.ulp(d), sys.float_info.max
    if _recoverable(law, sigma, r, d):
        while high > 0.0 and _recoverable(law, sigma, r, low := max(d - step, 0.0)):
            high, step = low, 2.0 * step
    else:
        while not _recoverable(law, sigma, r, high := min(d + step, top)):
            if high == top:
                return math.inf
            low, step = high, 2.0 * step
    while low < (middle := low + (high - low) / 2.0) < high:
        low, high = (low, middle) if _recoverable(law, sigma, r, middle) else (middle, high)
    return high


def analyze(query: RecoveryQuery) -> RecoveryAnalysis:
    """Full recovery report: regime, boundary, critical ratio and minimum size."""
    # The query checked the law's signs and sigma when it was built.
    regime, boundary, r_critical = _regime(_require_query("query", query).law.beta, query.sigma, query.law.metric)
    return RecoveryAnalysis(
        regime=regime,
        boundary=boundary,
        r_critical=r_critical,
        min_d=min_rft_size(query),
    )
