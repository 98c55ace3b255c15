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
from dataclasses import dataclass

from .errors import DomainError, RegimeError
from .laws import (
    CompressionLaw, MetricKind, check_feasibility, log_features, require_finite, require_nonnegative, require_ratio
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
    sigma = require_finite("sigma", sigma)
    if metric is MetricKind.ACCURACY:
        if not 0.0 < sigma < 1.0:
            raise DomainError(f"accuracy thresholds live in (0, 1), got {sigma}")
    elif metric is MetricKind.LOSS:
        if not sigma > 1.0:
            raise DomainError(f"loss thresholds live in (1, inf), got {sigma}")
    else:
        raise DomainError(f"recovery analysis is defined for loss and accuracy laws, not {metric.value}")
    return sigma


def _validate_beta(beta: float, metric: MetricKind) -> float:
    beta = require_finite("beta", beta)
    if metric is MetricKind.ACCURACY and beta >= 0.0:
        raise DomainError(f"accuracy analysis needs beta < 0, got {beta}")
    if metric is MetricKind.LOSS and beta <= 0.0:
        raise DomainError(f"loss analysis needs beta > 0, got {beta}")
    return beta


@dataclass(frozen=True)
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
        require_ratio(self.r)


@dataclass(frozen=True)
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
    beta = _validate_beta(beta, metric)
    sigma = _validate_sigma(sigma, metric)
    boundary = 2.0**beta
    if metric is MetricKind.ACCURACY:
        always = sigma < boundary
    else:
        always = sigma > boundary
    return (Regime.ALWAYS_RECOVERABLE if always else Regime.CONDITIONALLY_RECOVERABLE), boundary


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
    regime, boundary = classify_regime(beta, sigma, metric)
    if regime is Regime.ALWAYS_RECOVERABLE:
        raise RegimeError(
            f"sigma = {sigma} is in the always-recoverable band (boundary 2**beta = {boundary:.6g}); "
            "no critical ratio exists"
        )
    return _critical_ratio(beta, sigma)


def _critical_ratio(beta: float, sigma: float) -> float:
    return math.expm1(math.log(sigma) / beta)


def recovery_margin(beta: float, gamma: float, sigma: float, r: float) -> float:
    """The bound function ``phi(r) = (sigma * (1+r)**(-beta))**(1/gamma) - 1``.

    Recovery at ratio ``r`` requires ``1/(d + epsilon) <= phi(r)``; a
    nonpositive margin means no dataset size works.
    """
    return math.expm1((math.log(sigma) - beta * math.log1p(r)) / gamma)


def recoverable(law: CompressionLaw, sigma: float, r: float, d: float) -> bool:
    """Direct check of the recovery inequality at a concrete ``(r, d)``.

    Evaluates ``(1+r)**beta * (1 + 1/(d+epsilon))**gamma`` and compares it
    against ``sigma``: ``>=`` for accuracy, ``<=`` for loss.
    """
    sigma = _validate_sigma(sigma, law.metric)
    _, x1, x2 = log_features(1.0, require_ratio(r), require_nonnegative("d", d), law.epsilon)
    ratio = math.exp(law.beta * x1 + law.gamma * x2)
    if law.metric is MetricKind.ACCURACY:
        return ratio >= sigma
    return ratio <= sigma


def min_rft_size(query: RecoveryQuery) -> float:
    """Minimum RFT dataset size meeting the threshold, or ``math.inf``.

    Closed form: ``max(0, 1/phi(r) - epsilon)`` when ``phi(r) > 0``, else
    infinity (unrecoverable).  The returned value is the exact real-valued
    boundary, nudged upward by at most a few ulps so that
    :func:`recoverable` accepts it despite floating-point rounding at the
    exact boundary; callers round up to their own unit granularity.
    """
    law = query.law
    phi = recovery_margin(law.beta, law.gamma, query.sigma, query.r)
    if phi <= 0.0:
        return math.inf
    d = 1.0 / phi - law.epsilon
    if d <= 0.0:
        return 0.0
    step = math.ulp(d)
    nudged = d
    while not recoverable(law, query.sigma, query.r, nudged):
        nudged = d + step
        step *= 2.0
        if step > max(d, 1.0) * 1e-9:
            raise DomainError("could not resolve the recovery boundary numerically")
    return nudged


def analyze(query: RecoveryQuery) -> RecoveryAnalysis:
    """Full recovery report: regime, boundary, critical ratio and minimum size."""
    regime, boundary = classify_regime(query.law.beta, query.sigma, query.law.metric)
    if regime is Regime.CONDITIONALLY_RECOVERABLE:
        r_critical = _critical_ratio(query.law.beta, query.sigma)
    else:
        r_critical = None
    return RecoveryAnalysis(
        regime=regime,
        boundary=boundary,
        r_critical=r_critical,
        min_d=min_rft_size(query),
    )
