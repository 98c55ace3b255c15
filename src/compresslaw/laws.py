"""Power-law models of compressed-model performance and inference runtime.

The central object is :class:`CompressionLaw`, the three-exponent power law

    predicted = l0**alpha * (1 + r)**beta * (1 + 1/(d + epsilon))**gamma

linking a compressed model's performance to the base model's performance
``l0``, the fraction of parameters removed ``r`` and the recovery
fine-tuning (RFT) dataset size ``d``.  :class:`RuntimeLaw` is the
two-parameter analogue ``c * (1 + r)**beta`` for inference runtime.

All evaluation goes through ``exp`` of the log-linear form built by
:func:`log_features`, the one transform that :mod:`compresslaw.recovery`
also uses.  :func:`log_feature_columns` maps the same scalar functions over
whole columns for the designs of :mod:`compresslaw.regression` and
:mod:`compresslaw.synth`, so predictions and the regression agree bit for
bit in their transforms.  The ``require_*`` validators are the one place
each domain condition and its message are written.

The numpy-free value types that fits and documents exchange live here too:
:class:`FitStatistics`, :class:`DesignForm`, :class:`ExperimentRecord` and
:class:`FeasibilityWarning`.  :mod:`compresslaw.regression` re-exports them,
so the commands that only evaluate laws never import numpy.

Sign conventions: a physically sensible law moves in the right direction as
``r`` and ``d`` grow.  For loss-like metrics (lower is better) that means
``beta > 0`` and ``gamma > 0``; for accuracy-like metrics (higher is
better), ``beta < 0`` and ``gamma < 0``.  :func:`check_feasibility` reports
violations of these expectations but never rejects a law: fitted signs are
findings, not constraints.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError

__all__ = [
    "MetricKind",
    "CompressionLaw",
    "RuntimeLaw",
    "SignViolation",
    "FitStatistics",
    "DesignForm",
    "ExperimentRecord",
    "FeasibilityWarning",
    "log_features",
    "require_finite",
    "require_positive",
    "require_nonnegative",
    "require_ratio",
    "evaluate",
    "evaluate_runtime",
    "check_feasibility",
]


class MetricKind(enum.Enum):
    """What a performance number means, and therefore which sign pattern is feasible."""

    LOSS = "loss"
    ACCURACY = "accuracy"
    RUNTIME = "runtime"


# +1 means "beta and gamma should be positive", -1 the opposite.  Runtime laws
# carry no recovery semantics and are exempt from the check.
_FEASIBLE_SIGN = {MetricKind.LOSS: 1.0, MetricKind.ACCURACY: -1.0}


def require_finite(name: str, value: float) -> float:
    """``float(value)``, or :class:`DomainError` if it is nan or infinite.

    The other validators call it only once their own check fails, so a
    non-finite input always gets this message and a valid one pays for one call.
    """
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    """A finite ``value > 0`` (``l0``, ``epsilon``, observations, counts) as a float."""
    value = float(value)
    if not 0.0 < value < math.inf:
        require_finite(name, value)
        raise DomainError(f"{name} must be > 0, got {value}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    """A finite ``value >= 0`` (RFT sizes, noise levels) as a float."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        require_finite(name, value)
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


def require_ratio(r: float) -> float:
    """A compression ratio in ``[0, 1)`` as a float."""
    r = float(r)
    if not 0.0 <= r < 1.0:
        require_finite("r", r)
        raise DomainError(f"r must lie in [0, 1), got {r}")
    return r


def _rft(d: float, epsilon: float) -> float:
    return math.log1p(1.0 / (d + epsilon))


def log_features(l0: float, r: float, d: float, epsilon: float) -> tuple[float, float, float]:
    """The law's log-space regressors ``(log l0, log(1 + r), log(1 + 1/(d + epsilon)))``.

    Inputs are assumed validated.  Every prediction is built from this one
    function and every design from :func:`log_feature_columns`, which maps
    the same scalar functions over columns, so both see the same
    floating-point values.
    """
    return math.log(l0), math.log1p(r), _rft(d, epsilon)


def log_feature_columns(l0: Sequence[float], r: Sequence[float], d: Sequence[float], epsilon: float) -> tuple:
    """:func:`log_features` over lists of floats: element ``i`` of each returned list is that element of
    ``log_features(l0[i], r[i], d[i], epsilon)`` bit for bit (``np.log`` could differ by an ulp)."""
    return list(map(math.log, l0)), list(map(math.log1p, r)), [_rft(v, epsilon) for v in d]


@dataclass(frozen=True)
class FitStatistics:
    """Goodness-of-fit summary for one least-squares solve.

    ``f_statistic`` is ``math.inf`` for an exact (zero-residual) fit.
    """

    n: int
    p: int
    r_squared: float
    adj_r_squared: float
    f_statistic: float
    residual_std: float
    condition_number: float

    def __post_init__(self) -> None:
        if self.n <= self.p:
            raise DomainError(f"need n > p, got n={self.n}, p={self.p}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise DomainError(f"r_squared must lie in [0, 1], got {self.r_squared}")
        if self.adj_r_squared > self.r_squared + 1e-12:
            raise DomainError("adj_r_squared cannot exceed r_squared")
        if self.f_statistic < 0.0:
            raise DomainError("f_statistic must be nonnegative")
        if self.residual_std < 0.0:
            raise DomainError("residual_std must be nonnegative")
        if not self.condition_number > 0.0:
            raise DomainError("condition_number must be positive")


@dataclass(frozen=True)
class CompressionLaw:
    """Fitted (or fixture) exponents of the compression power law.

    Attributes:
        alpha: Exponent of the base-model performance ``l0``.
        beta: Exponent of ``(1 + r)``.
        gamma: Exponent of ``(1 + 1/(d + epsilon))``.
        metric: Which kind of performance the law describes.
        epsilon: Positive smoothing constant added to ``d`` so the no-RFT
            boundary ``d = 0`` stays in-domain.  Defaults to 1.
        stats: Goodness-of-fit statistics when the law came out of a
            regression; ``None`` for fixture laws quoted from elsewhere.
    """

    alpha: float
    beta: float
    gamma: float
    metric: MetricKind
    epsilon: float = 1.0
    stats: FitStatistics | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            require_finite(name, getattr(self, name))
        require_positive("epsilon", self.epsilon)
        if not isinstance(self.metric, MetricKind):
            raise DomainError(f"metric must be a MetricKind, got {self.metric!r}")


@dataclass(frozen=True)
class RuntimeLaw:
    """Inference-runtime power law ``runtime = c * (1 + r)**beta``.

    ``c`` has the units of the runtime observations (e.g. seconds), or 1.0
    when the law is normalized to the uncompressed model's runtime.
    """

    c: float
    beta: float
    stats: FitStatistics | None = None

    def __post_init__(self) -> None:
        require_positive("c", self.c)
        require_finite("beta", self.beta)


@dataclass(frozen=True)
class SignViolation:
    """One exponent whose fitted sign contradicts the metric's feasible pattern."""

    exponent: str
    value: float
    expected: str

    def __str__(self) -> str:
        return f"{self.exponent} = {self.value:.6g} violates the feasible sign ({self.expected})"


class DesignForm(enum.Enum):
    """Which regressors enter a fit's design matrix."""

    FULL = "full"
    RATIO_ONLY = "ratio"
    DATA_ONLY = "data"
    RUNTIME = "runtime"


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured observation of a compressed model.

    ``d`` is in caller-chosen units (samples, tokens, ...); units must be
    consistent within a fit.  ``d = 0`` is the valid no-RFT case.
    """

    model_id: str
    metric: MetricKind
    l0: float
    r: float
    d: float
    l: float

    def __post_init__(self) -> None:
        if not isinstance(self.metric, MetricKind):
            raise DomainError(f"metric must be a MetricKind, got {self.metric!r}")
        require_positive("l0", self.l0)
        require_ratio(self.r)
        require_nonnegative("d", self.d)
        require_positive("l", self.l)


class FeasibilityWarning(UserWarning):
    """A fitted exponent has a sign the metric deems physically implausible."""


def _checked_exp(log_value: float) -> float:
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if value == 0.0:
        raise DomainError(f"prediction underflowed to zero (log value {log_value:.6g})")
    if not value < math.inf:
        raise DomainError(f"prediction overflowed the finite positive range (log value {log_value:.6g})")
    return value


def evaluate(law: CompressionLaw, l0: float, r: float, d: float) -> float:
    """Predict compressed-model performance at one point.

    Args:
        law: Compression law to evaluate.
        l0: Base-model performance, > 0.
        r: Compression ratio in [0, 1).  ``r = 0`` is the explicit
            no-compression case.
        d: RFT dataset size, >= 0 (0 means no recovery fine-tuning).

    Returns:
        ``l0**alpha * (1 + r)**beta * (1 + 1/(d + epsilon))**gamma``,
        always finite and positive.

    Raises:
        DomainError: On out-of-domain or non-finite inputs.
    """
    x0, x1, x2 = log_features(
        require_positive("l0", l0), require_ratio(r), require_nonnegative("d", d), law.epsilon
    )
    return _checked_exp(law.alpha * x0 + law.beta * x1 + law.gamma * x2)


def evaluate_runtime(law: RuntimeLaw, r: float) -> float:
    """Predicted inference runtime ``c * (1 + r)**beta`` at compression ratio ``r``."""
    return _checked_exp(math.log(law.c) + law.beta * math.log1p(require_ratio(r)))


def check_feasibility(law: CompressionLaw) -> list[SignViolation]:
    """Report which of ``beta``/``gamma`` contradict the metric's feasible signs.

    An empty list means the law is feasible.  This is a report, not a
    rejection: laws with "wrong" signs evaluate fine, they just move in a
    physically implausible direction as ``r`` or ``d`` grows.
    """
    sign = _FEASIBLE_SIGN.get(law.metric)
    if sign is None:
        return []
    wanted = "> 0" if sign > 0 else "< 0"
    violations = []
    for name in ("beta", "gamma"):
        value = getattr(law, name)
        if sign * value <= 0.0:
            violations.append(
                SignViolation(exponent=name, value=value, expected=f"{name} {wanted} for {law.metric.value}")
            )
    return violations
