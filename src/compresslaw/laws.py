"""Power-law models of compressed-model performance and inference runtime.

The central object is :class:`CompressionLaw`, the three-exponent power law

    predicted = l0**alpha * (1 + r)**beta * (1 + 1/(d + epsilon))**gamma

linking a compressed model's performance to the base model's performance
``l0``, the fraction of parameters removed ``r`` and the recovery
fine-tuning (RFT) dataset size ``d``.  :class:`RuntimeLaw` is the
two-parameter analogue ``c * (1 + r)**beta`` for inference runtime.

All evaluation goes through ``exp`` of the log-linear form built by
``_log_features``, the one transform that :mod:`compresslaw.recovery`
also uses.  :func:`log_feature_columns` maps the same scalar functions over
whole columns for the designs of :mod:`compresslaw.regression` and for the
one grid predictor, ``_grid_log_predictions``, which takes each axis value's
term once and sums each grid point's terms in :func:`evaluate`'s order.
``generate`` (with its noise added) and ``emit_frontier_grid`` both return
its ``exp`` as ``_grid_table``'s table, so predictions and the regression
agree bit for bit in their transforms.

The four ``require_*`` validators are each one range ``[low, high)`` of ``_require_between``, which it keeps as its
``bounds``: the one place a domain and its message are written.  A nan or infinite value must be finite, and any
other out of range gets its validator's message.  Beside them are the private checks a value type names for its
fields: ``_require_instance`` (the field's type), ``_require_count`` (an ``int >= 0``, not a ``bool``),
``_require_that`` (a test of a float that is no range, such as a statistic that may be nan) and ``_require_sequence``
(a tuple of floats, or of checked items, never text, bytes, a set or a mapping), on which the grid-axis check is built.

Fields are checked once, when a value is built, and a float field stores the float its ``require_*`` validator
returns.  A public function that takes a law and plain numbers checks them, the law's kind first, then runs an
unchecked private core: :func:`evaluate` is the checks, then ``_evaluate``, and :func:`evaluate_runtime` the
checks, then ``_evaluate_runtime``.  So does a value type, whose core ``_unchecked`` is shared by all: a table
builds its rows with it.  Code that holds fields a value type has already checked, such as the planner's
candidates and request, calls the core directly.  Each formula is written once, and its result is the public
function's bit for bit.

The numpy-free value types that fits and documents exchange live here too:
:class:`FitStatistics`, :class:`DesignForm`, :class:`ExperimentRecord` and
:class:`FeasibilityWarning`, and the one table type, :class:`Table`, in
which ``read_records``, ``generate`` and ``emit_frontier_grid`` return their
rows as run-length columns.  This is their one home, so the commands that
only evaluate laws never import numpy.  Beside :class:`DesignForm`,
``_FORM_COEFFICIENTS`` is the one list of the coefficients each form fits:
the regression's design and fitted law and the registry's check read it.
The private decorator ``_value_type`` builds every value type of the
package: immutable, equal by class and fields, hashable, with a
``Name(field=value, ...)`` repr.  It stands in for the standard library's
frozen classes, whose import of ``inspect`` costs a light command more than
its own work.

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
import reprlib
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from functools import partial
from itertools import chain, cycle, islice, repeat
from operator import attrgetter

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
    "Table",
    "require_finite",
    "require_positive",
    "require_nonnegative",
    "require_ratio",
    "evaluate",
    "evaluate_runtime",
    "check_feasibility",
]

# Kept here so that cli prints them without loading documents or planner, which re-export them: the version of
# every document compresslaw writes, and the largest compression ratio the underlying experiments explored (the
# planner's default cap).
SCHEMA_VERSION = "compresslaw/v1"
OBSERVED_RATIO_MAX = 0.9


class MetricKind(enum.Enum):
    """What a performance number means, and therefore which sign pattern is feasible."""

    LOSS = "loss"
    ACCURACY = "accuracy"
    RUNTIME = "runtime"


# +1 means "beta and gamma should be positive", -1 the opposite.  Runtime laws
# carry no recovery semantics and are exempt from the check.
_FEASIBLE_SIGN = {MetricKind.LOSS: 1.0, MetricKind.ACCURACY: -1.0}


# What float() raises for a value that is not a number, or for an int too large for a float.
_FLOAT_ERRORS = (TypeError, ValueError, OverflowError)


def _float_error(name: str, value, error: Exception) -> DomainError:
    """The error of a check whose ``float(value)`` raised ``error``."""
    what = "within the float range" if isinstance(error, OverflowError) else "a number"
    return DomainError(f"{name} must be {what}, got {_quote.repr(value)}")


def _require_between(low: float, high: float, what: str, export: str, doc: str):
    """The validator ``export``, documented by ``doc``: the check that a float field lies in its ``bounds``, ``[low,
    high)``, stored as the float.  A nan or infinite value must be finite, and any other out of range must ``what``."""

    def check(name: str, value: float) -> float:
        try:
            value = float(value)
        except _FLOAT_ERRORS as error:
            raise _float_error(name, value, error) from None
        if not low <= value < high:
            raise DomainError(f"{name} must {what if math.isfinite(value) else 'be finite'}, got {value}")
        return value

    check.__name__, check.__qualname__, check.__doc__ = export, export, doc  # it pickles, and reprs, as its export
    check.bounds = (low, high)  # read by the CSV reader's bulk test of a chunk
    return check


# math.ulp(0.0) is the least float > 0.
require_finite = _require_between(-sys.float_info.max, math.inf, "be finite", "require_finite",
                                  "``float(value)``, or :class:`DomainError` if it is not finite or has no float.")
require_positive = _require_between(math.ulp(0.0), math.inf, "be > 0", "require_positive",
                                    "A finite ``value > 0`` (``l0``, ``epsilon``, observations, counts) as a float.")
require_nonnegative = _require_between(0.0, math.inf, "be >= 0", "require_nonnegative",
                                       "A finite ``value >= 0`` (RFT sizes, noise levels) as a float.")
require_ratio = _require_between(0.0, 1.0, "lie in [0, 1)", "require_ratio",
                                 "A compression ratio in ``[0, 1)`` as a float.")


# A check quotes a bad value with _quote: reprlib bounds the strings and containers of a decoded document however
# deeply they nest, and maxother lets an object of the wrong type, such as a law of the other kind, be quoted whole.
_quote = reprlib.Repr()
_quote.maxother = 400


def _require_instance(kind: type | tuple[type, ...], what: str):
    """The check that a field is a ``kind`` (``what`` in its message), stored as it is."""

    def check(name: str, value):
        if not isinstance(value, kind):
            raise DomainError(f"{name} must be {what}, got {_quote.repr(value)}")
        return value

    return check


_require_text = _require_instance(str, "text")  # a model id: a CSV writes and reads it as text
_require_metric = _require_instance(MetricKind, "a MetricKind")


def _require_count(name: str, value: int) -> int:
    """An ``int >= 0`` that is not a ``bool`` (sample and parameter counts, seeds), stored as it is."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"{name} must be an integer >= 0, got {_quote.repr(value)}")
    return value


def _require_that(test, what: str):
    """The check that ``test`` holds for a float field, stored as the float; ``what``, formatted with the float,
    ends its message."""

    def check(name: str, value: float) -> float:
        try:
            value = float(value)
        except _FLOAT_ERRORS as error:
            raise _float_error(name, value, error) from None
        if not test(value):
            raise DomainError(f"{name} must {what.format(value)}")
        return value

    return check


def _optional(check):
    """``check`` for a field that may be ``None``, which is stored as it is."""
    return lambda name, value: value if value is None else check(name, value)


# Each grid axis field, in grid order, and the name and validator of its values: read by the grid document too.
_GRID_AXES = {"l0_values": ("l0", require_positive), "r_values": ("r", require_ratio),
              "d_values": ("d", require_nonnegative)}


def _require_sequence(name: str, values, what: str = "numbers", item=float) -> tuple:
    """``item`` of each of ``values``, as a tuple: their floats by one C-level ``map``, or an item check's values.
    Text, bytes, a set or mapping (whose order is not the caller's), a non-iterable and an item with no float are
    refused: ``name`` must be a sequence of ``what``."""
    try:
        if isinstance(values, (str, bytes, bytearray, Set, Mapping)):
            raise TypeError
        return tuple(map(item, values))
    except DomainError:  # an item check's own error, which is a ValueError too
        raise
    except _FLOAT_ERRORS:
        raise DomainError(f"{name} must be a sequence of {what}, got {_quote.repr(values)}") from None


def _require_axis(name: str, values) -> tuple[float, ...]:
    """The grid axis ``name`` as a nonempty tuple of floats, each checked under its value's name (``l0``)."""
    value_name, require = _GRID_AXES[name]
    values = _require_sequence(name, values, item=partial(require, value_name))
    if not values:
        raise DomainError("all three grid axes must be nonempty")
    return values


def _rft(d: float, epsilon: float) -> float:
    return math.log1p(1.0 / (d + epsilon))


def _log_features(l0: float, r: float, d: float, epsilon: float) -> tuple[float, float, float]:
    """The law's log-space regressors ``(log l0, log(1 + r), log(1 + 1/(d + epsilon)))``.

    Inputs are assumed validated: only the checked ``_evaluate`` and
    ``recovery._recoverable`` call it.  Every prediction is built from this
    one function and every design from :func:`log_feature_columns`, which
    maps the same scalar functions over columns, so both see the same
    floating-point values.
    """
    return math.log(l0), math.log1p(r), _rft(d, epsilon)


def log_feature_columns(l0: Sequence[float], r: Sequence[float], d: Sequence[float], epsilon: float) -> tuple:
    """``_log_features`` over sequences of floats: element ``i`` of each returned list is that element of
    ``_log_features(l0[i], r[i], d[i], epsilon)`` bit for bit (``np.log`` could differ by an ulp)."""
    return list(map(math.log, l0)), list(map(math.log1p, r)), [_rft(v, epsilon) for v in d]


def _fields(self) -> tuple:
    return tuple([getattr(self, name) for name in self._value_fields])


def _eq(self, other):
    return _fields(self) == _fields(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_fields(self))


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._value_fields, _fields(self)))})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _value_type(cls=None, /, **checks):
    """Make ``cls`` an immutable value type whose fields are the names annotated in its body, in order; a class
    attribute of a field's name is its default, and ``@_value_type(field=check, ...)`` gives a field its check,
    ``check(name, value) -> stored value``, kept in ``cls._checks``.  The one generated ``__init__`` stores each
    field once, as its check returns it, then calls ``__post_init__``, for rules that span fields, if the class
    has one.  Equality (of class and fields), hash, repr and the refusal to assign or delete a field are shared
    by every value type, and so is the unchecked core, :func:`_unchecked`."""
    if cls is None:
        return lambda cls: _value_type(cls, **checks)
    cls._value_fields = fields = tuple(cls.__annotations__)
    cls._checks = checks
    defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields)
    values = [f"_check_{name}({name!r}, {name})" if name in checks else name for name in fields]
    checked = "".join(f"\n    _set(self, {name!r}, {value})" for name, value in zip(fields, values))
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {"_set": object.__setattr__, "_defaults": defaults,
                 **{f"_check_{name}": check for name, check in checks.items()}}
    exec(f"def __init__(self, {params}):{checked}{post_init}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__eq__, cls.__hash__, cls.__repr__, cls.__setattr__, cls.__delattr__ = _eq, _hash, _repr, _frozen, _frozen
    return cls


def _unchecked(cls, *values):
    """``cls(*values)`` without its checks or ``__post_init__``, for fields checked when read or generated."""
    self = object.__new__(cls)
    vars(self).update(zip(cls._value_fields, values))
    return self


_require_not_negative = _require_that(lambda value: not value < 0.0, "be nonnegative")  # inf and nan pass
_require_at_most_one = _require_that(lambda value: not value > 1.0, "be at most 1, got {}")  # adjusted R², or nan


@_value_type(n=_require_count, p=_require_count,
             r_squared=_require_that(lambda value: 0.0 <= value <= 1.0, "lie in [0, 1], got {}"),
             adj_r_squared=_require_at_most_one, f_statistic=_require_not_negative, residual_std=_require_not_negative,
             condition_number=_require_that(lambda value: value > 0.0, "be positive"))
class FitStatistics:
    """Goodness-of-fit summary for one least-squares solve.

    ``f_statistic`` is ``math.inf`` for an exact (zero-residual) fit.  A document may carry a nan statistic,
    which only ``r_squared`` and ``condition_number`` reject.
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
        if self.adj_r_squared > self.r_squared + 1e-12:
            raise DomainError("adj_r_squared cannot exceed r_squared")


_require_stats = _require_instance((FitStatistics, type(None)), "a FitStatistics or None")


@_value_type(alpha=require_finite, beta=require_finite, gamma=require_finite, metric=_require_metric,
             epsilon=require_positive, stats=_require_stats)
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


_require_law = _require_instance(CompressionLaw, "a CompressionLaw")


@_value_type(c=require_positive, beta=require_finite, stats=_require_stats)
class RuntimeLaw:
    """Inference-runtime power law ``runtime = c * (1 + r)**beta``.

    ``c`` has the units of the runtime observations (e.g. seconds), or 1.0
    when the law is normalized to the uncompressed model's runtime.
    """

    c: float
    beta: float
    stats: FitStatistics | None = None


_require_runtime_law = _require_instance(RuntimeLaw, "a RuntimeLaw")
_require_either_law = _require_instance((CompressionLaw, RuntimeLaw), "a CompressionLaw or RuntimeLaw")


@_value_type
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


# The coefficients each form fits, in design-column order.  An exponent that a compression form does not fit is 0.
_FORM_COEFFICIENTS = {
    DesignForm.FULL: ("alpha", "beta", "gamma"),
    DesignForm.RATIO_ONLY: ("alpha", "beta"),
    DesignForm.DATA_ONLY: ("alpha", "gamma"),
    DesignForm.RUNTIME: ("log_c", "beta"),
}
_require_form = _require_instance(DesignForm, "a DesignForm")  # a design's, a fit's or a registry entry's form


@_value_type(model_id=_require_text, metric=_require_metric, l0=require_positive, r=require_ratio,
             d=require_nonnegative, l=require_positive)
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


class FeasibilityWarning(UserWarning):
    """A fitted exponent has a sign the metric deems physically implausible."""


class Table(Sequence):
    """A read-only sequence of rows ``row(*fields)`` held as columns, each a tuple or a read-only memoryview.

    Column ``k`` holds each of its values ``runs[k]`` times in a row and starts over after the last; the last
    column holds one value per row.  So a grid keeps only its axes: row ``i`` of an ``(l0, r, d)`` grid of
    ``R`` ratios and ``D`` sizes is ``(l0[i // (R*D)], r[i // D % R], d[i % D], ...)``, and a one-value column
    is a constant.  A slice is a table, and a table equals any sequence of the same rows in the same order.  The
    columns hold fields as the row type checked and stored them: the constructor trusts them, and a value
    type's row is built by :func:`_unchecked`.
    """

    __slots__ = ("row", "columns", "runs", "_make")

    def __init__(self, row, columns: Sequence[Sequence], runs: Sequence[int] | None = None) -> None:
        self.row, self.columns = row, tuple(columns)
        self._make = partial(_unchecked, row) if hasattr(row, "_value_fields") else row
        self.runs = (1,) * len(self.columns) if runs is None else tuple(runs)

    @classmethod
    def of(cls, row, rows: Iterable) -> Table:
        """``rows`` itself if it is a table, else the fields of its rows, values of the value type ``row``, as
        columns.  The rows checked their fields when they were built, so the fields are read as they are."""
        if isinstance(rows, Table):
            return rows
        names = row._value_fields
        return cls(row, list(zip(*map(attrgetter(*names), rows))) or [()] * len(names))

    def __len__(self) -> int:
        return len(self.columns[-1])

    def _spread(self, k: int, items: Iterable | None = None) -> Iterator:
        """``items``, one per value of column ``k`` (the values themselves by default), spread to one per row."""
        values, run = self.columns[k], self.runs[k]
        items = values if items is None else items
        if len(values) * run < len(self):
            items = islice(cycle(items), len(self) // run)  # cycle keeps the first pass: each item is made once
        return iter(items) if run == 1 else chain.from_iterable(map(repeat, items, repeat(run)))

    def column(self, k: int) -> Sequence:
        """Column ``k`` with one value per row."""
        values = self.columns[k]
        return values if len(values) == len(self) else tuple(self._spread(k))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Table(self.row, [self.column(k)[index] for k in range(len(self.columns))])
        i = range(len(self))[index]  # an int in range, or IndexError
        return self._make(*(values[i // run % len(values)] for values, run in zip(self.columns, self.runs)))

    def __iter__(self) -> Iterator:
        return map(self._make, *map(self._spread, range(len(self.columns))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


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


def _grid_log_predictions(law: CompressionLaw, axes: Sequence[Sequence[float]]) -> list[float]:
    """The one grid predictor: ``law``'s log prediction at each point of the grid of the checked ``axes``, in
    lexicographic order.  Each axis value's term is taken once, and each point sums its terms in :func:`evaluate`'s
    order."""
    x0, x1, x2 = log_feature_columns(*axes, law.epsilon)
    a_terms, b_terms, c_terms = [law.alpha * x for x in x0], [law.beta * x for x in x1], [law.gamma * x for x in x2]
    return [ab + c for a in a_terms for ab in [a + b for b in b_terms] for c in c_terms]


def _checked_exps(log_values: Sequence[float]) -> tuple[float, ...]:
    """``_checked_exp`` of each value, from one ``map(math.exp, ...)``: an overflow, 0, inf or nan sends every
    value through ``_checked_exp``, so the first offender raises its error.  ``sum`` sees a nan that ``max``
    would skip."""
    try:
        values = tuple(map(math.exp, log_values))
        if 0.0 < min(values, default=1.0) and sum(values) < math.inf:
            return values
    except OverflowError:
        pass
    return tuple(map(_checked_exp, log_values))


def _grid_table(row, axes: Sequence[tuple], log_values: Sequence[float], labels: Sequence[tuple] = ()) -> Table:
    """The grid of ``axes`` as a :class:`Table` of ``row``: the one-value ``labels`` columns, the axes with their
    runs, and the :func:`_checked_exps` of the points' log values."""
    d_count = len(axes[2])
    runs = (len(log_values),) * len(labels) + (len(axes[1]) * d_count, d_count, 1, 1)
    return Table(row, (*labels, *axes, _checked_exps(log_values)), runs)


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
    _require_law("law", law)
    return _evaluate(law, require_positive("l0", l0), require_ratio("r", r), require_nonnegative("d", d))


def _evaluate(law: CompressionLaw, l0: float, r: float, d: float) -> float:
    """:func:`evaluate` of floats already in its domain, unchecked."""
    x0, x1, x2 = _log_features(l0, r, d, law.epsilon)
    return _checked_exp(law.alpha * x0 + law.beta * x1 + law.gamma * x2)


def evaluate_runtime(law: RuntimeLaw, r: float) -> float:
    """Predicted inference runtime ``c * (1 + r)**beta`` at compression ratio ``r``."""
    _require_runtime_law("law", law)
    return _evaluate_runtime(law.c, law.beta, require_ratio("r", r))


def _evaluate_runtime(c: float, beta: float, r: float) -> float:
    """:func:`evaluate_runtime` of a :class:`RuntimeLaw`'s fields and a float ratio in ``[0, 1)``, unchecked."""
    return _checked_exp(math.log(c) + beta * math.log1p(r))


def check_feasibility(law: CompressionLaw) -> list[SignViolation]:
    """Report which of ``beta``/``gamma`` contradict the metric's feasible signs.

    An empty list means the law is feasible.  This is a report, not a
    rejection: laws with "wrong" signs evaluate fine, they just move in a
    physically implausible direction as ``r`` or ``d`` grows.
    """
    _require_law("law", law)
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
