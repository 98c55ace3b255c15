"""Log-space ordinary least squares for the compression power laws.

Taking logs turns the multiplicative law into a linear model

    log l = alpha*log(l0) + beta*log(1 + r) + gamma*log(1 + 1/(d + epsilon))

with no intercept (the law carries no multiplicative constant).  The
runtime law does carry a constant, so its design gets an intercept column
and the fitted intercept becomes ``log c``.

Solving uses a QR decomposition rather than the normal equations, with a
condition-number guard at 1e8 on ``cond(R) == cond(X)``.  R-squared follows
the convention of standard statistics packages and is decided by the design
form, never by the data values: uncentered (``1 - SSR/sum(y**2)``, ``p``
model degrees of freedom) for the intercept-free forms, centered (``p - 1``)
for the runtime form.  A bare :func:`ols_fit` call without a form has no
intercept.

Bulk paths pass records as a :class:`RecordBatch` of columns; :func:`build_design`
turns any other sequence into one and maps :func:`~compresslaw.laws.log_feature_columns` over it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from .errors import DomainError, SingularDesignError
from .laws import (
    CompressionLaw,
    DesignForm,
    ExperimentRecord,
    FeasibilityWarning,
    FitStatistics,
    RuntimeLaw,
    SignViolation,
    check_feasibility,
    log_feature_columns,
    require_positive,
)

# The first four names are laws' numpy-free value types, re-exported as the same objects.
__all__ = [
    "ExperimentRecord",
    "FitStatistics",
    "DesignForm",
    "FeasibilityWarning",
    "FITTED_SIGN_EXPONENTS",
    "build_design",
    "ols_fit",
    "fit_law",
]

CONDITION_NUMBER_LIMIT = 1e8

_COLUMN_NAMES: dict[DesignForm, tuple[str, ...]] = {
    DesignForm.FULL: ("log_l0", "log_ratio", "log_data"),
    DesignForm.RATIO_ONLY: ("log_l0", "log_ratio"),
    DesignForm.DATA_ONLY: ("log_l0", "log_data"),
    DesignForm.RUNTIME: ("intercept", "log_ratio"),
}

# Position of each named column in a :func:`log_feature_columns` triple.
_FEATURE_INDEX = {"log_l0": 0, "log_ratio": 1, "log_data": 2}

# Exponents a given form actually estimates, for sign-feasibility warnings.
# Pinned-to-zero exponents of the ablation forms are exempt.
FITTED_SIGN_EXPONENTS: dict[DesignForm, tuple[str, ...]] = {
    DesignForm.FULL: ("beta", "gamma"),
    DesignForm.RATIO_ONLY: ("beta",),
    DesignForm.DATA_ONLY: ("gamma",),
    DesignForm.RUNTIME: (),
}


class _Columns(Sequence):
    """Rows of type ``_row`` held as columns named by ``__slots__``.  A read-only sequence: indexing and
    iteration build rows on demand (a float64 column gives Python floats), a slice is a batch of the same type,
    and it equals any sequence of the same rows in the same order."""

    __slots__ = ()
    _row: type

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def _columns(self) -> list:
        """The columns, in row field order."""
        return [getattr(self, name) for name in self.__slots__]

    def __getitem__(self, index):
        columns = [column[index] for column in self._columns()]
        if isinstance(index, slice):
            return type(self)(*columns)
        return self._row(*(float(v) if isinstance(v, np.floating) else v for v in columns))

    def __iter__(self):
        return map(self._row, *(c.tolist() if isinstance(c, np.ndarray) else c for c in self._columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _read_only(values) -> np.ndarray:
    column = np.array(values, dtype=float)
    column.flags.writeable = False
    return column


class RecordBatch(_Columns):
    """Records as columns (read-only float64 arrays ``l0, r, d, l``; tuples ``model_id, metric``) that only
    code which validated them builds.  A read-only sequence of :class:`ExperimentRecord`."""

    __slots__ = ("model_id", "metric", "l0", "r", "d", "l")
    _row = ExperimentRecord

    def __init__(self, model_id, metric, l0, r, d, l) -> None:
        self.model_id, self.metric = tuple(model_id), tuple(metric)
        self.l0, self.r, self.d, self.l = map(_read_only, (l0, r, d, l))

    @classmethod
    def from_records(cls, records: Sequence[ExperimentRecord]) -> RecordBatch:
        """``records`` itself if it is a batch, else its fields as columns, read without validating again."""
        if isinstance(records, RecordBatch):
            return records
        return cls(*([getattr(rec, name) for rec in records] for name in cls.__slots__))


def build_design(
    records: Sequence[ExperimentRecord],
    epsilon: float = 1.0,
    form: DesignForm = DesignForm.FULL,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the (X, y) regression problem in log space.

    Args:
        records: Observations sharing one metric kind, as a
            :class:`RecordBatch` or any sequence of records.
        epsilon: Smoothing constant for the RFT factor.
        form: Which columns to include; see :class:`DesignForm`.

    Returns:
        ``X`` of shape (n, p) and ``y = log(l)`` of shape (n,).  Columns in
        the order given by the form, taken from
        :func:`~compresslaw.laws.log_feature_columns`: FULL is ``[log l0,
        log(1+r), log(1 + 1/(d+epsilon))]``; RUNTIME is ``[1, log(1+r)]``.

    Raises:
        DomainError: Mixed metric kinds, too few records (need at least
            p + 1), or a non-finite transform.
    """
    epsilon = require_positive("epsilon", epsilon)
    names = _COLUMN_NAMES[form]
    p = len(names)
    if len(records) < p + 1:
        raise DomainError(f"need at least {p + 1} records for the {form.value} form, got {len(records)}")
    batch = RecordBatch.from_records(records)
    # tuple.count compares by identity first; hashing an enum member runs Python code.
    if batch.metric.count(batch.metric[0]) != len(batch):
        raise DomainError(f"records mix metric kinds: {sorted(m.value for m in set(batch.metric))}")

    features = log_feature_columns(batch.l0.tolist(), batch.r.tolist(), batch.d.tolist(), epsilon)
    x = np.column_stack(
        [np.ones(len(batch)) if name == "intercept" else features[_FEATURE_INDEX[name]] for name in names]
    )
    y = np.array(list(map(math.log, batch.l.tolist())))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("log transform produced non-finite design entries")
    return x, y


def _name_collinear_columns(x: np.ndarray, names: Sequence[str]) -> str:
    norms = np.linalg.norm(x, axis=0)
    dead = [names[j] for j in np.nonzero(norms < 1e-12)[0]]
    if dead:
        return f"column(s) {dead} are numerically zero"
    unit = x / norms
    cos = np.abs(unit.T @ unit)
    np.fill_diagonal(cos, 0.0)
    i, j = divmod(int(np.argmax(cos)), cos.shape[1])
    return f"columns '{names[i]}' and '{names[j]}' are nearly collinear (|cos| = {cos[i, j]:.6f})"


def _solve(
    x: np.ndarray, y: np.ndarray, form: DesignForm | None
) -> tuple[np.ndarray, FitStatistics, np.ndarray]:
    """:func:`ols_fit`, also returning the residuals ``y - X b``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DomainError(f"incompatible shapes X{x.shape}, y{y.shape}")
    n, p = x.shape
    if n <= p:
        raise DomainError(f"need more rows than columns, got {n} x {p}")
    names = _COLUMN_NAMES[form] if form is not None else [f"x{j}" for j in range(p)]
    if len(names) != p:
        raise DomainError(f"the {form.value} form has {len(names)} columns, X has {p}")

    q, r = np.linalg.qr(x)
    # X = QR with orthonormal Q, so X and the p x p factor R share singular values.
    condition = float(np.linalg.cond(r))
    if not math.isfinite(condition) or condition > CONDITION_NUMBER_LIMIT:
        raise SingularDesignError(
            f"design is rank deficient or ill conditioned (cond = {condition:.3g}); "
            + _name_collinear_columns(x, names)
        )
    coef = np.linalg.solve(r, q.T @ y)

    residuals = y - x @ coef
    # fsum is correctly rounded, so the sums do not depend on how a threaded BLAS splits a dot product.
    ssr = math.fsum((residuals * residuals).tolist())
    # Only the runtime form has an intercept; it centers R^2 and is not a model degree of freedom.
    intercepts = int(form is DesignForm.RUNTIME)
    centered = y - y.mean() if intercepts else y
    tss = math.fsum((centered * centered).tolist())
    if tss > 0.0:
        r_squared = min(max(1.0 - ssr / tss, 0.0), 1.0)
    else:
        r_squared = 1.0 if ssr <= 1e-30 else 0.0
    adj = 1.0 - (1.0 - r_squared) * (n - intercepts) / (n - p)
    dof_model = p - intercepts
    if r_squared < 1.0 and dof_model > 0:
        f_stat = (r_squared / dof_model) / ((1.0 - r_squared) / (n - p))
    else:
        f_stat = math.inf
    stats = FitStatistics(
        n=n,
        p=p,
        r_squared=r_squared,
        adj_r_squared=adj,
        f_statistic=f_stat,
        residual_std=math.sqrt(ssr / (n - p)),
        condition_number=condition,
    )
    return coef, stats, residuals


def ols_fit(
    x: np.ndarray,
    y: np.ndarray,
    form: DesignForm | None = None,
) -> tuple[np.ndarray, FitStatistics]:
    """Solve ``min ||X b - y||^2`` by QR and compute fit statistics.

    Args:
        x: Design matrix, shape (n, p) with n > p and full column rank.
        y: Response vector, shape (n,).
        form: The design form ``x`` was built for.  It names the columns in
            singular-design diagnostics and decides the R-squared convention:
            centered only for ``DesignForm.RUNTIME``.  ``None`` means
            generic ``x0, x1, ...`` names and no intercept.

    Returns:
        The coefficient vector and a :class:`FitStatistics`.

    Raises:
        SingularDesignError: Rank deficiency, i.e. condition number above
            ``CONDITION_NUMBER_LIMIT``; the message names the offending
            columns.
    """
    coef, stats, _ = _solve(x, y, form)
    return coef, stats


def _fit(
    records: Sequence[ExperimentRecord], epsilon: float, form: DesignForm
) -> tuple[CompressionLaw | RuntimeLaw, list[SignViolation], np.ndarray]:
    """Build the design once, solve it and return the law, its sign violations and log-residuals.

    Violations are limited to the exponents the form estimates; the pinned
    zeros of the ablation forms are exempt.
    """
    batch = RecordBatch.from_records(records)
    x, y = build_design(batch, epsilon=epsilon, form=form)
    coef, stats, residuals = _solve(x, y, form)
    if form is DesignForm.RUNTIME:
        return RuntimeLaw(c=math.exp(coef[0]), beta=float(coef[1]), stats=stats), [], residuals
    metric = batch.metric[0]
    if form is DesignForm.FULL:
        law = CompressionLaw(float(coef[0]), float(coef[1]), float(coef[2]), metric, epsilon, stats)
    elif form is DesignForm.RATIO_ONLY:
        law = CompressionLaw(float(coef[0]), float(coef[1]), 0.0, metric, epsilon, stats)
    else:
        law = CompressionLaw(float(coef[0]), 0.0, float(coef[1]), metric, epsilon, stats)
    fitted = FITTED_SIGN_EXPONENTS[form]
    return law, [v for v in check_feasibility(law) if v.exponent in fitted], residuals


def fit_law(
    records: Sequence[ExperimentRecord],
    epsilon: float = 1.0,
    form: DesignForm = DesignForm.FULL,
) -> CompressionLaw | RuntimeLaw:
    """Fit a law to experiment records by log-space OLS.

    For the ablation forms the missing exponent is pinned to 0 in the
    returned :class:`CompressionLaw`, so the ratio-only ablation
    ``l0**alpha * (1 + r)**beta`` is ``evaluate`` on a ``ratio`` fit and the
    data-only ablation ``l0**alpha * (1 + 1/(d + epsilon))**gamma`` is
    ``evaluate`` on a ``data`` fit.  ``DesignForm.RUNTIME`` returns a
    :class:`RuntimeLaw` with ``c = exp(intercept)``.

    Emits a :class:`FeasibilityWarning` per fitted exponent whose sign
    contradicts the records' metric kind.
    """
    law, violations, _ = _fit(records, epsilon, form)
    for violation in violations:
        warnings.warn(str(violation), FeasibilityWarning, stacklevel=2)
    return law
