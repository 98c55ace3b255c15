"""Log-space ordinary least squares for the compression power laws.

Taking logs turns the multiplicative law into a linear model

    log l = alpha*log(l0) + beta*log(1 + r) + gamma*log(1 + 1/(d + epsilon))

with no intercept (the law carries no multiplicative constant).  The
runtime law does carry a constant, so its design gets an intercept column
and the fitted intercept becomes ``log c``.  Each form's coefficients, in column order, are the one table
``laws._FORM_COEFFICIENTS``, and ``_COLUMNS`` gives each coefficient its column: they decide the columns of
:func:`build_design`, the column names and the intercept of :func:`ols_fit`, and the law :func:`fit_law` returns,
in which an exponent the form does not fit is 0.

Solving takes one singular value decomposition ``X = U S V^T``, not the normal equations: ``cond(X)`` is
``s_max / s_min``, guarded at 1e8 before anything divides by ``S``, and ``b = V S^-1 U^T y``.  R-squared follows the
convention of standard statistics packages and is decided by the design form, never by the data values: uncentered
(``1 - SSR/sum(y**2)``, ``p`` model degrees of freedom) for the intercept-free forms, centered (``p - 1``) for the
runtime form.  A bare :func:`ols_fit` call without a form has no intercept.  A sum of squares within rounding of 0
for the scale of ``y`` is 0, so a fit that leaves nothing to explain has R-squared 1 at any scale.

Bulk paths pass records as a :class:`~compresslaw.laws.Table` of columns; :func:`build_design` turns any other
sequence into one.  It takes the grid columns ``l0``, ``r`` and ``d`` with one value per row, whether a table
holds them per row (read from CSV) or as grid axes (``generate``), and maps
:func:`~compresslaw.laws.log_feature_columns` over them once per distinct value of a column of at least
``_DISTINCT_MIN_ROWS`` rows.

Records are checked once, when they are built, and only code that checked them builds a table; its rows are not
checked again.  So :func:`build_design` checks only what the records do not: one metric kind, runtime records for
the runtime form, enough rows, and a finite design, which is one test of the sum of ``X`` and ``y``, since every
entry is a log.  It writes the features into one C-contiguous array (the bits of ``X @ b`` depend on the layout) and
``y`` with ``math.log`` row by row.  Such a design passes every check of :func:`ols_fit`, which checks its arguments
and then runs the unchecked core ``_solve``: :func:`fit_law` runs the core alone.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from .errors import DomainError, SingularDesignError
from .laws import (
    _FLOAT_ERRORS,
    _FORM_COEFFICIENTS,
    CompressionLaw,
    DesignForm,
    ExperimentRecord,
    FeasibilityWarning,
    FitStatistics,
    MetricKind,
    RuntimeLaw,
    SignViolation,
    Table,
    _optional,
    _quote,
    _require_form,
    check_feasibility,
    log_feature_columns,
    require_positive,
)

__all__ = [
    "build_design",
    "ols_fit",
    "fit_law",
]

CONDITION_NUMBER_LIMIT = 1e8

# Each coefficient's design column: its name in diagnostics, and its index in a log_feature_columns triple (None for
# the intercept, a column of ones).
_COLUMNS = {"alpha": ("log_l0", 0), "beta": ("log_ratio", 1), "gamma": ("log_data", 2), "log_c": ("intercept", None)}


# Shorter columns are mapped value by value: on a short column, such as a 45-row fit's, np.unique's sort and gather
# cost more than the log transforms they save.
_DISTINCT_MIN_ROWS = 256


def _map_distinct(transform, *columns: Sequence[float]) -> list:
    """``transform(*columns)`` for float ``columns`` of one length.  Entry ``i`` of each list it returns depends
    on entry ``i`` of its column alone, so if the columns have at least ``_DISTINCT_MIN_ROWS`` values,
    ``transform`` is given each as its distinct bit patterns (``-0.0`` apart from ``0.0``), and the results are
    gathered back to its length as float64 arrays.  Shorter columns go straight to ``transform``."""
    if len(columns[0]) < _DISTINCT_MIN_ROWS:
        return transform(*columns)
    distinct = [np.unique(np.asarray(column, float).view(np.int64), return_inverse=True) for column in columns]
    results = transform(*(bits.view(np.float64).tolist() for bits, _ in distinct))
    return [np.array(result)[inverse] for result, (_, inverse) in zip(results, distinct)]


def _record_table(records) -> Table:
    """``records`` as a table, read by :meth:`Table.of`, whose ``TypeError`` or ``AttributeError`` on anything
    but records is a :class:`DomainError` that names them."""
    try:
        return Table.of(ExperimentRecord, records)
    except (TypeError, AttributeError):
        raise DomainError(f"records must be a sequence of ExperimentRecords, got {_quote.repr(records)}") from None


def build_design(
    records: Sequence[ExperimentRecord],
    epsilon: float = 1.0,
    form: DesignForm = DesignForm.FULL,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the (X, y) regression problem in log space.

    Args:
        records: Observations sharing one metric kind, as a
            :class:`~compresslaw.laws.Table` or any sequence of records.
        epsilon: Smoothing constant for the RFT factor.
        form: Which columns to include; see :class:`DesignForm`.

    Returns:
        ``X`` of shape (n, p) and ``y = log(l)`` of shape (n,).  Columns in
        the order given by the form, taken from
        :func:`~compresslaw.laws.log_feature_columns`: FULL is ``[log l0,
        log(1+r), log(1 + 1/(d+epsilon))]``; RUNTIME is ``[1, log(1+r)]``.

    Raises:
        DomainError: Records that are not a sequence of records, a form
            that is not a :class:`DesignForm`, mixed metric kinds, the
            runtime form on loss or accuracy records, too few records (need
            at least p + 1), or a non-finite transform.
    """
    epsilon, form = require_positive("epsilon", epsilon), _require_form("form", form)
    table = _record_table(records)
    coefficients = _FORM_COEFFICIENTS[form]
    n, p = len(table), len(coefficients)
    if n < p + 1:
        raise DomainError(f"need at least {p + 1} records for the {form.value} form, got {n}")
    # Each value of a column is in some row.  tuple.count compares by identity first; hashing an enum member runs
    # Python code.
    metric = table.columns[1]
    if metric.count(metric[0]) != len(metric):
        raise DomainError(f"records mix metric kinds: {sorted(m.value for m in set(metric))}")
    if form is DesignForm.RUNTIME and metric[0] is not MetricKind.RUNTIME:
        raise DomainError(f"the runtime form fits runtime records, got {metric[0].value} records")

    features = _map_distinct(lambda *columns: log_feature_columns(*columns, epsilon), *map(table.column, (2, 3, 4)))
    # One C-contiguous array: the bits of x @ coef depend on the layout, which x.tobytes() does not show.
    x = np.empty((n, p))
    for j, name in enumerate(coefficients):
        index = _COLUMNS[name][1]
        x[:, j] = 1.0 if index is None else features[index]
    y = np.fromiter(map(math.log, table.columns[5]), float, n)
    # The entries are logs of finite floats, so their sum overflows only if one of them is inf or nan.
    if not math.isfinite(x.sum() + y.sum()):
        raise DomainError("log transform produced non-finite design entries")
    return x, y


def _name_collinear_columns(x: np.ndarray, form: DesignForm | None) -> str:
    names = [_COLUMNS[c][0] for c in _FORM_COEFFICIENTS[form]] if form else [f"x{j}" for j in range(x.shape[1])]
    norms = np.sqrt((x * x).sum(axis=0))
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
    """:func:`ols_fit`'s unchecked core, on arrays that passed its checks, also returning the residuals ``y - X b``."""
    n, p = x.shape
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        condition = s[0].item() / s[-1].item() if s[-1] else math.inf
    except np.linalg.LinAlgError:  # LAPACK's SVD did not converge, so there is no condition number
        condition = math.nan
    if not condition <= CONDITION_NUMBER_LIMIT:
        raise SingularDesignError(f"design is rank deficient or ill conditioned (cond = {condition:.3g}); "
                                  + _name_collinear_columns(x, form))
    coef = vt.T @ ((u.T @ y) / s)

    residuals = y - x @ coef
    # fsum is correctly rounded, so the sums do not depend on how a threaded BLAS splits a dot product.
    ssr = math.fsum((residuals * residuals).tolist())
    # Only a form that fits log c has an intercept; it centers R^2 and is not a model degree of freedom.
    intercepts = _FORM_COEFFICIENTS.get(form, ()).count("log_c")
    mean = float(y.mean()) if intercepts else 0.0
    centered = y - mean if intercepts else y
    tss = math.fsum((centered * centered).tolist())
    # Rounding leaves up to ~n * eps * |y| in each residual of an exact fit, as the solve's dot products have n
    # terms, and in each centred entry of a constant y: a sum of squares below (n * p * eps)**2 * sum(y**2) is 0.
    zero = (n * p * math.ulp(1.0)) ** 2 * (tss + n * mean * mean)
    if tss > zero:
        r_squared = max(1.0 - ssr / tss, 0.0)
    else:
        r_squared = 1.0 if ssr <= zero else 0.0
    adj = 1.0 - (1.0 - r_squared) * (n - intercepts) / (n - p)
    # A design has a column besides its intercept, so p - intercepts is at least 1.
    if r_squared < 1.0:
        f_stat = (r_squared / (p - intercepts)) / ((1.0 - r_squared) / (n - p))
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
    """Solve ``min ||X b - y||^2`` by SVD and compute fit statistics.

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
        DomainError: Checked here, then the unchecked core runs: a form
            that is neither ``None`` nor a :class:`DesignForm`, an ``x`` or
            ``y`` that is not an array of numbers, no columns, a non-finite
            entry in ``x`` or ``y``, shapes that do not fit, no more rows
            than columns, or not the form's number of columns.
        SingularDesignError: Rank deficiency (condition number above
            ``CONDITION_NUMBER_LIMIT``) or an SVD that does not converge;
            the message names the offending columns.
    """
    _optional(_require_form)("form", form)
    x, y = _float_array("x", x), _float_array("y", y)
    if x.ndim == 2 and not x.shape[1]:
        raise DomainError("the design has no columns")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("design entries must be finite")
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DomainError(f"incompatible shapes X{x.shape}, y{y.shape}")
    n, p = x.shape
    if n <= p:
        raise DomainError(f"need more rows than columns, got {n} x {p}")
    if form is not None and (width := len(_FORM_COEFFICIENTS[form])) != p:
        raise DomainError(f"the {form.value} form has {width} columns, X has {p}")
    coef, stats, _ = _solve(x, y, form)
    return coef, stats


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, or :class:`DomainError` if numpy cannot make one of it.  A 0-d array is one
    number, not an array (``None`` converts to a 0-d nan)."""
    try:
        if (array := np.asarray(value, dtype=float)).ndim:
            return array
    except _FLOAT_ERRORS:
        pass
    raise DomainError(f"{name} must be an array of numbers, got {_quote.repr(value)}")


def _fit(
    records: Sequence[ExperimentRecord], epsilon: float, form: DesignForm
) -> tuple[CompressionLaw | RuntimeLaw, list[SignViolation], np.ndarray]:
    """Build the design once, solve it and return the law, its sign violations and log-residuals.

    An exponent the form does not fit is pinned to 0, and its sign is exempt
    from the violations.
    """
    table = _record_table(records)
    x, y = build_design(table, epsilon=epsilon, form=form)
    coef, stats, residuals = _solve(x, y, form)
    fitted = dict(zip(_FORM_COEFFICIENTS[form], coef.tolist()))
    if "log_c" in fitted:
        return RuntimeLaw(math.exp(fitted["log_c"]), fitted["beta"], stats), [], residuals
    law = CompressionLaw(fitted["alpha"], fitted.get("beta", 0.0), fitted.get("gamma", 0.0), table.columns[1][0],
                         epsilon, stats)
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
