"""The numpy-backed tables: experiment CSV, fit reports and frontier tables.

The ``compresslaw/v1`` JSON codec for laws, registries and grids is
:mod:`compresslaw.documents`, which imports no numpy.  This module re-exports
its public names as the same objects and reads and writes the fit report with it.

* experiment CSV: header ``model_id,metric,l0,r,d,l`` with metric one of
  ``loss``/``accuracy``/``runtime``; plain decimal numbers only (``d`` takes
  no unit suffixes).  It is read into, and written from, a
  :class:`~compresslaw.regression.RecordBatch`.
* fit-report JSON: law + stats + feasibility warnings + per-record
  log-residuals; serialization is byte-stable for identical inputs, and the
  law's copy of the stats equals the report's.
* frontier table (CSV or JSON): one row ``l0, r, d, predicted`` per grid
  point.  :func:`emit_frontier_grid` returns the points as a read-only
  sequence of :class:`FrontierPoint` over float64 columns, not a ``list``.

Bulk output is written from columns: each distinct float of a column is
formatted once, and rows are joined strings, byte for byte what
``csv.writer`` (``\r\n`` line ends) and ``json.dumps`` write for the same rows.
Every reader raises :class:`~compresslaw.errors.DataFormatError`, and nothing
else, on any malformed input.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import reprlib
import warnings
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import documents
from .documents import *  # noqa: F403  (SCHEMA_VERSION, law_to_dict, ...: documents.__all__, re-exported)
from .documents import _check_fields, _decode_num, _dump_document, _open_for_read, _open_for_write, _parse_document
from .documents import _stats_from_dict, _stats_to_dict
from .errors import DataFormatError, DomainError
from .laws import CompressionLaw, DesignForm, ExperimentRecord, FitStatistics, MetricKind, RuntimeLaw, _checked_exp
from .regression import RecordBatch, _Columns, _fit, _read_only
from .synth import _grid_axes, _grid_log_prediction

__all__ = [
    *documents.__all__,
    "RECORD_COLUMNS",
    "SkippedRowWarning",
    "read_records",
    "write_records",
    "FitReport",
    "build_fit_report",
    "report_to_json",
    "report_from_json",
    "FrontierPoint",
    "emit_frontier_grid",
    "write_frontier",
]

RECORD_COLUMNS = ("model_id", "metric", "l0", "r", "d", "l")


class SkippedRowWarning(UserWarning):
    """Lenient CSV parsing skipped an invalid row."""


# ---------------------------------------------------------------------------
# experiment records (CSV)
# ---------------------------------------------------------------------------


def _parse_record(row: dict, row_number: int) -> ExperimentRecord:
    raw_metric = row.get("metric")
    try:
        metric = MetricKind(str(raw_metric).strip().lower())
    except ValueError:
        message = f"row {row_number}: field 'metric' has unknown value {reprlib.repr(raw_metric)}"
        raise DataFormatError(message) from None

    def number(field: str) -> float:
        raw = row.get(field)
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise DataFormatError(f"row {row_number}: field '{field}' is not a number: {reprlib.repr(raw)}") from None

    try:
        return ExperimentRecord(
            model_id=str(row.get("model_id") or ""),
            metric=metric,
            l0=number("l0"),
            r=number("r"),
            d=number("d"),
            l=number("l"),
        )
    except DomainError as exc:
        raise DataFormatError(f"row {row_number}: {exc}") from exc


# Rows read or written per chunk: memory holds at most this many rows of text at once.
_CHUNK_ROWS = 8192
_METRICS = {kind.value: kind for kind in MetricKind}


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _float_column(texts: tuple) -> np.ndarray:
    try:
        return np.array(list(map(float, texts)))
    except (TypeError, ValueError):
        return np.array(list(map(_float_or_nan, texts)))


def _parse_chunk(rows: list[tuple], short: list[int], first_row: int) -> tuple[RecordBatch, list[DataFormatError]]:
    """A batch of the valid ``rows`` (tuples of ``RECORD_COLUMNS`` fields, numbered from ``first_row``)
    and the errors of the others.  A vectorized mask picks the suspects (``short``, an unknown metric, a value
    not a number or out of domain); :func:`_parse_record` decides on them and words the error."""
    model_id, raw_metric, *texts = zip(*rows) if rows else [()] * len(RECORD_COLUMNS)
    metric = [_METRICS.get(text) for text in raw_metric]
    l0, r, d, l = map(_float_column, texts)
    valid = (0.0 < l0) & (l0 < math.inf) & (0.0 <= r) & (r < 1.0) & (0.0 <= d) & (d < math.inf)
    valid &= (0.0 < l) & (l < math.inf) & np.not_equal(metric, None)
    valid[short] = False
    errors, model_id = [], list(model_id)
    for i in np.flatnonzero(~valid).tolist():
        try:
            record = _parse_record(dict(zip(RECORD_COLUMNS, rows[i])), first_row + i)
        except DataFormatError as exc:
            errors.append(exc)
            continue
        valid[i] = True
        model_id[i], metric[i], l0[i], r[i], d[i], l[i] = (getattr(record, c) for c in RECORD_COLUMNS)
    model_id, metric = itertools.compress(model_id, valid), itertools.compress(metric, valid)
    l0, r, d, l = l0[valid], r[valid], d[valid], l[valid]
    return RecordBatch(model_id, metric, l0, r, d, l), errors


def read_records(source, *, strict: bool = True) -> RecordBatch:
    """Read a :class:`~compresslaw.regression.RecordBatch` from CSV (path or open stream).

    Strict mode aborts on the first invalid row with a row-numbered error;
    lenient mode skips invalid rows, emitting a :class:`SkippedRowWarning`
    per skipped row.  A row the csv module cannot split is invalid too.
    Blank lines are skipped and not numbered; the header is row 1.  Rows are
    parsed ``_CHUNK_ROWS`` at a time.
    """
    with _open_for_read(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataFormatError(f"row 1: {exc}") from None
        if header is None:
            raise DataFormatError("empty input: expected a header row")
        missing = [c for c in RECORD_COLUMNS if c not in header]
        if missing:
            raise DataFormatError(f"missing required column(s): {missing}")
        extra = [c for c in header if c not in RECORD_COLUMNS]
        if extra and strict:
            raise DataFormatError(f"unknown column(s): {extra}")
        # As in csv.DictReader, the last column of a repeated name wins and a
        # short row has None for the fields it lacks.
        index = {name: j for j, name in enumerate(header)}
        positions = [index[name] for name in RECORD_COLUMNS]
        fields_of, last = operator.itemgetter(*positions), max(positions)
        parts, row_number = [], 1
        while True:
            # Rows become tuples of their fields at once: holding the csv
            # module's row lists would keep the garbage collector busy.
            rows, short, split_errors = [], [], []
            try:
                for row in reader:
                    if len(row) > last:
                        rows.append(fields_of(row))
                    elif row:
                        short.append(len(rows))
                        rows.append(tuple(row[j] if j < len(row) else None for j in positions))
                    if len(rows) == _CHUNK_ROWS:
                        break
            except csv.Error as exc:
                # The reader resumes at the next line, so a bad line costs one row.
                split_errors.append(DataFormatError(f"row {row_number + len(rows) + 1}: {exc}"))
            batch, errors = _parse_chunk(rows, short, row_number + 1)
            parts.append(batch)
            row_number += len(rows) + len(split_errors)
            for error in errors + split_errors:
                if strict:
                    raise error
                warnings.warn(str(error), SkippedRowWarning, stacklevel=2)
            if len(rows) < _CHUNK_ROWS and not split_errors:
                break
    columns = [[getattr(part, name) for part in parts] for name in RecordBatch.__slots__]
    return RecordBatch(*map(itertools.chain.from_iterable, columns[:2]), *map(np.concatenate, columns[2:]))


def _quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row of several."""
    if not text:
        return text  # a row of one empty field would be written as ""
    buffer = StringIO()
    # Strip the default terminator: with lineterminator="" csv would not quote "\r" and "\n".
    csv.writer(buffer).writerow((text,))
    return buffer.getvalue()[:-2]


def _format_floats(column: np.ndarray) -> list[str]:
    """``repr`` of every value of a float64 column.  Each distinct bit pattern (so ``-0.0`` apart from
    ``0.0``) is formatted once and gathered back, unless most values are distinct."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(column):
        return list(map(repr, column.tolist()))
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse].tolist()


def _format_column(column) -> list[str]:
    """The fields of a float64 array (its values' ``repr``) or of a sequence of text (quoted for CSV)."""
    if isinstance(column, np.ndarray):
        return _format_floats(column)
    fields = {text: _quote(text) for text in set(column)}
    return list(map(fields.__getitem__, column))


def _text_chunks(columns: Sequence, layout: Sequence[str]) -> Iterator[str]:
    """The rows of ``columns`` as text, ``_CHUNK_ROWS`` rows per chunk.  A row is ``layout[0]``, its field of
    the first column, ``layout[1]``, ..., its field of the last column, ``layout[-1]``."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        parts = [itertools.repeat(layout[0])]
        for column, literal in zip(columns, layout[1:]):
            parts += (_format_column(column[start : start + _CHUNK_ROWS]), itertools.repeat(literal))
        yield "".join(map("".join, zip(*parts)))


def _write_csv(dest, header: Sequence[str], columns: Sequence) -> None:
    """The one CSV writer: ``header``, then a row per index of ``columns`` (float64 arrays or sequences of
    text), byte for byte as ``csv.writer`` writes them."""
    with _open_for_write(dest) as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for text in _text_chunks(columns, ("", *[","] * (len(header) - 1), "\r\n")):
            fh.write(text)


def write_records(records: Iterable[ExperimentRecord], dest) -> None:
    """Write records as CSV with lossless (repr) float formatting."""
    records = RecordBatch.from_records(records if isinstance(records, Sequence) else list(records))
    # _value_ is .value without its descriptor call
    metrics = list(map(operator.attrgetter("_value_"), records.metric))
    _write_csv(dest, RECORD_COLUMNS, (records.model_id, metrics, records.l0, records.r, records.d, records.l))


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """A fitted law, its statistics (equal to the law's own), feasibility warnings and log-residuals."""

    law: CompressionLaw | RuntimeLaw
    stats: FitStatistics
    warnings: tuple[str, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        # Compared as written, so that two "nan" statistics agree.
        if self.law.stats is None or _stats_to_dict(self.law.stats) != _stats_to_dict(self.stats):
            raise DomainError("the law's statistics disagree with the report's")
        if len(self.residuals) != self.stats.n:
            raise DomainError(f"residual count {len(self.residuals)} != sample count {self.stats.n}")


def build_fit_report(
    records: Sequence[ExperimentRecord],
    epsilon: float = 1.0,
    form: DesignForm = DesignForm.FULL,
) -> FitReport:
    """Fit a law and package it with statistics, feasibility notes and log-residuals.

    The notes are the sign violations :func:`~compresslaw.regression.fit_law`
    would warn about; this function emits no warnings.
    """
    law, violations, residuals = _fit(records, epsilon, form)
    return FitReport(
        law=law,
        stats=law.stats,
        warnings=tuple(str(v) for v in violations),
        residuals=tuple(residuals.tolist()),
    )


def report_to_json(report: FitReport) -> str:
    """Serialize a report; output is byte-stable for identical inputs."""
    text = _dump_document(
        {
            "kind": "fit_report",
            "law": law_to_dict(report.law),
            "stats": _stats_to_dict(report.stats),
            "warnings": list(report.warnings),
            "residuals": [],
        }
    )
    if not report.residuals:
        return text
    # indent=2 makes json use its pure-Python encoder, slow over 100k floats: the residuals, last in the
    # document, are spliced in one per line as indent=2 lays them out.
    values = np.array(report.residuals, dtype=float)
    fields = _format_floats(values)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        fields[i] = json.dumps(fields[i])
    return text[: -len("[]\n}\n")] + "[\n    " + ",\n    ".join(fields) + "\n  ]\n}\n"


def report_from_json(text: str) -> FitReport:
    doc = _parse_document(text, "fit report", "fit_report")
    _check_fields(doc, ("law", "stats", "warnings", "residuals"), (), "fit report")
    law = law_from_dict(doc["law"], "fit report.law")
    stats = _stats_from_dict(doc["stats"], "fit report.stats")
    if not isinstance(doc["warnings"], list) or not all(isinstance(w, str) for w in doc["warnings"]):
        raise DataFormatError("fit report: warnings must be a list of strings")
    if not isinstance(doc["residuals"], list):
        raise DataFormatError("fit report: residuals must be a list")
    residuals = tuple(_decode_num(v, "fit report.residuals") for v in doc["residuals"])
    try:
        return FitReport(law=law, stats=stats, warnings=tuple(doc["warnings"]), residuals=residuals)
    except DomainError as exc:
        raise DataFormatError(f"fit report: {exc}") from exc


# ---------------------------------------------------------------------------
# frontier tables
# ---------------------------------------------------------------------------


class FrontierPoint(NamedTuple):
    l0: float
    r: float
    d: float
    predicted: float


class _FrontierGrid(_Columns):
    """Frontier points as read-only float64 columns ``l0, r, d, predicted``: a read-only sequence of
    :class:`FrontierPoint`."""

    __slots__ = FrontierPoint._fields
    _row = FrontierPoint

    def __init__(self, l0, r, d, predicted) -> None:
        self.l0, self.r, self.d, self.predicted = map(_read_only, (l0, r, d, predicted))

    @classmethod
    def from_points(cls, points: Iterable[FrontierPoint]) -> _FrontierGrid:
        """``points`` itself if it is a grid, else its fields as columns."""
        if isinstance(points, _FrontierGrid):
            return points
        return cls(*np.array(list(points), dtype=float).reshape(-1, len(cls.__slots__)).T)


def emit_frontier_grid(
    law: CompressionLaw,
    l0_list: Sequence[float],
    r_grid: Sequence[float],
    d_grid: Sequence[float],
) -> Sequence[FrontierPoint]:
    """Predictions over the full grid, one point per row in lexicographic order, each equal to ``evaluate``'s.

    The points are a read-only sequence over float64 columns, not a list: indexing and iteration build
    :class:`FrontierPoint` values on demand, and it equals a list of the same points.
    """
    if not isinstance(law, CompressionLaw):
        raise DomainError("frontier grids need a compression law")
    l0, r, d, _, log_predicted = _grid_log_prediction(law, _grid_axes(l0_list, r_grid, d_grid))
    predicted = np.fromiter(map(_checked_exp, log_predicted.tolist()), float, len(log_predicted))
    return _FrontierGrid(l0, r, d, predicted)


def write_frontier(points: Iterable[FrontierPoint], dest) -> None:
    _write_csv(dest, FrontierPoint._fields, _FrontierGrid.from_points(points)._columns())


def _write_frontier_json(points: Iterable[FrontierPoint], dest) -> None:
    """The ``frontier`` JSON document, byte for byte as ``json.dumps`` writes it with a dict per point.  Its
    values are finite, which json writes with ``float.__repr__``, so the rows are spliced in from the columns."""
    columns = _FrontierGrid.from_points(points)._columns()
    head = json.dumps({"schema_version": SCHEMA_VERSION, "kind": "frontier", "rows": []})
    # Every row starts with the ", " that separates it from the one before; the first row drops it.
    layout = (', {"l0": ', ', "r": ', ', "d": ', ', "predicted": ', "}")
    with _open_for_write(dest) as fh:
        fh.write(head[: -len("]}")])
        for i, text in enumerate(_text_chunks(columns, layout)):
            fh.write(text[len(", ") :] if i == 0 else text)
        fh.write("]}\n")
