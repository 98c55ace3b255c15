"""The numpy-backed tables: experiment CSV and fit reports.

The ``compresslaw/v1`` JSON codec, the fit report's included, is
:mod:`compresslaw.documents`, and the frontier tables are
:mod:`compresslaw.frontier`; neither imports numpy.  This module re-exports
their public names as the same objects and builds the fit report it writes.
The frontier names are served on first access (PEP 562), and the writers
import the row joiner when they run, so reading records loads no frontier.

* experiment CSV: header ``model_id,metric,l0,r,d,l`` with metric one of
  ``loss``/``accuracy``/``runtime``; plain decimal numbers only (``d`` takes
  no unit suffixes).  It is read into, and written from, a
  :class:`~compresslaw.laws.Table` of records.

Bulk input is read into columns, a block of whole lines at a time: a block
of plain lines (no quote, NUL or stray line-end character, the header's
number of fields) is cut with ``str.split`` into the fields ``csv.reader``
would return, and ``csv.reader`` reads any other block.  In each block, each
distinct text of ``l0``, ``r`` and ``d`` is parsed once, and the observed
``l`` one by one.
A chunk's numbers are tested in bulk against the ``bounds`` of the record's
validators in :mod:`compresslaw.laws`, and only a row that fails is parsed
as a record, whose checks word its error.
The float columns of the table are read-only memoryviews of float64 arrays,
which numpy takes back without a copy, so a read table does not pickle.
Bulk output is written from a table's columns by the table writer of
:mod:`compresslaw.frontier`, byte for byte what ``csv.writer`` (``\r\n``
line ends) writes for the same rows: each value a column holds is formatted
once (a grid axis value once, however many rows repeat it), and each
distinct label is quoted once.  Every reader raises
:class:`~compresslaw.errors.DataFormatError`, and nothing else, on any
malformed input, bytes that are not UTF-8 included.  A failed read leaves
no reference cycle for the garbage collector: a bad row is kept as its
message, and no exception outlives the ``except`` block that caught it.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import sys
import warnings
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import documents
from .documents import *  # noqa: F403  (documents.__all__, re-exported; FitReport is used here)
from .documents import _open_for_read
from .errors import DataFormatError, DomainError
from .laws import DesignForm, ExperimentRecord, MetricKind, Table, _quote
from .regression import _fit

# compresslaw.frontier's public names, re-exported on first access.
_FRONTIER_NAMES = ("FrontierPoint", "emit_frontier_grid", "write_frontier")

__all__ = [
    *documents.__all__,
    "RECORD_COLUMNS",
    "SkippedRowWarning",
    "read_records",
    "write_records",
    "build_fit_report",
    *_FRONTIER_NAMES,
]

RECORD_COLUMNS = ("model_id", "metric", "l0", "r", "d", "l")


def __getattr__(name: str):
    """The frontier names: the same objects as :mod:`compresslaw.frontier`'s, which loads on first access."""
    if name not in _FRONTIER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import frontier
    return getattr(frontier, name)


class SkippedRowWarning(UserWarning):
    """Lenient CSV parsing skipped an invalid row."""


# ---------------------------------------------------------------------------
# experiment records (CSV)
# ---------------------------------------------------------------------------


def _parse_record(fields: Sequence, row_number: int) -> ExperimentRecord:
    """The record of a row's ``fields`` in ``RECORD_COLUMNS`` order, or the error of its first bad field."""
    model_id, raw_metric, *texts = fields
    try:
        metric = MetricKind(str(raw_metric).strip().lower())
    except ValueError:
        raise DataFormatError(f"row {row_number}: field 'metric' has unknown value {_quote.repr(raw_metric)}") from None
    numbers = []
    for field, raw in zip(RECORD_COLUMNS[2:], texts):
        try:
            numbers.append(float(raw))
        except (TypeError, ValueError):
            raise DataFormatError(f"row {row_number}: field '{field}' is not a number: {_quote.repr(raw)}") from None
    try:
        return ExperimentRecord(str(model_id or ""), metric, *numbers)
    except DomainError as exc:
        raise DataFormatError(f"row {row_number}: {exc}") from exc


# Characters of body text read per block: memory holds about one block of text at a time.
_BLOCK_CHARS = 1 << 16
_METRICS = {kind.value: kind for kind in MetricKind}
_FLOAT_BOUNDS = [ExperimentRecord._checks[name].bounds for name in RECORD_COLUMNS[2:]]  # of l0, r, d and l


def _parse_floats(texts: Sequence) -> np.ndarray:
    """``float`` of every text, NaN where it is not a number."""
    try:
        return np.array(list(map(float, texts)), float)
    except (TypeError, ValueError):
        return np.array(list(map(_float_or_nan, texts)), float)


def _float_or_nan(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _parse_grid_column(texts: Sequence) -> np.ndarray:
    """:func:`_parse_floats` of a grid column, whose values repeat: once per distinct text."""
    distinct = list(dict.fromkeys(texts))
    values = dict(zip(distinct, _parse_floats(distinct).tolist()))
    return np.fromiter(map(values.__getitem__, texts), float, len(texts))


def _parse_chunk(columns: Sequence[Sequence], short: list[int], first_row: int, strict: bool) -> tuple[list, list[str]]:
    """The columns of the valid rows and the error messages of the others; if ``strict``, the first invalid row
    raises its own error instead.  ``columns`` holds the fields of ``RECORD_COLUMNS``, one sequence per column, of
    rows numbered from ``first_row``.  A vectorized mask picks the suspects (``short``, an unknown metric, a value
    not a number or out of domain); :func:`_parse_record` decides on them and words the error."""
    model_id, raw_metric, *grid, observed = columns
    metric = list(map(_METRICS.get, raw_metric))
    l0, r, d, l = floats = [*map(_parse_grid_column, grid), _parse_floats(observed)]
    valid = functools.reduce(operator.and_, [(low <= v) & (v < high) for v, (low, high) in zip(floats, _FLOAT_BOUNDS)])
    if None in metric:  # an unknown metric; the membership test is cheap, an object array per chunk is not
        valid &= np.array([m is not None for m in metric])
    valid[short] = False
    errors, model_id = [], list(model_id)
    for i in np.flatnonzero(~valid).tolist():
        try:
            record = _parse_record([column[i] for column in columns], first_row + i)
        except DataFormatError as exc:
            if strict:
                raise
            errors.append(str(exc))
            continue
        valid[i] = True
        model_id[i], metric[i], l0[i], r[i], d[i], l[i] = (getattr(record, c) for c in RECORD_COLUMNS)
    if not valid.all():
        model_id, metric = itertools.compress(model_id, valid), list(itertools.compress(metric, valid))
        l0, r, d, l = l0[valid], r[valid], d[valid], l[valid]
    # Equal ids become one string: the batch keeps them long after their text is gone.
    return [list(map(sys.intern, model_id)), metric, l0, r, d, l], errors


def _split_plain(lines: list[str], width: int, positions: Sequence[int]) -> list[list[str]] | None:
    """The fields at ``positions`` of ``lines``, one list per position, as ``csv.reader`` splits them; or
    ``None`` unless every line is plain.  A plain line is ``width`` fields joined by commas, then line-end
    characters, with no quote, NUL or line-end character inside, and no longer than the csv field limit.
    ``width`` is at least 2, so a blank line, which csv skips, is never plain."""
    rows = list(map(str.rstrip, lines, itertools.repeat("\r\n")))
    # Rows are joined by a field "\n" that no plain row holds, so a row of `width` fields puts one at every
    # (width + 1)-th field, and a row of any other width moves the ones after it.
    text = ",\n,".join(rows)
    # csv before Python 3.11 rejects a line holding NUL.
    if '"' in text or "\r" in text or "\x00" in text or text.count("\n") != len(rows) - 1:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, rows)) > limit:
        return None
    fields = text.split(",")
    if len(fields) != len(rows) * (width + 1) - 1 or fields[width :: width + 1].count("\n") != len(rows) - 1:
        return None
    return [fields[j :: width + 1] for j in positions]


def _body_chunks(fh, width: int, positions: Sequence[int]) -> Iterator[tuple[list, list[int], str | None]]:
    """The rows after the header as chunks ``(columns, short, error)``: the fields at ``positions``, one
    sequence per position; the indexes of the ``short`` rows, which have ``None`` for the fields they lack;
    and the message of the ``csv.Error`` that ended the chunk, if one did.

    The text is read in blocks of whole lines, and each block is one chunk, or one more per ``csv.Error``.
    A block of plain lines is split in bulk; ``csv.reader`` reads any other, handed the lines as the stream
    splits them, and reads past the block only to close a quoted field still open at its end.
    """
    fields_of, last = operator.itemgetter(*positions), max(positions)
    while lines := fh.readlines(_BLOCK_CHARS):
        if (columns := _split_plain(lines, width, positions)) is not None:
            yield columns, [], None
            continue
        reader = csv.reader(itertools.chain(lines, fh))
        while reader.line_num < len(lines):
            # Rows become tuples of their fields at once: holding the csv
            # module's row lists would keep the garbage collector busy.
            rows, short, error = [], [], None
            try:
                for row in reader:
                    if len(row) > last:
                        rows.append(fields_of(row))
                    elif row:
                        short.append(len(rows))
                        rows.append(tuple(row[j] if j < len(row) else None for j in positions))
                    if reader.line_num >= len(lines):
                        break
            except csv.Error as exc:
                error = str(exc)  # the reader resumes at the next line, so a bad line costs one row
            yield list(zip(*rows)) or [()] * len(positions), short, error


def read_records(source, *, strict: bool = True) -> Table:
    """Read records from CSV (path or open stream) as a :class:`~compresslaw.laws.Table`.

    Strict mode aborts on the first invalid row with a row-numbered error;
    lenient mode skips invalid rows, emitting a :class:`SkippedRowWarning`
    per skipped row.  A row the csv module cannot split is invalid too.
    Blank lines are skipped and not numbered; the header is row 1.  The body
    is read in blocks into columns, as the module docstring describes, and
    the fields are those ``csv.reader`` returns.
    """
    with _open_for_read(source, "records") as fh:
        try:
            header = next(csv.reader(fh), None)
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
        parts, row_number = [], 1
        for columns, short, split_error in _body_chunks(fh, len(header), positions):
            part, errors = _parse_chunk(columns, short, row_number + 1, strict)
            parts.append(part)
            row_number += len(columns[0])
            if split_error is not None:
                row_number += 1
                errors.append(f"row {row_number}: {split_error}")
            if errors and strict:  # a bad row raised its own error in _parse_chunk, so this is the split error
                raise DataFormatError(errors[0])
            for message in errors:
                warnings.warn(message, SkippedRowWarning, stacklevel=2)
    model_id, metric, *floats = zip(*parts) if parts else [()] * len(RECORD_COLUMNS)
    chain = itertools.chain.from_iterable
    # Read-only memoryviews of the float64 arrays: numpy takes them back without a copy.
    floats = [memoryview(np.concatenate((np.empty(0), *c))).toreadonly() for c in floats]
    return Table(ExperimentRecord, [tuple(chain(model_id)), tuple(chain(metric)), *floats])


def write_records(records: Iterable[ExperimentRecord], dest) -> None:
    """Write records as CSV with lossless (repr) float formatting, through the table writer of
    :mod:`compresslaw.frontier`."""
    from .frontier import _write_csv
    _write_csv(dest, RECORD_COLUMNS, Table.of(ExperimentRecord, records))


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------


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
    return FitReport(law, law.stats, [str(v) for v in violations], residuals.tolist())
