"""CSV ingestion, law, registry and grid reading, fit reports, frontier tables.

File formats (all JSON but the grid versioned with ``compresslaw/v1``):

* experiment CSV: header ``model_id,metric,l0,r,d,l`` with metric one of
  ``loss``/``accuracy``/``runtime``; plain decimal numbers only (``d`` takes
  no unit suffixes).  It is read into, and written from, a
  :class:`~compresslaw.regression.RecordBatch`.
* law JSON: a single compression or runtime law, optionally with fit stats
  (``n`` and ``p`` are JSON integers).
* fit-report JSON: law + stats + feasibility warnings + per-record
  log-residuals; serialization is byte-stable for identical inputs, and the
  law's copy of the stats equals the report's.
* law-registry JSON: laws keyed by (model_id, metric, method_tag) with a
  free-text provenance note each.
* grid JSON (``synth`` input): lists of numbers ``l0_values``, ``r_values``,
  ``d_values`` and an optional string ``model_id``.
* frontier table (CSV or JSON): one row ``l0, r, d, predicted`` per grid
  point.  :func:`emit_frontier_grid` returns the points as a read-only
  sequence of :class:`FrontierPoint` over float64 columns, not a ``list``.

Floats are written with ``repr`` (shortest exact form), so round trips are
lossless; non-finite statistics (an exact fit has an infinite F-statistic)
are encoded as the strings ``"inf"``/``"-inf"``/``"nan"``.  Each JSON document
is read only as it is written: a number is a JSON number or one of those three
strings, and an unknown field is an error.  Bulk output is
written from columns: each distinct float of a column is formatted once, and
rows are joined strings, byte for byte what ``csv.writer`` (``\r\n`` line
ends) and ``json.dumps`` write for the same rows.

Every reader raises :class:`~compresslaw.errors.DataFormatError`, and nothing
else, on any malformed document.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import reprlib
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from io import StringIO
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, DomainError
from .laws import CompressionLaw, MetricKind, RuntimeLaw, _checked_exp
from .planner import CandidateModel
from .regression import DesignForm, ExperimentRecord, FitStatistics, RecordBatch, _Columns, _fit, _read_only
from .synth import _grid_axes, _grid_log_prediction

__all__ = [
    "SCHEMA_VERSION",
    "RECORD_COLUMNS",
    "SkippedRowWarning",
    "read_records",
    "write_records",
    "law_to_dict",
    "law_from_dict",
    "save_law",
    "load_law",
    "FitReport",
    "build_fit_report",
    "report_to_json",
    "report_from_json",
    "RegistryEntry",
    "LawRegistry",
    "registry_to_json",
    "registry_from_json",
    "load_registry",
    "builtin_registry",
    "load_grid",
    "FrontierPoint",
    "emit_frontier_grid",
    "write_frontier",
    "candidates_from_registry",
]

SCHEMA_VERSION = "compresslaw/v1"
RECORD_COLUMNS = ("model_id", "metric", "l0", "r", "d", "l")


class SkippedRowWarning(UserWarning):
    """Lenient CSV parsing skipped an invalid row."""


@contextmanager
def _open_for_read(source):
    if hasattr(source, "read"):
        yield source
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh


@contextmanager
def _open_for_write(dest):
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


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
# JSON plumbing
# ---------------------------------------------------------------------------


def _read_text(source) -> str:
    with _open_for_read(source) as fh:
        return fh.read()


def _parse_document(text: str, context: str, kind: str | None = None, *, versioned: bool = True) -> dict:
    """The top-level object of a JSON document, minus its checked ``schema_version`` (if
    ``versioned``) and ``kind`` (if given); every failure is a :class:`DataFormatError`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{context}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{context}: expected a JSON object, got {type(doc).__name__}")
    if versioned:
        version = doc.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise DataFormatError(f"{context}: schema_version must be {SCHEMA_VERSION!r}, got {reprlib.repr(version)}")
    if kind is not None:
        found = doc.pop("kind", None)
        if found != kind:
            raise DataFormatError(f"{context}: kind must be {kind!r}, got {reprlib.repr(found)}")
    return doc


def _dump_document(doc: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n"


def _encode_num(value: float):
    value = float(value)
    return value if math.isfinite(value) else repr(value)


# The strings _encode_num writes for the non-finite values: the only strings read as numbers.
_NON_FINITE = frozenset(map(repr, (math.inf, -math.inf, math.nan)))


# Decoders quote a bad value with reprlib.repr: short, and bounded however deeply it nests.
def _decode_num(value, context: str) -> float:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number or isinstance(value, str) and value in _NON_FINITE:
        try:
            return float(value)
        except OverflowError:
            pass
    raise DataFormatError(f"{context}: expected a number, got {reprlib.repr(value)}")


def _decode_int(obj: dict, field: str, context: str) -> int:
    value = obj[field]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DataFormatError(f"{context}.{field}: expected an integer, got {reprlib.repr(value)}")


def _decode_str(value, context: str) -> str:
    if isinstance(value, str):
        return value
    raise DataFormatError(f"{context}: expected a string, got {reprlib.repr(value)}")


def _decode_enum(enum_type, obj: dict, field: str, context: str):
    value = obj[field]
    if isinstance(value, str):
        try:
            return enum_type(value)
        except ValueError:
            pass
    raise DataFormatError(f"{context}: unknown {field} {reprlib.repr(value)}")


def _check_fields(obj: dict, required: Sequence[str], optional: Sequence[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise DataFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise DataFormatError(f"{context}: missing field(s) {missing}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise DataFormatError(f"{context}: unknown field(s) {unknown}")


_STATS_FLOAT_FIELDS = ("r_squared", "adj_r_squared", "f_statistic", "residual_std", "condition_number")


def _stats_to_dict(stats: FitStatistics) -> dict:
    doc: dict = {"n": stats.n, "p": stats.p}
    for name in _STATS_FLOAT_FIELDS:
        doc[name] = _encode_num(getattr(stats, name))
    return doc


def _stats_from_dict(obj: dict, context: str) -> FitStatistics:
    _check_fields(obj, ("n", "p", *_STATS_FLOAT_FIELDS), (), context)
    try:
        return FitStatistics(
            n=_decode_int(obj, "n", context),
            p=_decode_int(obj, "p", context),
            **{name: _decode_num(obj[name], f"{context}.{name}") for name in _STATS_FLOAT_FIELDS},
        )
    except DomainError as exc:
        raise DataFormatError(f"{context}: {exc}") from exc


def law_to_dict(law: CompressionLaw | RuntimeLaw) -> dict:
    """Serialize a law to a plain dict (no schema_version wrapper)."""
    stats = _stats_to_dict(law.stats) if law.stats is not None else None
    if isinstance(law, CompressionLaw):
        return {
            "kind": "compression",
            "metric": law.metric.value,
            "alpha": _encode_num(law.alpha),
            "beta": _encode_num(law.beta),
            "gamma": _encode_num(law.gamma),
            "epsilon": _encode_num(law.epsilon),
            "stats": stats,
        }
    if isinstance(law, RuntimeLaw):
        return {"kind": "runtime", "c": _encode_num(law.c), "beta": _encode_num(law.beta), "stats": stats}
    raise DomainError(f"cannot serialize {type(law).__name__}")


def law_from_dict(obj: dict, context: str = "law") -> CompressionLaw | RuntimeLaw:
    """Parse a law dict as :func:`law_to_dict` writes it, enforcing type invariants.

    Numbers are JSON numbers or the strings ``"inf"``, ``"-inf"`` and ``"nan"``; unknown fields are rejected.
    """
    if not isinstance(obj, dict):
        raise DataFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    stats_obj = obj.get("stats")
    stats = _stats_from_dict(stats_obj, f"{context}.stats") if stats_obj is not None else None
    try:
        if kind == "compression":
            _check_fields(obj, ("kind", "metric", "alpha", "beta", "gamma"), ("epsilon", "stats"), context)
            return CompressionLaw(
                alpha=_decode_num(obj["alpha"], f"{context}.alpha"),
                beta=_decode_num(obj["beta"], f"{context}.beta"),
                gamma=_decode_num(obj["gamma"], f"{context}.gamma"),
                metric=_decode_enum(MetricKind, obj, "metric", context),
                epsilon=_decode_num(obj.get("epsilon", 1.0), f"{context}.epsilon"),
                stats=stats,
            )
        if kind == "runtime":
            _check_fields(obj, ("kind", "c", "beta"), ("stats",), context)
            return RuntimeLaw(
                c=_decode_num(obj["c"], f"{context}.c"),
                beta=_decode_num(obj["beta"], f"{context}.beta"),
                stats=stats,
            )
    except DomainError as exc:
        raise DataFormatError(f"{context}: {exc}") from exc
    raise DataFormatError(f"{context}: kind must be 'compression' or 'runtime', got {reprlib.repr(kind)}")


def save_law(law: CompressionLaw | RuntimeLaw, dest) -> None:
    with _open_for_write(dest) as fh:
        fh.write(_dump_document(law_to_dict(law)))


def load_law(source) -> CompressionLaw | RuntimeLaw:
    return law_from_dict(_parse_document(_read_text(source), "law document"))


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
# law registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryEntry:
    """One law in a registry, keyed by (model_id, metric, method_tag).

    ``param_count`` and ``l0`` are optional planner inputs; fixture entries
    quote ``reported_adj_r_squared``/``reported_f_statistic`` when the
    source published them without full fit statistics.
    """

    model_id: str
    metric: MetricKind
    method_tag: str
    law: CompressionLaw | RuntimeLaw
    form: DesignForm = DesignForm.FULL
    provenance: str = ""
    param_count: float | None = None
    l0: float | None = None
    reported_adj_r_squared: float | None = None
    reported_f_statistic: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.law, CompressionLaw):
            if self.form is DesignForm.RUNTIME:
                raise DomainError("a compression law cannot carry the runtime form")
            if self.law.metric is not self.metric:
                raise DomainError(
                    f"entry metric {self.metric.value} disagrees with law metric {self.law.metric.value}"
                )
        else:
            if self.metric is not MetricKind.RUNTIME or self.form is not DesignForm.RUNTIME:
                raise DomainError("runtime laws must use metric 'runtime' and form 'runtime'")

    @property
    def key(self) -> tuple[str, MetricKind, str]:
        return (self.model_id, self.metric, self.method_tag)


class LawRegistry:
    """Ordered, uniquely keyed collection of registry entries."""

    def __init__(self, entries: Iterable[RegistryEntry] = ()):
        self._entries: dict[tuple[str, MetricKind, str], RegistryEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: RegistryEntry) -> None:
        if entry.key in self._entries:
            raise DataFormatError(f"duplicate registry key {entry.key!r}")
        self._entries[entry.key] = entry

    def select(self, *, metric: MetricKind | None = None, method_tag: str | None = None) -> list[RegistryEntry]:
        return [
            entry
            for entry in self._entries.values()
            if (metric is None or entry.metric is metric)
            and (method_tag is None or entry.method_tag == method_tag)
        ]

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


_ENTRY_REQUIRED = ("model_id", "metric", "method_tag", "form", "law")
_ENTRY_OPTIONAL = ("provenance", "param_count", "l0", "reported")


def _entry_to_dict(entry: RegistryEntry) -> dict:
    doc: dict = {
        "model_id": entry.model_id,
        "metric": entry.metric.value,
        "method_tag": entry.method_tag,
        "form": entry.form.value,
        "provenance": entry.provenance,
    }
    if entry.param_count is not None:
        doc["param_count"] = _encode_num(entry.param_count)
    if entry.l0 is not None:
        doc["l0"] = _encode_num(entry.l0)
    reported = {}
    if entry.reported_adj_r_squared is not None:
        reported["adj_r_squared"] = _encode_num(entry.reported_adj_r_squared)
    if entry.reported_f_statistic is not None:
        reported["f_statistic"] = _encode_num(entry.reported_f_statistic)
    if reported:
        doc["reported"] = reported
    doc["law"] = law_to_dict(entry.law)
    return doc


def _entry_from_dict(obj: dict, context: str) -> RegistryEntry:
    _check_fields(obj, _ENTRY_REQUIRED, _ENTRY_OPTIONAL, context)
    reported = obj.get("reported", {})
    _check_fields(reported, (), ("adj_r_squared", "f_statistic"), f"{context}.reported")
    try:
        return RegistryEntry(
            model_id=_decode_str(obj["model_id"], f"{context}.model_id"),
            metric=_decode_enum(MetricKind, obj, "metric", context),
            method_tag=_decode_str(obj["method_tag"], f"{context}.method_tag"),
            law=law_from_dict(obj["law"], f"{context}.law"),
            form=_decode_enum(DesignForm, obj, "form", context),
            provenance=_decode_str(obj.get("provenance", ""), f"{context}.provenance"),
            param_count=_decode_num(obj["param_count"], f"{context}.param_count") if "param_count" in obj else None,
            l0=_decode_num(obj["l0"], f"{context}.l0") if "l0" in obj else None,
            reported_adj_r_squared=(
                _decode_num(reported["adj_r_squared"], f"{context}.reported") if "adj_r_squared" in reported else None
            ),
            reported_f_statistic=(
                _decode_num(reported["f_statistic"], f"{context}.reported") if "f_statistic" in reported else None
            ),
        )
    except DomainError as exc:
        raise DataFormatError(f"{context}: {exc}") from exc


def registry_to_json(registry: LawRegistry) -> str:
    return _dump_document({"kind": "law_registry", "entries": [_entry_to_dict(entry) for entry in registry]})


def registry_from_json(text: str) -> LawRegistry:
    doc = _parse_document(text, "law registry", "law_registry")
    _check_fields(doc, ("entries",), (), "law registry")
    if not isinstance(doc["entries"], list):
        raise DataFormatError("law registry: entries must be a list")
    registry = LawRegistry()
    for i, obj in enumerate(doc["entries"]):
        registry.add(_entry_from_dict(obj, f"entry {i}"))
    return registry


def load_registry(source) -> LawRegistry:
    return registry_from_json(_read_text(source))


def builtin_registry() -> LawRegistry:
    """The bundled fixture registry of published coefficient tables."""
    text = resources.files("compresslaw").joinpath("data/fixtures.json").read_text("utf-8")
    return registry_from_json(text)


# ---------------------------------------------------------------------------
# synthesis grids
# ---------------------------------------------------------------------------

_GRID_AXES = ("l0_values", "r_values", "d_values")


def load_grid(source) -> dict:
    """Read a ``synth`` grid: ``{l0_values, r_values, d_values, model_id?}``.

    Returns the :class:`~compresslaw.synth.SyntheticConfig` keyword arguments
    it names: a tuple of floats per axis, and ``model_id`` when present.
    """
    doc = _parse_document(_read_text(source), "grid", versioned=False)
    _check_fields(doc, _GRID_AXES, ("model_id",), "grid")
    grid: dict = {}
    for axis in _GRID_AXES:
        if not isinstance(doc[axis], list):
            raise DataFormatError(f"grid: {axis} must be a list of numbers")
        grid[axis] = tuple(_decode_num(v, f"grid.{axis}") for v in doc[axis])
    if "model_id" in doc:
        grid["model_id"] = _decode_str(doc["model_id"], "grid.model_id")
    return grid


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


# ---------------------------------------------------------------------------
# planner glue
# ---------------------------------------------------------------------------


def candidates_from_registry(
    registry: LawRegistry,
    metric: MetricKind,
    method_tag: str | None = None,
) -> list[CandidateModel]:
    """Build planner candidates from registry entries carrying ``param_count`` and ``l0``.

    Runtime laws are paired by model id (first matching entry in registry
    order).
    """
    runtime_by_model: dict[str, RuntimeLaw] = {}
    for entry in registry:
        if isinstance(entry.law, RuntimeLaw) and entry.model_id not in runtime_by_model:
            runtime_by_model[entry.model_id] = entry.law

    candidates = []
    for entry in registry.select(metric=metric, method_tag=method_tag):
        if not isinstance(entry.law, CompressionLaw):
            continue
        if entry.param_count is None or entry.l0 is None:
            continue
        candidates.append(
            CandidateModel(
                model_id=entry.model_id,
                param_count=entry.param_count,
                l0=entry.l0,
                law=entry.law,
                runtime_law=runtime_by_model.get(entry.model_id),
            )
        )
    if not candidates:
        raise DomainError(
            f"registry has no {metric.value} entries with both param_count and l0"
            + (f" under method_tag {method_tag!r}" if method_tag else "")
        )
    return candidates
