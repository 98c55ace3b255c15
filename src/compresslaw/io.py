"""CSV ingestion, law and registry persistence, fit reports, frontier tables.

File formats (all versioned with ``compresslaw/v1``):

* experiment CSV: header ``model_id,metric,l0,r,d,l`` with metric one of
  ``loss``/``accuracy``/``runtime``; plain decimal numbers only (``d`` takes
  no unit suffixes).
* law JSON: a single compression or runtime law, optionally with fit stats.
* fit-report JSON: law + stats + feasibility warnings + per-record
  log-residuals; serialization is byte-stable for identical inputs.
* law-registry JSON: laws keyed by (model_id, metric, method_tag) with a
  free-text provenance note each.

Floats are written with ``repr`` (shortest exact form), so round trips are
lossless; non-finite statistics (an exact fit has an infinite F-statistic)
are encoded as the strings ``"inf"``/``"-inf"``/``"nan"``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, NamedTuple, Sequence

from .errors import DataFormatError, DomainError
from .laws import CompressionLaw, MetricKind, RuntimeLaw, evaluate
from .planner import CandidateModel
from .regression import DesignForm, ExperimentRecord, FitStatistics, _fit

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
    "write_report",
    "read_report",
    "RegistryEntry",
    "LawRegistry",
    "registry_to_json",
    "registry_from_json",
    "save_registry",
    "load_registry",
    "builtin_registry",
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
        raise DataFormatError(f"row {row_number}: field 'metric' has unknown value {raw_metric!r}") from None

    def number(field: str) -> float:
        raw = row.get(field)
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise DataFormatError(f"row {row_number}: field '{field}' is not a number: {raw!r}") from None

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


def read_records(source, *, strict: bool = True) -> list[ExperimentRecord]:
    """Read experiment records from CSV (path or open stream).

    Strict mode aborts on the first invalid row with a row-numbered error;
    lenient mode skips invalid rows, emitting a :class:`SkippedRowWarning`
    per skipped row.
    """
    with _open_for_read(source) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError("empty input: expected a header row")
        missing = [c for c in RECORD_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataFormatError(f"missing required column(s): {missing}")
        extra = [c for c in reader.fieldnames if c not in RECORD_COLUMNS]
        if extra and strict:
            raise DataFormatError(f"unknown column(s): {extra}")
        records = []
        for row_number, row in enumerate(reader, start=2):
            try:
                records.append(_parse_record(row, row_number))
            except DataFormatError as exc:
                if strict:
                    raise
                warnings.warn(str(exc), SkippedRowWarning, stacklevel=2)
    return records


def write_records(records: Iterable[ExperimentRecord], dest) -> None:
    """Write records as CSV with lossless (repr) float formatting."""
    with _open_for_write(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for record in records:
            writer.writerow(
                [
                    record.model_id,
                    record.metric.value,
                    repr(float(record.l0)),
                    repr(float(record.r)),
                    repr(float(record.d)),
                    repr(float(record.l)),
                ]
            )


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------


def _encode_num(value: float):
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def _decode_num(value, context: str) -> float:
    if isinstance(value, bool):
        raise DataFormatError(f"{context}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise DataFormatError(f"{context}: expected a number, got {value!r}")


def _check_fields(obj: dict, required: Sequence[str], optional: Sequence[str], context: str, strict: bool) -> None:
    if not isinstance(obj, dict):
        raise DataFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise DataFormatError(f"{context}: missing field(s) {missing}")
    if strict:
        unknown = sorted(set(obj) - set(required) - set(optional))
        if unknown:
            raise DataFormatError(f"{context}: unknown field(s) {unknown}")


def _read_json(source) -> dict:
    with _open_for_read(source) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"expected a JSON object at top level, got {type(doc).__name__}")
    return doc


def _check_schema(doc: dict, context: str) -> dict:
    doc = dict(doc)
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"{context}: schema_version must be {SCHEMA_VERSION!r}, got {version!r}")
    return doc


_STATS_FLOAT_FIELDS = ("r_squared", "adj_r_squared", "f_statistic", "residual_std", "condition_number")


def _stats_to_dict(stats: FitStatistics) -> dict:
    doc: dict = {"n": stats.n, "p": stats.p}
    for name in _STATS_FLOAT_FIELDS:
        doc[name] = _encode_num(getattr(stats, name))
    return doc


def _stats_from_dict(obj: dict, context: str, strict: bool) -> FitStatistics:
    _check_fields(obj, ("n", "p", *_STATS_FLOAT_FIELDS), (), context, strict)
    try:
        return FitStatistics(
            n=int(obj["n"]),
            p=int(obj["p"]),
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


def law_from_dict(obj: dict, context: str = "law", strict: bool = True) -> CompressionLaw | RuntimeLaw:
    """Parse a law dict, enforcing type invariants; strict mode rejects unknown fields."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{context}: expected an object")
    kind = obj.get("kind")
    stats_obj = obj.get("stats")
    stats = _stats_from_dict(stats_obj, f"{context}.stats", strict) if stats_obj is not None else None
    try:
        if kind == "compression":
            _check_fields(obj, ("kind", "metric", "alpha", "beta", "gamma"), ("epsilon", "stats"), context, strict)
            try:
                metric = MetricKind(str(obj["metric"]))
            except ValueError:
                raise DataFormatError(f"{context}: unknown metric {obj['metric']!r}") from None
            return CompressionLaw(
                alpha=_decode_num(obj["alpha"], f"{context}.alpha"),
                beta=_decode_num(obj["beta"], f"{context}.beta"),
                gamma=_decode_num(obj["gamma"], f"{context}.gamma"),
                metric=metric,
                epsilon=_decode_num(obj.get("epsilon", 1.0), f"{context}.epsilon"),
                stats=stats,
            )
        if kind == "runtime":
            _check_fields(obj, ("kind", "c", "beta"), ("stats",), context, strict)
            return RuntimeLaw(
                c=_decode_num(obj["c"], f"{context}.c"),
                beta=_decode_num(obj["beta"], f"{context}.beta"),
                stats=stats,
            )
    except DomainError as exc:
        raise DataFormatError(f"{context}: {exc}") from exc
    raise DataFormatError(f"{context}: kind must be 'compression' or 'runtime', got {kind!r}")


def save_law(law: CompressionLaw | RuntimeLaw, dest) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **law_to_dict(law)}
    with _open_for_write(dest) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_law(source, strict: bool = True) -> CompressionLaw | RuntimeLaw:
    doc = _check_schema(_read_json(source), "law document")
    return law_from_dict(doc, strict=strict)


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """A fitted law, its statistics, feasibility warnings and log-residuals."""

    law: CompressionLaw | RuntimeLaw
    stats: FitStatistics
    warnings: tuple[str, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit_report",
        "law": law_to_dict(report.law),
        "stats": _stats_to_dict(report.stats),
        "warnings": list(report.warnings),
        "residuals": [_encode_num(v) for v in report.residuals],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str, strict: bool = True) -> FitReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("expected a JSON object")
    doc = _check_schema(doc, "fit report")
    _check_fields(doc, ("kind", "law", "stats", "warnings", "residuals"), (), "fit report", strict)
    if doc["kind"] != "fit_report":
        raise DataFormatError(f"fit report: kind must be 'fit_report', got {doc['kind']!r}")
    law = law_from_dict(doc["law"], "fit report.law", strict)
    stats = _stats_from_dict(doc["stats"], "fit report.stats", strict)
    if not isinstance(doc["warnings"], list) or not all(isinstance(w, str) for w in doc["warnings"]):
        raise DataFormatError("fit report: warnings must be a list of strings")
    if not isinstance(doc["residuals"], list):
        raise DataFormatError("fit report: residuals must be a list")
    residuals = tuple(_decode_num(v, "fit report.residuals") for v in doc["residuals"])
    try:
        return FitReport(law=law, stats=stats, warnings=tuple(doc["warnings"]), residuals=residuals)
    except DomainError as exc:
        raise DataFormatError(f"fit report: {exc}") from exc


def write_report(report: FitReport, dest) -> None:
    with _open_for_write(dest) as fh:
        fh.write(report_to_json(report))


def read_report(source, strict: bool = True) -> FitReport:
    with _open_for_read(source) as fh:
        return report_from_json(fh.read(), strict=strict)


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

    def get(self, model_id: str, metric: MetricKind, method_tag: str) -> RegistryEntry:
        return self._entries[(model_id, metric, method_tag)]

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


def _entry_from_dict(obj: dict, context: str, strict: bool) -> RegistryEntry:
    _check_fields(obj, _ENTRY_REQUIRED, _ENTRY_OPTIONAL, context, strict)
    try:
        metric = MetricKind(str(obj["metric"]))
    except ValueError:
        raise DataFormatError(f"{context}: unknown metric {obj['metric']!r}") from None
    try:
        form = DesignForm(str(obj["form"]))
    except ValueError:
        raise DataFormatError(f"{context}: unknown form {obj['form']!r}") from None
    reported = obj.get("reported") or {}
    _check_fields(reported, (), ("adj_r_squared", "f_statistic"), f"{context}.reported", strict)
    try:
        return RegistryEntry(
            model_id=str(obj["model_id"]),
            metric=metric,
            method_tag=str(obj["method_tag"]),
            law=law_from_dict(obj["law"], f"{context}.law", strict),
            form=form,
            provenance=str(obj.get("provenance", "")),
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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "law_registry",
        "entries": [_entry_to_dict(entry) for entry in registry],
    }
    return json.dumps(doc, indent=2) + "\n"


def registry_from_json(text: str, strict: bool = True) -> LawRegistry:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("expected a JSON object")
    doc = _check_schema(doc, "law registry")
    _check_fields(doc, ("kind", "entries"), (), "law registry", strict)
    if doc["kind"] != "law_registry":
        raise DataFormatError(f"law registry: kind must be 'law_registry', got {doc['kind']!r}")
    if not isinstance(doc["entries"], list):
        raise DataFormatError("law registry: entries must be a list")
    registry = LawRegistry()
    for i, obj in enumerate(doc["entries"]):
        registry.add(_entry_from_dict(obj, f"entry {i}", strict))
    return registry


def save_registry(registry: LawRegistry, dest) -> None:
    with _open_for_write(dest) as fh:
        fh.write(registry_to_json(registry))


def load_registry(source, strict: bool = True) -> LawRegistry:
    with _open_for_read(source) as fh:
        return registry_from_json(fh.read(), strict=strict)


def builtin_registry() -> LawRegistry:
    """The bundled fixture registry of published coefficient tables."""
    text = resources.files("compresslaw").joinpath("data/fixtures.json").read_text("utf-8")
    return registry_from_json(text)


# ---------------------------------------------------------------------------
# frontier tables
# ---------------------------------------------------------------------------


class FrontierPoint(NamedTuple):
    l0: float
    r: float
    d: float
    predicted: float


def emit_frontier_grid(
    law: CompressionLaw,
    l0_list: Sequence[float],
    r_grid: Sequence[float],
    d_grid: Sequence[float],
) -> list[FrontierPoint]:
    """Predictions over the full grid, one row per point in lexicographic order."""
    if not isinstance(law, CompressionLaw):
        raise DomainError("frontier grids need a compression law")
    if not (len(l0_list) and len(r_grid) and len(d_grid)):
        raise DomainError("all three grids must be nonempty")
    points = []
    for l0 in l0_list:
        for r in r_grid:
            for d in d_grid:
                points.append(FrontierPoint(float(l0), float(r), float(d), evaluate(law, l0, r, d)))
    return points


def write_frontier(points: Iterable[FrontierPoint], dest) -> None:
    with _open_for_write(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(("l0", "r", "d", "predicted"))
        for point in points:
            writer.writerow([repr(point.l0), repr(point.r), repr(point.d), repr(point.predicted)])


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
