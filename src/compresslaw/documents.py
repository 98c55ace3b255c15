"""The ``compresslaw/v1`` JSON documents: laws, law registries and ``synth`` grids.

* law JSON: a single compression or runtime law, optionally with fit stats
  (``n`` and ``p`` are JSON integers).
* law-registry JSON: laws keyed by (model_id, metric, method_tag) with a
  free-text provenance note each.
* grid JSON (``synth`` input, not versioned): lists of numbers ``l0_values``,
  ``r_values``, ``d_values`` and an optional string ``model_id``.

Floats are written with ``repr`` (shortest exact form), so round trips are
lossless; non-finite statistics (an exact fit has an infinite F-statistic)
are encoded as the strings ``"inf"``/``"-inf"``/``"nan"``.  Each document is
read only as it is written: a number is a JSON number or one of those three
strings (a bare ``NaN`` or ``Infinity`` token is an error), and an unknown
field is an error.  Every reader raises
:class:`~compresslaw.errors.DataFormatError`, and nothing else, on any
malformed document.  The module imports no numpy.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .errors import DataFormatError, DomainError
from .laws import CompressionLaw, DesignForm, FitStatistics, MetricKind, RuntimeLaw
from .planner import CandidateModel

__all__ = [
    "SCHEMA_VERSION",
    "law_to_dict", "law_from_dict", "save_law", "load_law",
    "RegistryEntry", "LawRegistry", "registry_to_json", "registry_from_json", "load_registry", "builtin_registry",
    "load_grid",
    "candidates_from_registry",
]

SCHEMA_VERSION = "compresslaw/v1"


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
# JSON plumbing
# ---------------------------------------------------------------------------


def _read_text(source) -> str:
    with _open_for_read(source) as fh:
        return fh.read()


def _reject_constant(token: str):  # json.loads meets a bare NaN, Infinity or -Infinity, which no writer emits
    raise DataFormatError(f"{token} is not a number; non-finite values are the strings 'inf', '-inf' and 'nan'")


def _parse_document(text: str, context: str, kind: str | None = None, *, versioned: bool = True) -> dict:
    """The top-level object of a JSON document, minus its checked ``schema_version`` (if
    ``versioned``) and ``kind`` (if given); every failure is a :class:`DataFormatError`."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
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
