"""The ``compresslaw/v1`` JSON documents: laws, fit reports, law registries and ``synth`` grids.

* law JSON: a single compression or runtime law, optionally with fit stats
  (``n`` and ``p`` are JSON integers ``>= 0``).
* fit-report JSON (``fit`` output): law + stats + feasibility warnings +
  per-record log-residuals; serialization is byte-stable for identical
  inputs, and the law's copy of the stats equals the report's.
  :func:`load_law` reads a report as its law, checking the whole report.
* law-registry JSON: laws keyed by (model_id, metric, method_tag) with a
  free-text provenance note each.
* grid JSON (``synth`` input, not versioned): lists of numbers ``l0_values``,
  ``r_values``, ``d_values`` and an optional string ``model_id``.

Each object of a document (statistics, either law, a fit report, a registry entry with its ``reported`` part, a
grid) has one field table, ``_Object``: its ``kind`` tag, if any, and a row per JSON key, in the order written,
naming the value type's attribute, whether the key is required and the token kind (number, enum, as-is text or
count, nested object or list), a plain ``(encode, decode, nullable)`` triple whose functions are called directly.
One encoder, ``_encode``, and one decoder, ``_decode``, read every table, and the tables hold no other rules: the
value type a table builds checks its own fields, and the decoder reports its
:class:`~compresslaw.errors.DomainError` with where it was found.  The encoder leaves out a ``None`` value and an
empty part, so ``reported`` is written only when it holds a number, but writes a law's ``None`` stats as ``null``.
The decoder checks an object's ``kind`` against its table's, then its keys, missing then unknown, before it
decodes any value, and names a bad token by its JSON path (``entry 0.law.alpha``); a missing optional key takes the
value type's default.  A list of numbers whose items are all JSON numbers is read in one pass, and a fit report's
residuals go to :class:`FitReport` as read, for its check to take their floats; any other list of numbers is read
item by item.  A bad value is quoted with ``laws._quote``, as the value types quote one.

Floats are written with ``repr`` (shortest exact form), so round trips are lossless; non-finite values (an exact
fit has an infinite F-statistic) are the strings ``"inf"``, ``"-inf"`` and ``"nan"``, the only strings read as
numbers (a bare ``NaN`` or ``Infinity`` token is an error).  Every reader raises
:class:`~compresslaw.errors.DataFormatError`, and nothing else, on any malformed document, bytes that are not
UTF-8 included.  A path is read as bytes and decoded once.  The module imports no numpy.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DataFormatError, DomainError
from .laws import SCHEMA_VERSION, CompressionLaw, DesignForm, FitStatistics, MetricKind, RuntimeLaw, _value_type
from .laws import _FORM_COEFFICIENTS, _GRID_AXES, _optional, _quote, _require_at_most_one, _require_sequence
from .laws import _require_either_law, _require_form, _require_instance, _require_metric, _require_not_negative
from .laws import _require_text, require_positive

if TYPE_CHECKING:
    from .planner import CandidateModel

__all__ = [
    "SCHEMA_VERSION", "law_to_dict", "law_from_dict", "save_law", "load_law", "FitReport", "report_to_json",
    "report_from_json", "RegistryEntry", "LawRegistry", "registry_to_json", "registry_from_json", "load_registry",
    "builtin_registry", "load_grid", "candidates_from_registry",
]


@contextmanager
def _open_for_read(source, context: str):
    """``source`` if it is an open stream, else the path opened as UTF-8 text; undecodable bytes read in the
    ``with`` block are a :class:`DataFormatError` that names ``context``."""
    try:
        if hasattr(source, "read"):
            yield source
        else:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        raise _undecodable(exc, context) from None


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


def _read_text(source, context: str) -> str:
    """The text of an open stream, or of a path read as bytes and decoded once; undecodable bytes are a
    :class:`DataFormatError` that names ``context``."""
    try:
        if hasattr(source, "read"):
            return source.read()
        with open(source, "rb", buffering=0) as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _undecodable(exc, context) from None


def _undecodable(exc: UnicodeDecodeError, context: str) -> DataFormatError:
    return DataFormatError(f"{context}: not {exc.encoding} text: {exc.reason}")


def _reject_constant(token: str):  # json.loads meets a bare NaN, Infinity or -Infinity, which no writer emits
    raise DataFormatError(f"{token} is not a number; non-finite values are the strings 'inf', '-inf' and 'nan'")


# One decoder for every document: json.loads builds a new one per call when given parse_constant.
_JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_document(text: str, context: str, *, versioned: bool = True) -> dict:
    """The top-level object of a JSON document, minus its checked ``schema_version`` (if ``versioned``); every
    failure is a :class:`DataFormatError`.  The table that decodes the object checks its ``kind``."""
    try:
        if isinstance(text, str) and not text.startswith("\ufeff"):
            doc = _JSON_DECODER.decode(text)
        else:  # bytes, whose encoding json.loads detects, or a byte order mark, which it rejects
            doc = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{context}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{context}: expected a JSON object, got {type(doc).__name__}")
    if versioned:
        version = doc.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise DataFormatError(f"{context}: schema_version must be {SCHEMA_VERSION!r}, got {_quote.repr(version)}")
    return doc


_require_json = _require_instance((str, bytes, bytearray), "str, bytes or bytearray")  # what json.loads takes


def _dump_document(doc: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n"


def _encode_num(value: float):
    value = float(value)
    return value if math.isfinite(value) else repr(value)


# The strings _encode_num writes for the non-finite values: the only strings read as numbers.
_NON_FINITE = frozenset(map(repr, (math.inf, -math.inf, math.nan)))
_JSON_NUMBERS = frozenset([int, float])  # the types of json's number tokens; a bool is neither


def _decode_num(token, context: str, key: str) -> float:
    number = isinstance(token, (int, float)) and not isinstance(token, bool)
    if number or isinstance(token, str) and token in _NON_FINITE:
        try:
            return float(token)
        except OverflowError:
            pass
    raise DataFormatError(f"{context}.{key}: expected a number, got {_quote.repr(token)}")


class _Object:
    """One document object's field table: ``rows`` of ``(key, attr, required, kind)`` in key order, the ``build``
    callable that takes the fields as keyword arguments, and the ``kind`` tag, written and checked first, if any.
    A row whose attr is ``None`` holds a part whose fields are the object's own.  The key lists are worked out once.
    A token kind is a triple ``(encode, decode, nullable)``: ``encode(value)`` is a field's JSON token, and
    ``decode(token, context, key)`` its value or an error that names the object's path ``context`` and the key.  A
    nullable kind writes ``None`` as null and reads null as ``None``."""

    def __init__(self, build, rows, kind: str | None = None):
        self.build, self.rows, self.kind = build, tuple(rows), kind
        self.required = [key for key, _, required, _ in self.rows if required]
        self.keys = frozenset(["kind"] * (kind is not None) + [key for key, *_ in self.rows])


def _encode(table: _Object, value) -> dict:
    """``value`` as ``table``'s JSON object: a ``None`` field and an empty part are left out, unless nullable."""
    doc = {} if table.kind is None else {"kind": table.kind}
    for key, attr, _, (encode, _, nullable) in table.rows:
        field = value if attr is None else getattr(value, attr)
        token = None if field is None else encode(field)
        if token is not None or nullable:
            doc[key] = token
    return doc


def _decode(table: _Object, obj, context: str, key: str | None = None):
    """What ``table.build`` makes of the JSON object ``obj`` at path ``context``, or ``context.key`` for a field.
    Its ``kind``, then its keys, missing then unknown, are checked before any value is decoded, and a missing
    optional key is not passed to ``build``.  A :class:`DomainError` of a value or of ``build`` is a
    :class:`DataFormatError` at the object's path."""
    context = context if key is None else f"{context}.{key}"
    if not isinstance(obj, dict):
        raise DataFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    if table.kind is not None and obj.get("kind") != table.kind:
        raise DataFormatError(f"{context}: kind must be {table.kind!r}, got {_quote.repr(obj.get('kind'))}")
    missing = [name for name in table.required if name not in obj]
    if missing:
        raise DataFormatError(f"{context}: missing field(s) {missing}")
    unknown = obj.keys() - table.keys
    if unknown:
        raise DataFormatError(f"{context}: unknown field(s) {sorted(unknown)}")
    fields = {}
    try:
        for name, attr, _, (_, decode, nullable) in table.rows:
            if name in obj:
                token = obj[name]
                fields[attr] = None if token is None and nullable else decode(token, context, name)
        fields.update(fields.pop(None, {}))  # a part's fields are the object's own
        return table.build(**fields)
    except DomainError as exc:
        raise DataFormatError(f"{context}: {exc}") from exc


def _enum(enum_type) -> tuple:
    members = {member.value: member for member in enum_type}

    def decode(token, context: str, key: str):
        if isinstance(token, str) and token in members:
            return members[token]
        raise DataFormatError(f"{context}: unknown {key} {_quote.repr(token)}")

    return attrgetter("value"), decode, False


def _nested(table: _Object, nullable: bool = False) -> tuple:
    """An object of ``table``, left out when it encodes as empty."""
    return lambda value: _encode(table, value) or None, partial(_decode, table), nullable


def _list(what: str, numbers=None, encode=list) -> tuple:
    """A list, read as the tuple of its items or, given ``numbers``, as ``numbers(token)`` if one pass over the item
    types finds only JSON numbers, else as the tuple of each item's :func:`_decode_num`, which reads the non-finite
    strings and names the list's path in an error.  Any other token is an error that says it must be ``what``."""

    def decode(token, context: str, key: str):
        if not isinstance(token, list):
            raise DataFormatError(f"{context}: {key} must be {what}")
        if numbers is None:
            return tuple(token)
        if _JSON_NUMBERS.issuperset(map(type, token)):
            try:
                return numbers(token)
            except OverflowError:  # an int too large for a float, which _decode_num names
                pass
        return tuple([_decode_num(item, context, key) for item in token])

    return encode, decode, False


_AS_IS = (lambda value: value, lambda token, context, key: token, False)  # text and counts, which value types check
_NUMBER = (_encode_num, _decode_num, False)
_METRIC = _enum(MetricKind)
_STATS = _Object(FitStatistics, [("n", "n", True, _AS_IS), ("p", "p", True, _AS_IS), *(
    (name, name, True, _NUMBER) for name in ("r_squared", "adj_r_squared", "f_statistic", "residual_std",
                                             "condition_number"))])
_LAW_STATS = ("stats", "stats", False, _nested(_STATS, nullable=True))
_COMPRESSION = _Object(CompressionLaw, [
    ("metric", "metric", True, _METRIC), ("alpha", "alpha", True, _NUMBER), ("beta", "beta", True, _NUMBER),
    ("gamma", "gamma", True, _NUMBER), ("epsilon", "epsilon", False, _NUMBER), _LAW_STATS], "compression")
_RUNTIME = _Object(RuntimeLaw, [("c", "c", True, _NUMBER), ("beta", "beta", True, _NUMBER), _LAW_STATS], "runtime")
_LAWS = {table.kind: table for table in (_COMPRESSION, _RUNTIME)}


def law_to_dict(law: CompressionLaw | RuntimeLaw) -> dict:
    """Serialize a law to a plain dict (no schema_version wrapper)."""
    for table in _LAWS.values():
        if isinstance(law, table.build):
            return _encode(table, law)
    raise DomainError(f"cannot serialize {type(law).__name__}")


def law_from_dict(obj: dict, context: str = "law") -> CompressionLaw | RuntimeLaw:
    """Parse a law dict as :func:`law_to_dict` writes it, into the law type that checks its fields."""
    return _decode(_law_table(obj, context), obj, context)


def _law_table(obj, context: str, kinds: Sequence[str] = tuple(_LAWS)) -> _Object:
    """The law table of ``obj``'s ``kind``; an error names ``kinds`` as the kinds it may be."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if isinstance(kind, str) and kind in _LAWS:
        return _LAWS[kind]
    *others, last = map(repr, kinds)
    raise DataFormatError(f"{context}: kind must be {', '.join(others)} or {last}, got {_quote.repr(kind)}")


def save_law(law: CompressionLaw | RuntimeLaw, dest) -> None:
    with _open_for_write(dest) as fh:
        fh.write(_dump_document(law_to_dict(law)))


def load_law(source) -> CompressionLaw | RuntimeLaw:
    """The law of a law document or of a fit report, checked whole as :func:`report_from_json` checks it."""
    doc = _parse_document(_read_text(source, "law document"), "law document")
    if doc.get("kind") == _REPORT.kind:
        return _decode(_REPORT, doc, "fit report").law
    return _decode(_law_table(doc, "law", (*_LAWS, _REPORT.kind)), doc, "law")


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------


@_value_type(law=_require_either_law, stats=_require_instance(FitStatistics, "a FitStatistics"),
             warnings=partial(_require_sequence, what="text", item=partial(_require_text, "warnings")),
             residuals=_require_sequence)
class FitReport:
    """A fitted law, its statistics (equal to the law's own), feasibility warnings and log-residuals."""

    law: CompressionLaw | RuntimeLaw
    stats: FitStatistics
    warnings: tuple[str, ...]
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        # Compared as written, so that two "nan" statistics agree.
        if self.law.stats is None or _encode(_STATS, self.law.stats) != _encode(_STATS, self.stats):
            raise DomainError("the law's statistics disagree with the report's")
        if len(self.residuals) != self.stats.n:
            raise DomainError(f"residual count {len(self.residuals)} != sample count {self.stats.n}")


_LAW = (law_to_dict, lambda token, context, key: law_from_dict(token, f"{context}.{key}"), False)
# The residuals go to FitReport as read, and its check takes their floats; report_to_json splices them in.
_RESIDUALS = _list("a list", tuple, encode=lambda values: [])
_REPORT = _Object(FitReport, [("law", "law", True, _LAW), ("stats", "stats", True, _nested(_STATS)),
                              ("warnings", "warnings", True, _list("a list of strings")),
                              ("residuals", "residuals", True, _RESIDUALS)], "fit_report")
_require_report = _require_instance(FitReport, "a FitReport")


def report_to_json(report: FitReport) -> str:
    """Serialize a report; output is byte-stable for identical inputs."""
    text = _dump_document(_encode(_REPORT, _require_report("report", report)))
    # indent=2 makes json use its pure-Python encoder, slow over 100k floats: the residuals, last in the
    # document, are spliced in one per line as indent=2 lays them out.
    sep = ",\n    "
    body = sep.join(map(repr, report.residuals))
    if "n" in body:  # only inf, -inf and nan have an "n" in their repr; they are written as JSON strings
        body = sep.join(json.dumps(field) if field in _NON_FINITE else field for field in body.split(sep))
    return text[: -len("[]\n}\n")] + "[\n    " + body + "\n  ]\n}\n"


def report_from_json(text: str) -> FitReport:
    return _decode(_REPORT, _parse_document(_require_json("text", text), "fit report"), "fit report")


# ---------------------------------------------------------------------------
# law registry
# ---------------------------------------------------------------------------


@_value_type(model_id=_require_text, metric=_require_metric, method_tag=_require_text, law=_require_either_law,
             form=_require_form, provenance=_require_text,
             param_count=_optional(require_positive), l0=_optional(require_positive),
             reported_adj_r_squared=_optional(_require_at_most_one),
             reported_f_statistic=_optional(_require_not_negative))
class RegistryEntry:
    """One law in a registry, keyed by (model_id, metric, method_tag).

    ``param_count`` and ``l0`` are optional planner inputs, each positive;
    fixture entries quote ``reported_adj_r_squared`` (at most 1) and
    ``reported_f_statistic`` (nonnegative), either of which may be nan as a
    fit's may, when the source published them without full fit statistics.
    A compression law has 0 for each exponent its form does not fit, as a
    fit in that form does.
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
            for name in ("beta", "gamma"):
                if name not in _FORM_COEFFICIENTS[self.form] and getattr(self.law, name) != 0.0:
                    raise DomainError(f"the {self.form.value} form pins {name} to 0, got {getattr(self.law, name)}")
        elif self.metric is not MetricKind.RUNTIME or self.form is not DesignForm.RUNTIME:
            raise DomainError("runtime laws must use metric 'runtime' and form 'runtime'")

    @property
    def key(self) -> tuple[str, MetricKind, str]:
        return (self.model_id, self.metric, self.method_tag)


_require_entry = _require_instance(RegistryEntry, "a RegistryEntry")


class LawRegistry:
    """Ordered, uniquely keyed collection of registry entries."""

    def __init__(self, entries: Iterable[RegistryEntry] = ()):
        self._entries: dict[tuple[str, MetricKind, str], RegistryEntry] = {}
        try:
            entries = iter(entries)
        except TypeError:
            raise DomainError(f"entries must be a sequence of RegistryEntries, got {_quote.repr(entries)}") from None
        for entry in entries:
            self.add(entry)

    def add(self, entry: RegistryEntry) -> None:
        if _require_entry("entry", entry).key in self._entries:
            raise DataFormatError(f"duplicate registry key {entry.key!r}")
        self._entries[entry.key] = entry

    def select(self, *, metric: MetricKind | None = None, method_tag: str | None = None) -> list[RegistryEntry]:
        return [entry for entry in self._entries.values() if (metric is None or entry.metric is metric)
                and (method_tag is None or entry.method_tag == method_tag)]

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


_require_registry = _require_instance(LawRegistry, "a LawRegistry")
_REPORTED = _Object(dict, [("adj_r_squared", "reported_adj_r_squared", False, _NUMBER),
                           ("f_statistic", "reported_f_statistic", False, _NUMBER)])
_ENTRY = _Object(RegistryEntry, [
    ("model_id", "model_id", True, _AS_IS), ("metric", "metric", True, _METRIC),
    ("method_tag", "method_tag", True, _AS_IS), ("form", "form", True, _enum(DesignForm)),
    ("provenance", "provenance", False, _AS_IS), ("param_count", "param_count", False, _NUMBER),
    ("l0", "l0", False, _NUMBER), ("reported", None, False, _nested(_REPORTED)), ("law", "law", True, _LAW)])
# A registry document is its entries, each read at the path "entry <index>".
_REGISTRY = _Object(dict, [("entries", "entries", True, _list("a list"))], "law_registry")


def registry_to_json(registry: LawRegistry) -> str:
    registry = _require_registry("registry", registry)
    return _dump_document({"kind": _REGISTRY.kind, "entries": [_encode(_ENTRY, entry) for entry in registry]})


def registry_from_json(text: str) -> LawRegistry:
    doc = _parse_document(_require_json("text", text), "law registry")
    entries = _decode(_REGISTRY, doc, "law registry")["entries"]
    return LawRegistry(_decode(_ENTRY, obj, f"entry {i}") for i, obj in enumerate(entries))


def load_registry(source) -> LawRegistry:
    return registry_from_json(_read_text(source, "law registry"))


def builtin_registry() -> LawRegistry:
    """The bundled fixture registry of published coefficient tables."""
    from importlib import resources
    text = resources.files("compresslaw").joinpath("data/fixtures.json").read_text("utf-8")
    return registry_from_json(text)


# ---------------------------------------------------------------------------
# synthesis grids
# ---------------------------------------------------------------------------


# The grid's keyword arguments for SyntheticConfig, which checks the axes' values; a model id that is not text
# makes a bad grid.
_TEXT = (str, lambda token, context, key: _require_text(key, token), False)
_GRID = _Object(dict, [*((axis, axis, True, _list("a list of numbers", lambda token: tuple(map(float, token))))
                         for axis in _GRID_AXES),
                       ("model_id", "model_id", False, _TEXT)])


def load_grid(source) -> dict:
    """Read a ``synth`` grid: ``{l0_values, r_values, d_values, model_id?}``.

    Returns the :class:`~compresslaw.synth.SyntheticConfig` keyword arguments
    it names: a tuple of floats per axis, and ``model_id`` when present.
    """
    return _decode(_GRID, _parse_document(_read_text(source, "grid"), "grid", versioned=False), "grid")


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
    from .planner import CandidateModel
    registry, metric = _require_registry("registry", registry), _require_metric("metric", metric)
    runtime_by_model: dict[str, RuntimeLaw] = {}
    for entry in registry:
        if isinstance(entry.law, RuntimeLaw):
            runtime_by_model.setdefault(entry.model_id, entry.law)
    candidates = [CandidateModel(entry.model_id, entry.param_count, entry.l0, entry.law,
                                 runtime_by_model.get(entry.model_id))
                  for entry in registry.select(metric=metric, method_tag=method_tag)
                  if isinstance(entry.law, CompressionLaw) and entry.param_count is not None and entry.l0 is not None]
    if not candidates:
        raise DomainError(
            f"registry has no {metric.value} entries with both param_count and l0"
            + (f" under method_tag {method_tag!r}" if method_tag else "")
        )
    return candidates
