"""The contract every compresslaw value type keeps: construction, validation, equality, hashing, repr and
immutability, checked on one instance of each of the 15 classes."""

import ast
import math
import re
from pathlib import Path

import pytest

from compresslaw import documents, laws, planner, recovery, synth
from compresslaw.documents import FitReport, RegistryEntry
from compresslaw.errors import DomainError
from compresslaw.laws import (
    CompressionLaw, DesignForm, ExperimentRecord, FitStatistics, MetricKind, RuntimeLaw, SignViolation
)
from compresslaw.planner import CandidateModel, PlanEntry, PlanRequest, PlanResult, SkippedCandidate
from compresslaw.recovery import Regime, RecoveryAnalysis, RecoveryQuery
from compresslaw.synth import SyntheticConfig

STATS = FitStatistics(n=10, p=3, r_squared=0.9, adj_r_squared=0.8, f_statistic=5.0, residual_std=0.1,
                      condition_number=2.0)
ACCURACY = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)
FITTED = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY, 2.0, STATS)
ENTRY = PlanEntry("a", 0.5, 0.4)
SKIPPED = SkippedCandidate("b", "needs r = 0.95")

# Every field of one valid instance, in declaration order; the fields named in DEFAULTED hold their defaults.
FIELDS = {
    FitStatistics: dict(n=10, p=3, r_squared=0.9, adj_r_squared=0.8, f_statistic=5.0, residual_std=0.1,
                        condition_number=2.0),
    CompressionLaw: dict(alpha=0.63, beta=1.72, gamma=1.16, metric=MetricKind.LOSS, epsilon=1.0, stats=None),
    RuntimeLaw: dict(c=100.0, beta=-0.67, stats=None),
    SignViolation: dict(exponent="beta", value=-0.5, expected="beta > 0 for loss"),
    ExperimentRecord: dict(model_id="m", metric=MetricKind.LOSS, l0=2.0, r=0.5, d=10.0, l=2.5),
    RecoveryQuery: dict(law=ACCURACY, sigma=0.8, r=0.19),
    RecoveryAnalysis: dict(regime=Regime.CONDITIONALLY_RECOVERABLE, boundary=0.49, r_critical=0.21, min_d=math.inf),
    CandidateModel: dict(model_id="a", param_count=3e9, l0=0.6, law=ACCURACY, runtime_law=None),
    PlanRequest: dict(budget=1.5e9, metric=MetricKind.ACCURACY, rft_size=0.0, max_ratio=0.9),
    PlanEntry: dict(model_id="a", required_ratio=0.5, predicted_performance=0.4, predicted_runtime_factor=None,
                    notes=()),
    SkippedCandidate: dict(model_id="b", reason="needs r = 0.95"),
    PlanResult: dict(entries=(ENTRY,), skipped=(SKIPPED,)),
    FitReport: dict(law=FITTED, stats=STATS, warnings=("w",), residuals=(0.0,) * 10),
    RegistryEntry: dict(model_id="a", metric=MetricKind.ACCURACY, method_tag="t", law=ACCURACY,
                        form=DesignForm.FULL, provenance="", param_count=None, l0=None,
                        reported_adj_r_squared=None, reported_f_statistic=None),
    SyntheticConfig: dict(truth=ACCURACY, l0_values=(0.5, 0.7), r_values=(0.1, 0.5), d_values=(0.0, 10.0),
                          noise_std=0.0, seed=0, model_id="synthetic"),
}
DEFAULTED = {
    CompressionLaw: ("epsilon", "stats"),
    RuntimeLaw: ("stats",),
    CandidateModel: ("runtime_law",),
    PlanRequest: ("rft_size", "max_ratio"),
    PlanEntry: ("predicted_runtime_factor", "notes"),
    RegistryEntry: ("form", "provenance", "param_count", "l0", "reported_adj_r_squared", "reported_f_statistic"),
    SyntheticConfig: ("noise_std", "seed", "model_id"),
}
RUNTIME = RuntimeLaw(1.0, -0.5)
NESTED = []
for _ in range(5000):  # deeper than repr can go: a check quotes a bad value short, however deeply it nests
    NESTED = [NESTED]
# Field values that each class's field checks or __post_init__ reject, and the start of the message; the other five
# classes check nothing.
INVALID = {
    FitStatistics: [({"n": 3}, "need n > p, got n=3, p=3"),
                     ({"n": 2.5, "p": 1.5}, "n must be an integer >= 0, got 2.5"),
                     ({"n": True}, "n must be an integer >= 0, got True"),
                     ({"p": -1}, "p must be an integer >= 0, got -1"),
                     ({"p": None}, "p must be an integer >= 0, got None"),
                     ({"adj_r_squared": 0.95}, "adj_r_squared cannot exceed r_squared"),
                     ({"adj_r_squared": 1.5}, "adj_r_squared must be at most 1, got 1.5"),
                     ({"adj_r_squared": None}, "adj_r_squared must be a number, got None"),
                     ({"adj_r_squared": "0.5x"}, "adj_r_squared must be a number, got '0.5x'"),
                     ({"residual_std": 10**400}, "residual_std must be within the float range, got 1000"),
                     ({"r_squared": 1.5}, r"r_squared must lie in \[0, 1\], got 1.5"),
                     ({"r_squared": -0.1, "adj_r_squared": -0.2}, r"r_squared must lie in \[0, 1\], got -0.1"),
                     ({"f_statistic": -1.0}, "f_statistic must be nonnegative"),
                     ({"residual_std": -0.1}, "residual_std must be nonnegative"),
                     ({"condition_number": 0.0}, "condition_number must be positive")],
    CompressionLaw: [({"epsilon": 0.0}, "epsilon must be > 0"),
                     ({"alpha": math.nan}, "alpha must be finite, got nan"),
                     ({"beta": math.inf}, "beta must be finite, got inf"),
                     ({"gamma": -math.inf}, "gamma must be finite, got -inf"),
                     ({"metric": "loss"}, "metric must be a MetricKind, got 'loss'"),
                     ({"stats": "x"}, "stats must be a FitStatistics or None, got 'x'"),
                     ({"alpha": 10**400}, "alpha must be within the float range, got 1000"),
                     ({"epsilon": None}, "epsilon must be a number, got None")],
    RuntimeLaw: [({"c": -1.0}, "c must be > 0"),
                 ({"beta": math.nan}, "beta must be finite, got nan"),
                 ({"stats": {"n": 10}}, "stats must be a FitStatistics or None, got {'n': 10}")],
    ExperimentRecord: [({"r": 1.0}, r"r must lie in \[0, 1\)"),
                       ({"metric": "loss"}, "metric must be a MetricKind, got 'loss'"),
                       ({"model_id": 5}, "model_id must be text, got 5"),
                       ({"model_id": None}, "model_id must be text, got None"),
                       ({"l0": 0.0}, "l0 must be > 0, got 0.0"),
                       ({"d": -1.0}, "d must be >= 0, got -1.0"),
                       ({"l": math.inf}, "l must be finite, got inf"),
                       ({"d": 10**400}, "d must be within the float range, got 1000")],
    RecoveryQuery: [({"law": CompressionLaw(0.98, 1.03, -0.14, MetricKind.ACCURACY)},
                     "recovery analysis needs a feasible law"),
                    ({"law": RUNTIME}, r"law must be a CompressionLaw, got RuntimeLaw\("),
                    ({"law": CompressionLaw(1.0, 1.0, 1.0, MetricKind.RUNTIME)},
                     "recovery analysis is defined for loss and accuracy laws, not runtime"),
                    ({"sigma": math.nan}, "sigma must be finite, got nan"),
                    ({"sigma": 1.5}, r"accuracy thresholds live in \(0, 1\), got 1.5"),
                    ({"r": -0.1}, r"r must lie in \[0, 1\), got -0.1")],
    CandidateModel: [({"l0": 0.0}, "l0 must be > 0"),
                     ({"param_count": -3e9}, "param_count must be > 0, got -3000000000.0"),
                     ({"model_id": 5}, "model_id must be text, got 5"),
                     ({"law": CompressionLaw(1.0, 1.0, 1.0, MetricKind.RUNTIME)},
                      "candidate laws must target loss or accuracy"),
                     ({"law": RUNTIME}, r"law must be a CompressionLaw, got RuntimeLaw\("),
                     ({"runtime_law": ACCURACY}, r"runtime_law must be a RuntimeLaw or None, got CompressionLaw\(")],
    PlanRequest: [({"max_ratio": 0.0}, r"max_ratio must lie in \(0, 1\]"),
                  ({"budget": 0.0}, "budget must be > 0, got 0.0"),
                  ({"metric": "accuracy"}, "metric must be a MetricKind, got 'accuracy'"),
                  ({"rft_size": -1.0}, "rft_size must be >= 0, got -1.0")],
    FitReport: [({"residuals": (0.0,)}, "residual count 1 != sample count 10"),
                ({"warnings": ("w", 1)}, "warnings must be text, got 1"),
                ({"residuals": ("x",) * 10}, r"residuals must be a sequence of numbers, got \('x', 'x', "),
                ({"residuals": None}, "residuals must be a sequence of numbers, got None"),
                ({"residuals": (0.0,) * 9 + (10**400,)}, r"residuals must be a sequence of numbers, got \(0\.0, "),
                ({"law": "x"}, "law must be a CompressionLaw or RuntimeLaw, got 'x'"),
                ({"stats": "y"}, "stats must be a FitStatistics, got 'y'"),
                ({"stats": None}, "stats must be a FitStatistics, got None"),
                ({"warnings": None}, "warnings must be a sequence of text, got None"),
                *(({name: bad}, f"^{name} must be a sequence of {what}, got {re.escape(repr(bad))}$")
                  for name, what in (("warnings", "text"), ("residuals", "numbers"))
                  for bad in ("0123456789", b"0123456789", 5, {"w"}, frozenset({0.5}), {0.5: "w"}))],
    RegistryEntry: [({"metric": MetricKind.LOSS}, "entry metric loss disagrees with law metric accuracy"),
                    ({"model_id": 5}, "model_id must be text, got 5"),
                    ({"model_id": NESTED}, r"^model_id must be text, got \[+\.\.\.\]+$"),
                    ({"metric": "loss"}, "metric must be a MetricKind, got 'loss'"),
                    ({"method_tag": 7}, "method_tag must be text, got 7"),
                    ({"form": "ratio"}, "form must be a DesignForm, got 'ratio'"),
                    ({"provenance": None}, "provenance must be text, got None"),
                    ({"param_count": -3e9}, "param_count must be > 0, got -3000000000.0"),
                    ({"l0": 0.0}, "l0 must be > 0, got 0.0"),
                    ({"reported_adj_r_squared": 7.5}, "reported_adj_r_squared must be at most 1, got 7.5"),
                    ({"reported_f_statistic": -1.0}, "reported_f_statistic must be nonnegative"),
                    ({"law": "notalaw"}, "law must be a CompressionLaw or RuntimeLaw, got 'notalaw'")],
    SyntheticConfig: [({"noise_std": -1.0}, "noise_std must be >= 0"),
                      ({"model_id": 5}, "model_id must be text, got 5"),
                      ({"truth": RUNTIME}, r"truth must be a CompressionLaw, got RuntimeLaw\("),
                      ({"l0_values": (0.5, 0.0)}, "l0 must be > 0, got 0.0"),
                      ({"r_values": (0.1, 1.0)}, r"r must lie in \[0, 1\), got 1.0"),
                      ({"d_values": ()}, "all three grid axes must be nonempty"),
                      ({"d_values": (0.0, -1.0)}, "d must be >= 0, got -1.0"),
                      ({"seed": None}, "seed must be an integer >= 0, got None"),
                      ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
                      ({"seed": -1}, "seed must be an integer >= 0, got -1"),
                      ({"seed": True}, "seed must be an integer >= 0, got True"),
                      ({"r_values": (0.1,), "d_values": (0.0,)}, "need at least 3 distinct values"),
                      *(({axis: bad}, f"^{axis} must be a sequence of numbers, got {re.escape(repr(bad))}$")
                        for axis in ("l0_values", "r_values", "d_values")
                        for bad in ("123", b"\x01", 5, None, {0.5}, frozenset({0.5}), {0.5: "a"}))],
}
CLASSES = sorted(FIELDS, key=lambda cls: cls.__name__)
IDS = [cls.__name__ for cls in CLASSES]


def _instance(cls):
    return cls(**FIELDS[cls])


def test_every_value_type_is_covered():
    modules = (documents, laws, planner, recovery, synth)
    built = {obj for module in modules for obj in vars(module).values()
             if isinstance(obj, type) and "_value_fields" in vars(obj)}
    assert built == set(FIELDS) and len(FIELDS) == 15
    assert set(DEFAULTED) | set(INVALID) <= set(FIELDS)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_keyword_and_default_construction_agree(cls):
    fields = FIELDS[cls]
    value = cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert cls(**fields) == value
    required = {name: v for name, v in fields.items() if name not in DEFAULTED.get(cls, ())}
    assert cls(**required) == value
    assert cls(*required.values()) == value


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls):
    first, second = _instance(cls), _instance(cls)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(tuple(FIELDS[cls].values()))
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_value_never_equals_a_tuple_of_its_fields(cls):
    value, fields = _instance(cls), tuple(FIELDS[cls].values())
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = _instance(cls)
    for name, field in FIELDS[cls].items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) == field
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", sorted(INVALID, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_post_init_still_validates(cls):
    for fields, message in INVALID[cls]:
        with pytest.raises(DomainError, match=message):
            cls(**{**FIELDS[cls], **fields})


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_every_checked_field_has_an_invalid_case(cls):
    """Each field a class declares a check for is the one bad field of at least one ``INVALID`` case."""
    covered = {name for fields, _ in INVALID.get(cls, ()) if len(fields) == 1 for name in fields}
    assert set(cls._checks) <= covered


# The types a function returns, whose fields the function that builds them has checked.
RESULT_TYPES = {PlanEntry, SkippedCandidate, PlanResult, RecoveryAnalysis, SignViolation}


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls not in RESULT_TYPES],
                         ids=[cls.__name__ for cls in CLASSES if cls not in RESULT_TYPES])
def test_every_field_of_an_input_value_type_declares_a_check(cls):
    """A value a caller builds checks each of its fields, so a bad field is a DomainError that names it, never an
    AttributeError or TypeError from a rule that spans fields."""
    assert set(cls._checks) == set(cls._value_fields)


def test_only_the_value_type_decorator_sets_fields():
    """A field is stored once, by the constructor ``_value_type`` generates, as its declared check returns it: no
    other code in the package restores or normalizes a field with ``object.__setattr__``."""
    found = []
    for path in sorted(Path(laws.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                      and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == [("laws.py", "_value_type")]


def test_a_value_type_stores_each_field_once_as_its_check_returns_it():
    calls = []

    def counted(name, value):
        calls.append((name, value))
        return laws.require_positive(name, value)

    @laws._value_type(x=counted)
    class Point:
        label: str
        x: float
        y: float = 0

    assert Point("a", "2.5") == laws._unchecked(Point, "a", 2.5, 0) and calls == [("x", "2.5")]
    assert Point._checks == {"x": counted}
    with pytest.raises(DomainError, match="x must be > 0, got -1.0"):
        Point("b", -1)


def test_table_rows_are_built_without_the_checks():
    """A table's columns were checked when they were read or generated: its rows are its row type's unchecked
    core, equal to what the checked constructor builds."""
    calls = []

    def counted(name, value):
        calls.append(name)
        return laws.require_positive(name, value)

    @laws._value_type(x=counted)
    class Point:
        label: str
        x: float

    rows = [Point("a", 1), Point("a", 2.5), Point("a", 4)]
    table = laws.Table(Point, [("a",), (1.0, 2.5, 4.0)], (3, 1))
    calls.clear()
    assert list(table) == rows and [table[i] for i in range(-3, 3)] == rows * 2 and list(table[1:]) == rows[1:]
    assert calls == []
    assert [type(row.x) for row in table] == [float] * 3
    assert table == laws.Table.of(Point, rows) and calls == []


@pytest.mark.parametrize("name, other", [("alpha", 0.64), ("beta", 1.73), ("gamma", 1.17), ("epsilon", 2.0),
                                         ("metric", MetricKind.ACCURACY), ("stats", STATS)])
def test_values_differing_in_one_field_are_unequal(name, other):
    law = _instance(CompressionLaw)
    changed = CompressionLaw(**{**FIELDS[CompressionLaw], name: other})
    assert law != changed and changed != law


# The float fields each class checks as floats.
CHECKED_FLOATS = {
    FitStatistics: ("r_squared", "adj_r_squared", "f_statistic", "residual_std", "condition_number"),
    CompressionLaw: ("alpha", "beta", "gamma", "epsilon"),
    RuntimeLaw: ("c", "beta"),
    ExperimentRecord: ("l0", "r", "d", "l"),
    RecoveryQuery: ("sigma", "r"),
    CandidateModel: ("param_count", "l0"),
    PlanRequest: ("budget", "rft_size", "max_ratio"),
    SyntheticConfig: ("noise_std",),
}


@pytest.mark.parametrize("cls", sorted(CHECKED_FLOATS, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_checked_fields_are_stored_as_the_float_they_check(cls):
    for name in CHECKED_FLOATS[cls]:
        value = FIELDS[cls][name]
        for given in (repr(value), f" {value!r} ") + ((int(value),) if value == int(value) else ()):
            field = getattr(cls(**{**FIELDS[cls], name: given}), name)
            assert type(field) is float and field == value


def test_an_int_field_reads_back_as_a_float():
    law = CompressionLaw(1, 2, 0, MetricKind.LOSS, 3)
    assert [type(getattr(law, name)) for name in ("alpha", "beta", "gamma", "epsilon")] == [float] * 4
    assert repr(law) == "CompressionLaw(alpha=1.0, beta=2.0, gamma=0.0, metric=<MetricKind.LOSS: 'loss'>, " \
                        "epsilon=3.0, stats=None)"


def test_numeric_strings_are_read_as_their_float():
    law = CompressionLaw(0.5, 1.0, 1.0, MetricKind.LOSS)
    assert laws.evaluate(CompressionLaw("0.5", 1.0, 1.0, MetricKind.LOSS), 2.0, 0.5, 0.0) == \
        laws.evaluate(law, 2.0, 0.5, 0.0) == laws.evaluate(law, "2.0", "0.5", "0")
    request = PlanRequest("1e9", MetricKind.LOSS, "10")
    result = planner.plan([CandidateModel("m", "4e9", 0.6, law)], request)
    assert result == planner.plan([CandidateModel("m", 4e9, 0.6, law)], PlanRequest(1e9, MetricKind.LOSS, 10.0))
    assert result.entries[0].predicted_performance == laws.evaluate(law, 0.6, 0.75, 10.0)
    assert planner.required_ratio("4e9", "1e9", "0.9") == planner.required_ratio(4e9, 1e9) == 0.75
    assert planner.required_ratio(1e9, "4e9") == 0.0


def test_a_fit_report_stores_tuples_its_reader_reads_back():
    """Warnings are text and residuals are floats, stored as tuples, so every report that builds can be written and
    read back as itself."""
    report = FitReport(**{**FIELDS[FitReport], "warnings": ["w"], "residuals": ["0.0", 0] + [0.0] * 8})
    assert report == _instance(FitReport) and [type(value) for value in report.residuals] == [float] * 10
    assert documents.report_from_json(documents.report_to_json(report)) == report


def test_registry_numbers_are_optional_and_checked_as_floats():
    """A registry entry's numbers are ``None`` or checked floats; a reported statistic may be nan, as a fit's may."""
    fields = dict(param_count=3, l0="0.6", reported_adj_r_squared=math.nan, reported_f_statistic=math.inf)
    entry = RegistryEntry(**{**FIELDS[RegistryEntry], **fields})
    assert (entry.param_count, entry.l0, entry.reported_f_statistic) == (3.0, 0.6, math.inf)
    assert type(entry.param_count) is float and math.isnan(entry.reported_adj_r_squared)
    assert _instance(RegistryEntry).param_count is None


def test_synthetic_config_normalizes_its_axes_to_tuples():
    config = SyntheticConfig(ACCURACY, [0.5, 0.7], [0.1, 0.5], iter([0, 10]))
    assert (config.l0_values, config.r_values, config.d_values) == ((0.5, 0.7), (0.1, 0.5), (0.0, 10.0))
    assert type(config.d_values[0]) is float
    assert config == _instance(SyntheticConfig)
    assert hash(config) == hash(_instance(SyntheticConfig))


# Printed by the same instances when these classes were built with dataclasses.dataclass(frozen=True).
STATS_REPR = ("FitStatistics(n=10, p=3, r_squared=0.9, adj_r_squared=0.8, f_statistic=5.0, residual_std=0.1, "
              "condition_number=2.0)")
ACCURACY_REPR = ("CompressionLaw(alpha=0.98, beta=-1.03, gamma=-0.14, metric=<MetricKind.ACCURACY: 'accuracy'>, "
                 "epsilon=1.0, stats=None)")
ENTRY_REPR = ("PlanEntry(model_id='a', required_ratio=0.5, predicted_performance=0.4, predicted_runtime_factor=None, "
              "notes=())")
REPRS = {
    CandidateModel: f"CandidateModel(model_id='a', param_count=3000000000.0, l0=0.6, law={ACCURACY_REPR}, "
                    "runtime_law=None)",
    CompressionLaw: "CompressionLaw(alpha=0.63, beta=1.72, gamma=1.16, metric=<MetricKind.LOSS: 'loss'>, "
                    "epsilon=1.0, stats=None)",
    ExperimentRecord: "ExperimentRecord(model_id='m', metric=<MetricKind.LOSS: 'loss'>, l0=2.0, r=0.5, d=10.0, l=2.5)",
    FitReport: "FitReport(law=CompressionLaw(alpha=0.98, beta=-1.03, gamma=-0.14, "
               f"metric=<MetricKind.ACCURACY: 'accuracy'>, epsilon=2.0, stats={STATS_REPR}), stats={STATS_REPR}, "
               "warnings=('w',), residuals=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))",
    FitStatistics: STATS_REPR,
    PlanEntry: ENTRY_REPR,
    PlanRequest: "PlanRequest(budget=1500000000.0, metric=<MetricKind.ACCURACY: 'accuracy'>, rft_size=0.0, "
                 "max_ratio=0.9)",
    PlanResult: f"PlanResult(entries=({ENTRY_REPR},), "
                "skipped=(SkippedCandidate(model_id='b', reason='needs r = 0.95'),))",
    RecoveryAnalysis: "RecoveryAnalysis(regime=<Regime.CONDITIONALLY_RECOVERABLE: 'conditionally-recoverable'>, "
                      "boundary=0.49, r_critical=0.21, min_d=inf)",
    RecoveryQuery: f"RecoveryQuery(law={ACCURACY_REPR}, sigma=0.8, r=0.19)",
    RegistryEntry: "RegistryEntry(model_id='a', metric=<MetricKind.ACCURACY: 'accuracy'>, method_tag='t', "
                   f"law={ACCURACY_REPR}, form=<DesignForm.FULL: 'full'>, provenance='', param_count=None, l0=None, "
                   "reported_adj_r_squared=None, reported_f_statistic=None)",
    RuntimeLaw: "RuntimeLaw(c=100.0, beta=-0.67, stats=None)",
    SignViolation: "SignViolation(exponent='beta', value=-0.5, expected='beta > 0 for loss')",
    SkippedCandidate: "SkippedCandidate(model_id='b', reason='needs r = 0.95')",
    SyntheticConfig: f"SyntheticConfig(truth={ACCURACY_REPR}, l0_values=(0.5, 0.7), r_values=(0.1, 0.5), "
                     "d_values=(0.0, 10.0), noise_std=0.0, seed=0, model_id='synthetic')",
}


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_names_every_field_as_before(cls):
    assert repr(_instance(cls)) == REPRS[cls]


# The document table of each value type a document holds, and the table of each part whose fields are its object's.
TABLES = {FitStatistics: documents._STATS, CompressionLaw: documents._COMPRESSION, RuntimeLaw: documents._RUNTIME,
          FitReport: documents._REPORT, RegistryEntry: documents._ENTRY}
PARTS = {"reported": documents._REPORTED}


def _table_attrs(table) -> list:
    return [name for key, attr, _, _ in table.rows for name in ([attr] if attr else _table_attrs(PARTS[key]))]


@pytest.mark.parametrize("cls", sorted(TABLES, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_each_document_table_covers_its_value_type(cls):
    """A table's rows, its parts' rows counted in, name each field of the value type it builds exactly once, so a
    field added without a row fails here.  Rows are in the order keys are written, which for laws and registry
    entries is not the order fields are declared."""
    table = TABLES[cls]
    assert table.build is cls and set(_table_attrs(table)) <= set(cls._value_fields)
    assert sorted(_table_attrs(table), key=cls._value_fields.index) == list(cls._value_fields)


def test_the_grid_table_names_synthetic_config_fields():
    assert set(_table_attrs(documents._GRID)) <= set(SyntheticConfig._value_fields)
