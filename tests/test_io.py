"""CSV and JSON round trips, registry fixtures, frontier tables."""

import csv
import io as stdio
import itertools
import json
import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from compresslaw import io as lawio
from compresslaw.errors import DataFormatError, DomainError
from compresslaw.io import (
    LawRegistry,
    RegistryEntry,
    build_fit_report,
    builtin_registry,
    candidates_from_registry,
    emit_frontier_grid,
    law_from_dict,
    law_to_dict,
    load_law,
    read_records,
    registry_from_json,
    registry_to_json,
    report_from_json,
    report_to_json,
    save_law,
    write_frontier,
    write_records,
    RECORD_COLUMNS,
    SkippedRowWarning,
)
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, check_feasibility
from compresslaw.regression import DesignForm, ExperimentRecord, FitStatistics

EXTRINSIC = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)

CSV_HEADER = "model_id,metric,l0,r,d,l\n"


def records_csv(rows):
    return stdio.StringIO(CSV_HEADER + "".join(rows))


class TestReadRecords:
    def test_single_valid_row(self):
        records = read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n"]))
        assert len(records) == 1
        rec = records[0]
        assert rec.model_id == "m1" and rec.metric is MetricKind.LOSS
        assert (rec.l0, rec.r, rec.d, rec.l) == (2.0, 0.5, 0.0, 6.9)

    def test_row_error_names_field_and_row(self):
        with pytest.raises(DataFormatError, match=r"row 2.*'r'|row 2.*r must"):
            read_records(records_csv(["m1,loss,2.0,1.2,0,6.9\n"]))

    def test_strict_aborts_on_first_error(self):
        rows = ["m1,loss,2.0,0.5,0,6.9\n", "m2,loss,-1,0.5,0,6.9\n", "m3,loss,2.0,0.5,0,6.9\n"]
        with pytest.raises(DataFormatError, match="row 3"):
            read_records(records_csv(rows))

    def test_lenient_skips_and_warns(self):
        rows = ["m1,loss,2.0,0.5,0,6.9\n", "m2,loss,junk,0.5,0,6.9\n", "m3,loss,2.0,0.5,0,6.9\n"]
        with pytest.warns(SkippedRowWarning, match="row 3"):
            records = read_records(records_csv(rows), strict=False)
        assert [r.model_id for r in records] == ["m1", "m3"]

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="missing"):
            read_records(stdio.StringIO("model_id,metric,l0,r,d\nm,loss,1,0,0\n"))

    def test_unknown_column_strict(self):
        text = "model_id,metric,l0,r,d,l,extra\nm,loss,1,0,0,1,x\n"
        with pytest.raises(DataFormatError, match="unknown"):
            read_records(stdio.StringIO(text))
        assert len(read_records(stdio.StringIO(text), strict=False)) == 1

    def test_empty_input(self):
        with pytest.raises(DataFormatError, match="header"):
            read_records(stdio.StringIO(""))

    def test_unknown_metric(self):
        with pytest.raises(DataFormatError, match="metric"):
            read_records(records_csv(["m1,score,2.0,0.5,0,6.9\n"]))

    def test_path_round_trip(self, tmp_path):
        records = [
            ExperimentRecord("m/1", MetricKind.ACCURACY, 0.6123456789012, 0.1, 0.0, 0.55),
            ExperimentRecord("m,2", MetricKind.LOSS, 2.0, 0.9, 25000.0, 31.4159265358979),
            ExperimentRecord("m3", MetricKind.RUNTIME, 100.0, 0.5, 0.0, 76.21120991023569),
        ]
        path = tmp_path / "records.csv"
        write_records(records, path)
        assert read_records(path) == records


def oracle_read(text, strict):
    """Per-row reference reader: csv.DictReader rows through io._parse_record.

    Returns ``(records, messages)``: in strict mode the records, or ``None``
    and the one error message; in lenient mode the records and the skip
    messages in order.
    """
    reader = csv.DictReader(stdio.StringIO(text))
    fieldnames = reader.fieldnames
    missing = [c for c in RECORD_COLUMNS if c not in fieldnames]
    extra = [c for c in fieldnames if c not in RECORD_COLUMNS]
    if missing or (extra and strict):
        return None, [f"missing required column(s): {missing}" if missing else f"unknown column(s): {extra}"]
    records, messages = [], []
    row_number = 1
    while True:
        try:
            for row_number, row in enumerate(reader, start=row_number + 1):
                try:
                    records.append(lawio._parse_record(row, row_number))
                except DataFormatError as exc:
                    if strict:
                        return None, [str(exc)]
                    messages.append(str(exc))
            return records, messages
        except csv.Error as exc:
            row_number += 1
            if strict:
                return None, [f"row {row_number}: {exc}"]
            messages.append(f"row {row_number}: {exc}")


def read_like_oracle(text, strict):
    """``read_records`` in the oracle's ``(records, messages)`` shape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = read_records(stdio.StringIO(text), strict=strict)
        except DataFormatError as exc:
            return None, [str(exc)]
    assert all(w.category is SkippedRowWarning for w in caught)
    return records, [str(w.message) for w in caught]


def assert_reads_like_oracle(text):
    for strict in (True, False):
        records, messages = read_like_oracle(text, strict)
        expected_records, expected_messages = oracle_read(text, strict)
        assert messages == expected_messages
        assert (records is None) == (expected_records is None)
        if records is not None:
            assert records == expected_records


OVER_LIMIT = "x" * (csv.field_size_limit() + 1)
NUMBER_CELLS = {
    "l0": st.floats(0.01, 100).map(repr),
    "r": st.floats(0, 1, exclude_max=True).map(repr),
    "d": st.sampled_from(["0", "0.0", "10", "1e9"]),
    "l": st.floats(0.01, 100).map(repr),
}
ODD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1_000", " 2.5 ", "abc", "", "-1", "1.5", "0", "1e999"])
CELLS = {
    "model_id": st.sampled_from(["m", "a,b", "", " x ", 'q"t']),
    "metric": st.one_of(st.sampled_from(["loss", "accuracy", "runtime"]), st.sampled_from([" LOSS ", "bogus", ""])),
    **{name: st.one_of(valid, valid, ODD_NUMBERS) for name, valid in NUMBER_CELLS.items()},
    "note": st.sampled_from(["", "x", OVER_LIMIT]),
}


@st.composite
def record_csvs(draw):
    header = list(draw(st.permutations(RECORD_COLUMNS)))
    header += draw(st.lists(st.sampled_from(["l0", "metric", "note"]), max_size=2))
    out = stdio.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "short", "long", "blank"]))
        if kind == "blank":
            out.write("\r\n")
            continue
        row = [draw(CELLS[name]) for name in header]
        if kind == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += ["extra", "1"]
        writer.writerow(row)
    return out.getvalue()


class TestReadRecordsMatchesPerRowReader:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(text=record_csvs())
    def test_generated_csvs_across_small_chunks(self, text):
        # a 4-row chunk puts chunk boundaries among bad rows, blank lines and csv errors
        with mock.patch.object(lawio, "_CHUNK_ROWS", 4):
            assert_reads_like_oracle(text)

    @pytest.mark.parametrize(
        "text",
        [
            "metric,l0,r,d,l,model_id\nloss,1,0,0,1,m\nloss,1,0,0,1\n",
            "model_id,metric,l0,r,d,l,l0\nm,loss,1,0,0,1,x\nm,loss,1,0,0,1\nm,loss,1,0,0,1,2\n",
            "model_id,metric,l0,r,d,l\nm, LOSS ,1_000, 0.5 ,inf,1\n\nm, LOSS ,1_000, 0.5 ,0,1\n",
        ],
        ids=["short row lacking model_id", "repeated column", "spaced and underscored values"],
    )
    def test_edge_cases(self, text):
        assert_reads_like_oracle(text)

    def test_bad_rows_on_both_sides_of_a_chunk_boundary(self):
        rows = ["m,loss,2.0,0.5,10,6.9\n"] * (2 * lawio._CHUNK_ROWS + 10)
        for i in (0, lawio._CHUNK_ROWS - 1, lawio._CHUNK_ROWS, lawio._CHUNK_ROWS + 1, 2 * lawio._CHUNK_ROWS):
            rows[i] = "m,loss,2.0,1.5,10,6.9\n"
        rows[lawio._CHUNK_ROWS + 3] = "m, LOSS ,2.0,0.5,nan,6.9\n"
        rows[5] = "\n"
        assert_reads_like_oracle(CSV_HEADER + "".join(rows))

    def test_lenient_skips_an_over_limit_field_halfway_through_a_chunk(self):
        rows = [f"m{i},loss,2.0,0.5,{i},6.9\n" for i in range(lawio._CHUNK_ROWS + 10)]
        half = lawio._CHUNK_ROWS // 2
        rows[half] = f"{OVER_LIMIT},loss,2.0,0.5,0,6.9\n"
        text = CSV_HEADER + "".join(rows)
        records, messages = read_like_oracle(text, strict=False)
        assert messages == [f"row {half + 2}: field larger than field limit ({csv.field_size_limit()})"]
        assert [rec.model_id for rec in records] == [f"m{i}" for i in range(len(rows)) if i != half]
        assert_reads_like_oracle(text)


EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1.7976931348623157e308)
POSITIVE = st.one_of(st.sampled_from([5e-324, 1.7976931348623157e308]), st.floats(0.0, 1e308, exclude_min=True))
NONNEGATIVE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0, 1e308))
RATIO = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324]), st.floats(0.0, 1.0, exclude_max=True))
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS + (-5e-324,)), st.floats(allow_nan=False, allow_infinity=False))
TEXT = st.one_of(
    st.sampled_from(["", " lead", "a,b", 'q"t', "two\nlines", "cr\r", "crlf\r\n", "naïve 中文", "nul\x00"]),
    st.text(alphabet=',"\r\n xé中', max_size=6),
)
ROW_COUNTS = st.sampled_from([0, 1, 2, 9, 40])


@st.composite
def columns_of(draw, n, values):
    """``n`` values: a few values repeated, or mostly distinct ones."""
    if draw(st.booleans()):
        pool = draw(st.lists(values, min_size=1, max_size=3))
        return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    return draw(st.lists(values, min_size=n, max_size=n))


def csv_reference(header, rows):
    out = stdio.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def written(write, *args):
    out = stdio.StringIO()
    write(*args, out)
    return out.getvalue()


class TestWritersMatchReference:
    """The columnar writers against ``csv.writer`` and ``json.dumps`` over the same rows, with 7-row chunks: a
    chunk drawn from a pool of up to 3 values takes the deduplicating path."""

    @pytest.fixture(autouse=True)
    def small_chunks(self):
        with mock.patch.object(lawio, "_CHUNK_ROWS", 7):
            yield

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=ROW_COUNTS)
    def test_records_csv(self, data, n):
        columns = [data.draw(columns_of(n, values)) for values in (TEXT, st.sampled_from(MetricKind))]
        columns += [data.draw(columns_of(n, values)) for values in (POSITIVE, RATIO, NONNEGATIVE, POSITIVE)]
        records = [ExperimentRecord(*fields) for fields in zip(*columns)]
        rows = [[rec.model_id, rec.metric.value, repr(rec.l0), repr(rec.r), repr(rec.d), repr(rec.l)] for rec in records]
        assert written(write_records, records) == csv_reference(RECORD_COLUMNS, rows)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=ROW_COUNTS)
    def test_frontier_csv_and_json(self, data, n):
        points = [lawio.FrontierPoint(*p) for p in zip(*(data.draw(columns_of(n, FINITE)) for _ in range(4)))]
        assert written(write_frontier, points) == csv_reference(lawio.FrontierPoint._fields, [map(repr, p) for p in points])
        doc = {"schema_version": lawio.SCHEMA_VERSION, "kind": "frontier", "rows": [p._asdict() for p in points]}
        assert written(lawio._write_frontier_json, points) == json.dumps(doc) + "\n"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=ROW_COUNTS.filter(bool), notes=st.lists(TEXT, max_size=2))
    def test_report_json(self, data, n, notes):
        residuals = tuple(data.draw(columns_of(n, st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf])))))
        stats = FitStatistics(n=n, p=0, r_squared=0.5, adj_r_squared=0.25, f_statistic=math.inf,
                              residual_std=0.1, condition_number=1.0)
        law = CompressionLaw(0.5, 1.0, 1.0, MetricKind.LOSS, stats=stats)
        doc = {
            "schema_version": lawio.SCHEMA_VERSION,
            "kind": "fit_report",
            "law": law_to_dict(law),
            "stats": law_to_dict(law)["stats"],
            "warnings": notes,
            "residuals": [v if math.isfinite(v) else repr(v) for v in residuals],
        }
        report = lawio.FitReport(law, stats, tuple(notes), residuals)
        assert report_to_json(report) == json.dumps(doc, indent=2) + "\n"


class TestLawJson:
    @pytest.mark.parametrize(
        "law",
        [
            EXTRINSIC,
            CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS, epsilon=2.5),
            RuntimeLaw(c=100.0, beta=-0.67),
        ],
    )
    def test_round_trip(self, law):
        assert law_from_dict(law_to_dict(law)) == law

    def test_round_trip_with_stats(self, tmp_path):
        stats = FitStatistics(200, 3, 1.0, 1.0, math.inf, 0.0, 7.8)
        law = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS, stats=stats)
        path = tmp_path / "law.json"
        save_law(law, path)
        assert load_law(path) == law

    def test_unknown_field_rejected_in_strict_mode(self):
        doc = law_to_dict(EXTRINSIC)
        doc["surprise"] = 1
        with pytest.raises(DataFormatError, match="unknown"):
            law_from_dict(doc)

    def test_schema_version_enforced(self):
        doc = {"schema_version": "compresslaw/v0", **law_to_dict(EXTRINSIC)}
        with pytest.raises(DataFormatError, match="schema_version"):
            load_law(stdio.StringIO(json.dumps(doc)))

    def test_invalid_values_rejected(self):
        doc = law_to_dict(EXTRINSIC)
        doc["epsilon"] = -1.0
        with pytest.raises(DataFormatError, match="epsilon"):
            law_from_dict(doc)

    def test_bad_kind(self):
        with pytest.raises(DataFormatError, match="kind"):
            law_from_dict({"kind": "mystery"})


class TestFitReport:
    @staticmethod
    def identity_records():
        return [
            ExperimentRecord("m", MetricKind.LOSS, l0, r, d, l0)
            for l0 in (1.5, 2.0, 4.0)
            for r in (0.1, 0.5)
            for d in (0.0, 10.0)
        ]

    def test_identity_fit_document(self):
        report = build_fit_report(self.identity_records())
        doc = json.loads(report_to_json(report))
        assert doc["law"]["alpha"] == pytest.approx(1.0, abs=1e-10)
        assert doc["law"]["beta"] == pytest.approx(0.0, abs=1e-10)
        assert doc["law"]["gamma"] == pytest.approx(0.0, abs=1e-10)
        assert doc["stats"]["r_squared"] == pytest.approx(1.0)
        assert len(doc["residuals"]) == doc["stats"]["n"]

    def test_round_trip(self):
        report = build_fit_report(self.identity_records())
        assert report_from_json(report_to_json(report)) == report

    def test_byte_stability(self):
        a = report_to_json(build_fit_report(self.identity_records()))
        b = report_to_json(build_fit_report(self.identity_records()))
        assert a.encode() == b.encode()

    def test_unknown_fields_rejected_in_strict_mode(self):
        doc = json.loads(report_to_json(build_fit_report(self.identity_records())))
        doc["debug"] = True
        with pytest.raises(DataFormatError, match="unknown"):
            report_from_json(json.dumps(doc))

    def test_feasibility_warning_recorded(self):
        records = [
            ExperimentRecord("m", MetricKind.ACCURACY, l0, r, d, l0**1.1 * (1 + r) ** 0.8 * (1 + 1 / (d + 1)) ** -0.1)
            for l0 in (0.4, 0.6, 0.8)
            for r in (0.1, 0.5)
            for d in (0.0, 10.0)
        ]
        report = build_fit_report(records)
        assert any("beta" in note for note in report.warnings)

    def test_infinite_f_statistic_survives_round_trip(self):
        report = build_fit_report(self.identity_records())
        assert report.stats.f_statistic == math.inf
        assert report_from_json(report_to_json(report)).stats.f_statistic == math.inf

    def test_non_finite_values_round_trip_as_their_strings(self):
        stats = FitStatistics(5, 3, 0.5, math.nan, math.inf, math.nan, 2.0)
        law = CompressionLaw(0.5, 1.0, 1.0, MetricKind.LOSS, stats=stats)
        text = report_to_json(lawio.FitReport(law, stats, (), (0.1, math.nan, -math.inf, math.inf, -0.0)))
        doc = json.loads(text)
        assert [doc["stats"][k] for k in ("adj_r_squared", "f_statistic", "residual_std")] == ["nan", "inf", "nan"]
        assert doc["residuals"][1:4] == ["nan", "-inf", "inf"]
        # the two copies of the stats are decoded apart, so their "nan" values are distinct floats that agree
        assert report_to_json(report_from_json(text)) == text

    @pytest.mark.parametrize("text", ["0.63", " 1_720e-3 ", "1_0", "Infinity", "NaN", "+inf"])
    @pytest.mark.parametrize("path", [("law", "alpha"), ("stats", "residual_std"), ("residuals", 0)],
                             ids=["law.alpha", "stats.residual_std", "residuals.0"])
    def test_a_number_written_as_another_string_is_rejected(self, path, text):
        doc = json.loads(report_to_json(build_fit_report(self.identity_records())))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = text
        with pytest.raises(DataFormatError, match="expected a number"):
            report_from_json(json.dumps(doc))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_a_bare_non_finite_token_is_rejected(self, token):
        doc = json.loads(report_to_json(build_fit_report(self.identity_records())))
        doc["residuals"][0] = "@RAW@"
        with pytest.raises(DataFormatError, match=f"invalid JSON: {token} is not a number"):
            report_from_json(json.dumps(doc).replace('"@RAW@"', token))

    def test_the_two_copies_of_the_stats_must_agree(self):
        report = build_fit_report(self.identity_records())
        doc = json.loads(report_to_json(report))
        doc["law"]["stats"]["n"] = 7
        with pytest.raises(DataFormatError, match="statistics disagree"):
            report_from_json(json.dumps(doc))
        other = FitStatistics(**{**vars(report.stats), "n": 7})
        with pytest.raises(DomainError, match="statistics disagree"):
            lawio.FitReport(report.law, other, (), report.residuals[:7])


class TestRegistry:
    def test_builtin_fixture_counts_by_table(self):
        registry = builtin_registry()
        counts = {}
        for entry in registry:
            counts[entry.provenance.split(":")[0]] = counts.get(entry.provenance.split(":")[0], 0) + 1
        assert counts == {"table1": 6, "table2": 16, "table3": 4, "table4": 9, "table5": 8, "fig6": 1}

    def test_builtin_fixture_feasibility_matches_reported_signs(self):
        # every fixture law must be feasible in the exponents its form fits
        fitted = {DesignForm.FULL: ("beta", "gamma"), DesignForm.RATIO_ONLY: ("beta",),
                  DesignForm.DATA_ONLY: ("gamma",), DesignForm.RUNTIME: ()}
        for entry in builtin_registry():
            if isinstance(entry.law, RuntimeLaw):
                assert entry.law.beta < 0.0  # compression never slows inference in these fits
                continue
            violations = [v for v in check_feasibility(entry.law) if v.exponent in fitted[entry.form]]
            assert violations == [], f"{entry.key}: {violations}"

    def test_builtin_round_trip(self):
        registry = builtin_registry()
        again = registry_from_json(registry_to_json(registry))
        assert list(again) == list(registry)

    def test_duplicate_key_rejected(self):
        entry = RegistryEntry("m", MetricKind.ACCURACY, "tag", EXTRINSIC)
        registry = LawRegistry([entry])
        with pytest.raises(DataFormatError, match="duplicate"):
            registry.add(entry)

    def test_select_filters(self):
        registry = builtin_registry()
        runtime = registry.select(metric=MetricKind.RUNTIME)
        assert len(runtime) == 9
        tagged = registry.select(metric=MetricKind.LOSS, method_tag="calibration-based")
        assert {e.model_id for e in tagged} == {"llama-family"}

    def test_entry_metric_law_consistency(self):
        with pytest.raises(DomainError):
            RegistryEntry("m", MetricKind.LOSS, "tag", EXTRINSIC)
        with pytest.raises(DomainError):
            RegistryEntry("m", MetricKind.LOSS, "tag", RuntimeLaw(1.0, -0.5))

    def test_candidates_from_registry(self):
        registry = LawRegistry(
            [
                RegistryEntry("a", MetricKind.ACCURACY, "t", EXTRINSIC, param_count=4e9, l0=0.6),
                RegistryEntry("b", MetricKind.ACCURACY, "t", EXTRINSIC, param_count=8e9, l0=0.6),
                RegistryEntry("a", MetricKind.RUNTIME, "runtime", RuntimeLaw(1.0, -0.67), form=DesignForm.RUNTIME),
                # missing l0 -> not a candidate
                RegistryEntry("c", MetricKind.ACCURACY, "t", EXTRINSIC, param_count=2e9),
            ]
        )
        candidates = candidates_from_registry(registry, MetricKind.ACCURACY)
        assert [c.model_id for c in candidates] == ["a", "b"]
        assert candidates[0].runtime_law == RuntimeLaw(1.0, -0.67)
        assert candidates[1].runtime_law is None

    def test_candidates_require_planner_fields(self):
        with pytest.raises(DomainError, match="param_count"):
            candidates_from_registry(builtin_registry(), MetricKind.ACCURACY)


GRID_LAWS = st.builds(
    CompressionLaw,
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
    gamma=st.floats(-3.0, 3.0),
    metric=st.sampled_from([MetricKind.LOSS, MetricKind.ACCURACY]),
    epsilon=st.floats(0.01, 10.0),
)


class TestFrontier:
    @settings(max_examples=60, deadline=2000, derandomize=True, database=None)
    @given(
        law=GRID_LAWS,
        l0_list=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4),
        r_grid=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4),
        d_grid=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4),
    )
    def test_every_point_equals_evaluate(self, law, l0_list, r_grid, d_grid):
        from compresslaw.laws import evaluate

        points = emit_frontier_grid(law, l0_list, r_grid, d_grid)
        assert [(p.l0, p.r, p.d) for p in points] == list(itertools.product(l0_list, r_grid, d_grid))
        for point in points:
            assert point.predicted == evaluate(law, point.l0, point.r, point.d)

    def test_monotone_in_r_for_feasible_accuracy(self):
        points = emit_frontier_grid(EXTRINSIC, [0.6], [i / 10 for i in range(1, 10)], [0.0])
        values = [p.predicted for p in points]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_values_match_scalar_oracle(self):
        rs = [i / 10 for i in range(1, 10)]
        points = emit_frontier_grid(EXTRINSIC, [0.6], rs, [0.0])
        for point, r in zip(points, rs):
            expected = 0.6**0.98 * (1 + r) ** -1.03 * 2.0**-0.14
            assert point.predicted == pytest.approx(expected, rel=1e-6)

    def test_lexicographic_row_order(self):
        points = emit_frontier_grid(EXTRINSIC, [0.5, 0.7], [0.1, 0.2], [0.0, 5.0])
        keys = [(p.l0, p.r, p.d) for p in points]
        assert keys == sorted(keys)

    def test_is_a_read_only_sequence_of_points(self, tmp_path):
        points = emit_frontier_grid(EXTRINSIC, [0.5, 0.7], [0.1, 0.2], [0.0, 5.0])
        as_list = [lawio.FrontierPoint(*p) for p in points]
        assert len(points) == 8 and points == as_list and as_list == points
        assert points[-1] == as_list[-1] and type(points[0].predicted) is float
        assert points[2:5] == as_list[2:5] and points != as_list[::-1] and points != as_list[:7]
        with pytest.raises(IndexError):
            points[8]
        with pytest.raises(ValueError):
            points.predicted[0] = 1.0
        write_frontier(points, tmp_path / "columns.csv")
        write_frontier(iter(as_list), tmp_path / "points.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            emit_frontier_grid(EXTRINSIC, [], [0.1], [0.0])

    def test_csv_output_round_trips(self, tmp_path):
        points = emit_frontier_grid(EXTRINSIC, [0.6], [0.1, 0.5], [0.0, 100.0])
        path = tmp_path / "frontier.csv"
        write_frontier(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "l0,r,d,predicted"
        parsed = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
        assert parsed == [tuple(p) for p in points]
