"""CSV and JSON round trips, registry fixtures, frontier tables."""

import copy
import csv
import gc
import hashlib
import io as stdio
import itertools
import json
import math
import pickle
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from compresslaw import documents, frontier, io as lawio, regression
from compresslaw.errors import DataFormatError, DomainError, SingularDesignError
from compresslaw.documents import (
    FitReport,
    LawRegistry,
    RegistryEntry,
    builtin_registry,
    candidates_from_registry,
    law_from_dict,
    law_to_dict,
    load_law,
    registry_from_json,
    registry_to_json,
    report_from_json,
    report_to_json,
    save_law,
)
from compresslaw.frontier import FrontierPoint, emit_frontier_grid, write_frontier
from compresslaw.io import RECORD_COLUMNS, SkippedRowWarning, build_fit_report, read_records, write_records
from compresslaw.laws import _FORM_COEFFICIENTS, CompressionLaw, MetricKind, RuntimeLaw, Table, check_feasibility
from compresslaw.laws import SCHEMA_VERSION, evaluate
from compresslaw.regression import DesignForm, ExperimentRecord, FitStatistics
from compresslaw.synth import SyntheticConfig, generate

EXTRINSIC = CompressionLaw(0.98, -1.03, -0.14, MetricKind.ACCURACY)

CSV_HEADER = "model_id,metric,l0,r,d,l\n"
OVER_LIMIT = "x" * (csv.field_size_limit() + 1)


def records_csv(rows):
    return stdio.StringIO(CSV_HEADER + "".join(rows))


class TestReadRecords:
    def test_single_valid_row(self):
        records = read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n"]))
        assert len(records) == 1
        rec = records[0]
        assert rec.model_id == "m1" and rec.metric is MetricKind.LOSS
        assert (rec.l0, rec.r, rec.d, rec.l) == (2.0, 0.5, 0.0, 6.9)

    def test_float_columns_are_read_only_and_reach_numpy_without_a_copy(self):
        records = read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n", "m2,loss,3.0,-0.0,1,7.5\n"]))
        assert isinstance(records, Table) and records[1:] == [records[1]]
        for k, name in enumerate(RECORD_COLUMNS[2:], 2):
            column = records.columns[k]
            assert list(column) == [getattr(rec, name) for rec in records] and type(column[0]) is float
            with pytest.raises(TypeError):
                column[0] = 1.0
            assert np.shares_memory(np.asarray(column), np.asarray(column))

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

    @pytest.mark.parametrize("rows", [
        ["m1,loss,2.0,0.5,0,6.9\n", "m2,loss,junk,0.5,0,6.9\n", "m3,bogus,2.0,0.5,0,6.9\n", "m4,loss,-1,0.5,0,6.9\n"],
        ["m1,loss,2.0,0.5,0,6.9\n", f"m2,loss,{OVER_LIMIT},0.5,0,6.9\n", '"m3,loss,2.0,0.5,0,6.9\n'],
    ], ids=["plain", "csv-errors"])
    def test_a_lenient_read_leaves_no_reference_cycles(self, rows):
        """A skipped row's error keeps no frame, which would hold the chunk's columns and the error itself."""
        read_records(records_csv(rows[:1]))
        gc.collect()
        gc.disable()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SkippedRowWarning)
                records = read_records(records_csv(rows), strict=False)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert [r.model_id for r in records] == ["m1"]

    @pytest.mark.parametrize("bad_row", ["m2,loss,2.0,1.5,0,6.9\n", f"m2,loss,{OVER_LIMIT},0.5,0,6.9\n"],
                             ids=["out of domain", "over the csv limit"])
    def test_a_failed_strict_read_leaves_no_reference_cycles(self, bad_row):
        """Neither the raised error's traceback nor the reader it leaves suspended holds the error in a cycle."""
        read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n"]))
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(DataFormatError, match="row 3"):
                read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n", bad_row]))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_the_strict_error_keeps_its_message_and_cause(self):
        with pytest.raises(DataFormatError) as caught:
            read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n", "m2,loss,-1,0.5,0,6.9\n"]))
        assert str(caught.value) == "row 3: l0 must be > 0, got -1.0"
        assert isinstance(caught.value.__cause__, DomainError)
        assert str(caught.value.__cause__) == "l0 must be > 0, got -1.0"

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

    def test_a_header_over_the_csv_field_limit_is_an_error_of_row_1(self):
        limit = csv.field_size_limit(5)
        try:
            with pytest.raises(DataFormatError) as caught:
                read_records(records_csv(["m1,loss,2.0,0.5,0,6.9\n"]))
        finally:
            csv.field_size_limit(limit)
        assert str(caught.value) == "row 1: field larger than field limit (5)"

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


def oracle_read(text, strict, stream=stdio.StringIO):
    """Per-row reference reader: csv.DictReader rows through io._parse_record.

    Returns ``(records, messages)``: in strict mode the records, or ``None``
    and the one error message; in lenient mode the records and the skip
    messages in order.  ``stream`` makes the text a text stream.
    """
    reader = csv.DictReader(stream(text))
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
                    records.append(lawio._parse_record([row.get(c) for c in RECORD_COLUMNS], row_number))
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


def read_like_oracle(text, strict, stream=stdio.StringIO):
    """``read_records`` in the oracle's ``(records, messages)`` shape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = read_records(stream(text), strict=strict)
        except DataFormatError as exc:
            return None, [str(exc)]
    assert all(w.category is SkippedRowWarning for w in caught)
    return records, [str(w.message) for w in caught]


def assert_reads_like_oracle(text, stream=stdio.StringIO):
    for strict in (True, False):
        records, messages = read_like_oracle(text, strict, stream)
        expected_records, expected_messages = oracle_read(text, strict, stream)
        assert messages == expected_messages
        assert (records is None) == (expected_records is None)
        if records is not None:
            assert records == expected_records


# Text streams split lines as their newline mode says: StringIO only at "\n", a file opened as
# read_records opens a path at "\r", "\n" and "\r\n", and sys.stdin (as `fit --input -` reads it)
# translates all three to "\n".
STREAMS = {
    "StringIO": stdio.StringIO,
    "file": lambda text: stdio.StringIO(text, newline=""),
    "stdin": lambda text: stdio.TextIOWrapper(stdio.BytesIO(text.encode("utf-8")), encoding="utf-8"),
}


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
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=record_csvs(), stream=st.sampled_from(list(STREAMS.values())))
    def test_generated_csvs_across_small_chunks(self, text, stream):
        # 64-character blocks put block boundaries among bad rows, blank lines and csv errors
        with mock.patch.object(lawio, "_BLOCK_CHARS", 64):
            assert_reads_like_oracle(text, stream)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(text=record_csvs())
    def test_generated_csvs_with_every_grid_column_deduplicated(self, text):
        # l0, r and d are parsed once per distinct text in every block and chunk, bad texts included
        with mock.patch.object(lawio, "_BLOCK_CHARS", 64), \
                mock.patch.object(lawio, "_parse_chunk", side_effect=lawio._parse_chunk) as chunks, \
                mock.patch.object(lawio, "_parse_floats", side_effect=lawio._parse_floats) as parsed:
            assert_reads_like_oracle(text)
        texts = [call.args[0] for call in parsed.call_args_list]
        assert len(texts) == 4 * len(chunks.call_args_list)  # l0, r, d, then l
        for i, call in enumerate(chunks.call_args_list):
            *grid, observed = call.args[0][2:]
            for column, distinct in zip(grid, texts[4 * i : 4 * i + 3]):
                assert len(distinct) == len(set(distinct)) and set(distinct) == set(column)
            assert list(texts[4 * i + 3]) == list(observed)

    def test_a_line_feed_inside_a_row_of_a_cr_stream_is_csv_s_error(self):
        # A stream that ends lines at "\r" alone hands over a row holding "\n", which only csv.reader may read.
        rows = ["m,loss,2.0,0.5,10,6.9"] * 6
        rows[3] = "m\nx,loss,2.0,0.5,10,6.9"
        text = "\r".join([CSV_HEADER.rstrip("\n"), *rows, ""])

        def cr_stream(text):
            return stdio.TextIOWrapper(stdio.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="\r")

        assert read_like_oracle(text, True, cr_stream)[1][0].startswith("row 5: new-line character seen in unquoted")
        records, messages = read_like_oracle(text, False, cr_stream)
        assert [rec.model_id for rec in records] == ["m"] * 5 and len(messages) == 1
        assert_reads_like_oracle(text, cr_stream)

    def test_a_short_block_parses_each_distinct_grid_text_once(self):
        axes = (["1.5", "2.5", "3.5"], ["0.0", "0.25", "0.5", "0.75", "0.9"], ["0", "10", "100"])
        rows = [f"m,loss,{l0},{r},{d},{i + 1}\n" for i, (l0, r, d) in enumerate(itertools.product(*axes))]
        with mock.patch.object(lawio, "_parse_floats", side_effect=lawio._parse_floats) as spy:
            records = read_records(records_csv(rows))
        assert [list(call.args[0]) for call in spy.call_args_list] == [*axes, [str(i + 1) for i in range(45)]]
        grid = enumerate(itertools.product(*axes))
        assert records == [ExperimentRecord("m", MetricKind.LOSS, *map(float, point), i + 1.0) for i, point in grid]

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

    def test_bad_rows_on_both_sides_of_a_block_boundary(self):
        rows = ["m,loss,2.0,0.5,10,6.9\n"] * (3 * lawio._BLOCK_CHARS // 22)  # three blocks of 22-character rows
        rows[5] = "\n"  # csv.reader reads the first block
        rows[7] = "m, LOSS ,2.0,0.5,nan,6.9\n"
        first, second = block_starts("".join(rows))[:2]
        rows[second + 2] = '"m",loss,2.0,0.5,10,6.9\n'  # and the third
        for i in (0, first - 1, first, first + 1, second - 1, second, second + 1):
            rows[i] = "m,loss,2.0,1.5,10,6.9\n"  # as long as the row it replaces: the blocks stay as they are
        assert block_starts("".join(rows))[:2] == [first, second]
        assert_reads_like_oracle(CSV_HEADER + "".join(rows))

    def test_lenient_skips_an_over_limit_field_at_the_end_of_a_block(self):
        # A line over the limit is longer than a block, so it ends the block that holds it.
        rows = [f"m{i},loss,2.0,0.5,{i},6.9\n" for i in range(2 * lawio._BLOCK_CHARS // 24)]
        half = len(rows) // 4
        rows[half] = f"{OVER_LIMIT},loss,2.0,0.5,0,6.9\n"
        text = CSV_HEADER + "".join(rows)
        assert block_starts("".join(rows))[0] == half + 1
        records, messages = read_like_oracle(text, strict=False)
        assert messages == [f"row {half + 2}: field larger than field limit ({csv.field_size_limit()})"]
        assert [rec.model_id for rec in records] == [f"m{i}" for i in range(len(rows)) if i != half]
        assert_reads_like_oracle(text)

    def test_lenient_skips_an_over_limit_field_halfway_through_a_block(self):
        # Under a lowered limit the bad line is short, and csv.reader resumes after it within the block.
        rows = [f"m{i},loss,2.0,0.5,{i},6.9\n" for i in range(2 * lawio._BLOCK_CHARS // 24)]
        half = block_starts("".join(rows))[0] // 2
        rows[half] = "x" * 101 + ",loss,2.0,0.5,0,6.9\n"
        text = CSV_HEADER + "".join(rows)
        limit = csv.field_size_limit(100)
        try:
            fh = stdio.StringIO(text)
            fh.readline()
            chunks = list(lawio._body_chunks(fh, len(RECORD_COLUMNS), range(len(RECORD_COLUMNS))))
            first = block_starts("".join(rows))[0]
            assert [(len(columns[0]), error) for columns, _, error in chunks[:2]] == [
                (half, "field larger than field limit (100)"), (first - half - 1, None)]
            records, messages = read_like_oracle(text, strict=False)
            assert messages == [f"row {half + 2}: field larger than field limit (100)"]
            assert [rec.model_id for rec in records] == [f"m{i}" for i in range(len(rows)) if i != half]
            assert_reads_like_oracle(text)
        finally:
            csv.field_size_limit(limit)

    def test_a_quoted_row_leaves_later_blocks_to_the_bulk_split(self):
        rows = [PLAIN_ROW] * (3 * lawio._BLOCK_CHARS // len(PLAIN_ROW))
        rows[2] = '"m",loss,2.0,0.5,10,6.9\r\n'
        rows[-3] = BAD_ROW
        text = CSV_HEADER + "".join(rows)
        with mock.patch.object(lawio, "_split_plain", side_effect=lawio._split_plain) as spy:
            with pytest.warns(SkippedRowWarning):
                read_records(stdio.StringIO(text), strict=False)
        plain = [lawio._split_plain(*call.args) is not None for call in spy.call_args_list]
        assert len(plain) >= 3 and plain == [False] + [True] * (len(plain) - 1)
        assert_reads_like_oracle(text)


def block_starts(body):
    """The indexes of the lines of ``body`` that start its blocks after the first, as read_records reads a body
    with no quoted line end."""
    stream, starts = stdio.StringIO(body), [0]
    while lines := stream.readlines(lawio._BLOCK_CHARS):
        starts.append(starts[-1] + len(lines))
    return starts[1:-1]


PLAIN_ROW = "m,loss,2.0,0.5,10,6.9\r\n"
BAD_ROW = "m,loss,2.0,1.5,10,6.9\r\n"
BLOCK_CASES = {
    "quoted field after plain blocks": CSV_HEADER + PLAIN_ROW * 20 + BAD_ROW + '"m,1",loss,2.0,0.5,10,6.9\r\n'
    + PLAIN_ROW * 3 + BAD_ROW + "\r\n" + PLAIN_ROW,
    "line longer than a block": CSV_HEADER + PLAIN_ROW * 5 + "m" * 300 + ",loss,2.0,0.5,10,6.9\n" + BAD_ROW + PLAIN_ROW,
    "lone CR line ends": CSV_HEADER + PLAIN_ROW * 8 + "m,loss,2.0,0.5,10,6.9\r" * 6 + BAD_ROW + PLAIN_ROW * 8,
    "lone CR inside a line": CSV_HEADER + PLAIN_ROW * 8 + "m\rx,loss,2.0,0.5,10,6.9\n" + BAD_ROW + PLAIN_ROW,
    "NUL character": CSV_HEADER + PLAIN_ROW * 8 + "m\x00,loss,2.0,0.5,10,6.9\r\n" + BAD_ROW + PLAIN_ROW,
    "over-limit field": CSV_HEADER + PLAIN_ROW * 8 + OVER_LIMIT + ",loss,2.0,0.5,10,6.9\r\n" + BAD_ROW + PLAIN_ROW,
    "empty body": CSV_HEADER,
    "header without a line end": CSV_HEADER.rstrip("\n"),
    "last line without a line end": CSV_HEADER + PLAIN_ROW * 8 + BAD_ROW + "m,loss,2.0,0.5,10,6.9",
    "mixed line ends and bad values": CSV_HEADER + (PLAIN_ROW + "m,loss,2.5,0.5,0,7\n" + BAD_ROW) * 6
    + "m,bogus,2,0.5,0,7\n" + "m,loss,2,0.5,-1,7\n" + "m,loss,x,0.5,0,7\n" + PLAIN_ROW * 4,
    "short and long rows between plain blocks": CSV_HEADER + PLAIN_ROW * 8 + "m,loss,2.0\n" + PLAIN_ROW * 8
    + "m,loss,2.0,0.5,10,6.9,7\n" + PLAIN_ROW * 8,
    "a column read twice": "model_id,metric,l0,r,d,l,l0\n" + "m,loss,2.0,0.5,10,6.9,3.0\n" * 9
    + "m,loss,2.0,0.5,10,6.9,-3\n",
}


class TestBlockBoundaries:
    """Blocks of 64 characters, a few lines each: a block of plain lines is split in bulk, and csv.reader reads
    any other, past its end only to close a quoted field, for each kind of text stream."""

    @pytest.fixture(autouse=True)
    def small_blocks(self):
        with mock.patch.object(lawio, "_BLOCK_CHARS", 64):
            yield

    @pytest.mark.parametrize("stream", STREAMS.values(), ids=STREAMS.keys())
    @pytest.mark.parametrize("text", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_reads_like_the_per_row_reader(self, text, stream):
        assert_reads_like_oracle(text, stream)

    def test_a_path_reads_like_a_file_stream(self, tmp_path):
        path = tmp_path / "records.csv"
        for text in BLOCK_CASES.values():
            path.write_bytes(text.encode("utf-8"))
            for strict in (True, False):
                assert read_like_oracle(path, strict, lambda path: path) == oracle_read(text, strict, STREAMS["file"])

    def test_lines_over_a_lowered_field_limit(self):
        # A line over the limit leaves the bulk split; only a field over it is an error.
        text = CSV_HEADER + PLAIN_ROW * 4 + "mm,loss,2.0,0.5,10,6.9\n" + "m" * 23 + ",loss,2.0,0.5,10,6.9\n" + PLAIN_ROW
        limit = csv.field_size_limit(22)
        try:
            assert_reads_like_oracle(text)
        finally:
            csv.field_size_limit(limit)


@st.composite
def csv_lines(draw):
    """Lines of fields from an alphabet with every character csv treats specially, and their width."""
    width = draw(st.integers(2, 4))
    field = st.one_of(st.sampled_from(["", "a", "1.5"]), st.text(alphabet='a ,"\r\n\x00é', max_size=3))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\r", ""])
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        fields = draw(st.lists(field, min_size=width - 1, max_size=width + 1))
        lines.append(",".join(fields) + draw(ends))
    return lines, width


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=csv_lines())
def test_bulk_split_is_csv_reader_or_declined(case):
    lines, width = case
    columns = lawio._split_plain(lines, width, range(width))
    plain = all(
        line.rstrip("\r\n").count(",") == width - 1 and not set('"\r\n\x00') & set(line.rstrip("\r\n"))
        for line in lines
    )
    assert (columns is not None) == plain
    if columns is not None:
        assert [list(row) for row in zip(*columns)] == list(csv.reader(lines))


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
    """The table writers against ``csv.writer`` and ``json.dumps`` over the same rows, in 7-row chunks of the
    one chunk size the writers read: columns drawn from a pool of up to 3 values, or mostly distinct ones."""

    @pytest.fixture(autouse=True)
    def small_chunks(self):
        with mock.patch.object(frontier, "_CHUNK_ROWS", 7):
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
        points = [FrontierPoint(*p) for p in zip(*(data.draw(columns_of(n, FINITE)) for _ in range(4)))]
        assert written(write_frontier, points) == csv_reference(FrontierPoint._fields, [map(repr, p) for p in points])
        doc = {"schema_version": SCHEMA_VERSION, "kind": "frontier", "rows": [p._asdict() for p in points]}
        assert written(frontier._write_frontier_json, points) == json.dumps(doc) + "\n"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=ROW_COUNTS.filter(bool), notes=st.lists(TEXT, max_size=2))
    def test_report_json(self, data, n, notes):
        residuals = tuple(data.draw(columns_of(n, st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf])))))
        stats = FitStatistics(n=n, p=0, r_squared=0.5, adj_r_squared=0.25, f_statistic=math.inf,
                              residual_std=0.1, condition_number=1.0)
        law = CompressionLaw(0.5, 1.0, 1.0, MetricKind.LOSS, stats=stats)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "fit_report",
            "law": law_to_dict(law),
            "stats": law_to_dict(law)["stats"],
            "warnings": notes,
            "residuals": [v if math.isfinite(v) else repr(v) for v in residuals],
        }
        report = FitReport(law, stats, tuple(notes), residuals)
        assert report_to_json(report) == json.dumps(doc, indent=2) + "\n"

    LOSS, ACCURACY, RUNTIME = MetricKind.LOSS, MetricKind.ACCURACY, MetricKind.RUNTIME
    TEXT_COLUMNS = {
        "one-model-one-metric": (["m"] * 9, [LOSS] * 9),
        "equal-ids-apart": (["".join(["m", "x"]) for _ in range(9)], [ACCURACY] * 9),
        "one-model-mixed-metrics": (["m"] * 9, [LOSS, ACCURACY, RUNTIME] * 3),
        "quoted-model": (['a,"b"'] * 9, [LOSS] * 9),
        "model-with-a-line-end": (["two\nlines"] * 9, [RUNTIME] * 9),
        "empty-model": ([""] * 9, [LOSS] * 9),
        "last-model-differs": (["m"] * 8 + ["n"], [LOSS] * 9),
        "middle-model-differs": (["m"] * 4 + ["n"] + ["m"] * 4, [LOSS] * 9),
        "last-metric-differs": (["m"] * 9, [LOSS] * 8 + [ACCURACY]),
        "no-rows": ([], []),
        "one-row": (["m"], [LOSS]),
        "one-row-empty-model": ([""], [LOSS]),
    }

    @pytest.mark.parametrize("case", sorted(TEXT_COLUMNS))
    def test_records_csv_with_constant_leading_columns(self, case):
        """A text column of one value is quoted once and spread to the rows: the bytes stay ``csv.writer``'s."""
        model_id, metric = self.TEXT_COLUMNS[case]
        floats = [[1.5 + i % 2, i % 3 / 4, float(i // 4), 0.1 + i / 7] for i in range(len(model_id))]
        records = [ExperimentRecord(m, k, *values) for m, k, values in zip(model_id, metric, floats)]
        rows = [[rec.model_id, rec.metric.value, *map(repr, (rec.l0, rec.r, rec.d, rec.l))] for rec in records]
        assert written(write_records, records) == csv_reference(RECORD_COLUMNS, rows)

    def test_an_empty_chunk_writes_nothing(self):
        # 14 rows fill two 7-row chunks exactly: the empty chunk after them ends the rows and writes no line
        records = [ExperimentRecord("x", MetricKind.LOSS, 1.0, 0.5, 0.0, 2.0)] * 14
        assert written(write_records, records) == "model_id,metric,l0,r,d,l\r\n" + "x,loss,1.0,0.5,0.0,2.0\r\n" * 14

    # Only at (10, 0.5, 0) does the exponent leave the float range: there it is 690 + 15 + 15 (or -720 - 15 - 15),
    # and every other point of these axes drops a term of 15 or more and stays inside.
    EXTREME_LAWS = {
        "overflow": CompressionLaw(690 / math.log(10), 15 / math.log1p(0.5), 15 / math.log(2), MetricKind.LOSS),
        "underflow": CompressionLaw(-720 / math.log(10), -15 / math.log1p(0.5), -15 / math.log(2), MetricKind.LOSS),
    }
    EXTREME_AXES = {
        "first": ((10.0, 1.0), (0.5, 0.0), (0.0, 1e9)),
        "middle": ((1.0, 10.0, 2.0), (0.0, 0.5), (1e9, 0.0, 5.0)),
        "last": ((1.0, 10.0), (0.0, 0.5), (1e9, 0.0)),
    }

    @pytest.mark.parametrize("where", sorted(EXTREME_AXES))
    @pytest.mark.parametrize("kind", sorted(EXTREME_LAWS))
    def test_the_one_point_out_of_range_raises_evaluates_error(self, kind, where):
        law, axes = self.EXTREME_LAWS[kind], self.EXTREME_AXES[where]
        with pytest.raises(DomainError) as expected:
            evaluate(law, 10.0, 0.5, 0.0)
        assert ("overflowed" if kind == "overflow" else "underflowed to zero") in str(expected.value)
        others = [(l0, r, d) for l0 in axes[0] for r in axes[1] for d in axes[2] if (l0, r, d) != (10.0, 0.5, 0.0)]
        assert all(0.0 < evaluate(law, *point) < math.inf for point in others)
        with pytest.raises(DomainError) as caught:
            emit_frontier_grid(law, *axes)
        assert str(caught.value) == str(expected.value)
        with pytest.raises(DomainError) as caught:
            generate(SyntheticConfig(law, *axes))
        assert str(caught.value) == str(expected.value)


UNDECODABLE = b"\xff"


class TestUndecodableInput:
    """Bytes that are not UTF-8 are malformed input: every reader raises DataFormatError, from a path or a stream."""

    LAW = json.dumps({"schema_version": "compresslaw/v1", **law_to_dict(EXTRINSIC)})
    DOCUMENTS = {
        "law document": (load_law, LAW),
        "law registry": (documents.load_registry, registry_to_json(builtin_registry())),
        "grid": (documents.load_grid, json.dumps({"l0_values": [1.0], "r_values": [0.5], "d_values": [0.0]})),
    }

    @pytest.mark.parametrize("context", sorted(DOCUMENTS))
    def test_documents(self, context, tmp_path):
        reader, text = self.DOCUMENTS[context]
        path = tmp_path / "doc.json"
        path.write_bytes(text.encode())
        reader(path)  # the document itself is valid
        data = text.encode().replace(b'"', UNDECODABLE + b'"', 3)
        path.write_bytes(data)
        for source in (path, str(path), stdio.TextIOWrapper(stdio.BytesIO(data), encoding="utf-8")):
            with pytest.raises(DataFormatError) as caught:
                reader(source)
            assert str(caught.value) == f"{context}: not utf-8 text: invalid start byte"

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    # Rows of 22 bytes: row 2 * _BLOCK_CHARS // 22 is past the first of three blocks.
    @pytest.mark.parametrize("row", [0, 1, 2 * lawio._BLOCK_CHARS // 22], ids=["header", "first row", "later block"])
    def test_records(self, tmp_path, strict, row):
        lines = [CSV_HEADER.encode()] + [b"m,loss,2.0,0.5,10,6.9\n"] * (3 * lawio._BLOCK_CHARS // 22)
        lines[row] = lines[row][:1] + UNDECODABLE + lines[row][1:]
        path = tmp_path / "records.csv"
        path.write_bytes(b"".join(lines))
        for source in (path, stdio.TextIOWrapper(stdio.BytesIO(path.read_bytes()), encoding="utf-8", newline="")):
            with pytest.raises(DataFormatError, match="^records: not utf-8 text: invalid start byte$"):
                read_records(source, strict=strict)


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

    def test_keys_are_checked_before_values(self):
        doc = {**law_to_dict(EXTRINSIC), "stats": [1]}
        del doc["alpha"]
        with pytest.raises(DataFormatError, match=r"^law: missing field\(s\) \['alpha'\]$"):
            law_from_dict(doc)
        with pytest.raises(DataFormatError, match=r"^law: unknown field\(s\) \['x'\]$"):
            law_from_dict({**law_to_dict(EXTRINSIC), "stats": [1], "x": 0})

    # save_law's text, byte for byte: a None stats is null, and a non-finite statistic is a string.
    PINNED_LAWS = {
        "compression without stats": (
            EXTRINSIC,
            '{\n  "schema_version": "compresslaw/v1",\n  "kind": "compression",\n  "metric": "accuracy",\n'
            '  "alpha": 0.98,\n  "beta": -1.03,\n  "gamma": -0.14,\n  "epsilon": 1.0,\n  "stats": null\n}\n'),
        "compression with an inf F": (
            CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS, 2.0,
                           FitStatistics(10, 3, 0.9, 0.875, math.inf, 0.0, 12.5)),
            '{\n  "schema_version": "compresslaw/v1",\n  "kind": "compression",\n  "metric": "loss",\n'
            '  "alpha": 0.63,\n  "beta": 1.72,\n  "gamma": 1.16,\n  "epsilon": 2.0,\n  "stats": {\n    "n": 10,\n'
            '    "p": 3,\n    "r_squared": 0.9,\n    "adj_r_squared": 0.875,\n    "f_statistic": "inf",\n'
            '    "residual_std": 0.0,\n    "condition_number": 12.5\n  }\n}\n'),
        "runtime": (
            RuntimeLaw(c=100.0, beta=-0.67),
            '{\n  "schema_version": "compresslaw/v1",\n  "kind": "runtime",\n  "c": 100.0,\n  "beta": -0.67,\n'
            '  "stats": null\n}\n'),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_LAWS))
    def test_save_law_text_is_pinned(self, case):
        law, text = self.PINNED_LAWS[case]
        out = stdio.StringIO()
        save_law(law, out)
        assert out.getvalue() == text
        assert load_law(stdio.StringIO(text)) == law


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
        text = report_to_json(FitReport(law, stats, (), (0.1, math.nan, -math.inf, math.inf, -0.0)))
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

    @pytest.mark.parametrize("n, p, message", [(0, -1, "p must be an integer >= 0, got -1"),
                                               (16.7, 3, "n must be an integer >= 0, got 16.7"),
                                               (10, True, "p must be an integer >= 0, got True")])
    def test_stats_counts_are_integers_at_least_0(self, n, p, message):
        doc = json.loads(report_to_json(build_fit_report(self.identity_records())))
        for stats in (doc["stats"], doc["law"]["stats"]):
            stats.update(n=n, p=p)
        doc["residuals"] = doc["residuals"][:int(n)]
        with pytest.raises(DataFormatError, match=f"^fit report.law.stats: {message}$"):
            load_law(stdio.StringIO(json.dumps(doc)))

    def test_the_two_copies_of_the_stats_must_agree(self):
        report = build_fit_report(self.identity_records())
        doc = json.loads(report_to_json(report))
        doc["law"]["stats"]["n"] = 7
        with pytest.raises(DataFormatError, match="statistics disagree"):
            report_from_json(json.dumps(doc))
        other = FitStatistics(**{**vars(report.stats), "n": 7})
        with pytest.raises(DomainError, match="statistics disagree"):
            FitReport(report.law, other, (), report.residuals[:7])

    @pytest.mark.parametrize("kind, shown", [
        ("law_registry", "'law_registry'"), ("compression", "'compression'"), (["fit_report"], "['fit_report']"),
        ("x" * 50, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"), (None, "None"), ("@MISSING@", "None")])
    def test_a_report_of_another_kind_or_none_names_the_kind_it_must_be(self, kind, shown):
        """Checked before the missing and unknown keys, so a registry read as a report is told its kind."""
        doc = json.loads(report_to_json(build_fit_report(self.identity_records())))
        doc["kind"] = kind
        if kind == "@MISSING@":
            del doc["kind"], doc["law"]
        message = f"fit report: kind must be 'fit_report', got {shown}"
        with pytest.raises(DataFormatError) as info:
            report_from_json(json.dumps(doc))
        assert str(info.value) == message


class TestRegistry:
    def test_builtin_registry_writes_the_bundled_bytes(self):
        bundled = (Path(documents.__file__).parent / "data" / "fixtures.json").read_bytes()
        assert registry_to_json(builtin_registry()).encode() == bundled

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

    def test_builtin_reported_statistics_fit_some_sample_count(self):
        """Each fixture entry that reports both adjusted R^2 and F agrees with some integer ``n > p`` under its
        form's R^2 convention (uncentered for the intercept-free forms), within half a unit of the last printed
        digit of each: at each ``n``, F fixes R^2 and so adjusted R^2."""

        def half_printed_unit(value):  # a whole number was printed without decimals
            return 0.5 if value == int(value) else 0.5 * 10.0 ** -len(repr(value).split(".")[1])

        checked = 0
        for entry in builtin_registry():
            adj, f = entry.reported_adj_r_squared, entry.reported_f_statistic
            if adj is None or f is None:
                continue
            p, intercepts = len(_FORM_COEFFICIENTS[entry.form]), int(entry.form is DesignForm.RUNTIME)
            n = np.arange(p + 1, 100_001, dtype=float)
            # 1 - R^2 = 1 / (1 + F (p - intercepts) / (n - p)), and adjusted R^2 = 1 - (1 - R^2) (n - intercepts) /
            # (n - p) grows with F: its range at each n is that of F's printed interval.
            adj_half, f_half = half_printed_unit(adj), half_printed_unit(f)
            low, high = (1.0 - (n - intercepts) / (n - p + (f + f_half * side) * (p - intercepts)) for side in (-1, 1))
            assert ((high >= adj - adj_half) & (low <= adj + adj_half)).any(), entry.key
            checked += 1
        assert checked == 19

    def test_builtin_round_trip(self):
        registry = builtin_registry()
        again = registry_from_json(registry_to_json(registry))
        assert list(again) == list(registry)

    @pytest.mark.parametrize("kind, shown", [("fit_report", "'fit_report'"), ("runtime", "'runtime'"),
                                             (7, "7"), (None, "None"), ("@MISSING@", "None")])
    def test_a_registry_of_another_kind_or_none_names_the_kind_it_must_be(self, kind, shown):
        """Checked before the missing and unknown keys, so a report read as a registry is told its kind."""
        doc = {"schema_version": "compresslaw/v1", "kind": kind, "entries": [], "law": {}}
        if kind == "@MISSING@":
            del doc["kind"], doc["entries"]
        with pytest.raises(DataFormatError) as info:
            registry_from_json(json.dumps(doc))
        assert str(info.value) == f"law registry: kind must be 'law_registry', got {shown}"

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

    @pytest.mark.parametrize("form, pinned", [(DesignForm.RATIO_ONLY, "gamma"), (DesignForm.DATA_ONLY, "beta")])
    def test_an_entry_has_0_for_each_exponent_its_form_does_not_fit(self, form, pinned):
        def entry(value, form=form):
            law = CompressionLaw(0.74, **{"beta": 2.02, "gamma": 1.46, pinned: value}, metric=MetricKind.LOSS)
            return RegistryEntry("m", MetricKind.LOSS, "t", law, form=form)

        message = f"the {form.value} form pins {pinned} to 0, got 0.5"
        with pytest.raises(DomainError, match=message):
            entry(0.5)
        doc = json.loads(registry_to_json(LawRegistry([entry(0.0)])))
        doc["entries"][0]["law"][pinned] = 0.5
        with pytest.raises(DataFormatError, match=f"entry 0: {message}"):
            registry_from_json(json.dumps(doc))
        with pytest.raises(DomainError, match=f"form must be a DesignForm, got '{form.value}'"):
            entry(0.0, form=form.value)

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


# Tokens that are not numbers, as a list item or a field, and how a message quotes each.
BAD_NUMBERS = {"true": (True, "True"), "string": ("0.5", "'0.5'"), "list": ([1.0], "[1.0]"), "null": (None, "None")}
LONG = 100_001  # items in a long list of numbers; the bad one is item 50,000


class TestBadNumbersNameTheirPath:
    """A token that is not a number gives the same message wherever it is: in a long list of numbers, among a fit
    report's statistics or in a registry entry's ``reported`` part.  Only ``"inf"``, ``"-inf"`` and ``"nan"`` are
    strings read as numbers."""

    @staticmethod
    def long_report(residuals) -> str:
        doc = json.loads(report_to_json(build_fit_report(TestFitReport.identity_records())))
        for stats in (doc["stats"], doc["law"]["stats"]):
            stats["n"] = len(residuals)
        doc["residuals"] = residuals
        return json.dumps(doc)

    @staticmethod
    def long_grid(axis) -> stdio.StringIO:
        return stdio.StringIO(json.dumps({"l0_values": [1.0], "r_values": axis, "d_values": [0.0, 1]}))

    @pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
    def test_an_item_of_a_residual_list(self, name):
        token, shown = BAD_NUMBERS[name]
        residuals = [0.25] * LONG
        residuals[50_000] = token
        with pytest.raises(DataFormatError) as info:
            report_from_json(self.long_report(residuals))
        assert str(info.value) == f"fit report.residuals: expected a number, got {shown}"

    @pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
    def test_an_item_of_a_grid_axis(self, name):
        token, shown = BAD_NUMBERS[name]
        axis = [0.5] * LONG
        axis[50_000] = token
        with pytest.raises(DataFormatError) as info:
            documents.load_grid(self.long_grid(axis))
        assert str(info.value) == f"grid.r_values: expected a number, got {shown}"

    @pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
    def test_a_statistic(self, name):
        token, shown = BAD_NUMBERS[name]
        doc = json.loads(report_to_json(build_fit_report(TestFitReport.identity_records())))
        doc["stats"]["r_squared"] = token
        with pytest.raises(DataFormatError) as info:
            report_from_json(json.dumps(doc))
        assert str(info.value) == f"fit report.stats.r_squared: expected a number, got {shown}"

    @pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
    def test_a_reported_statistic_of_a_registry_entry(self, name):
        token, shown = BAD_NUMBERS[name]
        doc = json.loads(registry_to_json(builtin_registry()))
        doc["entries"][1]["reported"] = {"adj_r_squared": 0.5, "f_statistic": token}
        with pytest.raises(DataFormatError) as info:
            registry_from_json(json.dumps(doc))
        assert str(info.value) == f"entry 1.reported.f_statistic: expected a number, got {shown}"

    def test_an_int_too_large_for_a_float(self):
        """A grid axis still names the item.  A residual list goes to the report's check as read, which names the
        field and quotes the list."""
        values = [0.25] * LONG
        values[50_000] = 10**400
        with pytest.raises(DataFormatError, match=r"^grid\.r_values: expected a number, got 1000+\.\.\.0+$"):
            documents.load_grid(self.long_grid(values))
        message = r"^fit report: residuals must be a sequence of numbers, got \(0\.25, "
        with pytest.raises(DataFormatError, match=message):
            report_from_json(self.long_report(values))

    def test_the_non_finite_strings_are_numbers_in_a_long_list(self):
        values = [0.25] * LONG
        values[49_999:50_002] = ["inf", "-inf", "nan"]
        read = report_from_json(self.long_report(values)).residuals
        axis = documents.load_grid(self.long_grid(values))["r_values"]
        for numbers in (read, axis):
            assert type(numbers) is tuple and len(numbers) == LONG and {type(x) for x in numbers} == {float}
            assert numbers[49_999:50_001] == (math.inf, -math.inf) and math.isnan(numbers[50_001])
            assert numbers[:49_999] == numbers[50_002:] == (0.25,) * 49_999

    def test_an_all_number_list_is_read_as_floats(self):
        values = [0.25, 1, -0.0, 5e-324] * 25_000
        assert report_from_json(self.long_report(values)).residuals == tuple(map(float, values))
        axis = documents.load_grid(self.long_grid(values))["r_values"]
        assert axis == tuple(map(float, values)) and {type(x) for x in axis} == {float}


GRID_LAWS = st.builds(
    CompressionLaw,
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
    gamma=st.floats(-3.0, 3.0),
    metric=st.sampled_from([MetricKind.LOSS, MetricKind.ACCURACY]),
    epsilon=st.floats(0.01, 10.0),
)


def draw_signed_zero_grid(data):
    """Axes of 3 to 5 ``l0`` values, one of them twice, and of 8 to 12 ``r`` and 11 to 15 ``d`` values, each with
    ``0.0`` and ``-0.0`` among them: 264 to 900 grid points."""
    l0 = data.draw(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=4))
    l0.append(l0[0])
    r, d = (data.draw(st.permutations(data.draw(st.lists(values, min_size=size, max_size=size + 4)) + [0.0, -0.0]))
            for values, size in ((st.floats(0.0, 0.999), 6), (st.floats(0.0, 1e6), 9)))
    return l0, r, d


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
        as_list = [FrontierPoint(*p) for p in points]
        assert len(points) == 8 and points == as_list and as_list == points
        assert points[-1] == as_list[-1] and type(points[0].predicted) is float
        assert points[2:5] == as_list[2:5] and points != as_list[::-1] and points != as_list[:7]
        with pytest.raises(IndexError):
            points[8]
        with pytest.raises(TypeError):
            points.columns[-1][0] = 1.0
        grid = list(itertools.product([0.5, 0.7], [0.1, 0.2], [0.0, 5.0]))
        for i in (len(points) // 2, -1):
            assert points[i] == (*grid[i], evaluate(EXTRINSIC, *grid[i]))
        assert pickle.loads(pickle.dumps(points)) == points and copy.deepcopy(points) == points
        write_frontier(points, tmp_path / "columns.csv")
        write_frontier(iter(as_list), tmp_path / "points.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(law=GRID_LAWS, data=st.data())
    def test_large_grids_with_signed_zeros_match_a_reference(self, law, data):
        """Grids of 264 to 900 rows, past the writers' old dedup floor, with ``0.0`` and ``-0.0`` in the ``r``
        and ``d`` axes and a repeated ``l0``, in 7-row chunks, against ``csv.writer`` and ``json.dumps`` over
        ``itertools.product`` and ``evaluate``; the same points as a list are written the same."""
        l0, r, d = draw_signed_zero_grid(data)
        points = [FrontierPoint(*p, evaluate(law, *p)) for p in itertools.product(l0, r, d)]
        csv_text = csv_reference(FrontierPoint._fields, [map(repr, p) for p in points])
        json_text = json.dumps({"schema_version": SCHEMA_VERSION, "kind": "frontier",
                                "rows": [p._asdict() for p in points]}) + "\n"
        with mock.patch.object(frontier, "_CHUNK_ROWS", 7):
            for table in (emit_frontier_grid(law, l0, r, d), points):
                assert written(write_frontier, table) == csv_text
                assert written(frontier._write_frontier_json, table) == json_text

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


class TestGeneratedRecordTable:
    """``generate``'s records, a table of the grid's axes with one-value model id and metric columns: the
    records twins of ``TestFrontier.test_large_grids_with_signed_zeros_match_a_reference``."""

    MODEL_ID = 'a,"b"'

    def generated(self, law, axes, **config):
        assume(len(set(axes[1])) + len(set(axes[2])) >= 3)  # a config needs them for a full-rank design
        try:
            return generate(SyntheticConfig(law, *axes, model_id=self.MODEL_ID, **config))
        except SingularDesignError:
            assume(False)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(law=GRID_LAWS, data=st.data())
    def test_large_grids_with_signed_zeros_match_a_reference(self, law, data):
        """In 7-row chunks, against ``csv.writer`` over ``itertools.product`` and ``evaluate``; the same records
        as a list are written the same."""
        axes = draw_signed_zero_grid(data)
        records = self.generated(law, axes)
        rows = [[self.MODEL_ID, law.metric.value, *map(repr, point), repr(evaluate(law, *point))]
                for point in itertools.product(*axes)]
        with mock.patch.object(frontier, "_CHUNK_ROWS", 7):
            for table in (records, list(records)):
                assert written(write_records, table) == csv_reference(RECORD_COLUMNS, rows)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(law=GRID_LAWS, data=st.data(), noise_std=st.sampled_from([0.0, 0.1]))
    @pytest.mark.parametrize("cut", [False, True], ids=["past the dedup floor", "axes cut short"])
    def test_design_equals_the_design_of_its_list_bit_for_bit(self, law, data, noise_std, cut):
        """Grids of 264 to 900 rows, or with each axis cut to at most 4 values, so under the design's dedup
        floor."""
        axes = [axis[: data.draw(st.integers(1, 4))] if cut else axis for axis in draw_signed_zero_grid(data)]
        records = self.generated(law, axes, noise_std=noise_std, seed=data.draw(st.integers(0, 9)))
        # The runtime form fits runtime records only: it is given the same grid table as runtime records.
        columns = [records.columns[0], (MetricKind.RUNTIME,), *records.columns[2:]]
        runtime = Table(ExperimentRecord, columns, records.runs)
        for form in DesignForm:
            table = runtime if form is DesignForm.RUNTIME else records
            x, y = regression.build_design(table, law.epsilon, form)
            x_list, y_list = regression.build_design(list(table), law.epsilon, form)
            assert x.tobytes() == x_list.tobytes() and y.tobytes() == y_list.tobytes()
            assert x.flags.c_contiguous and x_list.flags.c_contiguous

    def test_a_slice_is_a_table_equal_to_the_slice_of_its_list(self):
        records = generate(SyntheticConfig(EXTRINSIC, (0.5, 0.7, 0.5), (0.1, -0.0, 0.0), (0.0, 5.0), noise_std=0.1))
        as_list = list(records)
        assert len(records) == 18 and records == as_list
        for index in (slice(2, 5), slice(None, None, -1), slice(1, None, 7), slice(-4, None), slice(5, 2)):
            part = records[index]
            assert isinstance(part, Table) and part == as_list[index] and list(part) == as_list[index]


def test_benchmark_scale_bytes_are_pinned(tmp_path):
    """The byte contract at the benchmark's scale: 100k rows span 13 writer chunks.  One 20 x 50 x 100 grid with
    ``-0.0`` in ``r``, noise 0.05 and seed 1.  The fit report is left out: its last digit can depend on the BLAS
    thread count."""
    law = CompressionLaw(0.63, 1.72, 1.16, MetricKind.LOSS)
    axes = ([1.2 + i * 2.8 / 19 for i in range(20)], [-0.0] + [0.01 + i * 0.89 / 48 for i in range(49)],
            [0.0] + [10.0 ** (i * 5 / 98) for i in range(99)])
    write_records(generate(SyntheticConfig(law, *axes, noise_std=0.05, seed=1)), tmp_path / "records.csv")
    points = emit_frontier_grid(law, *axes)
    write_frontier(points, tmp_path / "frontier.csv")
    frontier._write_frontier_json(points, tmp_path / "frontier.json")
    x, y = regression.build_design(read_records(tmp_path / "records.csv"))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("records.csv", "frontier.csv", "frontier.json")}
    digests.update(x=hashlib.sha256(x.tobytes()).hexdigest(), y=hashlib.sha256(y.tobytes()).hexdigest())
    assert digests == {
        "records.csv": "df4d0ee1eca7e00372a31b8d42dcd8891872e21d5d27ea02e1c49cb6fe28bd2d",
        "frontier.csv": "43c92faa8a6c35a598349129eac6b9e353558a2bb2ac04fe6cc07c23dea33370",
        "frontier.json": "f4092401b159b89244a69458a87916bb318cca73c2fc419367c3c8caa3a5cef1",
        "x": "db2818a6096b475c71fe6c2ca4a690548e55063e4c7b3de12bde5ed338188fc4",
        "y": "152ba82105386cc6811081a3a9b5f4295279bbd842f913afdefacbebf738dded",
    }
