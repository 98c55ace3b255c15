"""Frontier tables: one row ``l0, r, d, predicted`` per point of an ``(l0, r, d)`` grid, in lexicographic order.

:func:`emit_frontier_grid` checks each axis with the ``laws`` check that ``SyntheticConfig`` declares for it and
returns the table of ``laws``' one grid predictor, which ``generate`` shares: the three axes with their runs and the
predictions, not a ``list``.  Every table is written by one row writer, which
:func:`compresslaw.io.write_records` shares: a column's texts are made once per value it holds (a float's
``repr``; a label quoted once) and spread to the rows, ``_CHUNK_ROWS`` rows at a time, and each row is its fields
interleaved with a layout, the CSV's ``","`` and ``"\r\n"`` or the JSON document's keys.  The bytes are what
``csv.writer`` (``\r\n`` line ends) and ``json.dumps`` write.  The module imports no numpy.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Sequence
from io import StringIO
from itertools import islice, repeat
from operator import attrgetter
from typing import NamedTuple

from .documents import _open_for_write
from .laws import _GRID_AXES, SCHEMA_VERSION, CompressionLaw, MetricKind, Table, _grid_table, _require_axis
from .laws import _grid_log_predictions, _require_law

__all__ = ["FrontierPoint", "emit_frontier_grid", "write_frontier"]

# Rows joined per chunk of text: memory holds at most this many rows of text at once.
_CHUNK_ROWS = 8192


FrontierPoint = NamedTuple("FrontierPoint", [("l0", float), ("r", float), ("d", float), ("predicted", float)])


def emit_frontier_grid(law: CompressionLaw, l0_list: Sequence[float], r_grid: Sequence[float],
                       d_grid: Sequence[float]) -> Sequence[FrontierPoint]:
    """Predictions over the full grid, one point per row in lexicographic order, each equal to ``evaluate``'s.

    The points are the grid predictor's table, which ``generate`` shares, of the checked axes: a read-only
    sequence that equals a list of the same points.  An overflow or underflow is ``evaluate``'s
    :class:`~compresslaw.errors.DomainError` for the first point out of range, before any point is returned.
    """
    _require_law("law", law)
    axes = tuple(map(_require_axis, _GRID_AXES, (l0_list, r_grid, d_grid)))
    return _grid_table(FrontierPoint, axes, _grid_log_predictions(law, axes))


def _quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row of several."""
    if not text:
        return text  # a row of one empty field would be written as ""
    buffer = StringIO()
    # Strip the default terminator: with lineterminator="" csv would not quote "\r" and "\n".
    csv.writer(buffer).writerow((text,))
    return buffer.getvalue()[:-2]


def _texts(values: Sequence) -> Iterable[str]:
    """The field text of each value of a column: a float's ``repr``, and a label (a text or a metric) as
    ``csv.writer`` writes it, quoted once per distinct label."""
    if not values or isinstance(values[0], float):
        return map(repr, values)
    if isinstance(values[0], MetricKind):
        values = list(map(attrgetter("_value_"), values))  # _value_ is .value without its descriptor call
    quoted = {text: _quote(text) for text in set(values)}
    return map(quoted.__getitem__, values)


def _write_rows(dest, table: Table, head: str, layout: Sequence[str], tail: str = "", skip: int = 0) -> None:
    """The one row writer: ``head``, each row of ``table`` as ``layout[0]``, field 0, ``layout[1]``, ... ``layout[-1]``,
    then ``tail``.  A field text is made once per value of its column and spread to the rows, ``_CHUNK_ROWS`` at a
    time; a chunk's rows are joined by ``layout[-1] + layout[0]``.  The first row drops its first ``skip`` chars."""
    with _open_for_write(dest) as fh:
        fh.write(head)
        columns = [table._spread(k, _texts(values)) for k, values in enumerate(table.columns)]
        while (chunk := [list(islice(fields, _CHUNK_ROWS)) for fields in columns])[0]:
            parts = chunk[:1]
            for fields, literal in zip(chunk[1:], layout[1:-1]):
                parts += (repeat(literal), fields)
            fh.write(layout[0][skip:])
            fh.write((layout[-1] + layout[0]).join(map("".join, zip(*parts))))
            fh.write(layout[-1])
            skip = 0
        fh.write(tail)


def _write_csv(dest, header: Sequence[str], table: Table) -> None:
    """The CSV of ``table`` under ``header``: its layout puts ``","`` between fields and ``"\r\n"`` after the last."""
    _write_rows(dest, table, ",".join(map(_quote, header)) + "\r\n", ("", *[","] * (len(header) - 1), "\r\n"))


def _points_table(points: Iterable[FrontierPoint]) -> Table:
    """``points`` itself if it is a table, else its points' fields as floats, one value per row."""
    if isinstance(points, Table):
        return points
    columns = [tuple(map(float, column)) for column in zip(*map(FrontierPoint._make, points))]
    return Table(FrontierPoint, columns or [()] * len(FrontierPoint._fields))


def write_frontier(points: Iterable[FrontierPoint], dest) -> None:
    _write_csv(dest, FrontierPoint._fields, _points_table(points))


def _write_frontier_json(points: Iterable[FrontierPoint], dest) -> None:
    """The ``frontier`` JSON document, byte for byte as ``json.dumps`` writes it with a dict per point.  Its
    values are finite, which json writes with ``float.__repr__``, so the rows are spliced in from the columns."""
    head = json.dumps({"schema_version": SCHEMA_VERSION, "kind": "frontier", "rows": []})
    # Every row starts with the ", " that separates it from the one before; the first row drops it.
    layout = (', {"l0": ', ', "r": ', ', "d": ', ', "predicted": ', "}")
    _write_rows(dest, _points_table(points), head[: -len("]}")], layout, "]}\n", skip=len(", "))
