"""Frontier tables: one row ``l0, r, d, predicted`` per point of an ``(l0, r, d)`` grid, in lexicographic order.

:func:`emit_frontier_grid` returns the points as a read-only sequence built from the three axes and the
predictions, not a ``list``.  The writers format each axis value once and repeat its text down the column, and
each prediction once.  The CSV writer, which :func:`compresslaw.io.write_records` shares, joins each row's fields
with ``","`` and a chunk's rows with ``"\r\n"`` plus the text of the constant fields every row starts with.  The
bytes are what ``csv.writer`` (``\r\n`` line ends) and ``json.dumps`` write.  The module imports no numpy.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from io import StringIO
from itertools import chain, cycle, islice, repeat
from typing import Iterable, Iterator, NamedTuple

from .documents import _open_for_write
from .errors import DomainError
from .laws import SCHEMA_VERSION, CompressionLaw, _checked_exps, log_feature_columns
from .laws import require_nonnegative, require_positive, require_ratio

__all__ = ["FrontierPoint", "emit_frontier_grid", "write_frontier"]

# Rows joined per chunk of text: memory holds at most this many rows of text at once.
_CHUNK_ROWS = 8192


def _grid_axes(l0_values, r_values, d_values) -> tuple[tuple[float, ...], ...]:
    """The three grid axes as tuples of floats, each nonempty and every value in its domain."""
    l0, r, d = axes = tuple(map(tuple, (l0_values, r_values, d_values)))
    if not all(axes):
        raise DomainError("all three grid axes must be nonempty")
    l0 = tuple(require_positive("l0", v) for v in l0)
    return l0, tuple(map(require_ratio, r)), tuple(require_nonnegative("d", v) for v in d)


FrontierPoint = NamedTuple("FrontierPoint", [("l0", float), ("r", float), ("d", float), ("predicted", float)])


class _FrontierTable(Sequence):
    """A read-only sequence of :class:`FrontierPoint` as four columns.  Column ``k`` holds each of its values
    ``runs[k]`` times in a row and starts over after the last, so a grid keeps only its axes: row ``i`` is
    ``(l0[i // (R*D)], r[(i // D) % R], d[i % D], predicted[i])``.  A slice is a table; it equals a list."""

    __slots__ = ("_values", "_runs", "predicted")

    def __init__(self, values: Sequence[Sequence[float]], runs: Sequence[int]) -> None:
        self._values, self._runs, self.predicted = tuple(values), tuple(runs), values[-1]

    @classmethod
    def from_points(cls, points: Iterable[FrontierPoint]) -> _FrontierTable:
        """``points`` itself if it is a table, else its fields as floats, each column run once."""
        if isinstance(points, _FrontierTable):
            return points
        columns = list(zip(*map(FrontierPoint._make, points))) or [()] * len(FrontierPoint._fields)
        return cls([tuple(map(float, column)) for column in columns], [1] * len(columns))

    def __len__(self) -> int:
        return len(self.predicted)

    def _columns(self, transform=float) -> list[Iterator]:
        """The columns, ``transform`` taken of each distinct value once and spread to every row."""
        n, columns = len(self), []
        for values, run in zip(self._values, self._runs):
            items = map(transform, values)
            if len(values) * run < n:
                items = islice(cycle(items), n // run)
            columns.append(items if run == 1 else chain.from_iterable(map(repeat, items, repeat(run))))
        return columns

    def _chunks(self) -> Iterator[list[list[str]]]:
        """The rows' field texts, ``_CHUNK_ROWS`` rows at a time, as one list per column."""
        columns = self._columns(repr)
        while (chunk := [list(islice(fields, _CHUNK_ROWS)) for fields in columns])[0]:
            yield chunk

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.from_points(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]  # an int in range, or IndexError
        return FrontierPoint(*(values[i // run % len(values)] for values, run in zip(self._values, self._runs)))

    def __iter__(self) -> Iterator[FrontierPoint]:
        return map(FrontierPoint, *self._columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def emit_frontier_grid(law: CompressionLaw, l0_list: Sequence[float], r_grid: Sequence[float],
                       d_grid: Sequence[float]) -> Sequence[FrontierPoint]:
    """Predictions over the full grid, one point per row in lexicographic order, each equal to ``evaluate``'s.

    Each axis value's term of the exponent is taken once, and each point sums them in ``evaluate``'s order.  The
    ``exp`` of every sum is one map, checked at once: an overflow or underflow is ``evaluate``'s
    :class:`~compresslaw.errors.DomainError` for the first point out of range, before any point is returned.
    The points are a read-only sequence that equals a list of the same points.
    """
    if not isinstance(law, CompressionLaw):
        raise DomainError("frontier grids need a compression law")
    l0, r, d = axes = _grid_axes(l0_list, r_grid, d_grid)
    x0, x1, x2 = log_feature_columns(*axes, law.epsilon)
    a_terms, b_terms, c_terms = [law.alpha * x for x in x0], [law.beta * x for x in x1], [law.gamma * x for x in x2]
    log_predicted = [ab + c for a in a_terms for ab in [a + b for b in b_terms] for c in c_terms]
    predicted = _checked_exps(log_predicted)
    return _FrontierTable((l0, r, d, predicted), (len(r) * len(d), len(d), 1, 1))


def _quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row of several."""
    if not text:
        return text  # a row of one empty field would be written as ""
    buffer = StringIO()
    # Strip the default terminator: with lineterminator="" csv would not quote "\r" and "\n".
    csv.writer(buffer).writerow((text,))
    return buffer.getvalue()[:-2]


def _text_chunks(chunks: Iterable[Sequence[Sequence[str]]], layout: Sequence[str]) -> Iterator[str]:
    """Each chunk (its columns of field texts) as JSON rows: ``layout[k]`` before field ``k``, ``layout[-1]``
    after."""
    for columns in chunks:
        parts = [repeat(layout[0])]
        for fields, literal in zip(columns, layout[1:]):
            parts += (fields, repeat(literal))
        yield "".join(map("".join, zip(*parts)))


def _write_csv(dest, header: Sequence[str], chunks: Iterable[Sequence[Sequence[str]]], head: str = "") -> None:
    """The one CSV writer: ``header``, then each row of ``chunks`` (columns of quoted field texts) as ``head``,
    the text of the row's constant leading fields and their commas, and its own fields joined by commas."""
    with _open_for_write(dest) as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for columns in chunks:
            if columns[0]:
                fh.write(head + ("\r\n" + head).join(map(",".join, zip(*columns))) + "\r\n")


def write_frontier(points: Iterable[FrontierPoint], dest) -> None:
    _write_csv(dest, FrontierPoint._fields, _FrontierTable.from_points(points)._chunks())


def _write_frontier_json(points: Iterable[FrontierPoint], dest) -> None:
    """The ``frontier`` JSON document, byte for byte as ``json.dumps`` writes it with a dict per point.  Its
    values are finite, which json writes with ``float.__repr__``, so the rows are spliced in from the columns."""
    chunks = _FrontierTable.from_points(points)._chunks()
    head = json.dumps({"schema_version": SCHEMA_VERSION, "kind": "frontier", "rows": []})
    # Every row starts with the ", " that separates it from the one before; the first row drops it.
    layout = (', {"l0": ', ', "r": ', ', "d": ', ', "predicted": ', "}")
    with _open_for_write(dest) as fh:
        fh.write(head[: -len("]}")])
        for i, text in enumerate(_text_chunks(chunks, layout)):
            fh.write(text[len(", ") :] if i == 0 else text)
        fh.write("]}\n")
