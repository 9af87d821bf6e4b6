"""Block loading, preprocessing and superblock assembly.

A block is an n x J matrix of variables observed on the same n individuals
across blocks. Columns are always centered at load; unit-variance scaling
(1/n convention) is optional. The superblock is the column concatenation of
the blocks, in order, and is never re-centered separately.

A block file is read once into its lines. numpy's C reader parses a clean
table in one call; any other table goes row by row through the csv module,
the only reader that names a fault. Both return the same matrix, bit for bit.

All objects here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateColumnError,
    DimensionError,
    ParseError,
)


@dataclass(frozen=True, eq=False)
class Preprocessing:
    """Centering/scaling record for one block, kept for reporting."""

    means: np.ndarray
    scales: np.ndarray | None  # None when unit-variance scaling was off
    columns: tuple[str, ...]
    row_ids: tuple[str, ...] | None


@dataclass(frozen=True, eq=False)
class Block:
    """One data matrix plus its provenance. `from_matrix` and `load_block` center (and
    optionally scale) it; the tests, not this constructor, pin the centering."""

    id: str
    matrix: np.ndarray
    preprocessing: Preprocessing

    def __post_init__(self):
        x = self.matrix
        if x.ndim != 2:
            raise DimensionError(f"block {self.id!r}: expected a 2-d matrix")
        n, j = x.shape
        if n < 2:
            raise DimensionError(f"block {self.id!r}: need at least 2 rows, got {n}")
        if j < 1:
            raise DimensionError(f"block {self.id!r}: need at least 1 column")
        pre = self.preprocessing
        if len(pre.columns) != j:
            raise DimensionError(f"block {self.id!r}: {j} columns, names for {len(pre.columns)}")
        if pre.row_ids is not None and len(pre.row_ids) != n:
            raise DimensionError(f"block {self.id!r}: {n} rows, row ids for {len(pre.row_ids)}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_vars(self) -> int:
        return self.matrix.shape[1]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.preprocessing.columns


@dataclass(frozen=True, eq=False)
class BlockSet:
    """Ordered blocks plus their column-concatenated superblock."""

    blocks: tuple[Block, ...]
    superblock: np.ndarray

    @property
    def n(self) -> int:
        return self.superblock.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.blocks)

    @property
    def row_ids(self) -> tuple[str, ...] | None:
        for b in self.blocks:
            if b.preprocessing.row_ids is not None:
                return b.preprocessing.row_ids
        return None

    @property
    def superblock_columns(self) -> tuple[str, ...]:
        """Block-qualified variable names, in superblock column order."""
        out = []
        for b in self.blocks:
            out.extend(f"{b.id}:{c}" for c in b.columns)
        return tuple(out)


def _preprocess(
    raw: np.ndarray,
    id: str,
    columns: Sequence[str],
    row_ids: Sequence[str] | None,
    scale: bool,
) -> Block:
    if len(columns) != raw.shape[1]:  # before the zero-variance test names a column
        raise DimensionError(f"block {id!r}: {raw.shape[1]} columns, names for {len(columns)}")
    # column means as one BLAS product each: mean(axis=0) reduces across rows
    # in a loop J wide, several times slower on a narrow block
    n, ones = raw.shape[0], np.ones(raw.shape[0])
    means = raw.T @ ones / n
    centered = raw - means
    # second pass kills the roundoff residual left by large offsets
    shift = centered.T @ ones / n
    centered -= shift
    means = means + shift
    scales = None
    if scale:
        sd = np.sqrt((centered**2).T @ ones / n)  # 1/n convention
        floor = 1e-12 * np.maximum(1.0, np.abs(raw).max(axis=0))
        bad = np.flatnonzero(sd <= floor)
        if bad.size:
            name = columns[bad[0]]
            raise DegenerateColumnError(
                f"block {id!r}: column {name!r} has zero variance and cannot "
                "be scaled to unit variance"
            )
        centered = centered / sd
        scales = sd
    pre = Preprocessing(
        means=means,
        scales=scales,
        columns=tuple(columns),
        row_ids=tuple(row_ids) if row_ids is not None else None,
    )
    # centered is freshly allocated; only a non-C-ordered input makes this copy
    matrix = np.ascontiguousarray(centered)
    matrix.setflags(write=False)
    return Block(id=id, matrix=matrix, preprocessing=pre)


def from_matrix(
    id: str,
    data: np.ndarray,
    *,
    scale: bool = False,
    columns: Sequence[str] | None = None,
    row_ids: Sequence[str] | None = None,
) -> Block:
    """Build a Block from an in-memory array, centering (and scaling) it."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if columns is None:
        columns = [f"v{j + 1}" for j in range(data.shape[1])]
    if not np.all(np.isfinite(data)):
        raise DataError(f"block {id!r}: non-finite values are not supported")
    return _preprocess(data, id, columns, row_ids, scale)


def _cell(block_id: str, row: int, column: str, text: str) -> float:
    s = text.strip()
    if not s:
        raise ParseError(f"block {block_id!r}: missing value at row {row}, column {column!r}")
    try:
        value = float(s)
    except ValueError:
        raise ParseError(
            f"block {block_id!r}: non-numeric value {s!r} at row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"block {block_id!r}: non-finite value at row {row}, column {column!r}")
    return value


def _decoded(lines: list[str], undecodable: bool, block_id: str):
    yield from lines
    if undecodable:
        raise ParseError(f"block {block_id!r}: the file is not UTF-8 text; save it as UTF-8")


def _csv_table(lines: Iterable[str], block_id: str, delimiter: str, id_column: bool):
    """Columns, row ids and raw matrix of a table, read row by row with csv.

    The one reader that names a fault: the first one in file order, with its
    row numbered as a line of ``lines``.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    rows = (r for r in reader if any(c.strip() for c in r))
    try:
        header, first = next(rows, None), next(rows, None)
        if first is None:
            raise ParseError(f"block {block_id!r}: need a header row plus data rows")
        header = [c.strip() for c in header]
        if id_column and len(header) < 2:
            raise ParseError(f"block {block_id!r}: id column declared but only one column present")
        columns = header[1:] if id_column else header

        data = array("d")
        row_ids: list[str] | None = [] if id_column else None
        for row in itertools.chain((first,), rows):
            line = reader.line_num  # the file line that ends this row
            if len(row) != len(header):
                raise ParseError(
                    f"block {block_id!r}: row {line} has {len(row)} fields, expected {len(header)}"
                )
            if id_column:
                row_ids.append(row[0].strip())
                row = row[1:]
            try:
                values = list(map(float, row))
                ok = all(map(math.isfinite, values))
            except ValueError:
                ok = False
            if not ok:
                # float() strips a subset of the whitespace str.strip() removes
                # (not \x1c-\x1f) and rejects '', so every cell it accepts _cell
                # accepts with the same value. A row it fails is read again by
                # _cell, which names the first fault or returns the values.
                values = [_cell(block_id, line, name, text) for name, text in zip(columns, row)]
            data.fromlist(values)
    except csv.Error as exc:  # an over-long field, or a lone \r in a text stream
        why = ("a carriage return inside a row; save the file with one line ending per row"
               if "new-line" in str(exc) else exc)
        raise ParseError(f"block {block_id!r}: row {reader.line_num}: {why}") from None
    if len(data) < 2 * len(columns):
        raise DimensionError(f"block {block_id!r}: need at least 2 data rows")
    return columns, row_ids, np.frombuffer(data, dtype=float).reshape(-1, len(columns))


def _numpy_table(lines: list[str], delimiter: str, id_column: bool):
    """The same table as _csv_table, parsed in one np.loadtxt call, or None.

    None declines the table to _csv_table; this reader names no fault. It
    declines a quote, a carriage return, a NUL or a line longer than csv's
    field limit anywhere, fewer than 2 rows after the header, a row with
    more or fewer fields than the header, a row that is blank or whose
    first non-blank character is the delimiter (so every row _csv_table
    skips), a value np.loadtxt cannot read and a non-finite value. All but
    the last two are found before np.loadtxt runs. np.loadtxt reads only ASCII
    numbers (not 1_000 or non-ASCII digits) and converts them with the
    string-to-double of Python's float(), so an accepted matrix is bit for
    bit the one _csv_table returns.
    """
    limit = csv.field_size_limit()
    if any('"' in line or "\r" in line or "\0" in line or len(line) > limit for line in lines):
        return None
    # the header is the first line with a non-blank cell, as for _csv_table
    for start, line in enumerate(lines):
        if any(c.strip() for c in line.split(delimiter)):
            break
    else:
        return None
    header = [c.strip() for c in lines[start].split(delimiter)]
    body = lines[start + 1:]
    width = len(header) - 1  # delimiters on every row
    if len(body) < 2 or (id_column and width < 1):
        return None
    # from the end, where spreadsheet exports leave their empty rows
    rows = reversed(body)
    if any(line.count(delimiter) != width or line.lstrip()[:1] in ("", delimiter) for line in rows):
        return None
    try:
        matrix = np.loadtxt(
            body, delimiter=delimiter, comments=None, quotechar=None, dtype=float,
            ndmin=2, usecols=range(int(id_column), len(header)),
        )
    except (TypeError, ValueError):
        return None
    if matrix.shape[0] != len(body) or not np.isfinite(matrix).all():
        return None
    row_ids = [line.partition(delimiter)[0].strip() for line in body] if id_column else None
    return header[int(id_column):], row_ids, matrix


def load_block(
    source,
    id: str | None = None,
    *,
    delimiter: str = ",",
    scale: bool = False,
    id_column: bool = False,
) -> Block:
    """Load one block from a delimiter-separated text table.

    ``source`` is a path to a UTF-8 file or an open text stream; text that
    does not decode as UTF-8 raises ParseError. The first row must hold
    column names. When ``id_column`` is true the first column carries row
    identifiers. Every other cell is read with Python ``float``
    syntax (``1``, ``-2.5``, ``3e-4``); whitespace around a cell, a name or
    a row id is ignored. Empty cells are rejected rather than imputed, and
    ``nan``/``inf`` are rejected. Rows that are blank or hold only empty
    cells are skipped. The first fault in file order is reported with its
    column and its row, numbered as a line of the file (skipped lines count).

    The source is read once, into its lines (a path with universal
    newlines, so CRLF line ends are plain ones). `_numpy_table` parses a
    clean table in one np.loadtxt call; it declines every other table, and
    every table with a fault, to `_csv_table`, which reads the same lines
    row by row and alone names faults. Both give the same result.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if id is None:
            id = path.stem
        opened = path.open(encoding="utf-8")
    else:
        opened = contextlib.nullcontext(source)
        if id is None:
            id = "block"
    lines: list[str] = []
    undecodable = False
    with opened as stream:
        try:
            for line in stream:
                lines.append(line)
        except UnicodeDecodeError:
            undecodable = True
    table = None if undecodable else _numpy_table(lines, delimiter, id_column)
    if table is None:
        table = _csv_table(_decoded(lines, undecodable, id), id, delimiter, id_column)
    del lines  # the text is not needed while _preprocess makes its copies
    columns, row_ids, matrix = table
    return _preprocess(matrix, id, columns, row_ids, scale)


def build_blockset(blocks: Iterable[Block]) -> BlockSet:
    """Concatenate blocks (order preserved) into a BlockSet.

    All blocks must share the same number of rows; when several carry row
    identifiers those must agree as well (same individuals, same order).
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    n = blocks[0].n
    for b in blocks[1:]:
        if b.n != n:
            raise DimensionError(
                f"block {b.id!r} has {b.n} rows but block {blocks[0].id!r} has {n}"
            )
    with_ids = [b for b in blocks if b.preprocessing.row_ids is not None]
    for b in with_ids[1:]:
        if b.preprocessing.row_ids != with_ids[0].preprocessing.row_ids:
            raise DataError(
                f"row identifiers of block {b.id!r} do not match those of "
                f"block {with_ids[0].id!r}"
            )
    superblock = np.hstack([b.matrix for b in blocks])
    superblock.setflags(write=False)
    return BlockSet(blocks=blocks, superblock=superblock)

