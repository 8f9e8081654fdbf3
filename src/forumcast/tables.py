"""The one cell format, CSV writer and JSON writer behind every output file,
the one way input files are opened, and the one CSV table reader.

Floats are spelled with ``repr`` so they survive a round-trip exactly;
missing values (None, NaN) become empty cells. ``write_csv`` formats every
cell it writes, so callers hand it plain values. Every output goes through
``replacing``: it is written to a temp file and moved over its target only
when complete, so a crash never leaves a cut-off file that a later stage
would read. A failure to write an output (a full disk, an unwritable
directory) is an OutputError naming the path.

``sha256`` is CPython's built-in SHA-256 constructor. ``hashlib`` would load
OpenSSL for it, about 3.4 MB resident, to hash the few files of a manifest.

Every CSV input is read by ``InputTable``, which owns the header, row-width
and number rules and the ``<path>:<line>: <reason>`` form of their faults.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import DataError, OutputError

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

# A number cell lies within +-_MAX: one comparison refuses inf and NaN too.
_MAX = sys.float_info.max


def format_cell(value: Any) -> str:
    """'' for None and NaN, '1'/'0' for a bool, ``repr`` for a float, ``str``
    for anything else."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # float() first: numpy's repr of its own floats is "np.float64(...)".
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


@contextlib.contextmanager
def writing(path: str) -> Iterator[None]:
    """Raise an OSError inside the block as an OutputError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def replacing(path: str, mode: str = "w", **open_args: Any) -> Iterator[IO]:
    """Open a temp file next to ``path`` for writing. When the block ends
    normally, the temp file replaces ``path`` in one step; when it raises,
    the temp file is removed and ``path`` keeps its earlier contents. An
    OSError inside the block is taken as a failure to write ``path``."""
    directory, name = os.path.split(path)
    # Named after the process, not made by tempfile: a plain open() gives the
    # output the usual umask permissions, where mkstemp would give 0600.
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    with writing(path):
        try:
            with open(temp, mode, **open_args) as handle:
                yield handle
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temp)
            raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    """UTF-8 CSV with a header row; each cell is spelled by ``format_cell``."""
    with replacing(path, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([format_cell(value) for value in row] for row in rows)


def write_json(path: str, obj: Any) -> None:
    """Key-sorted, two-space-indented JSON with a trailing newline."""
    with replacing(path, encoding="utf-8") as handle:
        handle.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def open_input(path: str, what: str) -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text for reading, without the byte-order mark
    some editors write first. A file that cannot be read or that is not UTF-8
    raises a DataError naming it, also when the fault shows up only while the
    caller reads."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


class InputTable:
    """The rows of a CSV input file under its header row, whose names are
    stripped and lowercased, must include each of ``columns`` and must not
    repeat; other columns are ignored. A line of only whitespace is skipped,
    and every other row must have one cell per header name. A line the
    ``csv`` module cannot parse (a field over its size limit) is a fault of
    that line. A fault is a DataError reading ``<path>:<line>: <reason>``,
    for the line the row read last ends on (a quoted cell may span lines),
    or ``<path>: <reason>`` for the whole file; its text is built only when
    it is raised."""

    def __init__(self, handle: TextIO, path: str, columns: Iterable[str]) -> None:
        self.path = path
        self._reader = csv.reader(handle)
        try:
            self.header = [name.strip().lower() for name in next(self._reader, ())]
        except csv.Error as exc:
            raise self.error(str(exc)) from None
        missing = [name for name in columns if name not in self.header]
        if missing:
            raise DataError(f"{path}: header {self.header} lacks {', '.join(missing)}")
        seen: set[str] = set()
        for name in self.header:
            if name in seen:
                raise DataError(f"{path}: header {self.header} names {name!r} twice")
            seen.add(name)

    def error(self, reason: str) -> DataError:
        return DataError(f"{self.path}:{self._reader.line_num}: {reason}")

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """``(line, cells)`` for each row that is not blank, its width unchecked."""
        try:
            for row in self._reader:
                if len(row) > 1 or row and row[0].strip():
                    yield self._reader.line_num, row
        except csv.Error as exc:
            raise self.error(str(exc)) from None

    def record(self, row: list[str], fault: Callable[[str], DataError] = DataError) -> dict:
        """``row``'s cells by column name. A row with more or fewer cells than
        the header raises ``fault(reason)``: by default the reason alone, for
        a caller that keeps bad rows as rejections."""
        if len(row) != len(self.header):
            raise fault(f"row has {len(row)} cells, header has {len(self.header)}")
        return dict(zip(self.header, row))

    def __iter__(self) -> Iterator[dict[str, str]]:
        for _, row in self.rows():
            yield self.record(row, self.error)

    def number(self, cell: str, name: str, low: float = -_MAX, high: float = _MAX) -> float:
        """``cell``, the ``name`` of the row read last, as a float in
        [``low``, ``high``]: by default any finite float."""
        try:
            value = float(cell)
        except ValueError:
            raise self.error(f"{name} {cell!r} is not a number") from None
        if not low <= value <= high:
            reason = f"outside [{low:g}, {high:g}]" if math.isfinite(value) else "is not finite"
            raise self.error(f"{name} {cell!r} {reason}")
        return value
