"""The one cell format, CSV writer and JSON writer behind every output file,
and the one way input files are opened.

Floats are spelled with ``repr`` so they survive a round-trip exactly;
missing values (None, NaN) become empty cells. Writers take cells as given,
so callers format only the cells that need it. Every output goes through
``replacing``: it is written to a temp file and moved over its target only
when complete, so a crash never leaves a cut-off file that a later stage
would read.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from typing import IO, Any, Iterable, Iterator, Sequence, TextIO

from .errors import DataError


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
def replacing(path: str, mode: str = "w", **open_args: Any) -> Iterator[IO]:
    """Open a temp file next to ``path`` for writing. When the block ends
    normally, the temp file replaces ``path`` in one step; when it raises,
    the temp file is removed and ``path`` keeps its earlier contents."""
    directory, name = os.path.split(path)
    # Named after the process, not made by tempfile: a plain open() gives the
    # output the usual umask permissions, where mkstemp would give 0600.
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, **open_args) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    """UTF-8 CSV with a header row; cells are written as given."""
    with replacing(path, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, obj: Any) -> None:
    """Key-sorted, two-space-indented JSON with a trailing newline."""
    with replacing(path, encoding="utf-8") as handle:
        handle.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def open_input(path: str, what: str) -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text for reading. A file that cannot be read,
    that is not UTF-8, or whose CSV the ``csv`` module refuses (a field over
    its size limit) raises a DataError naming it, also when the fault shows
    up only while the caller reads."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            yield handle
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
