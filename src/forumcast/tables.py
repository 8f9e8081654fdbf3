"""The one cell format, CSV writer and JSON writer behind every output file,
and the one way input files are opened.

Floats are spelled with ``repr`` so they survive a round-trip exactly;
missing values (None, NaN) become empty cells. Writers take cells as given,
so callers format only the cells that need it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from typing import Any, Iterable, Iterator, Sequence, TextIO

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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    """UTF-8 CSV with a header row; cells are written as given."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, obj: Any) -> None:
    """Key-sorted, two-space-indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
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
