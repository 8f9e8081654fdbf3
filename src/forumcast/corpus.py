"""Message and market-series ingestion, and weekly windowing.

Input formats
-------------
Messages: JSON-lines (one object per line) or CSV with header. Both use the
same field names: ``id``, ``author_id``, ``parent_id`` (optional / empty for
root posts), ``timestamp`` (RFC 3339), ``body``.

Market series: CSV with header ``week,value`` (0-based week index) or
``date,value`` (ISO date, resolved onto the weekly grid anchored at the
configured horizon start).

Malformed rows are never dropped silently: loaders return a rejection report
(line number + reason) that can be written out as CSV ``line,reason``.

Windows are fixed 7-day blocks anchored at a configured start instant,
start-inclusive and end-exclusive.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

# WEEK and parse_timestamp live in config, which checks the horizon with
# them; they stay importable from here.
from .config import WEEK, PipelineConfig, parse_timestamp, validate, validate_paths
from .errors import DataError
from .tables import open_input, write_csv


class Message(NamedTuple):
    """One forum post or comment. ``parent_id`` is None for root posts."""

    id: str
    author_id: str
    timestamp: datetime
    body: str
    parent_id: str | None = None


class RejectedRow(NamedTuple):
    """A row the loader refused, with its 1-based line number."""

    line: int
    reason: str


@dataclass(frozen=True)
class MarketSeries:
    """Weekly closing values keyed by 0-based week index. May contain gaps."""

    name: str
    values: dict[int, float]

    def __post_init__(self) -> None:
        for week, value in self.values.items():
            if not math.isfinite(value):
                raise DataError(f"{self.name}: non-finite value at week {week}")

    def to_array(self, weeks: int) -> list[float]:
        """Dense week-indexed list with NaN in the gaps."""
        out = [math.nan] * weeks
        for week, value in self.values.items():
            if not 0 <= week < weeks:
                raise DataError(
                    f"{self.name}: week {week} outside the 0..{weeks - 1} grid"
                )
            out[week] = value
        return out


@dataclass
class WindowedCorpus:
    """Messages partitioned onto the weekly grid.

    ``messages_by_window[i]`` is sorted by (timestamp, id), so the partition
    is independent of input order. Out-of-range messages are kept in
    ``dropped`` rather than discarded.
    """

    messages_by_window: list[list[Message]]
    dropped: list[Message] = field(default_factory=list)

    @property
    def week_count(self) -> int:
        return len(self.messages_by_window)


# A lone UTF-16 surrogate, what a JSON \ud800 escape decodes to: no UTF-8
# output can hold one. (A CSV file cannot carry one: its bytes are not UTF-8,
# so the whole file is refused when it is read.)
_SURROGATE = re.compile("[\ud800-\udfff]")


def _message_from_record(record: dict, seen_ids: set[str]) -> Message:
    for key in ("id", "author_id", "timestamp"):
        value = record.get(key)
        if value is None or str(value).strip() == "":
            raise DataError(f"missing required field '{key}'")
    for key in ("id", "author_id", "parent_id", "timestamp", "body"):
        value = record.get(key)
        if value is not None and _SURROGATE.search(str(value)):
            raise DataError(f"field '{key}' holds a lone surrogate, which UTF-8 cannot encode")
    msg_id = str(record["id"])
    if msg_id in seen_ids:
        raise DataError(f"duplicate message id '{msg_id}'")
    try:
        timestamp = parse_timestamp(str(record["timestamp"]))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp: {exc}") from exc
    parent_raw = record.get("parent_id")
    parent_id = None
    if parent_raw is not None and str(parent_raw).strip() != "":
        parent_id = str(parent_raw)
    body = record.get("body")
    return Message(
        id=msg_id,
        author_id=str(record["author_id"]),
        timestamp=timestamp,
        body="" if body is None else str(body),
        parent_id=parent_id,
    )


def load_messages(
    path: str, format: str = "jsonl"
) -> tuple[list[Message], list[RejectedRow]]:
    """Load messages in file order; malformed rows go to the rejection report.

    ``format`` is "jsonl" or "csv". Line numbers in the report are 1-based
    (for CSV the header is line 1).
    """
    if format not in ("jsonl", "csv"):
        raise DataError(f"unknown message format '{format}'")
    messages: list[Message] = []
    rejections: list[RejectedRow] = []
    seen_ids: set[str] = set()

    with open_input(path, "messages file") as handle:
        if format == "jsonl":
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise DataError("line is not a JSON object")
                    message = _message_from_record(record, seen_ids)
                except (ValueError, DataError) as exc:
                    # ValueError: a JSONDecodeError, or an integer with more
                    # digits than int() converts
                    rejections.append(RejectedRow(line_no, str(exc)))
                    continue
                except RecursionError:
                    rejections.append(RejectedRow(line_no, "line nests too deeply to parse"))
                    continue
                seen_ids.add(message.id)
                messages.append(message)
        else:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty CSV, header required")
            missing = [k for k in ("id", "author_id", "timestamp") if k not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: CSV header missing columns {missing}")
            for record in reader:
                line_no = reader.line_num
                try:
                    message = _message_from_record(record, seen_ids)
                except DataError as exc:
                    rejections.append(RejectedRow(line_no, str(exc)))
                    continue
                seen_ids.add(message.id)
                messages.append(message)
    return messages, rejections


def write_rejections(path: str, rejections: list[RejectedRow]) -> None:
    """Write the rejection report as CSV ``line,reason``."""
    write_csv(path, ("line", "reason"), ((row.line, row.reason) for row in rejections))


def window_index(instant: datetime, horizon_start: datetime) -> int:
    """Index of the 7-day block containing ``instant`` (may be out of range),
    by exact timedelta floor division: from week 16385 on, a float quotient
    puts the last microsecond of a week in the next one."""
    return (instant - horizon_start) // WEEK


def partition_weeks(
    messages: list[Message], horizon_start: datetime, horizon_weeks: int
) -> WindowedCorpus:
    """Assign each message to its 7-day window by timestamp: window i is
    [horizon_start + i weeks, horizon_start + (i + 1) weeks). A naive
    ``horizon_start`` is taken as UTC.

    Out-of-range messages are collected in ``dropped``. The result does not
    depend on the order of ``messages``.
    """
    if horizon_weeks < 1:
        raise ValueError("horizon_weeks must be >= 1")
    if horizon_start.tzinfo is None:
        horizon_start = horizon_start.replace(tzinfo=timezone.utc)
    buckets: list[list[Message]] = [[] for _ in range(horizon_weeks)]
    dropped: list[Message] = []
    for message in messages:
        idx = window_index(message.timestamp, horizon_start)
        if 0 <= idx < horizon_weeks:
            buckets[idx].append(message)
        else:
            dropped.append(message)
    for bucket in buckets:
        bucket.sort(key=lambda m: (m.timestamp, m.id))
    dropped.sort(key=lambda m: (m.timestamp, m.id))
    return WindowedCorpus(messages_by_window=buckets, dropped=dropped)


def ingest_check(config: PipelineConfig) -> dict:
    """Parse the messages and report counts without computing features."""
    validate(config)
    validate_paths(config)
    messages, rejections = load_messages(config.messages_path, config.messages_format)
    corpus = partition_weeks(
        messages, parse_timestamp(config.horizon_start), config.horizon_weeks
    )
    nonempty = sum(1 for window in corpus.messages_by_window if window)
    return {
        "messages": len(messages),
        "rejected_rows": len(rejections),
        "weeks": corpus.week_count,
        "nonempty_weeks": nonempty,
        "outside_horizon": len(corpus.dropped),
        "rejection_reasons": sorted({r.reason for r in rejections}),
    }


def load_market_series(
    path: str,
    name: str | None = None,
    horizon_start: datetime | None = None,
) -> MarketSeries:
    """Load a weekly market series from CSV ``week,value`` or ``date,value``.

    ``date`` rows need ``horizon_start`` to resolve onto the same weekly grid
    that :func:`partition_weeks` uses. Duplicate weeks are an error.
    """
    with open_input(path, "market series") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header required") from None
        header = [h.strip().lower() for h in header]
        if len(header) < 2 or header[1] != "value" or header[0] not in ("week", "date"):
            raise DataError(
                f"{path}: expected header 'week,value' or 'date,value', got {header}"
            )
        by_date = header[0] == "date"
        if by_date and horizon_start is None:
            raise DataError(f"{path}: date-keyed series needs a horizon start")
        if horizon_start is not None and horizon_start.tzinfo is None:
            horizon_start = horizon_start.replace(tzinfo=timezone.utc)

        values: dict[int, float] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{line_no}: expected two columns")
            try:
                if by_date:
                    week = window_index(parse_timestamp(row[0]), horizon_start)
                else:
                    week = int(row[0])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: bad week key: {exc}") from exc
            try:
                value = float(row[1])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: bad value: {exc}") from exc
            if not math.isfinite(value):
                raise DataError(f"{path}:{line_no}: non-finite value for week {week}")
            if week in values:
                raise DataError(f"{path}:{line_no}: duplicate week {week}")
            values[week] = value

    series_name = name if name is not None else "series"
    return MarketSeries(name=series_name, values=dict(sorted(values.items())))
