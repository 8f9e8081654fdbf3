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

import json
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import NamedTuple

# WEEK and parse_timestamp live in config, which checks the horizon with
# them; they stay importable from here.
from .config import WEEK, PipelineConfig, parse_timestamp, validate, validate_paths
from .errors import DataError
from .tables import InputTable, open_input, write_csv


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


def _json_object(line: str) -> dict:
    record = json.loads(line)
    if not isinstance(record, dict):
        raise DataError("line is not a JSON object")
    return record


def load_messages(
    path: str, format: str = "jsonl"
) -> tuple[list[Message], list[RejectedRow]]:
    """Load messages in file order; malformed rows go to the rejection report.

    ``format`` is "jsonl" or "csv". Line numbers in the report are 1-based
    (for CSV the header is line 1). A CSV row with more or fewer cells than
    the header is a rejected row.
    """
    messages: list[Message] = []
    rejections: list[RejectedRow] = []
    seen_ids: set[str] = set()

    with open_input(path, "messages file") as handle:
        if format == "jsonl":
            lines = ((n, line) for n, line in enumerate(handle, start=1) if line.strip())
            to_record = _json_object
        else:
            table = InputTable(handle, path, ("id", "author_id", "timestamp"))
            lines = table.rows()
            to_record = table.record
        for line_no, raw in lines:
            try:
                message = _message_from_record(to_record(raw), seen_ids)
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
    [horizon_start + i weeks, horizon_start + (i + 1) weeks).

    Out-of-range messages are collected in ``dropped``. The result does not
    depend on the order of ``messages``.
    """
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


def load_market_series(path: str, horizon_start: datetime) -> dict[int, float]:
    """Load a weekly market series from CSV ``week,value`` or ``date,value``
    as ``{week: value}``, in week order; missing weeks are absent.

    ``date`` rows resolve onto the weekly grid anchored at ``horizon_start``,
    the one :func:`partition_weeks` uses. Duplicate weeks are errors.
    """
    with open_input(path, "market series") as handle:
        table = InputTable(handle, path, ("value",))
        key = "week" if "week" in table.header else "date"
        if key not in table.header:
            raise DataError(f"{path}: header {table.header} lacks week or date")
        values: dict[int, float] = {}
        for row in table:
            try:
                if key == "date":
                    week = window_index(parse_timestamp(row["date"]), horizon_start)
                else:
                    week = int(row["week"])
            except ValueError as exc:
                raise table.error(f"bad week key: {exc}") from exc
            value = table.number(row["value"], "value")
            if week in values:
                raise table.error(f"duplicate week {week}")
            values[week] = value
    return dict(sorted(values.items()))
