"""``repro obs report``: summarize experiment stores.

Renders a fixed-width table with one row per experiment recorded in
the given stores (:mod:`repro.obs.store`) -- name, wall time, runner
cell accounting (with the cache-hit ratio), engine throughput, and the
headline simulation outcomes (delivered goodput, bottleneck drop rate)
-- followed by a totals line.  Fields a record lacks render as ``-``;
the report never fails on a sparse store.

``sort`` orders rows by start timestamp (default), name, or elapsed
wall time; ``last`` keeps only the N most recent records, so
accumulated stores stay readable.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, List, Optional, Sequence, Union

__all__ = ["render_report", "summarize_records", "SORT_CHOICES"]

#: valid ``sort`` values (the CLI's ``--sort`` choices).
SORT_CHOICES = ("time", "name", "elapsed")


def _fmt(value: Optional[float], spec: str = ".1f") -> str:
    return "-" if value is None else format(value, spec)


def _metric(record: dict, name: str) -> Optional[float]:
    value = (record.get("metrics") or {}).get(name)
    return float(value) if isinstance(value, (int, float)) else None


def _runner_field(record: dict, name: str) -> Optional[float]:
    value = (record.get("runner") or {}).get(name)
    return float(value) if isinstance(value, (int, float)) else None


class _Row:
    """One reporting row, with every field optional."""

    def __init__(self, record: dict) -> None:
        self.name = str(record.get("name", "?"))
        self.elapsed = record.get("elapsed_seconds")
        if not isinstance(self.elapsed, (int, float)):
            self.elapsed = None
        self.timestamp = record.get("timestamp")
        if not isinstance(self.timestamp, (int, float)):
            self.timestamp = None
        self.cells = _runner_field(record, "cells")
        self.hit_ratio = _runner_field(record, "hit_ratio")
        self.warm_starts = _runner_field(record, "warm_starts")
        self.warmup_seconds_saved = _runner_field(
            record, "warmup_seconds_saved")
        self.events = _metric(record, "engine.events_dispatched")
        wall = _metric(record, "engine.wall_seconds")
        self.events_per_sec = (
            self.events / wall if self.events and wall else None
        )
        self.goodput = _metric(record, "tcp.goodput_bytes")
        self.drop_pct = self._bottleneck_drop_pct(record)

    @staticmethod
    def _bottleneck_drop_pct(record: dict) -> Optional[float]:
        metrics = record.get("metrics") or {}
        # The contested link is "bottleneck" on the dumbbell, "pipe" on
        # the test-bed; take whichever is present.
        for label in ("bottleneck", "pipe"):
            dropped = metrics.get(f"link.{label}.dropped_packets")
            accepted = metrics.get(f"link.{label}.accepted_packets")
            if isinstance(dropped, (int, float)) and isinstance(
                    accepted, (int, float)):
                offered = dropped + accepted
                if offered > 0:
                    return 100.0 * dropped / offered
        return None


_COLUMNS = (
    ("name", 18, "<"),
    ("wall s", 8, ">"),
    ("cells", 6, ">"),
    ("hit %", 6, ">"),
    ("events", 10, ">"),
    ("kev/s", 7, ">"),
    ("goodput MB", 11, ">"),
    ("drop %", 7, ">"),
)


def _format_row(values: Sequence[str]) -> str:
    parts = []
    for (_, width, align), value in zip(_COLUMNS, values):
        parts.append(format(value, f"{align}{width}"))
    return "  ".join(parts).rstrip()


def summarize_records(records: Iterable[dict], *, sort: str = "time",
                      last: Optional[int] = None) -> str:
    """The report body for an iterable of parsed records.

    *sort*: ``"time"`` orders by start timestamp, oldest first (rows
    without one go last; ties keep input order), ``"name"`` sorts
    alphabetically, ``"elapsed"`` sorts by wall time, most expensive
    first.  *last* keeps only the N most recent records by timestamp
    (applied before sorting), wherever they came from.
    """
    if sort not in SORT_CHOICES:
        raise ValueError(f"sort must be one of {SORT_CHOICES}, got {sort!r}")
    rows = [_Row(r) for r in records]
    rows.sort(key=lambda r: (r.timestamp is None, r.timestamp or 0.0))
    if last is not None:
        if last < 0:
            raise ValueError(f"last must be >= 0, got {last}")
        rows = rows[len(rows) - last:] if last else []
    if sort == "name":
        rows.sort(key=lambda r: r.name)
    elif sort == "elapsed":
        rows.sort(key=lambda r: (r.elapsed is None, -(r.elapsed or 0.0)))
    lines = [
        _format_row([header for header, _, _ in _COLUMNS]),
        _format_row(["-" * width for _, width, _ in _COLUMNS]),
    ]
    for row in rows:
        lines.append(_format_row([
            row.name[:18],
            _fmt(row.elapsed),
            _fmt(row.cells, ".0f"),
            _fmt(None if row.hit_ratio is None else 100.0 * row.hit_ratio,
                 ".0f"),
            _fmt(row.events, ".0f"),
            _fmt(None if row.events_per_sec is None
                 else row.events_per_sec / 1e3, ".0f"),
            _fmt(None if row.goodput is None else row.goodput / 1e6, ".2f"),
            _fmt(row.drop_pct),
        ]))
    if not rows:
        lines.append("(no experiment records)")
        return "\n".join(lines)

    total_elapsed = sum(r.elapsed for r in rows if r.elapsed is not None)
    total_cells = sum(r.cells for r in rows if r.cells is not None)
    total_events = sum(r.events for r in rows if r.events is not None)
    footer = (
        f"\n{len(rows)} records; {total_elapsed:.1f}s wall, "
        f"{total_cells:.0f} cells, {total_events:.0f} engine events"
    )
    total_warm = sum(r.warm_starts for r in rows
                     if r.warm_starts is not None)
    if total_warm:
        total_saved = sum(r.warmup_seconds_saved for r in rows
                          if r.warmup_seconds_saved is not None)
        footer += (
            f"; {total_warm:.0f} warm starts saved {total_saved:.0f}s "
            "of simulated warm-up"
        )
    lines.append(footer)
    return "\n".join(lines)


def render_report(paths: Sequence[Union[str, pathlib.Path]], *,
                  sort: str = "time", last: Optional[int] = None) -> str:
    """Render a combined report over one or more experiment stores.

    Raises :class:`FileNotFoundError` or :class:`ValueError` (see
    :func:`repro.obs.store.open_readonly`) for a path that is not a
    store, naming the path.
    """
    from repro.obs.store import open_readonly

    records: List[dict] = []
    for path in paths:
        with open_readonly(path) as store:
            records.extend(store.experiment_records())
    header = "experiment store report: " + ", ".join(map(str, paths))
    return header + "\n" + summarize_records(records, sort=sort, last=last)
