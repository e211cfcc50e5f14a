"""The queryable sqlite experiment store (``repro obs query``).

A content-addressed, append-only database of everything a run
measures: one ``runs`` row per CLI invocation (git SHA, timestamp,
argv), one ``experiments`` row per figure/experiment, one ``cells``
row per distinct measurement cell -- keyed by the same content-hash
key the result cache uses, so a cell's row, its cache file, and its
in-memory memo entry all share one identity -- plus scalar ``metrics``
and sampled time ``series`` (float64 blobs captured by the flight
recorder, :mod:`repro.obs.recorder`).

The store is the one record of a run: ``repro <experiment> --store``
writes it, ``repro obs query``/``trace`` read its tables, and
:meth:`ExperimentStore.experiment_records` rebuilds the per-experiment
rows ``repro obs report`` renders.

Concurrency: only the parent process ever holds the connection --
worker processes return series blobs by value -- so parallel runs
never contend on sqlite.  Everything is stdlib ``sqlite3``; there is
no new dependency.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.recorder import Series

__all__ = ["ExperimentStore", "CANNED_QUERIES", "open_readonly",
           "is_store"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    timestamp REAL NOT NULL,
    git_sha TEXT,
    full INTEGER NOT NULL DEFAULT 0,
    argv TEXT,
    elapsed_seconds REAL,
    runner TEXT
);
CREATE TABLE IF NOT EXISTS experiments (
    experiment_id INTEGER PRIMARY KEY,
    run_id INTEGER REFERENCES runs(run_id),
    name TEXT NOT NULL,
    timestamp REAL NOT NULL,
    elapsed_seconds REAL,
    runner TEXT
);
CREATE TABLE IF NOT EXISTS cells (
    cell_id INTEGER PRIMARY KEY,
    experiment_id INTEGER REFERENCES experiments(experiment_id),
    key TEXT NOT NULL,
    source TEXT NOT NULL,
    elapsed REAL,
    spec TEXT NOT NULL,
    backend TEXT NOT NULL,
    kind TEXT NOT NULL,
    n_flows INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    gamma REAL,
    extent REAL,
    rate_bps REAL,
    goodput_bytes REAL NOT NULL,
    goodput_rate REAL NOT NULL,
    converged_at REAL,
    flagged_sources INTEGER,
    worker TEXT
);
CREATE INDEX IF NOT EXISTS cells_by_key ON cells(key);
CREATE INDEX IF NOT EXISTS cells_by_experiment ON cells(experiment_id);
CREATE TABLE IF NOT EXISTS metrics (
    experiment_id INTEGER NOT NULL REFERENCES experiments(experiment_id),
    name TEXT NOT NULL,
    value REAL,
    payload TEXT
);
CREATE INDEX IF NOT EXISTS metrics_by_experiment ON metrics(experiment_id);
CREATE TABLE IF NOT EXISTS series (
    series_id INTEGER PRIMARY KEY,
    cell_id INTEGER NOT NULL REFERENCES cells(cell_id),
    name TEXT NOT NULL,
    columns TEXT NOT NULL,
    n_rows INTEGER NOT NULL,
    evicted INTEGER NOT NULL DEFAULT 0,
    rows BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS series_by_cell ON series(cell_id);
"""


def _cell_shape(spec: dict) -> dict:
    """Denormalized query columns from a cell's ``describe()`` payload.

    ``gamma``/``extent``/``rate_bps`` are derived for single-train
    attack cells (γ per the paper's Eq. 4: mean attack rate over the
    bottleneck capacity); baselines and deployments leave them NULL.
    """
    platform = spec.get("platform") or {}
    shape = {
        "backend": spec.get("backend", "packet"),
        "kind": platform.get("kind", "?"),
        "n_flows": int(platform.get("n_flows", 0)),
        "seed": int(platform.get("seed", 0)),
        "gamma": None,
        "extent": None,
        "rate_bps": None,
    }
    train = spec.get("train")
    if train and train.get("extents"):
        extents = train["extents"]
        rates = train["rates_bps"]
        spaces = train["spaces"]
        shape["extent"] = float(extents[0])
        shape["rate_bps"] = float(rates[0])
        bottleneck = _bottleneck_bps(platform)
        # The spec carries the n-1 *inter*-pulse gaps; the mean attack
        # rate over full periods needs the trailing gap too, which for
        # a (near-)uniform train is the mean space.  Single pulses have
        # no period, so their gamma stays NULL.
        if bottleneck and spaces:
            burst = sum(e * r for e, r in zip(extents, rates))
            period = (sum(extents) + sum(spaces)
                      + sum(spaces) / len(spaces))
            shape["gamma"] = burst / period / bottleneck
    return shape


def _bottleneck_bps(platform: dict) -> Optional[float]:
    """The platform's contested-link capacity, from its spec."""
    # Specs carry only identity, not derived config -- rebuild the
    # config dataclass to read the capacity the scenario would use.
    try:
        from repro.runner.cells import PlatformSpec
        from repro.sim.tcp import TCPConfig

        tcp = platform.get("tcp")
        spec = PlatformSpec(
            kind=platform["kind"], n_flows=platform["n_flows"],
            seed=platform["seed"], queue=platform.get("queue", "red"),
            use_red=platform.get("use_red", True),
            tcp=None if tcp is None else TCPConfig(),
        )
        config = spec.to_config()
    except Exception:
        return None
    for attr in ("bottleneck_rate_bps", "pipe_rate_bps", "bandwidth_bps"):
        value = getattr(config, attr, None)
        if value:
            return float(value)
    pipe = getattr(config, "pipe", None)
    if pipe is not None:
        value = getattr(pipe, "bandwidth_bps", None)
        if value:
            return float(value)
    return None


class ExperimentStore:
    """One sqlite experiment store (see the module docstring).

    Opening creates the file and schema if needed.  All writes happen
    in the opening process; reads (``query``, the canned queries,
    ``fetch_series``) are safe on any existing store file.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path))
        self._db.executescript(_SCHEMA)
        self._migrate()
        self._db.commit()
        self._run_id: Optional[int] = None
        self._experiment_id: Optional[int] = None

    def _migrate(self) -> None:
        """Bring a pre-existing store file up to the current schema.

        Additive only: columns the schema grew later (``cells.worker``,
        the execution-placement attribution) are bolted onto old files
        with NULLs for historical rows, so stores from earlier runs
        stay queryable without a rebuild.
        """
        columns = {
            row[1] for row in self._db.execute("PRAGMA table_info(cells)")
        }
        if "worker" not in columns:
            self._db.execute("ALTER TABLE cells ADD COLUMN worker TEXT")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writes (parent process only)
    # ------------------------------------------------------------------
    def begin_run(self, name: str, *, argv: Optional[Sequence[str]] = None,
                  git_sha: Optional[str] = None, full: bool = False,
                  timestamp: Optional[float] = None) -> int:
        """Open the invocation-level row; returns its ``run_id``."""
        cursor = self._db.execute(
            "INSERT INTO runs (name, timestamp, git_sha, full, argv)"
            " VALUES (?, ?, ?, ?, ?)",
            (name, time.time() if timestamp is None else timestamp,
             git_sha, int(full),
             None if argv is None else json.dumps(list(argv))),
        )
        self._db.commit()
        self._run_id = int(cursor.lastrowid)
        return self._run_id

    def finish_run(self, *, elapsed_seconds: Optional[float] = None,
                   runner: Optional[dict] = None) -> None:
        """Close the open run with its final accounting."""
        if self._run_id is None:
            return
        self._db.execute(
            "UPDATE runs SET elapsed_seconds = ?, runner = ?"
            " WHERE run_id = ?",
            (elapsed_seconds,
             None if runner is None else json.dumps(runner, sort_keys=True),
             self._run_id),
        )
        self._db.commit()

    def begin_experiment(self, name: str,
                         timestamp: Optional[float] = None) -> int:
        """Open an experiment row; subsequent cells attach to it."""
        cursor = self._db.execute(
            "INSERT INTO experiments (run_id, name, timestamp)"
            " VALUES (?, ?, ?)",
            (self._run_id, name,
             time.time() if timestamp is None else timestamp),
        )
        self._db.commit()
        self._experiment_id = int(cursor.lastrowid)
        return self._experiment_id

    def finish_experiment(self, *, elapsed_seconds: Optional[float] = None,
                          runner: Optional[dict] = None,
                          metrics: Optional[dict] = None) -> None:
        """Close the open experiment with its runner delta and metrics."""
        experiment_id = self._experiment_id
        if experiment_id is None:
            return
        self._db.execute(
            "UPDATE experiments SET elapsed_seconds = ?, runner = ?"
            " WHERE experiment_id = ?",
            (elapsed_seconds,
             None if runner is None else json.dumps(runner, sort_keys=True),
             experiment_id),
        )
        for name, value in (metrics or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row = (experiment_id, name, float(value), None)
            else:
                row = (experiment_id, name, None,
                       json.dumps(value, sort_keys=True))
            self._db.execute(
                "INSERT INTO metrics (experiment_id, name, value, payload)"
                " VALUES (?, ?, ?, ?)", row)
        self._db.commit()
        self._experiment_id = None

    def record_cell(self, key: str, cell, result, *, source: str,
                    elapsed: Optional[float] = None,
                    series: Optional[Iterable[Series]] = None,
                    worker: Optional[str] = None) -> int:
        """Record one resolved cell (and its flight-recorder series).

        *cell*/*result* are the runner's
        :class:`~repro.runner.cells.Cell` /
        :class:`~repro.runner.cells.CellResult`; *source* says how the
        cell was resolved (``executed``/``cache``/``memo``), mirroring
        the runner's own accounting.  *worker* attributes executed
        cells to the process (``host:pid``) that measured them, so
        straggler skew can be traced to its placement.
        """
        from repro.runner.cells import goodput_rate

        spec = cell.describe()
        shape = _cell_shape(spec)
        cursor = self._db.execute(
            "INSERT INTO cells (experiment_id, key, source, elapsed, spec,"
            " backend, kind, n_flows, seed, gamma, extent, rate_bps,"
            " goodput_bytes, goodput_rate, converged_at, flagged_sources,"
            " worker)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (self._experiment_id, key, source, elapsed,
             json.dumps(spec, sort_keys=True), shape["backend"],
             shape["kind"], shape["n_flows"], shape["seed"],
             shape["gamma"], shape["extent"], shape["rate_bps"],
             float(result.goodput_bytes), goodput_rate(cell, result),
             result.converged_at, result.flagged_sources, worker),
        )
        cell_id = int(cursor.lastrowid)
        for item in series or ():
            self._db.execute(
                "INSERT INTO series (cell_id, name, columns, n_rows,"
                " evicted, rows) VALUES (?, ?, ?, ?, ?, ?)",
                (cell_id, item.name, json.dumps(list(item.columns)),
                 item.n_rows, item.evicted,
                 np.ascontiguousarray(item.data, dtype=np.float64)
                 .tobytes()),
            )
        self._db.commit()
        return cell_id

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def query(self, sql: str, params: Sequence = ()) -> Tuple[List[str],
                                                              List[tuple]]:
        """Run raw SQL; returns ``(column_names, rows)``."""
        cursor = self._db.execute(sql, tuple(params))
        names = [d[0] for d in cursor.description or ()]
        return names, cursor.fetchall()

    def fetch_series(self, cell_id: int,
                     name: Optional[str] = None) -> List[Series]:
        """Stored series of one cell, bit-exactly reconstructed."""
        sql = ("SELECT name, columns, n_rows, evicted, rows FROM series"
               " WHERE cell_id = ?")
        params: List = [cell_id]
        if name is not None:
            sql += " AND name = ?"
            params.append(name)
        out = []
        for row in self._db.execute(sql + " ORDER BY name", params):
            columns = tuple(json.loads(row[1]))
            data = np.frombuffer(row[4], dtype=np.float64).reshape(
                int(row[2]), len(columns))
            out.append(Series(row[0], columns, data.copy(),
                              evicted=int(row[3])))
        return out

    def find_cells(self, key_prefix: str) -> List[tuple]:
        """``(cell_id, key, experiment name, source)`` for matching cells.

        Matches full keys or any unambiguous prefix (like git).
        """
        return self._db.execute(
            "SELECT c.cell_id, c.key, COALESCE(e.name, '-'), c.source"
            " FROM cells c LEFT JOIN experiments e"
            " ON c.experiment_id = e.experiment_id"
            " WHERE c.key LIKE ? ORDER BY c.cell_id",
            (key_prefix + "%",),
        ).fetchall()

    # ------------------------------------------------------------------
    # per-experiment records (``repro obs report``)
    # ------------------------------------------------------------------
    def experiment_records(self) -> List[dict]:
        """One dict per experiment row, oldest first.

        Each carries the experiment's name, start timestamp, wall time,
        runner accounting and metrics snapshot, plus its run's git SHA
        and ``REPRO_FULL`` flag.
        """
        records = []
        rows = self._db.execute(
            "SELECT e.experiment_id, e.name, e.timestamp,"
            " e.elapsed_seconds, e.runner, r.git_sha, r.full"
            " FROM experiments e LEFT JOIN runs r ON e.run_id = r.run_id"
            " ORDER BY e.experiment_id").fetchall()
        for (experiment_id, name, timestamp, elapsed, runner, sha,
             full) in rows:
            record = {
                "name": name,
                "timestamp": timestamp,
                "git_sha": sha,
                "full": bool(full),
            }
            if elapsed is not None:
                record["elapsed_seconds"] = elapsed
            if runner is not None:
                record["runner"] = json.loads(runner)
            metrics: Dict[str, object] = {}
            for metric_name, value, payload in self._db.execute(
                "SELECT name, value, payload FROM metrics"
                " WHERE experiment_id = ? ORDER BY rowid",
                (experiment_id,),
            ):
                metrics[metric_name] = (
                    value if payload is None else json.loads(payload))
            record["metrics"] = metrics
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # canned queries
    # ------------------------------------------------------------------
    def gamma_star(self) -> Tuple[List[str], List[tuple]]:
        """Measured peak-γ per gain-sweep series (the fig06 question).

        Groups packet-backend attack cells by experiment and sweep
        series (n_flows, extent, rate), computes each cell's gain
        against the matching baseline (same experiment, n_flows, seed;
        Eq. 5 with κ=1: ``(1 - ρ/ρ₀)·(1 - γ)``), averages across
        seeds, and reports the γ with the largest mean gain.
        """
        rows = self._db.execute(
            "SELECT c.experiment_id, COALESCE(e.name, '-'), c.n_flows,"
            " c.seed, c.gamma, c.extent, c.rate_bps, c.goodput_rate"
            " FROM cells c LEFT JOIN experiments e"
            " ON c.experiment_id = e.experiment_id"
            " WHERE c.backend = 'packet' AND c.kind != '?'"
            " ORDER BY c.cell_id").fetchall()
        baselines: Dict[tuple, float] = {}
        for (exp_id, _name, n_flows, seed, gamma, _extent, _rate,
             rate_bytes) in rows:
            if gamma is None:
                baselines[(exp_id, n_flows, seed)] = rate_bytes
        gains: Dict[tuple, Dict[float, List[float]]] = {}
        for (exp_id, name, n_flows, seed, gamma, extent, rate_bps,
             rate_bytes) in rows:
            if gamma is None or extent is None:
                continue
            baseline = baselines.get((exp_id, n_flows, seed))
            if not baseline:
                continue
            degradation = 1.0 - rate_bytes / baseline
            series_key = (exp_id, name, n_flows, extent, rate_bps)
            gains.setdefault(series_key, {}).setdefault(gamma, []).append(
                degradation * (1.0 - gamma))
        names = ["experiment", "n_flows", "extent_ms", "rate_mbps",
                 "gamma_star", "gain", "gammas", "cells"]
        out = []
        for (exp_id, name, n_flows, extent, rate_bps), by_gamma in sorted(
                gains.items()):
            means = {g: sum(v) / len(v) for g, v in by_gamma.items()}
            star = max(means, key=lambda g: (means[g], -g))
            out.append((
                name, n_flows, round(extent * 1e3, 3),
                None if rate_bps is None else round(rate_bps / 1e6, 3),
                round(star, 6), round(means[star], 6), len(means),
                sum(len(v) for v in by_gamma.values()),
            ))
        return names, out

    def slowest_cells(self, limit: int = 10) -> Tuple[List[str],
                                                      List[tuple]]:
        """The most expensive executed cells, by wall-clock time.

        Includes the executing worker (``host:pid``), so straggler skew
        is attributable: a tail dominated by one worker id points at a
        slow host or an unlucky lease, not at the scenarios themselves.
        """
        return self.query(
            "SELECT substr(c.key, 1, 12) AS key, COALESCE(e.name, '-')"
            " AS experiment, c.backend, c.n_flows, c.seed,"
            " round(c.gamma, 4) AS gamma, round(c.elapsed, 3) AS elapsed_s,"
            " COALESCE(c.worker, '-') AS worker"
            " FROM cells c LEFT JOIN experiments e"
            " ON c.experiment_id = e.experiment_id"
            " WHERE c.source = 'executed'"
            " ORDER BY c.elapsed DESC LIMIT ?", (limit,))

    def workers(self) -> Tuple[List[str], List[tuple]]:
        """Per-worker execution rollup (straggler-skew attribution).

        One row per distinct worker id that executed cells: how many,
        how much wall time, and the mean/max per-cell cost.  A worker
        whose mean is far above the rest is the straggler; whether its
        cells are intrinsically heavier shows up in ``slowest-cells``.
        """
        return self.query(
            "SELECT COALESCE(c.worker, '-') AS worker,"
            " count(*) AS cells,"
            " round(sum(c.elapsed), 3) AS busy_s,"
            " round(avg(c.elapsed), 3) AS mean_s,"
            " round(max(c.elapsed), 3) AS max_s"
            " FROM cells c WHERE c.source = 'executed'"
            " GROUP BY c.worker ORDER BY busy_s DESC")

    def cache_hits(self) -> Tuple[List[str], List[tuple]]:
        """Per-experiment cell accounting by resolution source."""
        return self.query(
            "SELECT COALESCE(e.name, '-') AS experiment,"
            " count(*) AS cells,"
            " sum(c.source = 'executed') AS executed,"
            " sum(c.source = 'cache') AS cache_hits,"
            " sum(c.source = 'memo') AS memo_hits,"
            " round(avg(c.source != 'executed'), 3) AS hit_ratio"
            " FROM cells c LEFT JOIN experiments e"
            " ON c.experiment_id = e.experiment_id"
            " GROUP BY c.experiment_id ORDER BY min(c.cell_id)")

    def drop_sync(self, *, bin_width: float = 0.1,
                  cell_id: Optional[int] = None) -> Tuple[List[str],
                                                          List[tuple]]:
        """Loss-event synchronization from recorded drop series.

        For every cell with flight-recorder drop series (or just
        *cell_id*): per link, the legitimate-flow loss events are
        binned at *bin_width* and summarized as the fraction of
        loss-bearing bins in which at least half the victim flows lost
        a packet (the paper's quasi-global-synchronization signature,
        Fig. 3).  With two or more drop-carrying links the Pearson
        correlation of their binned drop counts is reported per pair
        (``link_b`` non-NULL) -- the cross-link question the
        multi-bottleneck roadmap item needs.
        """
        names = ["cell", "link_a", "link_b", "drops", "loss_bins",
                 "sync_ratio", "correlation"]
        sql = ("SELECT s.cell_id, s.name, s.columns, s.n_rows, s.rows"
               " FROM series s WHERE s.name LIKE 'link.%.drops'")
        params: List = []
        if cell_id is not None:
            sql += " AND s.cell_id = ?"
            params.append(cell_id)
        by_cell: Dict[int, List[Tuple[str, np.ndarray]]] = {}
        for cid, name, columns, n_rows, blob in self._db.execute(
                sql + " ORDER BY s.cell_id, s.name", params):
            cols = json.loads(columns)
            data = np.frombuffer(blob, dtype=np.float64).reshape(
                int(n_rows), len(cols))
            label = name[len("link."):-len(".drops")]
            by_cell.setdefault(int(cid), []).append((label, data))
        out: List[tuple] = []
        for cid, links in sorted(by_cell.items()):
            flows = self._db.execute(
                "SELECT n_flows FROM cells WHERE cell_id = ?",
                (cid,)).fetchone()
            n_flows = int(flows[0]) if flows else 0
            binned: Dict[str, np.ndarray] = {}
            for label, data in links:
                legit = data[data[:, 2] == 0.0]
                if not len(legit):
                    continue
                times, flow_ids = legit[:, 0], legit[:, 1]
                bins = np.floor(times / bin_width).astype(np.int64)
                edges = np.unique(bins)
                counts = np.zeros(int(bins.max()) + 1)
                np.add.at(counts, bins, 1.0)
                binned[label] = counts
                # Per-bin distinct legitimate flows hit: a bin is
                # "synchronized" when at least half the flock lost.
                hit = [len(set(flow_ids[bins == b])) for b in edges]
                sync_bins = sum(
                    1 for n in hit if n_flows and n >= 0.5 * n_flows)
                out.append((
                    cid, label, None, len(legit), len(edges),
                    round(sync_bins / len(edges), 3) if len(edges) else None,
                    None,
                ))
            labels = sorted(binned)
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    size = max(len(binned[a]), len(binned[b]))
                    series_a = np.zeros(size)
                    series_a[:len(binned[a])] = binned[a]
                    series_b = np.zeros(size)
                    series_b[:len(binned[b])] = binned[b]
                    if series_a.std() and series_b.std():
                        corr = float(np.corrcoef(series_a, series_b)[0, 1])
                    else:
                        corr = None
                    out.append((cid, a, b, None, None, None,
                                None if corr is None else round(corr, 3)))
        return names, out


#: canned-query name -> (method name, description) for the CLI.
CANNED_QUERIES = {
    "gamma-star": ("gamma_star",
                   "measured peak-γ per gain-sweep series"),
    "slowest-cells": ("slowest_cells",
                      "most expensive executed cells by wall time"),
    "workers": ("workers",
                "per-worker execution rollup (straggler attribution)"),
    "cache-hits": ("cache_hits",
                   "per-experiment cell accounting by source"),
    "drop-sync": ("drop_sync",
                  "loss-event synchronization from recorded drop series"),
}


def open_readonly(path: Union[str, pathlib.Path]) -> ExperimentStore:
    """Open an existing store for querying.

    Refuses to create one (:class:`FileNotFoundError`) and to touch a
    file that is not a store -- a JSON-lines log, an empty file, an
    sqlite database without an ``experiments`` table -- with a
    :class:`ValueError` naming the path, so opening never writes a
    schema into someone else's file.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such experiment store: {path}")
    if not is_store(path):
        raise ValueError(f"not an experiment store: {path}")
    return ExperimentStore(path)


def is_store(path: Union[str, pathlib.Path]) -> bool:
    """True when *path* is an sqlite database with an ``experiments`` table.

    The probe opens the database read-only, so it never writes.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        return False
    with path.open("rb") as handle:
        if not handle.read(16).startswith(b"SQLite format 3"):
            return False
    db = sqlite3.connect(path.resolve().as_uri() + "?mode=ro", uri=True)
    try:
        return db.execute(
            "SELECT 1 FROM sqlite_master"
            " WHERE type = 'table' AND name = 'experiments'"
        ).fetchone() is not None
    except sqlite3.DatabaseError:
        return False
    finally:
        db.close()
