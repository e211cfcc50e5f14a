"""The sqlite experiment store: schema, round trips, canned queries."""

import json

import numpy as np
import pytest

from repro.core.attack import PulseTrain
from repro.obs.recorder import FlightRecorder
from repro.obs.store import (
    CANNED_QUERIES,
    ExperimentStore,
    is_store,
    open_readonly,
)
from repro.util.units import mbps, ms


@pytest.fixture(scope="module")
def executed_cell():
    """One real executed cell with its flight-recorder capture."""
    from repro.runner import Cell, PlatformSpec, execute_cell

    cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=7),
                warmup=1.0, window=2.0)
    recorder = FlightRecorder()
    result = execute_cell(cell, recorder=recorder)
    return cell, result, recorder.harvest()


def make_store(tmp_path, name="store.sqlite"):
    store = ExperimentStore(tmp_path / name)
    store.begin_run("all", argv=["fig06"], git_sha="abc1234",
                    timestamp=100.0)
    store.begin_experiment("fig06", timestamp=101.0)
    return store


def insert_cell(store, *, key, source="executed", gamma=None, extent=None,
                rate_bps=None, goodput_rate=1000.0, n_flows=5, seed=1,
                elapsed=None, backend="packet", kind="dumbbell",
                worker=None):
    """A synthetic cells row (canned-query tests control every column)."""
    cursor = store._db.execute(
        "INSERT INTO cells (experiment_id, key, source, elapsed, spec,"
        " backend, kind, n_flows, seed, gamma, extent, rate_bps,"
        " goodput_bytes, goodput_rate, worker)"
        " VALUES (?, ?, ?, ?, '{}', ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (store._experiment_id, key, source, elapsed, backend, kind,
         n_flows, seed, gamma, extent, rate_bps,
         goodput_rate * 2.0, goodput_rate, worker),
    )
    store._db.commit()
    return int(cursor.lastrowid)


class TestSchema:
    def test_creates_all_tables(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            names, rows = store.query(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
                " ORDER BY name")
        assert [r[0] for r in rows] == [
            "cells", "experiments", "metrics", "runs", "series"]

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ExperimentStore(path).close()
        with ExperimentStore(path) as store:
            store.begin_run("x")
            assert store.query("SELECT count(*) FROM runs")[1] == [(1,)]

    def test_is_store_by_content_not_extension(self, tmp_path):
        db = tmp_path / "anything.bin"
        ExperimentStore(db).close()
        assert is_store(db)
        log = tmp_path / "runs.jsonl"
        log.write_text('{"record": "run"}\n')
        assert not is_store(log)
        assert not is_store(tmp_path / "absent")

    def test_open_readonly_refuses_to_create(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such"):
            open_readonly(tmp_path / "absent.sqlite")

    @pytest.mark.parametrize("content", [b"", b'{"record": "run"}\n'],
                             ids=["empty", "jsonl"])
    def test_open_readonly_refuses_non_store_without_writing(
            self, tmp_path, content):
        path = tmp_path / "not-a-store"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not an experiment store"):
            open_readonly(path)
        assert path.read_bytes() == content

    def test_open_readonly_refuses_foreign_sqlite_without_writing(
            self, tmp_path):
        import sqlite3

        path = tmp_path / "other.db"
        with sqlite3.connect(path) as db:
            db.execute("CREATE TABLE notes (body TEXT)")
        db.close()
        before = path.read_bytes()
        assert not is_store(path)
        with pytest.raises(ValueError, match="not an experiment store"):
            open_readonly(path)
        assert path.read_bytes() == before


class TestRecordCell:
    def test_series_round_trip_bit_exact(self, tmp_path, executed_cell):
        cell, result, series = executed_cell
        store = make_store(tmp_path)
        cell_id = store.record_cell("deadbeef" * 8, cell, result,
                                    source="executed", elapsed=0.5,
                                    series=series)
        fetched = store.fetch_series(cell_id)
        assert [s.name for s in fetched] == sorted(s.name for s in series)
        by_name = {s.name: s for s in series}
        for item in fetched:
            original = by_name[item.name]
            assert item.columns == original.columns
            assert item.evicted == original.evicted
            # Bit-exact: blobs are raw float64, no text round trip.
            assert np.array_equal(item.data, original.data)

    def test_fetch_single_series_by_name(self, tmp_path, executed_cell):
        cell, result, series = executed_cell
        store = make_store(tmp_path)
        cell_id = store.record_cell("feed" * 16, cell, result,
                                    source="executed", series=series)
        only = store.fetch_series(cell_id, "tcp.cwnd")
        assert [s.name for s in only] == ["tcp.cwnd"]

    def test_find_cells_by_key_prefix(self, tmp_path, executed_cell):
        cell, result, _ = executed_cell
        store = make_store(tmp_path)
        store.record_cell("aabb" * 16, cell, result, source="executed")
        store.record_cell("ccdd" * 16, cell, result, source="cache")
        matches = store.find_cells("aabb")
        assert len(matches) == 1
        assert matches[0][1] == "aabb" * 16
        assert matches[0][2] == "fig06"
        assert matches[0][3] == "executed"

    def test_attack_cell_rows_carry_derived_gamma(self, tmp_path,
                                                  executed_cell):
        _, result, _ = executed_cell
        from repro.runner import Cell, PlatformSpec

        platform = PlatformSpec(kind="dumbbell", n_flows=2, seed=7)
        # Build the train against the platform's real bottleneck: the
        # stored gamma is Eq. 4 relative to the contested link the cell
        # actually runs on.
        bottleneck = platform.to_config().bottleneck_rate_bps
        attack = Cell(
            platform=platform, warmup=1.0, window=2.0,
            train=PulseTrain.from_gamma(
                gamma=0.5, rate_bps=mbps(30), extent=ms(100),
                bottleneck_bps=bottleneck, n_pulses=3),
        )
        store = make_store(tmp_path)
        store.record_cell("aa" * 32, attack, result, source="executed")
        names, rows = store.query(
            "SELECT gamma, extent, rate_bps, n_flows, seed FROM cells")
        gamma, extent, rate_bps, n_flows, seed = rows[0]
        # Eq. 4 over the spec's actual extents/period; from_gamma rounds
        # the period, so the derived gamma lands near the nominal 0.5.
        assert 0.4 < gamma < 0.6
        assert extent == pytest.approx(0.1)
        assert rate_bps == pytest.approx(mbps(30))
        assert (n_flows, seed) == (2, 7)

    def test_baseline_rows_leave_gamma_null(self, tmp_path, executed_cell):
        cell, result, _ = executed_cell  # no train
        store = make_store(tmp_path)
        store.record_cell("bb" * 32, cell, result, source="executed")
        assert store.query("SELECT gamma, extent FROM cells")[1] == [
            (None, None)]


class TestExperimentRecords:
    def test_records_rebuilt_from_rows(self, tmp_path):
        # `repro obs report` renders these: every field the experiment
        # and run rows hold, with JSON payload metrics decoded.
        store = make_store(tmp_path)
        metrics = {"engine.events_dispatched": 1000.0,
                   "engine.wall_seconds": 0.5,
                   "note": "text payload", "flag": True}
        runner = {"cells": 3, "hit_ratio": 0.0}
        store.finish_experiment(elapsed_seconds=1.5, runner=runner,
                                metrics=metrics)
        assert store.experiment_records() == [{
            "name": "fig06", "timestamp": 101.0, "git_sha": "abc1234",
            "full": False, "elapsed_seconds": 1.5, "runner": runner,
            "metrics": metrics,
        }]

    def test_run_accounting_persisted(self, tmp_path):
        store = make_store(tmp_path)
        store.finish_experiment(elapsed_seconds=1.0)
        store.finish_run(elapsed_seconds=2.5, runner={"cells": 4})
        names, rows = store.query(
            "SELECT name, git_sha, elapsed_seconds, runner FROM runs")
        assert rows == [("all", "abc1234", 2.5, '{"cells": 4}')]


class TestCannedQueries:
    def test_registry_names_resolve_to_methods(self, tmp_path):
        store = ExperimentStore(tmp_path / "s.sqlite")
        for name, (method, description) in CANNED_QUERIES.items():
            assert callable(getattr(store, method))
            assert description

    def test_gamma_star_peaks_at_best_mean_gain(self, tmp_path):
        store = make_store(tmp_path)
        for seed in (1, 2):  # baselines: gamma NULL
            insert_cell(store, key=f"base{seed}", seed=seed,
                        goodput_rate=1000.0)
        for seed in (1, 2):  # gain (1-0.6)*(1-0.4) = 0.24
            insert_cell(store, key=f"g40s{seed}", seed=seed, gamma=0.4,
                        extent=0.05, rate_bps=mbps(25), goodput_rate=600.0)
        for seed in (1, 2):  # gain (1-0.7)*(1-0.5) = 0.15
            insert_cell(store, key=f"g50s{seed}", seed=seed, gamma=0.5,
                        extent=0.05, rate_bps=mbps(25), goodput_rate=700.0)
        names, rows = store.gamma_star()
        assert len(rows) == 1
        row = dict(zip(names, rows[0]))
        assert row["experiment"] == "fig06"
        assert row["gamma_star"] == pytest.approx(0.4)
        assert row["gain"] == pytest.approx(0.24)
        assert row["gammas"] == 2
        assert row["cells"] == 4

    def test_gamma_star_ignores_fluid_cells(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="base", goodput_rate=1000.0)
        insert_cell(store, key="fluid", gamma=0.9, extent=0.05,
                    rate_bps=mbps(25), goodput_rate=100.0, backend="fluid")
        assert store.gamma_star()[1] == []

    def test_slowest_cells_orders_executed_by_elapsed(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="fast", elapsed=0.1)
        insert_cell(store, key="slow", elapsed=3.0)
        insert_cell(store, key="hit!", elapsed=9.0, source="cache")
        names, rows = store.slowest_cells(limit=5)
        assert [r[0] for r in rows] == ["slow", "fast"]

    def test_cache_hits_accounts_by_source(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="a", source="executed")
        insert_cell(store, key="b", source="cache")
        insert_cell(store, key="c", source="memo")
        names, rows = store.cache_hits()
        row = dict(zip(names, rows[0]))
        assert row["cells"] == 3
        assert row["executed"] == 1
        assert row["cache_hits"] == 1
        assert row["memo_hits"] == 1
        assert row["hit_ratio"] == pytest.approx(0.667)

    def test_drop_sync_flags_synchronized_loss_bins(self, tmp_path):
        store = make_store(tmp_path)
        cell_id = insert_cell(store, key="sync", n_flows=2)
        # Two loss bins; both legitimate flows lose in each -> the
        # paper's quasi-global synchronization signature (ratio 1.0).
        data = np.array([
            [0.05, 0.0, 0.0], [0.06, 1.0, 0.0],
            [1.05, 0.0, 0.0], [1.06, 1.0, 0.0],
            [1.07, 7.0, 1.0],  # attack drop: excluded
        ])
        store._db.execute(
            "INSERT INTO series (cell_id, name, columns, n_rows, evicted,"
            " rows) VALUES (?, ?, ?, ?, 0, ?)",
            (cell_id, "link.bottleneck.drops",
             json.dumps(["time", "flow_id", "is_attack"]), len(data),
             data.tobytes()))
        store._db.commit()
        names, rows = store.drop_sync(bin_width=0.1)
        row = dict(zip(names, rows[0]))
        assert row["cell"] == cell_id
        assert row["link_a"] == "bottleneck"
        assert row["drops"] == 4  # legitimate only
        assert row["loss_bins"] == 2
        assert row["sync_ratio"] == pytest.approx(1.0)

    def test_drop_sync_correlates_two_links(self, tmp_path):
        store = make_store(tmp_path)
        cell_id = insert_cell(store, key="twolinks", n_flows=2)
        drops = np.array([[0.05, 0.0, 0.0], [1.05, 1.0, 0.0]])
        for label in ("bottleneck", "bottleneck_reverse"):
            store._db.execute(
                "INSERT INTO series (cell_id, name, columns, n_rows,"
                " evicted, rows) VALUES (?, ?, ?, ?, 0, ?)",
                (cell_id, f"link.{label}.drops",
                 json.dumps(["time", "flow_id", "is_attack"]), len(drops),
                 drops.tobytes()))
        store._db.commit()
        names, rows = store.drop_sync(bin_width=0.1)
        pairs = [dict(zip(names, r)) for r in rows
                 if r[names.index("link_b")] is not None]
        assert len(pairs) == 1
        assert pairs[0]["correlation"] == pytest.approx(1.0)


class TestRawQuery:
    def test_query_returns_names_and_rows(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="abc")
        names, rows = store.query(
            "SELECT key, source FROM cells WHERE key = ?", ("abc",))
        assert names == ["key", "source"]
        assert rows == [("abc", "executed")]


class TestWorkerAttribution:
    def test_record_cell_persists_worker(self, tmp_path, executed_cell):
        cell, result, _ = executed_cell
        store = make_store(tmp_path)
        store.record_cell("aa" * 32, cell, result, source="executed",
                          elapsed=0.5, worker="hostA:4242")
        store.record_cell("bb" * 32, cell, result, source="cache")
        names, rows = store.query(
            "SELECT key, worker FROM cells ORDER BY key")
        assert rows == [("aa" * 32, "hostA:4242"), ("bb" * 32, None)]

    def test_slowest_cells_names_the_worker(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="slow", elapsed=3.0, worker="hostB:7")
        insert_cell(store, key="fast", elapsed=0.1)
        names, rows = store.slowest_cells(limit=5)
        assert "worker" in names
        by_key = {row[0]: dict(zip(names, row)) for row in rows}
        assert by_key["slow"]["worker"] == "hostB:7"
        assert by_key["fast"]["worker"] == "-"  # rows with no worker recorded

    def test_workers_rollup_attributes_stragglers(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="a1", elapsed=1.0, worker="hostA:1")
        insert_cell(store, key="a2", elapsed=3.0, worker="hostA:1")
        insert_cell(store, key="b1", elapsed=0.5, worker="hostB:2")
        insert_cell(store, key="hit", source="cache", worker="hostB:2")
        names, rows = store.workers()
        table = [dict(zip(names, row)) for row in rows]
        # Busiest worker first; cache hits are not execution time.
        assert [t["worker"] for t in table] == ["hostA:1", "hostB:2"]
        assert table[0]["cells"] == 2
        assert table[0]["busy_s"] == pytest.approx(4.0)
        assert table[0]["mean_s"] == pytest.approx(2.0)
        assert table[0]["max_s"] == pytest.approx(3.0)
        assert table[1]["cells"] == 1

    def test_workers_is_a_canned_query(self):
        assert "workers" in CANNED_QUERIES

    def test_pre_worker_store_is_migrated(self, tmp_path):
        """Opening a store created before the worker column adds it."""
        path = tmp_path / "old.sqlite"
        store = make_store(tmp_path, name="old.sqlite")
        store.close()
        import sqlite3

        db = sqlite3.connect(str(path))
        db.execute("ALTER TABLE cells DROP COLUMN worker")
        db.commit()
        db.close()
        with ExperimentStore(path) as reopened:
            names, _ = reopened.query("SELECT * FROM cells LIMIT 0")
            assert "worker" in names
