"""The command-line experiment runner."""

import io
import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_listed(self):
        expected = {
            "fig01", "fig02", "fig03a", "fig03b", "fig04", "fig06", "fig07",
            "fig08", "fig09", "fig10", "fig12", "ablation-queues",
            "ablation-model", "ablation-victim", "flow-damage", "detection",
            "defense-rto", "defense-choke", "replication", "distributed", "mice-elephants",
            "multi-bottleneck",
        }
        assert set(EXPERIMENTS) == expected

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_full_flag(self):
        args = build_parser().parse_args(["fig04", "--full"])
        assert args.full

    def test_output_dir(self, tmp_path):
        args = build_parser().parse_args(["fig04", "-o", str(tmp_path)])
        assert args.output_dir == tmp_path

    def test_runner_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig06", "-j", "4", "--no-cache", "--cache-dir", str(tmp_path)]
        )
        assert args.jobs == 4
        assert args.no_cache
        assert args.cache_dir == tmp_path

    def test_runner_flag_defaults(self):
        args = build_parser().parse_args(["fig06"])
        assert args.jobs == 1
        assert not args.no_cache
        assert args.cache_dir is None
        assert not args.no_warm_start

    def test_no_warm_start_flag_disables_checkpointing(self):
        from repro.cli import _make_runner

        args = build_parser().parse_args(["fig06", "--no-warm-start",
                                          "--no-cache"])
        assert args.no_warm_start
        assert _make_runner(args).warm_start is False
        default = build_parser().parse_args(["fig06", "--no-cache"])
        assert _make_runner(default).warm_start is True

    def test_store_flag_off_by_default(self):
        args = build_parser().parse_args(["fig04"])
        assert args.store is None
        assert not args.record
        assert not args.verbose
        assert not args.quiet

    def test_store_flag_with_path(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        args = build_parser().parse_args(["fig04", "--store", str(path)])
        assert args.store == path

    def test_verbose_and_quiet_are_exclusive(self):
        assert build_parser().parse_args(["fig04", "-v"]).verbose
        assert build_parser().parse_args(["fig04", "-q"]).quiet
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig04", "-v", "-q"])


class TestMain:
    def test_list_prints_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_runs_analytic_experiment(self, capsys, tmp_path):
        assert main(["fig04", "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "risk" in out
        assert (tmp_path / "fig04.txt").exists()

    def test_full_sets_env(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        import os
        main(["fig04", "--full"])
        assert os.environ.get("REPRO_FULL") == "1"

    def test_installs_configured_default_runner(self, capsys, tmp_path):
        from repro.runner import get_default_runner

        assert main(["fig04", "-j", "2", "--cache-dir", str(tmp_path)]) == 0
        runner = get_default_runner()
        assert runner.jobs == 2
        assert runner.cache.directory == tmp_path
        assert "[total: cells:" in capsys.readouterr().out

    def test_no_cache_disables_disk_cache(self, capsys):
        from repro.runner import get_default_runner

        assert main(["fig04", "--no-cache"]) == 0
        assert get_default_runner().cache is None

    def test_quiet_suppresses_timing_but_keeps_rendering(self, capsys):
        assert main(["fig04", "-q"]) == 0
        out = capsys.readouterr().out
        assert "risk" in out
        assert "[total:" not in out
        assert "[fig04:" not in out

    def test_verbose_shows_per_cell_lines(self, capsys):
        assert main(["fig01", "-v", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "executed in" in out  # per-cell debug line


class TestObsReport:
    def test_report_renders_store(self, capsys, tmp_path):
        db = tmp_path / "runlog.sqlite"
        assert main(["fig01", "--no-cache", "--store", str(db)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(db)]) == 0
        out = capsys.readouterr().out
        assert "kev/s" in out
        assert "1 records" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("fig01"))
        # Every column is filled: wall, cells, hit %, events, kev/s,
        # goodput, drop %.
        assert "-" not in row.split()[1:]

    def test_report_missing_log_fails(self, capsys, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert main(["obs", "report", str(path)]) == 1
        assert f"no such experiment store: {path}" in capsys.readouterr().err


class TestNonStoreInput:
    """A path that is not an sqlite store is named and left untouched."""

    @pytest.mark.parametrize("content", [b"", b'{"name": "fig06"}\n'],
                             ids=["empty", "jsonl"])
    @pytest.mark.parametrize("command", [
        ["obs", "report", "{path}"],
        ["obs", "query", "gamma-star", "--store", "{path}"],
        ["obs", "trace", "1", "--store", "{path}"],
    ], ids=["report", "query", "trace"])
    def test_named_error_and_file_unchanged(self, capsys, tmp_path,
                                            command, content):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(content)
        argv = [arg.format(path=path) for arg in command]
        assert main(argv) == 1
        assert (f"not an experiment store: {path}"
                in capsys.readouterr().err)
        assert path.read_bytes() == content


class TestStoreFlag:
    def test_bare_store_flag_uses_default_path(self):
        from repro.cli import DEFAULT_STORE

        args = build_parser().parse_args(["fig04", "--store"])
        assert args.store == DEFAULT_STORE
        assert not args.record

    def test_record_requires_store(self, capsys):
        assert main(["fig04", "--record"]) == 2
        assert "--record requires --store" in capsys.readouterr().err

    def test_records_run_experiment_and_metrics(self, capsys, tmp_path):
        from repro.cli import git_sha
        from repro.obs.store import is_store, open_readonly

        db = tmp_path / "runlog.sqlite"
        argv = ["fig01", "--no-cache", "--store", str(db)]
        assert main(argv) == 0
        assert f"[experiment store -> {db}]" in capsys.readouterr().out
        assert is_store(db)
        with open_readonly(db) as store:
            [experiment] = store.experiment_records()
            runs = store.query(
                "SELECT name, git_sha, argv, runner FROM runs")[1]
        assert experiment["name"] == "fig01"
        assert experiment["elapsed_seconds"] > 0
        assert experiment["git_sha"] == git_sha()
        metrics = experiment["metrics"]
        assert metrics["engine.events_dispatched"] > 0
        assert any(key.startswith("link.bottleneck.") for key in metrics)
        assert any(key.startswith("tcp.") for key in metrics)
        # fig01 simulates directly rather than through runner cells, but
        # the accounting block is still present on both rows.
        assert experiment["runner"]["hit_ratio"] == 0.0
        [(name, sha, run_argv, runner)] = runs
        assert (name, sha) == ("fig01", git_sha())
        assert json.loads(run_argv) == argv
        assert json.loads(runner)["worker_utilization"] is None

    def test_experiment_row_belongs_to_its_run(self, capsys, tmp_path):
        from repro.obs.store import is_store, open_readonly

        db = tmp_path / "runlog.sqlite"
        assert main(["fig01", "--no-cache", "--store", str(db)]) == 0
        assert is_store(db)
        with open_readonly(db) as store:
            assert store.query("SELECT name FROM runs")[1] == [("fig01",)]
            assert (store.query("SELECT name FROM experiments")[1]
                    == [("fig01",)])
            [(linked,)] = store.query(
                "SELECT count(*) FROM experiments e"
                " JOIN runs r ON e.run_id = r.run_id")[1]
            [(timestamp,)] = store.query(
                "SELECT timestamp FROM experiments")[1]
            [record] = store.experiment_records()
        assert linked == 1
        # The record is rebuilt from the stored rows, not kept aside.
        assert record["timestamp"] == timestamp

    def test_appends_across_invocations(self, capsys, tmp_path):
        from repro.obs.store import open_readonly

        db = tmp_path / "runlog.sqlite"
        assert main(["fig04", "--store", str(db)]) == 0
        assert main(["fig04", "--store", str(db)]) == 0
        with open_readonly(db) as store:
            assert store.query("SELECT count(*) FROM runs")[1] == [(2,)]
            assert [r["name"] for r in store.experiment_records()] == [
                "fig04", "fig04"]

    def test_registry_disabled_after_run(self, capsys, tmp_path):
        from repro.obs import metrics

        main(["fig04", "--store", str(tmp_path / "runlog.sqlite")])
        assert metrics.active() is None

    def test_recorded_cells_land_in_store(self, capsys, tmp_path):
        # fig06 at smoke scale exercises the full path: runner cells,
        # per-cell rows keyed by the cache key, recorded series.
        from repro.experiments.fig06_09_gain import run_gain_figure
        from repro.obs.store import ExperimentStore
        from repro.runner import ExperimentRunner, set_default_runner
        from repro.util.units import ms

        db = tmp_path / "runlog.sqlite"
        store = ExperimentStore(db)
        store.begin_run("fig06")
        store.begin_experiment("fig06")
        previous = set_default_runner(None)
        try:
            runner = ExperimentRunner(jobs=1)
            runner.attach_store(store, record_series=True)
            set_default_runner(runner)
            figure = run_gain_figure(6, flow_counts=[2],
                                     extents=[ms(100)], gammas=(0.4, 0.7))
        finally:
            set_default_runner(previous)
        store.finish_experiment()

        names, cells = store.query(
            "SELECT cell_id, gamma, source FROM cells ORDER BY cell_id")
        assert cells  # one row per resolved cell
        assert {c[2] for c in cells} <= {"executed", "cache", "memo"}
        n_series = store.query("SELECT count(*) FROM series")[1][0][0]
        assert n_series > 0

        # gamma-star answers the figure's own peak-gamma question.
        points = figure.all_curves()[0].points
        best = max(points, key=lambda p: p.measured_gain)
        names, rows = store.gamma_star()
        row = dict(zip(names, rows[0]))
        assert row["gamma_star"] == pytest.approx(best.gamma, abs=0.05)
        store.close()

        assert main(["obs", "query", "gamma-star", "--store",
                     str(db)]) == 0
        out = capsys.readouterr().out
        assert "gamma_star" in out
        assert "fig06" in out


class TestObsQuery:
    @staticmethod
    def small_store(tmp_path):
        from repro.obs.store import ExperimentStore

        db = tmp_path / "store.sqlite"
        store = ExperimentStore(db)
        store.begin_run("fig06")
        store.begin_experiment("fig06")
        store._db.execute(
            "INSERT INTO cells (experiment_id, key, source, elapsed, spec,"
            " backend, kind, n_flows, seed, goodput_bytes, goodput_rate)"
            " VALUES (?, 'abcd1234', 'executed', 1.5, '{}', 'packet',"
            " 'dumbbell', 2, 7, 100.0, 50.0)", (store._experiment_id,))
        store._db.commit()
        store.close()
        return db

    def test_raw_sql(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query",
                     "SELECT key, n_flows FROM cells",
                     "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "abcd1234" in out
        assert "(1 row)" in out

    def test_canned_query(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query", "cache-hits", "--store",
                     str(db)]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "executed" in out

    def test_missing_store_fails(self, capsys, tmp_path):
        assert main(["obs", "query", "cache-hits", "--store",
                     str(tmp_path / "absent.sqlite")]) == 1
        assert "no such experiment store" in capsys.readouterr().err

    def test_bad_sql_fails_cleanly(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query", "SELECT nope FROM nowhere",
                     "--store", str(db)]) == 1
        assert "query failed" in capsys.readouterr().err

    def test_limit_truncates_rows(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query", "SELECT * FROM cells", "--limit",
                     "0", "--store", str(db)]) == 0
        assert "(0 rows)" in capsys.readouterr().out


class TestObsTrace:
    @staticmethod
    def recorded_store(tmp_path):
        import numpy as np

        from repro.obs.recorder import Series
        from repro.obs.store import ExperimentStore

        db = tmp_path / "store.sqlite"
        store = ExperimentStore(db)
        store.begin_run("fig06")
        store.begin_experiment("fig06")
        queue = Series("link.bottleneck.queue",
                       ("time", "queue_bytes", "queue_packets"),
                       np.array([[0.1, 1500.0, 1.0], [0.2, 3000.0, 2.0],
                                 [0.3, 0.1 + 0.2, 0.0]]))
        cwnd = Series("tcp.cwnd", ("time", "flow_id", "cwnd"),
                      np.array([[0.1, 0.0, 2.0]]))
        store._db.execute(
            "INSERT INTO cells (experiment_id, key, source, spec, backend,"
            " kind, n_flows, seed, goodput_bytes, goodput_rate)"
            " VALUES (?, 'abcd1234', 'executed', '{}', 'packet',"
            " 'dumbbell', 2, 7, 100.0, 50.0)", (store._experiment_id,))
        cell_id = store._db.execute(
            "SELECT max(cell_id) FROM cells").fetchone()[0]
        import json as json_module
        for series in (queue, cwnd):
            store._db.execute(
                "INSERT INTO series (cell_id, name, columns, n_rows,"
                " evicted, rows) VALUES (?, ?, ?, ?, 0, ?)",
                (cell_id, series.name,
                 json_module.dumps(list(series.columns)), series.n_rows,
                 series.data.tobytes()))
        store._db.commit()
        store.close()
        return db, cell_id, queue

    def test_lists_series_without_export(self, capsys, tmp_path):
        db, cell_id, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", str(cell_id), "--store",
                     str(db)]) == 0
        out = capsys.readouterr().out
        assert "link.bottleneck.queue" in out
        assert "tcp.cwnd" in out

    def test_resolves_cell_by_key_prefix(self, capsys, tmp_path):
        db, _, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", "abcd", "--store", str(db)]) == 0
        assert "tcp.cwnd" in capsys.readouterr().out

    def test_csv_export_round_trips_exactly(self, capsys, tmp_path):
        import numpy as np

        db, cell_id, queue = self.recorded_store(tmp_path)
        out_path = tmp_path / "queue.csv"
        assert main(["obs", "trace", str(cell_id),
                     "--series", "link.bottleneck.queue",
                     "--export", "csv", "-o", str(out_path),
                     "--store", str(db)]) == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "time,queue_bytes,queue_packets"
        parsed = np.loadtxt(out_path, delimiter=",", skiprows=1)
        # %.17g preserves every float64 bit, 0.1+0.2 included.
        assert np.array_equal(parsed, queue.data)

    def test_npz_export_carries_all_series(self, capsys, tmp_path):
        import numpy as np

        db, cell_id, queue = self.recorded_store(tmp_path)
        out_path = tmp_path / "trace.npz"
        assert main(["obs", "trace", str(cell_id), "--export", "npz",
                     "-o", str(out_path), "--store", str(db)]) == 0
        archive = np.load(out_path)
        assert np.array_equal(archive["link.bottleneck.queue"],
                              queue.data)
        assert list(archive["tcp.cwnd.columns"]) == [
            "time", "flow_id", "cwnd"]

    def test_csv_export_of_multiple_series_refused(self, capsys,
                                                   tmp_path):
        db, cell_id, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", str(cell_id), "--export", "csv",
                     "--store", str(db)]) == 1
        assert "exactly one series" in capsys.readouterr().err

    def test_unknown_cell_fails(self, capsys, tmp_path):
        db, _, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", "9999", "--store", str(db)]) == 1
        assert "no such cell_id" in capsys.readouterr().err


class TestFastAndJobsFlags:
    def test_fast_flag_parses_off_by_default(self):
        assert not build_parser().parse_args(["fig04"]).fast
        assert build_parser().parse_args(["fig04", "--fast"]).fast

    def test_fast_sets_env(self, monkeypatch, capsys):
        import os

        monkeypatch.delenv("REPRO_FAST", raising=False)
        # fig01 is a cwnd trace -- unaffected by the planner, so this
        # stays cheap while still exercising the env hand-off.
        assert main(["fig01", "--fast", "--no-cache"]) == 0
        assert os.environ.get("REPRO_FAST") == "1"

    def test_non_positive_jobs_rejected_by_name(self):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="--jobs"):
            main(["fig04", "-j", "0"])
        with pytest.raises(ValidationError, match="--jobs"):
            main(["fig04", "--jobs", "-3"])

    def test_non_integer_jobs_rejected_by_argparse(self):
        # argparse's type=int still screens non-numeric values.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig04", "-j", "two"])


class TestRunnerJobsValidation:
    def test_runner_rejects_non_positive_jobs(self):
        from repro.runner import ExperimentRunner
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="jobs"):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValidationError, match="got -1"):
            ExperimentRunner(jobs=-1)

    def test_runner_rejects_non_integer_jobs(self):
        from repro.runner import ExperimentRunner
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="must be an integer"):
            ExperimentRunner(jobs=2.5)
        with pytest.raises(ValidationError, match="must be an integer"):
            ExperimentRunner(jobs=True)

    def test_check_jobs_names_its_source(self):
        from repro.runner import check_jobs
        from repro.util.errors import ValidationError

        assert check_jobs(4) == 4
        with pytest.raises(ValidationError, match="REPRO_JOBS"):
            check_jobs(0, source="REPRO_JOBS")


class TestDryRunFlag:
    def test_plans_without_executing(self, capsys, tmp_path):
        from repro.runner import get_default_runner

        assert main(["fig06", "--dry-run", "--no-cache",
                     "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dry run:" in out
        assert "to execute" in out
        assert "warm-up prefixes to simulate" in out
        # Planning leaves no trace: nothing executed, nothing written.
        assert get_default_runner().stats.executed == 0
        assert not (tmp_path / "fig06.txt").exists()

    def test_rejects_observability_sinks(self, capsys, tmp_path):
        for extra in (["--store", str(tmp_path / "s.sqlite")],
                      ["--store", str(tmp_path / "s.sqlite"), "--record"]):
            assert main(["fig01", "--dry-run", *extra]) == 2
            assert "cannot be combined" in capsys.readouterr().err


class TestGitSha:
    def test_git_sha_in_this_checkout(self):
        # The repo is a git checkout, so a short SHA should come back;
        # the function contract allows None only outside a checkout.
        from repro.cli import git_sha

        sha = git_sha()
        assert sha is None or (isinstance(sha, str) and len(sha) >= 7)

    def test_git_sha_cached_per_process(self, monkeypatch):
        # One subprocess call per process: the cached value answers
        # repeat calls even if git stops working mid-run.
        from repro.cli import git_sha

        git_sha.cache_clear()
        try:
            first = git_sha()

            def boom(*args, **kwargs):
                raise OSError("git gone")

            monkeypatch.setattr(subprocess, "run", boom)
            assert git_sha() == first      # served from the cache
            git_sha.cache_clear()
            assert git_sha() is None       # a cold call really shells out
        finally:
            git_sha.cache_clear()


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_piped_run_exits_quietly(self):
        # `repro fig06 --dry-run --no-cache | head`, with the reader
        # gone before the first write.
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fig06", "--dry-run",
             "--no-cache"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert "Logging error" not in err
        assert "Traceback" not in err

    def test_in_process_main_returns_exit_status(self, capsys,
                                                 monkeypatch):
        # main() points the "repro" logger at the closed stdout; hand
        # the logger its previous handlers back afterwards.
        logger = logging.getLogger("repro")
        monkeypatch.setattr(logger, "handlers", list(logger.handlers))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["fig04", "--no-cache"]) == 141
        assert capsys.readouterr().err == ""

    def test_log_handler_lets_a_closed_pipe_propagate(self):
        # The stock handler would print a "Logging error" traceback and
        # carry on; the CLI's handler hands the error to main().
        from repro.cli import _StdoutHandler

        handler = _StdoutHandler(_ClosedPipe())
        with pytest.raises(BrokenPipeError):
            handler.handle(logging.makeLogRecord({"msg": "progress"}))
