"""Command-line experiment runner: ``python -m repro.cli <experiment>``.

Runs any of the reproduction's experiments from the shell and prints
the rendered series -- the same output the benchmark harness archives.

Examples::

    python -m repro.cli list
    python -m repro.cli fig03a
    python -m repro.cli fig06 --full
    python -m repro.cli all -o results/

``--full`` sets ``REPRO_FULL=1`` for the invocation (paper-scale
sweeps); ``-o DIR`` additionally writes each rendering to
``DIR/<name>.txt``.

``--jobs N`` fans independent measurement cells out over N worker
processes (one persistent pool per invocation); ``--cache-dir DIR`` /
``--no-cache`` control the on-disk result cache (default:
``$XDG_CACHE_HOME/repro-pdos``).  Cells sharing an attack-free warm-up
prefix simulate it once and fork from a frozen snapshot;
``--no-warm-start`` re-simulates every warm-up instead.  Results are
bit-identical regardless of job count, cache state, or warm-start mode.

``--dry-run`` plans instead of executing: each experiment prints the
cells it would resolve -- executions, cache hits, memo hits -- and the
warm-up prefixes it would simulate, then exits without running any
simulation (cells that would execute resolve to placeholders).

``--profile`` wraps each experiment in :func:`repro.sim.profile.profile_run`
and prints wall time, simulator events/sec, and the hottest functions
after the rendering.  Profile the default serial mode (``--jobs 1``,
ideally ``--no-cache``): cells executed by worker processes or answered
from the cache dispatch no simulator events in this process.

Observability: diagnostics go through the ``repro`` logger (``-v`` for
per-cell debug lines, ``-q`` for renderings only).  ``--store [PATH]``
records the run in an sqlite experiment store (default
``runlog.sqlite``): it enables the metrics registry per experiment and
writes runs (git SHA, argv), experiments (timings, runner accounting,
engine/link/TCP metrics), and per-cell rows keyed by the result cache's
content-hash key.  ``repro obs report STORE [STORE...]`` renders a
summary table from stores (``--sort``/``--last`` order and trim the
rows); ``repro obs query`` runs raw SQL or the canned
``gamma-star``/``slowest-cells``/``workers``/``cache-hits``/
``drop-sync`` queries.  Note: cells answered from the cache or executed
in worker processes contribute runner metrics but no in-process
engine/link/TCP metrics; run with ``--no-cache`` serially for a full
simulation snapshot.  ``--record`` also attaches the in-sim flight
recorder (:mod:`repro.obs.recorder`) to every executed packet cell and
stores its time series -- arrival rates, drops, queue depth, cwnd,
recovery events -- for ``repro obs trace <cell> --export csv|npz``.
Both are passive: results stay bit-identical.

When stdout closes early (``repro fig06 | head``), the CLI stops
quietly with exit status 141 (128 + SIGPIPE, what a shell reports for
a process a closed pipe ended).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import pathlib
import sys
import time
from typing import Callable, Dict, Optional

__all__ = ["main", "EXPERIMENTS", "git_sha"]

_log = logging.getLogger("repro.cli")

#: where ``--store`` writes (and ``obs query``/``trace`` read) when no
#: path is given.
DEFAULT_STORE = pathlib.Path("runlog.sqlite")

#: exit status when stdout closes early (128 + SIGPIPE).
EXIT_CLOSED_STDOUT = 141


@functools.lru_cache(maxsize=1)
def git_sha() -> Optional[str]:
    """The current checkout's short commit SHA, or ``None``.

    Best-effort provenance for a store's ``runs`` row: any failure (no
    git binary, not a checkout, timeout) degrades to ``None`` rather
    than raising.  Cached per process (``git_sha.cache_clear()``
    resets): the SHA cannot change mid-run.
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _fig06():  # deferred imports keep `--help` fast
    from repro.experiments import run_gain_figure
    return run_gain_figure(6).render()


def _fig07():
    from repro.experiments import run_gain_figure
    return run_gain_figure(7).render()


def _fig08():
    from repro.experiments import run_gain_figure
    return run_gain_figure(8).render()


def _fig09():
    from repro.experiments import run_gain_figure
    return run_gain_figure(9).render()


def _fig01():
    from repro.experiments import run_fig01
    return run_fig01().render()


def _fig02():
    from repro.experiments import run_fig02
    return run_fig02().render()


def _fig03a():
    from repro.experiments import run_fig03_ns2
    return run_fig03_ns2().render()


def _fig03b():
    from repro.experiments import run_fig03_testbed
    return run_fig03_testbed().render()


def _fig04():
    from repro.experiments import run_fig04
    return run_fig04().render()


def _fig10():
    from repro.experiments import run_fig10
    return run_fig10().render()


def _fig12():
    from repro.experiments import run_fig12
    return run_fig12().render()


def _ablation_queues():
    from repro.experiments import run_queue_ablation
    return run_queue_ablation().render()


def _ablation_model():
    from repro.experiments import run_model_ablation
    return run_model_ablation().render()


def _detection():
    from repro.experiments import run_detection_evasion
    return run_detection_evasion().render()


def _defense_rto():
    from repro.experiments import run_rto_randomization
    return run_rto_randomization().render()


def _defense_choke():
    from repro.experiments import run_aqm_hardening
    return run_aqm_hardening().render()


def _ablation_victim():
    from repro.experiments import run_victim_ablation
    return run_victim_ablation().render()


def _flow_damage():
    from repro.experiments import run_flow_damage
    return run_flow_damage().render()


def _distributed():
    from repro.experiments import run_distributed_attack
    return run_distributed_attack().render()


def _mice_elephants():
    from repro.experiments import run_mice_elephants
    return run_mice_elephants().render()


def _multi_bottleneck():
    from repro.experiments import run_multi_bottleneck
    return run_multi_bottleneck().render()


def _replication():
    from repro.experiments.replication import replicate_gain_sweep
    return replicate_gain_sweep().render()


#: experiment name -> zero-argument runner returning rendered text.
EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "fig01": _fig01,
    "fig02": _fig02,
    "fig03a": _fig03a,
    "fig03b": _fig03b,
    "fig04": _fig04,
    "fig06": _fig06,
    "fig07": _fig07,
    "fig08": _fig08,
    "fig09": _fig09,
    "fig10": _fig10,
    "fig12": _fig12,
    "ablation-queues": _ablation_queues,
    "ablation-model": _ablation_model,
    "ablation-victim": _ablation_victim,
    "flow-damage": _flow_damage,
    "distributed": _distributed,
    "mice-elephants": _mice_elephants,
    "multi-bottleneck": _multi_bottleneck,
    "detection": _detection,
    "defense-rto": _defense_rto,
    "defense-choke": _defense_choke,
    "replication": _replication,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the figures of 'Optimizing the Pulsing "
            "Denial-of-Service Attacks' (Luo & Chang, DSN 2005)."
        ),
        epilog=(
            "Store tooling: 'repro obs report STORE [STORE...]' renders "
            "a summary table from experiment stores (--store); 'repro "
            "obs query' runs canned or raw SQL queries against a store; "
            "'repro obs trace' exports a cell's recorded time series."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="experiment to run ('list' prints the catalogue, 'all' runs "
             "everything)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale sweeps (sets REPRO_FULL=1; much slower)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each experiment under cProfile and print wall time, "
             "simulator events/sec, and the hottest functions (results "
             "are unchanged; profiling is observation only)",
    )
    parser.add_argument(
        "-o", "--output-dir", type=pathlib.Path, default=None,
        help="also write each rendering to DIR/<name>.txt",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="run independent measurement cells on N worker processes "
             "(default: 1, serial)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="plan instead of executing: print each experiment's cells "
             "(to execute / cache hits / memo hits) and the warm-up "
             "prefixes it would simulate, then exit without simulating",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--no-warm-start", action="store_true",
        help="disable warm-start checkpointing (simulate every cell's "
             "warm-up from scratch instead of forking a shared snapshot; "
             "results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR, else "
             "$XDG_CACHE_HOME/repro-pdos)",
    )
    parser.add_argument(
        "--store", type=pathlib.Path, nargs="?", const=DEFAULT_STORE,
        default=None, metavar="PATH",
        help="enable the metrics registry and record the run in an "
             f"sqlite experiment store at PATH (default: {DEFAULT_STORE}"
             "): runs, experiments, per-cell rows keyed by the "
             "result-cache content hash, and metrics; read with "
             "'repro obs report/query'; place the flag after the "
             "experiment name when omitting PATH",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="with --store, attach the in-sim flight recorder to every "
             "executed packet cell and store its time series (arrival "
             "rate, drops, queue depth, cwnd, recovery) for "
             "'repro obs trace'; passive, results are bit-identical",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug logging (per-cell cache/execution lines)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress/timing lines (renderings only)",
    )
    return parser


class _StdoutHandler(logging.StreamHandler):
    """A stdout log handler that lets a closed pipe end the run.

    The stock handler reports a failed write as a ``Logging error``
    traceback on stderr and carries on; re-raising ``BrokenPipeError``
    lets :func:`main` stop quietly instead.
    """

    def handleError(self, record) -> None:
        if isinstance(sys.exc_info()[1], BrokenPipeError):
            raise
        super().handleError(record)


def _configure_logging(*, verbose: bool = False, quiet: bool = False) -> None:
    """Point the ``repro`` logger at the current stdout.

    Recreated on every :func:`main` call so repeated in-process
    invocations (tests, notebooks) follow stream redirection; renderings
    stay on plain ``print`` -- they are the program's output, while log
    lines are its diagnostics.
    """
    level = logging.DEBUG if verbose else (
        logging.WARNING if quiet else logging.INFO)
    logger = logging.getLogger("repro")
    logger.handlers.clear()
    handler = _StdoutHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False


def _make_runner(args):  # deferred import keeps `--help` fast
    from repro.runner import ExperimentRunner, check_jobs, default_cache_dir
    # Validated here rather than via an argparse type callable:
    # ValidationError is a ValueError, which argparse would swallow into
    # a bare exit-2 usage message instead of naming flag and value.
    check_jobs(args.jobs, source="--jobs")
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    return ExperimentRunner(jobs=args.jobs, cache_dir=cache_dir,
                            warm_start=not args.no_warm_start,
                            dry_run=args.dry_run)


def _run_one(name: str, output_dir, runner=None, profile=False,
             store=None) -> None:
    from repro.obs import metrics as obs_metrics

    if runner is not None and runner.dry_run:
        # Plan only: run the experiment driver (it plans its batches
        # through the dry-run runner) and print the plan, not the
        # placeholder-derived rendering.
        plan = runner.dry_run_plan
        plan_mark, dup_mark = len(plan.entries), plan.duplicates
        started = time.time()
        EXPERIMENTS[name]()
        print(f"{name}:")
        print(plan.render(plan_mark, duplicates=plan.duplicates - dup_mark))
        _log.info("[%s: planned in %.1fs]\n", name, time.time() - started)
        return

    started = time.time()
    mark = runner.stats.checkpoint() if runner is not None else None
    registry = None
    if store is not None:
        # A fresh registry per experiment: each experiment row then
        # snapshots exactly one experiment's telemetry, not the whole
        # invocation's.  The row opens before any cell runs: cell rows
        # attach to it.
        registry = obs_metrics.enable()
        store.begin_experiment(name, timestamp=started)
    try:
        if profile:
            from repro.sim.profile import profile_run
            text, report = profile_run(EXPERIMENTS[name], label=name)
        else:
            text = EXPERIMENTS[name]()
            report = None
    finally:
        if registry is not None:
            obs_metrics.disable()
    elapsed = time.time() - started
    print(text)
    if report is not None:
        print(report.render())
    if mark is not None:
        _log.info("[%s: %.1fs; %s]\n", name, elapsed,
                  runner.stats.since(mark))
    else:
        _log.info("[%s: %.1fs]\n", name, elapsed)
    if store is not None:
        store.finish_experiment(
            elapsed_seconds=elapsed,
            runner=(runner.stats.delta_snapshot(mark)
                    if mark is not None else None),
            metrics=registry.snapshot())
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{name}.txt").write_text(text + "\n")


def _render_table(names, rows) -> str:
    """Fixed-width text table for query results (``None`` prints ``-``)."""
    if not names:
        return "(no results)"
    text = [[("-" if v is None else str(v)) for v in row] for row in rows]
    widths = [max([len(n)] + [len(row[i]) for row in text])
              for i, n in enumerate(names)]
    lines = ["  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in text:
        lines.append("  ".join(v.ljust(w)
                               for v, w in zip(row, widths)).rstrip())
    lines.append(f"({len(rows)} row{'' if len(rows) == 1 else 's'})")
    return "\n".join(lines)


def _open_store(path):
    """The store at *path*, or ``None`` after printing why it won't open."""
    from repro.obs.store import open_readonly

    try:
        return open_readonly(path)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return None


def _obs_query(args) -> int:
    import sqlite3

    from repro.obs.store import CANNED_QUERIES

    store = _open_store(args.store)
    if store is None:
        return 1
    with store:
        canned = CANNED_QUERIES.get(args.sql)
        try:
            if canned is not None:
                names, rows = getattr(store, canned[0])()
            else:
                names, rows = store.query(args.sql)
        except sqlite3.Error as exc:
            print(f"query failed: {exc}", file=sys.stderr)
            return 1
        if args.limit is not None:
            rows = rows[:args.limit]
        print(_render_table(names, rows))
    return 0


def _resolve_cell(store, token: str):
    """A ``cell_id`` from a numeric id or an unambiguous key prefix."""
    if token.isdigit():
        rows = store.query(
            "SELECT cell_id FROM cells WHERE cell_id = ?", (int(token),))[1]
        if rows:
            return int(token), None
        return None, f"no such cell_id: {token}"
    matches = store.find_cells(token)
    if not matches:
        return None, f"no cell matches key prefix {token!r}"
    if len(matches) > 1:
        listing = "\n".join(
            f"  {cid}  {key[:16]}...  {name} ({source})"
            for cid, key, name, source in matches[:10])
        return None, (f"key prefix {token!r} is ambiguous "
                      f"({len(matches)} cells):\n{listing}")
    return int(matches[0][0]), None


def _obs_trace(args) -> int:
    import numpy as np

    store = _open_store(args.store)
    if store is None:
        return 1
    with store:
        cell_id, error = _resolve_cell(store, args.cell)
        if error:
            print(error, file=sys.stderr)
            return 1
        series = store.fetch_series(cell_id, args.series)
        if not series:
            what = (f"series {args.series!r}" if args.series
                    else "recorded series")
            print(f"cell {cell_id} has no {what} "
                  "(was the run made with --store --record?)",
                  file=sys.stderr)
            return 1
        if args.export is None:
            print(_render_table(
                ["name", "rows", "evicted", "columns"],
                [(s.name, s.n_rows, s.evicted, ",".join(s.columns))
                 for s in series]))
            return 0
        path = args.output
        if path is None:
            path = pathlib.Path(f"cell-{cell_id}.{args.export}")
        if args.export == "csv":
            if len(series) > 1:
                print("csv export needs exactly one series; pick one with "
                      "--series from: "
                      + ", ".join(s.name for s in series), file=sys.stderr)
                return 1
            item = series[0]
            # %.17g round-trips float64 exactly, so an exported series
            # re-parses bit-identical to the in-memory samples.
            np.savetxt(path, item.data, delimiter=",", fmt="%.17g",
                       header=",".join(item.columns), comments="")
        else:
            arrays = {}
            for item in series:
                arrays[item.name] = item.data
                arrays[item.name + ".columns"] = np.array(item.columns)
            np.savez(path, **arrays)
        print(f"wrote {len(series)} series "
              f"({sum(s.n_rows for s in series)} rows) -> {path}")
    return 0


def _obs_main(argv) -> int:
    """The ``repro obs ...`` tooling subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Inspect experiment stores (--store).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report", help="render a summary table from experiment stores",
    )
    report.add_argument(
        "stores", nargs="+", type=pathlib.Path, metavar="STORE",
        help="sqlite experiment stores written by --store",
    )
    report.add_argument(
        "--sort", choices=("time", "name", "elapsed"), default="time",
        help="row order: arrival time (default), name, or wall time "
             "(most expensive first)",
    )
    report.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="keep only the N most recent records",
    )
    query = commands.add_parser(
        "query", help="run a canned or raw SQL query against a store",
    )
    query.add_argument(
        "sql",
        help="canned query name (gamma-star, slowest-cells, workers, "
             "cache-hits, drop-sync) or a raw SQL statement",
    )
    query.add_argument(
        "--store", type=pathlib.Path, default=DEFAULT_STORE, metavar="PATH",
        help=f"experiment store to query (default: {DEFAULT_STORE})",
    )
    query.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N result rows",
    )
    trace = commands.add_parser(
        "trace", help="list or export a cell's recorded time series",
    )
    trace.add_argument(
        "cell", help="cell_id or content-hash key prefix (see "
                     "'repro obs query slowest-cells')",
    )
    trace.add_argument(
        "--series", default=None, metavar="NAME",
        help="series name (e.g. link.bottleneck.queue); default: all",
    )
    trace.add_argument(
        "--export", choices=("csv", "npz"), default=None,
        help="write the series to a file instead of listing them "
             "(csv needs exactly one series)",
    )
    trace.add_argument(
        "-o", "--output", type=pathlib.Path, default=None, metavar="PATH",
        help="export path (default: cell-<id>.<ext>)",
    )
    trace.add_argument(
        "--store", type=pathlib.Path, default=DEFAULT_STORE, metavar="PATH",
        help=f"experiment store to read (default: {DEFAULT_STORE})",
    )
    args = parser.parse_args(argv)
    if args.command == "query":
        return _obs_query(args)
    if args.command == "trace":
        return _obs_trace(args)
    from repro.obs.report import render_report

    try:
        print(render_report(args.stores, sort=args.sort, last=args.last))
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`repro fig06 | head`).  Point stdout at
        # devnull so the interpreter's exit-time flush cannot fail again.
        try:
            stdout_fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        except (OSError, ValueError):
            pass  # stdout without a descriptor (in-process capture)
        return EXIT_CLOSED_STDOUT
    return status


def _main(argv) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    args = build_parser().parse_args(argv)
    _configure_logging(verbose=args.verbose, quiet=args.quiet)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.full:
        os.environ["REPRO_FULL"] = "1"
    if args.record and args.store is None:
        print("--record requires --store (it records into the store)",
              file=sys.stderr)
        return 2
    if args.dry_run and (args.store is not None or args.record):
        print("--dry-run plans only; it cannot be combined with --store "
              "or --record", file=sys.stderr)
        return 2
    from repro.runner import set_default_runner
    runner = _make_runner(args)
    set_default_runner(runner)
    store = None
    if args.store is not None:
        from repro.obs.store import ExperimentStore
        from repro.util.env import env_flag

        store = ExperimentStore(args.store)
        store.begin_run(
            args.experiment, argv=argv, git_sha=git_sha(),
            full=env_flag("REPRO_FULL"),
        )
        runner.attach_store(store, record_series=args.record)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    run_started = time.time()
    try:
        for name in names:
            _run_one(name, args.output_dir, runner, profile=args.profile,
                     store=store)
    finally:
        # Tear down the persistent worker pool once all experiments in
        # this invocation have drained it.
        runner.close()
        if store is not None:
            store.finish_run(elapsed_seconds=time.time() - run_started,
                             runner=runner.stats.snapshot())
            store.close()
            _log.info("[experiment store -> %s]", store.path)
    _log.info("[total: %s]", runner.stats.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
