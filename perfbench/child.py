"""Measured passes in a fresh process (started by ``run.py``).

A fresh interpreter is what a user of ``repro`` pays for: a cold
import, an empty in-process memo, and resource counters that cover
exactly this process and its pool workers.  The child writes one JSON
object to ``--out``:

* ``setup_s``: import ``repro`` and construct the runner, its disk
  cache and the experiment store;
* ``passes``: per pass, ``wall_s`` / ``cpu_s`` / ``peak_rss_mb`` of
  the workload itself, from its first call into the program until the
  runner's pool is shut down (CPU and resident set cover the pool
  workers too; the resident set is the process's peak since it
  started, so when passes share a process it is not per pass), the
  workload's output summary (what ``run.py`` checks)
  and the runner's ``RunnerStats``;
* with ``--trace 1``, the per-layer ledger and span file of
  :mod:`tracer` for its single pass.

Every pass gets a fresh runner (cold memo), a fresh store and, unless
it replays the shared cache, a fresh cold disk cache.  Passes repeat
until ``--seconds`` is used up; there is always at least one.

``--mode setup`` stops after set-up; ``--mode populate`` fills the
cache-replay disk cache instead of measuring.
"""

import argparse
import json
import os
import resource
import time

_T0 = time.perf_counter()


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "populate"),
                        default="pass")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--replay-cache", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    # ---- set-up: the program's import and construction cost ----------
    import repro  # noqa: F401
    from repro.experiments import base  # noqa: F401
    from repro.obs.store import ExperimentStore
    from repro.runner import ExperimentRunner
    from repro.sim import engine

    import workloads

    def construct(index: int):
        """A fresh runner with its disk cache, and a fresh store."""
        cache_dir = (args.replay_cache if args.workload == "cache_replay"
                     else os.path.join(args.work, f"cache-{index}"))
        # Populating is data preparation: it may use both cores.
        jobs = 2 if args.mode == "populate" else workloads.JOBS[args.workload]
        runner = ExperimentRunner(jobs=jobs, cache_dir=cache_dir)
        store = ExperimentStore(
            os.path.join(args.work, f"store-{index}.sqlite"))
        store.begin_run(f"perfbench {args.workload}")
        store.begin_experiment(args.workload)
        if args.mode != "populate":
            runner.attach_store(store)
        return runner, store

    runner, store = construct(0)
    out = {"setup_s": time.perf_counter() - _T0, "passes": []}
    if args.mode == "setup":
        store.close()
        _write(args.out, out)
        return

    # ---- the benchmark's own data preparation (not measured) ----------
    scale = workloads.SCALES[args.scale]
    prepared = workloads.prepare(args.workload, args.seed, scale)
    run = workloads.RUNNERS[args.workload]
    if args.mode == "populate":
        out["summary"] = run(runner, scale, prepared)
        runner.close()
        store.close()
        _write(args.out, out)
        return

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(
            f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        run = tracer.span("experiment", run)

    window_start = time.perf_counter()
    while True:
        if out["passes"]:
            runner, store = construct(len(out["passes"]))
        events_before = engine.total_events_dispatched()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        summary = run(runner, scale, prepared)
        runner.close()
        wall_s = time.perf_counter() - started
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        store.close()

        stats = runner.stats
        executed = [t.elapsed for t in stats.timings
                    if t.source == "executed"]
        out["passes"].append({
            "index": len(out["passes"]),
            "wall_s": wall_s,
            "cpu_s": (_cpu(self_after) - _cpu(self_before)
                      + _cpu(children) - _cpu(children_before)),
            "peak_rss_mb": max(self_after.ru_maxrss,
                               children.ru_maxrss) / 1024,
            "events": engine.total_events_dispatched() - events_before,
            "summary": summary,
            "stats": dict(
                stats.snapshot(),
                exec_s_max=max(executed, default=0.0),
                parallel_worker_seconds=stats.parallel_worker_seconds,
            ),
        })
        elapsed = time.perf_counter() - window_start
        if tracer is not None or elapsed + wall_s > args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
        spans_path = args.out + ".spans.jsonl"
        tracer.write(spans_path)
        root = next(s[0] for s in reversed(tracer.spans) if s[1] == 0)
        covered = sum(end - start for _id, parent, _layer, start, end
                      in tracer.spans if parent == root)
        out["trace"] = {
            "spans": spans_path,
            # Share of the wall inside a program layer below the
            # workload's own top-level code (the root span).
            "coverage": covered / wall_s,
            # What recording the spans cost, from a calibrated per-span
            # price: steadier than traced-vs-untraced wall on a noisy box.
            "overhead_est": (len(tracer.spans) * tracer_mod.span_cost()
                             / wall_s),
            "ledger": tracer_mod.ledger(tracer.spans),
            "counts": dict(tracer.counts, **tracer.sim_counts()),
        }
    _write(args.out, out)


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main()
