"""End-to-end benchmark of the paper's gain sweeps (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload exact_serial --seed 6 \\
        --seconds 30 --trace 0

Measured passes run in fresh interpreters (``child.py``); this
script generates nothing itself, schedules passes for ``--seconds``,
checks every pass's outputs, and prints one JSON line last:
end-to-end metrics (medians over passes) with ``--trace 0``, the
per-layer ledger of one extra traced pass with ``--trace 1``.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402

#: name -> unit, printed with ``--trace 0`` (mirrors BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers of the ledger, in call-depth order.
LAYERS = ("experiment", "planner", "runner", "cache.key", "cache.get",
          "cache.put", "store", "topology", "checkpoint.snapshot",
          "checkpoint.fork", "engine", "fluid")

#: name -> unit, printed with ``--trace 1`` (mirrors BENCHMARK.json).
PER_LAYER = {
    "sim_events_per_s": "events/s",
    "gamma_star_err": "gamma",
    "peak_gain_err": "gain",
    "failed_share": "ratio",
    "engine.events": "count",
    "engine.run_s": "s",
    "engine.events_per_run_s": "events/s",
    "checkpoint.snapshots": "count",
    "checkpoint.snapshot_s": "s",
    "checkpoint.forks": "count",
    "checkpoint.fork_s": "s",
    "topology.builds": "count",
    "topology.build_s": "s",
    "fluid.cells": "count",
    "fluid.s": "s",
    "convergence.truncated_cells": "count",
    "convergence.sim_s_saved": "s",
    "planner.rounds": "count",
    "planner.grid_cells_saved": "count",
    "planner.seeds_saved": "count",
    "runner.executed": "count",
    "runner.memo_hits": "count",
    "runner.cache_hits": "count",
    "runner.warmup_sims": "count",
    "runner.warm_starts": "count",
    "runner.overhead_s": "s",
    "runner.worker_utilization": "ratio",
    "runner.idle_s": "s",
    "cells.exec_s_max": "s",
    "cache.gets": "count",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    "store.rows": "count",
    "store.write_s": "s",
    "link.bottleneck_packets": "count",
    "queue.drops": "count",
    "tcp.retransmits": "count",
    "tcp.fast_recoveries": "count",
    "tcp.timeouts": "count",
    "attacker.packets": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.overhead_est": "ratio",
    **{f"self.{layer}": "s" for layer in LAYERS},
}

#: set-up samples per run (every child contributes its own; set-up-only
#: processes make up the rest), reported as their median.
SETUP_SAMPLES = 7

#: fast_serial's accuracy tolerance: a fast peak may miss the exact one
#: by ``FAST_REL_TOL`` × max(exact peak gain, ``FAST_GAIN_FLOOR``).
#: Fixed here, not read from the program's planner policy, so that a
#: looser policy cannot loosen the check with it.
FAST_REL_TOL = 0.15
FAST_GAIN_FLOOR = 0.1

#: the committed references (``make_reference.py``).
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

#: every process a run starts ends before this many seconds.
DEADLINE_S = 170.0


class Launcher:
    """Starts the child processes of one benchmark invocation."""

    def __init__(self, args, root: str) -> None:
        self.args = args
        self.root = root
        self.home = os.path.join(root, ".perfbench")
        self.work = os.path.join(self.home, f"run-{os.getpid()}")
        self.replay_cache = os.path.join(self.work, "replay-cache")
        self.started = time.monotonic()
        self.n_children = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0", TMPDIR=self.work)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, workload: str, mode: str = "pass", trace: int = 0,
              seconds: float = 0.0):
        """Run one child; its output dict, or ``None`` if it failed."""
        self.n_children += 1
        work = os.path.join(self.work, str(self.n_children))
        os.makedirs(work)
        out = os.path.join(work, "out.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", workload, "--seed", str(self.args.seed),
               "--scale", self.args.scale, "--mode", mode,
               "--trace", str(trace), "--seconds", str(seconds),
               "--work", work,
               "--replay-cache", self.replay_cache, "--out", out]
        timeout = self.remaining()
        if timeout <= 1.0:
            return None
        with open(os.path.join(work, "log.txt"), "w") as log:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            if code != 0:
                # Stop what is left of the child's process group: its
                # pool workers, or the child itself on a timeout.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0 or not os.path.exists(out):
            with open(os.path.join(work, "log.txt")) as log:
                tail = log.read()[-2000:]
            print(f"[{workload} {mode} child failed: exit {code}]\n{tail}",
                  file=sys.stderr)
            return None
        with open(out) as handle:
            return json.load(handle)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def source_fingerprint(root: str) -> str:
    """Hash of the program's source and of the workload generator."""
    digest = hashlib.sha256()
    with open(os.path.join(BENCH_DIR, "workloads.py"), "rb") as handle:
        digest.update(handle.read())
    src = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def fixed_digest(seed: int, scale: str):
    """The committed reference digest for (*seed*, *scale*), if any."""
    with open(REFERENCE) as handle:
        entries = json.load(handle)["exact_digests"]
    for entry in entries:
        if entry["seed"] == seed and entry["scale"] == scale:
            return entry["digest"]
    return None


def fast_population(scale: str):
    """The committed seed-averaged exact curves for *scale*, if any."""
    with open(REFERENCE) as handle:
        entry = json.load(handle)["fast_population"].get(scale)
    return entry and entry["curves"]


def exact_reference(launcher: Launcher, produce: bool):
    """The serial exact figure for this seed, computed once per source.

    Stored under ``.perfbench/refs`` keyed by the source fingerprint, so
    fast_serial and exact_jobs2 runs check against a serial run of the
    same code without paying for it on every run.  With *produce* False
    a missing reference is left for the caller's own passes to produce.
    Returns the stored path, the reference (or ``None``) and, when a
    child computed it, that child's set-up time.
    """
    refs = os.path.join(launcher.home, "refs")
    args = launcher.args
    path = os.path.join(refs, f"{source_fingerprint(launcher.root)}-"
                              f"{args.scale}-{args.seed}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return path, json.load(handle), None
    if not produce:
        return path, None, None
    out = launcher.child("exact_serial")
    if out is None:
        return path, None, None
    summary = out["passes"][0]["summary"]
    save_reference(path, summary)
    return path, summary, out["setup_s"]


def save_reference(path: str, summary: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(summary, handle)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# checks: each returns the number of failed cells in one pass
# ----------------------------------------------------------------------
def check_exact(out: dict, ref, fixed):
    digests = out["summary"]["digests"]
    ok = (ref is None or digests == ref["digests"]) and (
        fixed is None or digests[0] == fixed)
    return 0 if ok else out["stats"]["cells"]


def fast_errors(out: dict, curves) -> list:
    """Per series: ``|Δγ*|``, ``|ΔG*|``, shortfall and tolerance.

    *curves* holds one exact ``[(γ, G), ...]`` curve per series.  The
    shortfall is how much less gain the fast γ* reaches on the exact
    curve than the exact peak; the tolerance is ``FAST_REL_TOL`` of the
    exact peak gain, floored at ``FAST_GAIN_FLOOR``.
    """
    errors = []
    for (gf, Gf), curve in zip(out["summary"]["peaks"], curves):
        ge, Ge = max(curve, key=lambda point: point[1])
        errors.append((abs(gf - ge), abs(Gf - Ge),
                       Ge - workloads.gain_at(curve, gf),
                       FAST_REL_TOL * max(Ge, FAST_GAIN_FLOOR)))
    return errors


def check_fast(out: dict, curves) -> int:
    """Cells of every series whose fast peak misses the population's.

    Fast mode averages each γ over several platform seeds, 0.05 apart,
    so the check compares it with the committed seed average of exact
    curves on a 0.05 grid: one seed's exact curve on the figure's 0.2
    grid is noisier at its peak than the tolerance.  γ* alone is not
    checked: near a flat top two γ a step apart can differ by less than
    the gain's noise, so the check is on the gain the fast γ* achieves.
    """
    if curves is None or len(curves) != out["summary"]["series"]:
        return out["stats"]["cells"]
    return sum(cells for (_dg, dG, short, tol), cells in zip(
        fast_errors(out, curves), out["summary"]["series_cells"])
        if dG > tol or short > tol)


def check_replay(out: dict, population) -> int:
    stats = out["stats"]
    ok = (population is not None
          and out["summary"]["digest"] == population["summary"]["digest"]
          and stats["executed"] == 0
          and stats["cache_hits"] == population["summary"]["cells"])
    return 0 if ok else stats["cells"]


# ----------------------------------------------------------------------
def layer_metrics(traced: dict, untraced: list, failed: int,
                  attempted: int, fast_err) -> dict:
    """The per-layer ledger of one traced pass."""
    stats = traced["stats"]
    ledger = traced["trace"]["ledger"]
    counts = traced["trace"]["counts"]

    def span(layer, key):
        return ledger.get(layer, {}).get(key, 0.0)

    inline_exec = stats["executed_seconds"] - stats["parallel_busy_seconds"]
    # The traced pass is its process's first: compare it with first
    # passes only (later replay passes run in a warm process).
    untraced_wall = statistics.median(
        p["wall_s"] for p in untraced if p["index"] == 0)
    rates = [p["events"] / p["wall_s"] for p in untraced]
    engine_s = span("engine", "total_s")
    gets = span("cache.get", "n")
    values = {
        "sim_events_per_s": statistics.median(rates),
        "gamma_star_err": fast_err[0],
        "peak_gain_err": fast_err[1],
        "failed_share": failed / attempted,
        "engine.events": counts.get("engine.events", 0.0),
        "engine.run_s": engine_s,
        "engine.events_per_run_s": (
            counts.get("engine.events", 0.0) / engine_s if engine_s else 0.0),
        "checkpoint.snapshots": span("checkpoint.snapshot", "n"),
        "checkpoint.snapshot_s": span("checkpoint.snapshot", "total_s"),
        "checkpoint.forks": span("checkpoint.fork", "n"),
        "checkpoint.fork_s": span("checkpoint.fork", "total_s"),
        "topology.builds": span("topology", "n"),
        "topology.build_s": span("topology", "total_s"),
        "fluid.cells": span("fluid", "n"),
        "fluid.s": span("fluid", "total_s"),
        "convergence.truncated_cells": stats["truncated_cells"],
        "convergence.sim_s_saved": stats["truncated_sim_seconds"],
        "planner.rounds": stats["planner_rounds"],
        "planner.grid_cells_saved": stats["planner_cells_saved"],
        "planner.seeds_saved": stats["planner_seeds_saved"],
        "runner.executed": stats["executed"],
        "runner.memo_hits": stats["memo_hits"],
        "runner.cache_hits": stats["cache_hits"],
        "runner.warmup_sims": stats["warmup_sims"],
        "runner.warm_starts": stats["warm_starts"],
        "runner.overhead_s": traced["wall_s"] - (
            stats["parallel_wall_seconds"] + inline_exec),
        "runner.worker_utilization": stats["worker_utilization"] or 0.0,
        "runner.idle_s": (stats["parallel_worker_seconds"]
                          - stats["parallel_busy_seconds"]),
        "cells.exec_s_max": stats["exec_s_max"],
        "cache.gets": gets,
        "cache.get_s": span("cache.get", "total_s"),
        "cache.puts": span("cache.put", "n"),
        "cache.put_s": span("cache.put", "total_s"),
        "cache.hit_ratio": (
            counts.get("cache.hits", 0.0) / gets if gets else 0.0),
        "store.rows": span("store", "n"),
        "store.write_s": span("store", "total_s"),
        "trace.coverage": traced["trace"]["coverage"],
        "trace.overhead": traced["wall_s"] / untraced_wall,
        "trace.overhead_est": traced["trace"]["overhead_est"],
    }
    for name in tracer.SIM_COUNTS:
        values[name] = counts.get(name, 0.0)
    for layer in LAYERS:
        values[f"self.{layer}"] = span(layer, "self_s")
    return values


def describe(name: str, values: list, unit: str) -> str:
    median = statistics.median(values)
    line = f"  {name:<14} median {median:.6g} {unit} (n={len(values)}"
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        line += f", IQR {q1:.6g}..{q3:.6g}"
    if len(values) > 12:
        return line + ")"
    return line + "): " + " ".join(f"{v:.4g}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="default")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from "
              "the repository root", file=sys.stderr)
        return 2
    # The build: byte-compile once so every pass imports warm bytecode.
    compileall.compile_dir(src, quiet=1)

    # A terminated run still stops its children (see Launcher.child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    launcher = Launcher(args, root)
    try:
        return measure(launcher, args)
    finally:
        launcher.close()


def measure(launcher: Launcher, args) -> int:
    workload = args.workload
    fixed = fixed_digest(args.seed, args.scale)

    # Every figure of a fast pass has the population's series, in order.
    fast_curves = fast_population(args.scale)
    fast_curves = fast_curves and fast_curves * workloads.FAST_DRAWS

    passes, setups, errors = [], [], []
    ref = population = None
    ref_path = None
    if workload == "cache_replay":
        population = launcher.child(workload, mode="populate")
        ref_setup = population and population["setup_s"]
    else:
        # exact_jobs2 is checked against this seed's serial figure;
        # fast_serial's errors against it are ledger metrics only.
        ref_path, ref, ref_setup = exact_reference(
            launcher, produce=workload == "exact_jobs2" or (
                workload == "fast_serial" and args.trace == 1))
    # A preparing child's set-up is the same program set-up as this
    # workload's: the runner starts its pool lazily, so ``jobs`` does
    # not change it.
    if ref_setup is not None:
        setups.append(ref_setup)
    failed = attempted = 0
    cells_hint = 1

    def check(out: dict) -> int:
        nonlocal ref
        if workload == "cache_replay":
            return check_replay(out, population)
        if workload == "fast_serial":
            if ref is not None:
                # A fast pass's figures are an exact pass's first ones.
                errs = fast_errors(out, ref["curves"])
                errors.append((max(e[0] for e in errs),
                               max(e[1] for e in errs)))
            for dg, dG, short, tol in fast_errors(out, fast_curves or []):
                print(f"  fast vs population: |dgamma*|={dg:.3f} "
                      f"|dG*|={dG:.4f} shortfall={short:.4f} "
                      f"(tolerance {tol:.4f})")
            return check_fast(out, fast_curves)
        if ref is None and fixed in (None, out["summary"]["digests"][0]):
            ref = out["summary"]
            save_reference(ref_path, ref)
        return check_exact(out, ref, fixed)

    def run_child(trace: int = 0, seconds: float = 0.0):
        """One child's passes, checked; ``None`` if the child failed."""
        nonlocal failed, attempted, cells_hint
        out = launcher.child(workload, trace=trace, seconds=seconds)
        if out is None:
            failed += cells_hint
            attempted += cells_hint
            return None
        setups.append(out["setup_s"])
        for one in out["passes"]:
            cells_hint = one["stats"]["cells"]
            attempted += cells_hint
            failed += check(one)
        return out

    if workload == "cache_replay":
        # A replay pass lasts about a second: one process repeats it
        # with fresh runners and stores for the whole window.
        out = run_child(seconds=args.seconds)
        passes += out["passes"] if out else []
    else:
        # A figure pass lasts longer than a process start: a fresh
        # process per pass, for as many passes as the window holds.
        window_start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            out = run_child()
            passes += out["passes"] if out else []
            last = time.monotonic() - pass_start
            if (time.monotonic() - window_start + last > args.seconds
                    or launcher.remaining() < 2 * last + 10):
                break
    traced = run_child(trace=1) if args.trace else None
    while len(setups) < SETUP_SAMPLES and launcher.remaining() > 10:
        out = launcher.child(workload, mode="setup")
        if out is not None:
            setups.append(out["setup_s"])

    if not passes or (args.trace and traced is None):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    print(f"perfbench {workload} seed={args.seed} scale={args.scale}: "
          f"{len(passes)} passes, {attempted} cells attempted, "
          f"{failed} failed")
    series = {
        "setup_s": setups,
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    for name, unit in END_TO_END.items():
        print(describe(name, series[name], unit))

    if args.trace:
        fast_err = (statistics.median(e[0] for e in errors),
                    statistics.median(e[1] for e in errors)) \
            if errors else (0.0, 0.0)
        traced = dict(traced["passes"][0], trace=traced["trace"])
        values = layer_metrics(traced, passes, failed, attempted, fast_err)
        units = PER_LAYER
        keep = os.path.join(launcher.home, f"last-trace-{workload}.jsonl")
        shutil.copyfile(traced["trace"]["spans"], keep)
        print(f"  spans written to {os.path.relpath(keep, launcher.root)}")
        for layer in LAYERS:
            row = traced["trace"]["ledger"].get(layer)
            if row:
                print(f"  layer {layer:<20} n={row['n']:<6} "
                      f"total {row['total_s']:9.4f}s self "
                      f"{row['self_s']:9.4f}s")
    else:
        values = {name: statistics.median(series[name])
                  for name in END_TO_END}
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
