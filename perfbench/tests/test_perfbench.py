"""Tests of the benchmark itself, at a scale of seconds per workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import shutil
import signal
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == declared("end_to_end")
    assert run.PER_LAYER == declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.BENCHMARKED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_at_tiny_scale(workload):
    out = result(bench("--workload", workload, "--seed", "11",
                       "--scale", "tiny", "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_prints_the_ledger():
    out = result(bench("--workload", "exact_serial", "--seed", "11",
                       "--scale", "tiny", "--seconds", "1", "--trace", "1"))
    assert out["correct"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        declared("per_layer")
    assert metrics["engine.events"] > 0
    assert metrics["checkpoint.forks"] > 0
    assert metrics["trace.coverage"] > 0.9


def test_wrong_reference_digest_is_a_failure(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "fixed_digest", lambda seed, scale: "0" * 64)
    sigterm = signal.getsignal(signal.SIGTERM)
    try:
        code = run.main(["--workload", "exact_serial", "--scale", "tiny",
                         "--seconds", "1"])
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_fast_check_flags_a_peak_off_the_population():
    curves = run.fast_population("default")
    peaks = [max(curve, key=lambda point: point[1]) for curve in curves]
    out = {"summary": {"peaks": peaks, "series": len(peaks),
                       "series_cells": [10] * len(peaks)},
           "stats": {"cells": 10 * len(peaks)}}
    assert run.check_fast(out, curves) == 0
    # A γ* 0.3 past the peak, reporting the gain measured there.
    out["summary"]["peaks"] = [
        (g + 0.3, workloads.gain_at(curve, g + 0.3))
        for (g, _G), curve in zip(peaks, curves)]
    assert run.check_fast(out, curves) == 10 * len(peaks)
    assert run.check_fast(out, None) == 10 * len(peaks)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact_serial", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_default_seed_reproduces_fig06_cells():
    from repro.experiments.fig06_09_gain import (
        EXTENTS, FIGURE_RATES, panel_flow_counts, run_gain_figure,
    )
    from repro.runner import ExperimentRunner, cell_key, set_default_runner

    scale = workloads.SCALES["default"]
    dry = ExperimentRunner(dry_run=True)
    previous = set_default_runner(dry)
    try:
        run_gain_figure(6)
    finally:
        set_default_runner(previous)
    figure_keys = [entry.key for entry in dry.dry_run_plan.entries]
    plans = workloads.exact_plans(workloads.DEFAULT_SEED, scale)
    keys = list(dict.fromkeys(
        cell_key(cell) for plan in plans for cell in plan.cells()))
    assert keys == figure_keys

    # An exact pass runs that figure first, then figures of further draws.
    figures = workloads.prepare("exact_serial", workloads.DEFAULT_SEED, scale)
    assert len(figures) == workloads.EXACT_DRAWS
    assert [cell_key(cell) for plan in figures[0] for cell in plan.cells()] \
        == [cell_key(cell) for plan in plans for cell in plan.cells()]

    # Fast mode runs one planned sweep per series of the same platforms
    # (its first figure), then figures of further draws.
    fast = workloads.fast_series(workloads.DEFAULT_SEED, scale)
    assert len(fast) == 6 * workloads.FAST_DRAWS
    assert fast[:6] == workloads.series(workloads.DEFAULT_SEED, scale) == [
        (n, 600 + n, extent)
        for n in panel_flow_counts() for extent in EXTENTS]
    assert workloads.FIG06_RATE_MBPS * 1e6 == FIGURE_RATES[6]


def test_generator_is_deterministic_per_seed():
    from repro.runner import cell_key

    def keys(seed):
        return [cell_key(cell) for sweep in
                workloads.replay_cells(seed, workloads.SCALES["tiny"])
                for cell in sweep]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)


def test_ledger_self_time_subtracts_children():
    spans = [(2, 1, "engine", 1.0, 3.0), (3, 1, "store", 4.0, 5.0),
             (1, 0, "runner", 0.0, 10.0)]
    table = tracer.ledger(spans)
    assert table["runner"]["self_s"] == pytest.approx(7.0)
    assert table["engine"]["self_s"] == pytest.approx(2.0)
    assert sum(row["self_s"] for row in table.values()) == \
        pytest.approx(10.0)
