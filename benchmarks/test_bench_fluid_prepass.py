"""Bench: fluid pre-pass vs the adaptive planner alone.

``FAST_POLICY`` runs a fluid (ODE) localization sweep before
any packet cell: a two-stage sampling of a 17-point fluid γ grid
(about a dozen cells, integrated at the pre-pass's coarse step) costs
a few hundred milliseconds and pins γ* to one grid point, so the
packet-level work shrinks from a 5-point coarse grid plus refinement
rounds to :attr:`PlannerPolicy.fluid_confirm_points` confirmation
cells around the fluid peak.

Both sides of this bench resolve the same three-extent Fig.-6 panel
(R_attack = 25 Mb/s, 15 flows) through :func:`run_planned_sweep`:

* **planner** -- ``FAST_POLICY`` with the pre-pass disabled (the
  previous fast path: coarse grid, refinement, CI seeds, early exit);
* **prepass** -- ``FAST_POLICY`` as shipped, fluid pre-pass included.

Gates (the ISSUE's acceptance bar): the pre-pass resolves the panel
>= 2x faster, and each γ* lands within one coarse-grid step of the
planner-alone answer.  Results are archived to
``benchmarks/results/fluid_prepass.txt``.
"""

import dataclasses
import time

from benchmarks.conftest import best_of_reps, format_reps, run_once
from repro.experiments.base import DumbbellPlatform
from repro.runner import ExperimentRunner
from repro.runner.planner import FAST_POLICY, run_planned_sweep
from repro.util.units import mbps, ms

RATE = mbps(25)
EXTENTS = (ms(50), ms(75), ms(100))
N_FLOWS = 15
SEED = 42
WARMUP = 6.0
WINDOW = 20.0

#: One coarse-grid step of the planner-alone policy.
COARSE_STEP = (0.9 - 0.1) / (FAST_POLICY.coarse_points - 1)

SPEEDUP_GATE = 2.0

PLANNER_ONLY = dataclasses.replace(FAST_POLICY, fluid_prepass=False)


def _run_panel(policy):
    runner = ExperimentRunner(jobs=1, cache_dir=None)
    platform = DumbbellPlatform(n_flows=N_FLOWS, seed=SEED)
    started = time.perf_counter()
    sweeps = [
        run_planned_sweep(
            platform, rate_bps=RATE, extent=extent,
            warmup=WARMUP, window=WINDOW,
            label=f"T_extent={extent * 1e3:.0f}ms [fast]",
            policy=policy, runner=runner,
        )
        for extent in EXTENTS
    ]
    return sweeps, time.perf_counter() - started, runner


def test_bench_fluid_prepass(benchmark, record_result):
    alone, alone_wall, alone_runner = _run_panel(PLANNER_ONLY)
    (prepass, prepass_wall, prepass_runner), _, rep_walls = run_once(
        benchmark, best_of_reps, 1, _run_panel, FAST_POLICY,
        wall_of=lambda run: run[1])

    speedup = alone_wall / max(prepass_wall, 1e-9)
    stats = prepass_runner.stats
    rows = [
        "Fluid pre-pass bench -- three-extent Fig. 6 panel "
        f"(R_attack={RATE / 1e6:.0f}M, {N_FLOWS} flows, "
        f"{WARMUP:.0f}s warm-up / {WINDOW:.0f}s window), jobs=1",
        "planner: FAST_POLICY without the fluid pre-pass; "
        "prepass: FAST_POLICY as shipped",
        f"{'mode':<8} {'wall':>8} {'packet cells':>13} {'fluid cells':>12}",
        f"{'planner':<8} {alone_wall:>7.2f}s "
        f"{alone_runner.stats.executed:>13} {alone_runner.stats.fluid_cells:>12}",
        f"{'prepass':<8} {prepass_wall:>7.2f}s "
        f"{stats.executed - stats.fluid_cells:>13} {stats.fluid_cells:>12}"
        f"   ({speedup:.2f}x)  ({format_reps(rep_walls)})",
        "",
        f"{'extent':<8} {'planner g*':>11} {'prepass g*':>11} "
        f"{'fluid g*':>9}",
    ]
    for extent, a, p in zip(EXTENTS, alone, prepass):
        rows.append(
            f"{extent * 1e3:>5.0f}ms  {a.gamma_star:>11.3f} "
            f"{p.gamma_star:>11.3f} {p.fluid_gamma_star:>9.3f}"
        )
    rows.append("")
    rows.extend(sweep.summary() for sweep in prepass)
    rows.append(f"prepass runner: {stats.summary()}")
    rows.append(f"planner runner: {alone_runner.stats.summary()}")
    record_result("fluid_prepass", "\n".join(rows), data={
        "planner_wall": alone_wall, "prepass_wall": prepass_wall,
        "speedup": speedup, "rep_walls": rep_walls,
        "fluid_cells": stats.fluid_cells,
    })

    # The pre-pass actually ran: fluid cells counted, packet work
    # shrank.  (The floor is each panel's stage-1 coarse half-grid;
    # the extent-independent fluid baseline is memoized after the
    # first panel, and memo hits are not re-counted.)
    assert (stats.fluid_cells
            >= len(EXTENTS) * (FAST_POLICY.fluid_grid_points // 2 + 1))
    assert (stats.executed - stats.fluid_cells
            < alone_runner.stats.executed)
    for sweep in prepass:
        assert sweep.fluid_gamma_star is not None

    for extent, a, p in zip(EXTENTS, alone, prepass):
        assert abs(p.gamma_star - a.gamma_star) <= COARSE_STEP + 1e-9, (
            f"extent {extent * 1e3:.0f}ms: prepass gamma*="
            f"{p.gamma_star:.3f} is more than one coarse step "
            f"({COARSE_STEP:.2f}) from the planner-alone answer "
            f"{a.gamma_star:.3f}"
        )

    assert speedup >= SPEEDUP_GATE, (
        f"fluid pre-pass speedup {speedup:.2f}x below the "
        f"{SPEEDUP_GATE}x gate (planner {alone_wall:.2f}s, "
        f"prepass {prepass_wall:.2f}s)"
    )
