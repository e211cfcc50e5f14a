"""Distributed pulsing: same damage, per-source stealth.

Evaluates the DDoS framing of the paper's introduction: one logical
pulse train split across ``k`` sources (synchronized rate-split or
interleaved time-split) must inflict the same victim damage -- the
bottleneck sees the identical byte schedule -- while each individual
source's average rate drops by ``k``, sliding under per-source
detectors like the conformance filter's rate floor.

The experiment runs all three deployments on the same seeded dumbbell
and reports (a) the measured degradation of each, (b) how many attack
sources the conformance filter flags.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.core.attack import PulseTrain
from repro.core.distributed import split_interleaved, split_synchronized
from repro.runner import Cell, DeploymentSpec, PlatformSpec, get_default_runner
from repro.sim.tcp import TCPConfig, TCPVariant
from repro.util.units import mbps, ms

__all__ = ["DistributedResult", "run_distributed_attack"]


@dataclasses.dataclass(frozen=True)
class DeploymentOutcome:
    """One deployment's measurement.

    Attributes:
        degradation: measured Γ over the window.
        n_sources: attack sources used.
        flagged_sources: attack flows the conformance filter flagged.
        per_source_gamma: each source's normalized average rate.
    """

    degradation: float
    n_sources: int
    flagged_sources: int
    per_source_gamma: float


@dataclasses.dataclass(frozen=True)
class DistributedResult:
    """Outcomes keyed by deployment name."""

    outcomes: Dict[str, DeploymentOutcome]
    aggregate_gamma: float

    def render(self) -> str:
        lines = [
            "Distributed pulsing -- one logical attack, three deployments",
            f"aggregate gamma = {self.aggregate_gamma:.2f}",
            f"{'deployment':<16} {'sources':>8} {'Gamma_meas':>11} "
            f"{'gamma/source':>13} {'flagged':>8}",
        ]
        for name, outcome in self.outcomes.items():
            lines.append(
                f"{name:<16} {outcome.n_sources:>8} "
                f"{outcome.degradation:>11.3f} "
                f"{outcome.per_source_gamma:>13.3f} "
                f"{outcome.flagged_sources:>8}"
            )
        lines.append(
            "same bottleneck schedule -> same damage; per-source rate "
            "divided by k -> per-source detection starved"
        )
        return "\n".join(lines)


def run_distributed_attack(
    *,
    n_sources: int = 5,
    gamma: float = 0.5,
    rate_bps: float = mbps(30),
    extent: float = ms(100),
    n_flows: int = 15,
    warmup: float = 6.0,
    window: float = 20.0,
    seed: int = 17,
) -> DistributedResult:
    """Compare single-source vs synchronized vs interleaved deployments."""
    bottleneck = mbps(15)
    period = PulseTrain.period_from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=bottleneck,
    )
    n_pulses_raw = int(np.ceil(window / period)) + 2
    # Interleaving needs a pulse count divisible by the source count.
    n_pulses = ((n_pulses_raw + n_sources - 1) // n_sources) * n_sources
    train = PulseTrain.from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=bottleneck, n_pulses=n_pulses,
    )
    # Flag any source whose average rate tops 30% of the single-source
    # average -- a floor the single attacker trips and a k>=4 split ducks.
    rate_floor = 0.3 * train.mean_rate_bps()

    platform = PlatformSpec(
        kind="dumbbell", n_flows=n_flows, seed=seed,
        tcp=TCPConfig(variant=TCPVariant.NEWRENO, delayed_ack=2, min_rto=1.0),
    )
    synchronized = split_synchronized(train, n_sources)
    interleaved = split_interleaved(train, n_sources)

    def _cell(single=None, deployment=None, floor=None) -> Cell:
        return Cell(
            platform=platform, warmup=warmup, window=window, train=single,
            deployment=(
                None if deployment is None
                else DeploymentSpec.from_attack(deployment)
            ),
            rate_floor_bps=floor,
        )

    # All four measurements are independent: one runner batch.
    cells = [
        _cell(),
        _cell(single=train, floor=rate_floor),
        _cell(deployment=synchronized, floor=rate_floor),
        _cell(deployment=interleaved, floor=rate_floor),
    ]
    results = get_default_runner().measure_many(cells)

    def _degradation(index: int) -> float:
        return 1.0 - results[index].goodput_bytes / results[0].goodput_bytes

    outcomes: Dict[str, DeploymentOutcome] = {}
    outcomes["single"] = DeploymentOutcome(
        degradation=_degradation(1),
        n_sources=1,
        flagged_sources=results[1].flagged_sources,
        per_source_gamma=train.gamma(bottleneck),
    )
    for name, split, index in (
        ("synchronized", synchronized, 2),
        ("interleaved", interleaved, 3),
    ):
        outcomes[name] = DeploymentOutcome(
            degradation=_degradation(index),
            n_sources=n_sources,
            flagged_sources=results[index].flagged_sources,
            per_source_gamma=split.per_source_gamma(bottleneck),
        )
    return DistributedResult(
        outcomes=outcomes, aggregate_gamma=train.gamma(bottleneck),
    )
