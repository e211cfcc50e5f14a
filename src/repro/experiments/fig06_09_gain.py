"""Figures 6-9: attack gain vs γ, analytical lines vs simulation symbols.

The paper's main validation: for each attack pulse rate
(Fig. 6: 25 Mb/s, Fig. 7: 30 Mb/s, Fig. 8: 35 Mb/s, Fig. 9: 40 Mb/s),
four panels (15 / 25 / 35 / 45 victim flows), each carrying three
series (T_extent = 50 / 75 / 100 ms) of attack gain against the
normalized average rate γ ∈ (0, 1).

Each (figure, panel, series) is a :func:`~repro.experiments.base.run_gain_sweep`
on the dumbbell platform; the driver also classifies every series into
the §4.1.1 normal/under/over-gain regimes and reports the maximization
points (§4.1.2): the γ at which the measured and the analytical gain
peak.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.experiments.base import (
    DumbbellPlatform,
    GainCurve,
    default_gammas,
    full_scale,
    plan_gain_sweep,
    render_curve_table,
    run_gain_sweeps,
)
from repro.util.units import mbps, ms
from repro.util.errors import ValidationError

__all__ = ["GainFigure", "FIGURE_RATES", "run_gain_figure", "panel_flow_counts"]

#: Fig. number -> the attack pulse rate it sweeps.
FIGURE_RATES: Dict[int, float] = {
    6: mbps(25),
    7: mbps(30),
    8: mbps(35),
    9: mbps(40),
}

#: The three T_extent series of every panel, seconds.
EXTENTS: Sequence[float] = (ms(50), ms(75), ms(100))


def panel_flow_counts() -> List[int]:
    """The panels' victim-flow counts: all four at full scale, two scaled."""
    return [15, 25, 35, 45] if full_scale() else [15, 25]


@dataclasses.dataclass(frozen=True)
class GainFigure:
    """One reproduced figure: panels keyed by flow count."""

    figure: int
    rate_bps: float
    panels: Dict[int, List[GainCurve]]

    def render(self) -> str:
        parts = []
        for n_flows, curves in self.panels.items():
            parts.append(render_curve_table(
                curves,
                title=(
                    f"Fig. {self.figure} -- R_attack="
                    f"{self.rate_bps / 1e6:.0f} Mb/s, {n_flows} TCP flows"
                ),
            ))
            for curve in curves:
                peak_m = curve.peak_measured()
                peak_a = curve.peak_analytic()
                parts.append(
                    f"  maximization point [{curve.label}]: measured "
                    f"gamma*={peak_m.gamma:.2f} (G={peak_m.measured_gain:.3f}),"
                    f" analytic gamma*={peak_a.gamma:.2f} "
                    f"(G={peak_a.analytic_gain:.3f})"
                )
        return "\n\n".join(parts)

    def all_curves(self) -> List[GainCurve]:
        return [curve for curves in self.panels.values() for curve in curves]


def run_gain_figure(
    figure: int,
    *,
    flow_counts: Optional[Sequence[int]] = None,
    extents: Optional[Sequence[float]] = None,
    gammas=None,
    kappa: float = 1.0,
) -> GainFigure:
    """Reproduce one of Figs. 6-9.

    Args:
        figure: 6, 7, 8 or 9 (selects R_attack per :data:`FIGURE_RATES`).
        flow_counts: panel list; defaults to :func:`panel_flow_counts`.
        extents: T_extent series; defaults to the paper's 50/75/100 ms.
        gammas: swept γ grid; defaults per scale.
        kappa: risk exponent of the plotted gain (risk-neutral 1.0).
    """
    if figure not in FIGURE_RATES:
        raise ValidationError(
            f"figure must be one of {sorted(FIGURE_RATES)}, got {figure}"
        )
    rate = FIGURE_RATES[figure]
    if flow_counts is None:
        flow_counts = panel_flow_counts()
    if extents is None:
        extents = EXTENTS
    if gammas is None:
        gammas = default_gammas()

    # Plan every (panel, series) sweep up front and measure the union of
    # their cells in a single runner batch, so parallel workers overlap
    # across panels and series -- not just within one curve.
    plans = []
    plan_panels: List[int] = []
    for n_flows in flow_counts:
        platform = DumbbellPlatform(n_flows=n_flows, seed=figure * 100 + n_flows)
        for extent in extents:
            plans.append(plan_gain_sweep(
                platform,
                rate_bps=rate,
                extent=extent,
                gammas=gammas,
                kappa=kappa,
                label=(
                    f"T_extent={extent * 1e3:.0f}ms, {n_flows} flows, "
                    f"R={rate / 1e6:.0f}M"
                ),
            ))
            plan_panels.append(n_flows)

    panels: Dict[int, List[GainCurve]] = {n: [] for n in flow_counts}
    for n_flows, curve in zip(plan_panels, run_gain_sweeps(plans)):
        panels[n_flows].append(curve)
    return GainFigure(figure=figure, rate_bps=rate, panels=panels)

