"""Figure 4: the risk-preference curves ``(1 − γ)^κ``.

A purely analytical figure: one curve per attacker type (risk-loving
κ < 1, risk-neutral κ = 1, risk-averse κ > 1), plus the two limits the
paper discusses (κ → 0: the flooding attacker; κ → ∞: never attacks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

import numpy as np

from repro.core.gain import RiskPreference, classify_kappa, risk_curve

__all__ = ["RiskCurves", "run_fig04"]


@dataclasses.dataclass(frozen=True)
class RiskCurves:
    """The Fig.-4 curve family.

    Attributes:
        gammas: the γ grid in [0, 1].
        curves: κ -> the sampled ``(1 − γ)^κ`` values.
    """

    gammas: np.ndarray
    curves: Dict[float, np.ndarray]

    def render(self) -> str:
        header = ["gamma".rjust(7)] + [
            f"k={kappa:g} ({classify_kappa(kappa).value})".rjust(22)
            for kappa in self.curves
        ]
        lines = ["Fig. 4 -- attacker risk preferences (1-gamma)^kappa",
                 " ".join(header)]
        for i, gamma in enumerate(self.gammas):
            row = [f"{gamma:7.2f}"] + [
                f"{values[i]:22.4f}" for values in self.curves.values()
            ]
            lines.append(" ".join(row))
        return "\n".join(lines)

    def classes(self) -> Dict[float, RiskPreference]:
        """The behavioural class of every plotted κ."""
        return {kappa: classify_kappa(kappa) for kappa in self.curves}


def run_fig04(
    kappas: Sequence[float] = (0.5, 1.0, 3.0),
    n_points: int = 11,
) -> RiskCurves:
    """Sample the Fig.-4 curves (defaults: one per attacker type)."""
    gammas = np.linspace(0.0, 1.0, n_points)
    curves = {float(kappa): risk_curve(gammas, kappa) for kappa in kappas}
    return RiskCurves(gammas=gammas, curves=curves)
