"""Per-figure drivers (fast smoke-level runs; benches do the full sweeps)."""

import numpy as np
import pytest

from repro.experiments.fig01_cwnd import run_fig01
from repro.experiments.fig02_pattern import ideal_incoming_traffic, run_fig02
from repro.experiments.fig04_risk import run_fig04
from repro.experiments.fig06_09_gain import FIGURE_RATES, run_gain_figure
from repro.experiments.fig10_shrew import SHREW_CASES, _shrew_gammas
from repro.experiments.fig12_testbed import TESTBED_RATES
from repro.core.attack import PulseTrain
from repro.core.throughput import VictimPopulation
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms


class TestFig01:
    def test_trajectory_tracks_analytic_transient(self):
        result = run_fig01(n_pulses=10)
        assert result.w_converged == pytest.approx(20.0 / 2)  # d=2, T=2, RTT=.2
        assert len(result.epochs) == 10
        # The first pre-attack window must match exactly (no pulses yet).
        t0, measured0, analytic0 = result.epochs[0]
        assert measured0 == pytest.approx(analytic0)

    def test_render_contains_wc(self):
        result = run_fig01(n_pulses=6)
        assert "W_c" in result.render()


class TestFig02:
    def test_period_recovered_from_model_series(self):
        result = run_fig02()
        assert result.report.consistent_with(result.attack_period)
        assert result.report.acf_period == pytest.approx(2.0, rel=0.1)

    def test_ideal_series_rates(self):
        train = PulseTrain.uniform(0.05, mbps(100), 1.95, n_pulses=4)
        victims = VictimPopulation(rtts=[0.1, 0.2], delayed_ack=2)
        series = ideal_incoming_traffic(train, victims, bin_width=0.01)
        # During a pulse the series must dwarf the between-pulse level.
        assert series[:5].mean() > 10 * series[20:100].mean()


class TestFig04:
    def test_curve_family(self):
        curves = run_fig04(kappas=(0.5, 1.0, 3.0), n_points=5)
        assert set(curves.curves) == {0.5, 1.0, 3.0}
        for values in curves.curves.values():
            assert values[0] == 1.0
            assert values[-1] == 0.0

    def test_render(self):
        assert "risk" in run_fig04().render()


class TestFig0609Config:
    def test_figure_rates_match_paper(self):
        assert FIGURE_RATES == {6: mbps(25), 7: mbps(30), 8: mbps(35),
                                9: mbps(40)}

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValidationError):
            run_gain_figure(5)

    def test_tiny_run_structure(self):
        fig = run_gain_figure(6, flow_counts=[5], extents=[ms(100)],
                              gammas=[0.4, 0.6])
        assert list(fig.panels) == [5]
        curves = fig.panels[5]
        assert len(curves) == 1
        assert len(curves[0].points) == 2
        assert "Fig. 6" in fig.render()

    def test_environment_cannot_divert_the_dense_grid(self, monkeypatch):
        from repro.runner import ExperimentRunner, set_default_runner

        def planned_keys():
            dry = ExperimentRunner(dry_run=True)
            previous = set_default_runner(dry)
            try:
                run_gain_figure(6)
            finally:
                set_default_runner(previous)
            return [entry.key for entry in dry.dry_run_plan.entries]

        monkeypatch.delenv("REPRO_FAST", raising=False)
        monkeypatch.delenv("REPRO_NO_FLUID", raising=False)
        dense = planned_keys()
        monkeypatch.setenv("REPRO_FAST", "1")
        monkeypatch.setenv("REPRO_NO_FLUID", "1")
        assert planned_keys() == dense
        assert dense


class TestFig10Config:
    def test_cases_match_paper(self):
        labels = [label for label, _, _ in SHREW_CASES]
        assert any("30M" in label for label in labels)
        assert any("40M" in label for label in labels)
        assert any("50M" in label for label in labels)

    def test_shrew_gammas_land_on_harmonics(self):
        gammas = _shrew_gammas(mbps(30), ms(100), bottleneck_bps=mbps(15),
                               min_rto=1.0)
        assert gammas == pytest.approx([0.2, 0.4, 0.6, 0.8])
        # Each produces a period on a minRTO harmonic.
        for gamma in gammas:
            period = 30e6 * 0.1 / (gamma * 15e6)
            assert any(
                abs(period - 1.0 / n) < 1e-9 for n in range(1, 6)
            )


class TestFig12Config:
    def test_rates_match_paper(self):
        assert list(TESTBED_RATES) == [mbps(15), mbps(20), mbps(30)]
