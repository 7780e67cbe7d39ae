"""Integration tests spanning model, solver and simulator layers.

The heart of the reproduction is that three *independent* implementations
agree on the same stage:

1. the two-pole Padé model (moments -> poles -> closed-form response),
2. Talbot numerical inversion of the exact transfer function (Eq. 1),
3. the MNA transient simulator on a discretized ladder.

plus the nonlinear path: calibrated inverters in a ring oscillator showing
the paper's false-switching onset.
"""

import numpy as np
import pytest

from repro import (Stage, rc_optimum, threshold_delay, units)
from repro.analysis import Waveform, step_response_exact
from repro.circuits import build_linear_stage, simulate
from repro.verify import unit_tolerance


@pytest.fixture(scope="module")
def validation_node():
    from repro import NODE_100NM
    return NODE_100NM


class TestThreeWayCrossValidation:
    @pytest.mark.parametrize("l_nh", [0.0, 1.0, 3.0])
    def test_delay_agreement(self, validation_node, l_nh):
        node = validation_node
        rc_opt = rc_optimum(node.line, node.driver)
        line = node.line_with_inductance(l_nh * units.NH_PER_MM)
        stage = Stage(line=line, driver=node.driver,
                      h=rc_opt.h_opt, k=rc_opt.k_opt)

        tau_pade = threshold_delay(stage).tau

        t_grid = np.linspace(1e-13, 6.0 * tau_pade, 300)
        exact = Waveform(t_grid, step_response_exact(stage, t_grid))
        tau_exact = exact.first_crossing(0.5)

        bench = build_linear_stage(stage, segments=20)
        result = simulate(bench.circuit, 6.0 * tau_pade, tau_pade / 300.0)
        sim = Waveform(result.time, result.voltage(bench.output_node))
        tau_sim = sim.first_crossing(0.5)

        # Simulator vs exact: discretization error only.
        assert tau_sim == pytest.approx(
            tau_exact, rel=unit_tolerance("integration.sim_vs_exact.rel"))
        # Two-pole vs exact: the Pade model error the paper accepts.
        assert tau_pade == pytest.approx(
            tau_exact, rel=unit_tolerance("integration.pade_vs_exact.rel"))

    def test_overshoot_agreement(self, validation_node):
        node = validation_node
        rc_opt = rc_optimum(node.line, node.driver)
        line = node.line_with_inductance(1.0 * units.NH_PER_MM)
        stage = Stage(line=line, driver=node.driver,
                      h=rc_opt.h_opt, k=rc_opt.k_opt)
        tau = threshold_delay(stage).tau

        t_grid = np.linspace(1e-13, 8.0 * tau, 400)
        exact = Waveform(t_grid, step_response_exact(stage, t_grid))
        bench = build_linear_stage(stage, segments=20)
        result = simulate(bench.circuit, 8.0 * tau, tau / 300.0)
        sim = Waveform(result.time, result.voltage(bench.output_node))
        assert sim.overshoot(1.0) == pytest.approx(
            exact.overshoot(1.0),
            abs=unit_tolerance("integration.overshoot.abs"))

    def test_segment_convergence(self, validation_node):
        """Ladder delay converges toward the exact value as N grows."""
        node = validation_node
        rc_opt = rc_optimum(node.line, node.driver)
        line = node.line_with_inductance(1.0 * units.NH_PER_MM)
        stage = Stage(line=line, driver=node.driver,
                      h=rc_opt.h_opt, k=rc_opt.k_opt)
        tau = threshold_delay(stage).tau
        t_grid = np.linspace(1e-13, 6.0 * tau, 300)
        exact_tau = Waveform(t_grid, step_response_exact(stage, t_grid)) \
            .first_crossing(0.5)

        errors = []
        for segments in (2, 8, 24):
            bench = build_linear_stage(stage, segments=segments)
            result = simulate(bench.circuit, 6.0 * tau, tau / 300.0)
            sim_tau = Waveform(result.time,
                               result.voltage(bench.output_node)) \
                .first_crossing(0.5)
            errors.append(abs(sim_tau - exact_tau) / exact_tau)
        assert errors[2] < errors[0]
        assert errors[2] < 0.02


#: Transient golden: the reduced ring runs below (10 segments, 9 nominal
#: periods, 450 steps per period) as the dense-LU solver computed them.
#: Keys are (node, l in nH/mm, inverter style); values are the probed
#: output's period in seconds.
GOLDEN_PERIODS = {
    ("100nm", 1.4, "mosfet"): 2.1340463828332066e-09,
    ("100nm", 2.6, "mosfet"): 1.00552291263874e-09,
    ("250nm", 0.5, "mosfet"): 3.428838892351317e-09,
    ("250nm", 2.6, "mosfet"): 5.043437610641903e-09,
    ("100nm", 1.6, "mosfet"): 2.268815053678724e-09,
    ("100nm", 2.0, "switch"): 2.341242226500545e-09,
    ("100nm", 4.0, "switch"): 1.2414607306060274e-09,
    ("100nm", 1.0, "mosfet"): 1.8430413623386928e-09,
}

#: First-segment peak and rms current density (A/m^2) of the probed line
#: of the 100 nm, 1.0 nH/mm run, second half of the simulation.
GOLDEN_DENSITY = {"peak": 2284867139.0654974, "rms": 1189429844.116929}


def _ring(node, l_nh, style="mosfet"):
    """Run one reduced ring and check its period against the golden."""
    from repro.experiments.ring import run_ring
    run_data = run_ring(node, l_nh, segments=10, style=style,
                        period_budget=9.0, steps_per_period=450)
    assert run_data.period() == pytest.approx(
        GOLDEN_PERIODS[(node, l_nh, style)],
        rel=unit_tolerance("transient.golden.rel"))
    return run_data


class TestRingOscillatorFailure:
    """The paper's Sec. 3.3.1 mechanism end to end (reduced cost)."""

    def test_period_collapses_above_onset_100nm(self):
        period_low = _ring("100nm", 1.4).period()
        period_high = _ring("100nm", 2.6).period()
        assert period_high < 0.6 * period_low

    def test_250nm_immune_at_same_inductance(self):
        low = _ring("250nm", 0.5)
        high = _ring("250nm", 2.6)
        assert high.period() > 0.8 * low.period()

    def test_input_rings_output_clean_below_onset(self):
        run_data = _ring("100nm", 1.6)
        vdd = run_data.oscillator.vdd
        vin = run_data.input_waveform
        vout = run_data.output_waveform
        assert vin.overshoot(vdd) > 0.3       # hard ringing at the input
        assert vout.overshoot(vdd) < 0.15     # output essentially clean

    def test_switch_inverter_shows_same_mechanism(self):
        """The failure onset is not a MOSFET-model artifact.  The switch
        inverter's stiff bidirectional output damps the line harder, so
        its collapse onset sits higher in l (~4 nH/mm vs ~2 for the
        calibrated MOSFET) — but the collapse itself is reproduced."""
        low = _ring("100nm", 2.0, style="switch")
        high = _ring("100nm", 4.0, style="switch")
        assert high.period() < 0.7 * low.period()


class TestCurrentDensityPath:
    def test_density_reported_and_bounded(self):
        from repro.analysis.currents import current_density_report
        from repro.tech import NODE_100NM
        run_data = _ring("100nm", 1.0)
        ladder = run_data.oscillator.ladders[run_data.probe_stage]
        report = current_density_report(
            run_data.result, ladder, NODE_100NM.geometry.cross_section_area)
        # Sub-MA/cm^2 regime, comfortably inside reliability limits.
        assert 1e3 < report.rms_density_a_per_cm2 < 1e7
        assert report.peak_density > report.rms_density
        golden = unit_tolerance("transient.golden.rel")
        assert report.peak_density == pytest.approx(
            GOLDEN_DENSITY["peak"], rel=golden)
        assert report.rms_density == pytest.approx(
            GOLDEN_DENSITY["rms"], rel=golden)
