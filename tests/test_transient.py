"""Transient solver tests against closed-form circuit responses."""

import math

import numpy as np
import pytest

from repro.circuits import (Circuit, GROUND, Mosfet, Step, TransientOptions,
                            TransientSolver, simulate)
from repro.errors import NetlistError, SimulationError


def rc_charge_circuit(r=1000.0, c=1e-12, v=1.0):
    circuit = Circuit("rc")
    circuit.voltage_source("V1", "in", GROUND, Step(level=v))
    circuit.resistor("R1", "in", "out", r)
    circuit.capacitor("C1", "out", GROUND, c)
    return circuit


class TestLinearAccuracy:
    def test_rc_charging_matches_exponential(self):
        r, c = 1000.0, 1e-12
        tau = r * c
        result = simulate(rc_charge_circuit(r, c), 5.0 * tau, tau / 200.0)
        expected = 1.0 - np.exp(-result.time / tau)
        assert result.voltage("out") == pytest.approx(expected, abs=2e-3)

    def test_rl_current_rise(self):
        """Series R-L driven by a step: i = (V/R)(1 - exp(-tR/L))."""
        r, l, v = 100.0, 1e-9, 1.0
        tau = l / r
        circuit = Circuit("rl")
        circuit.voltage_source("V1", "in", GROUND, Step(level=v))
        circuit.resistor("R1", "in", "mid", r)
        circuit.inductor("L1", "mid", GROUND, l)
        result = simulate(circuit, 5.0 * tau, tau / 200.0)
        expected = (v / r) * (1.0 - np.exp(-result.time / tau))
        assert result.branch_current("L1") == pytest.approx(expected,
                                                            abs=2e-3 * v / r)

    def test_lc_oscillation_frequency_and_energy(self):
        """Undriven LC tank rings at 1/(2 pi sqrt(LC)) without decay."""
        l, c, v0 = 1e-9, 1e-12, 1.0
        circuit = Circuit("lc")
        circuit.inductor("L1", "a", GROUND, l)
        circuit.capacitor("C1", "a", GROUND, c, initial_voltage=v0)
        period = 2.0 * math.pi * math.sqrt(l * c)
        result = simulate(circuit, 10.0 * period, period / 400.0,
                          initial_voltages={"a": v0})
        voltage = result.voltage("a")
        from repro.analysis import Waveform
        waveform = Waveform(result.time, voltage)
        measured = waveform.oscillation_period(0.0, skip=1)
        assert measured == pytest.approx(period, rel=1e-3)
        # Trapezoidal integration conserves LC energy (no artificial decay):
        late_peak = np.max(np.abs(voltage[-int(len(voltage) / 5):]))
        assert late_peak == pytest.approx(v0, rel=2e-2)

    def test_rlc_series_underdamped_ringing(self):
        """Series RLC: damped frequency sqrt(1/LC - (R/2L)^2)."""
        r, l, c = 10.0, 1e-9, 1e-12
        circuit = Circuit("rlc")
        circuit.voltage_source("V1", "in", GROUND, Step(level=1.0))
        circuit.resistor("R1", "in", "a", r)
        circuit.inductor("L1", "a", "b", l)
        circuit.capacitor("C1", "b", GROUND, c)
        alpha = r / (2.0 * l)
        wd = math.sqrt(1.0 / (l * c) - alpha * alpha)
        period = 2.0 * math.pi / wd
        result = simulate(circuit, 8.0 * period, period / 400.0)
        from repro.analysis import Waveform
        waveform = Waveform(result.time, result.voltage("b"))
        assert waveform.oscillation_period(1.0, skip=1) == pytest.approx(
            period, rel=5e-3)
        overshoot = waveform.overshoot(1.0)
        expected = math.exp(-alpha * math.pi / wd)
        assert overshoot == pytest.approx(expected, rel=0.05)

    def test_backward_euler_damps_lc(self):
        """BE is dissipative: the LC amplitude must visibly decay."""
        l, c, v0 = 1e-9, 1e-12, 1.0
        circuit = Circuit("lc-be")
        circuit.inductor("L1", "a", GROUND, l)
        circuit.capacitor("C1", "a", GROUND, c, initial_voltage=v0)
        period = 2.0 * math.pi * math.sqrt(l * c)
        result = simulate(circuit, 10.0 * period, period / 100.0,
                          initial_voltages={"a": v0},
                          options=TransientOptions(method="backward_euler"))
        voltage = result.voltage("a")
        late_peak = np.max(np.abs(voltage[-int(len(voltage) / 5):]))
        assert late_peak < 0.5 * v0

    def test_voltage_source_branch_current(self):
        """Source current equals -(load current) through a resistor."""
        circuit = Circuit("divider")
        circuit.voltage_source("V1", "in", GROUND, 2.0)
        circuit.resistor("R1", "in", GROUND, 100.0)
        result = simulate(circuit, 1e-9, 1e-11)
        # 20 mA flows from the source's + node through R1 to ground; the
        # branch current (a -> b through the source) is therefore -20 mA.
        assert result.branch_current("V1")[-1] == pytest.approx(-0.02,
                                                                rel=1e-6)

    def test_resistor_current_helper(self):
        circuit = Circuit("divider")
        circuit.voltage_source("V1", "in", GROUND, 2.0)
        circuit.resistor("R1", "in", GROUND, 100.0)
        result = simulate(circuit, 1e-9, 1e-11)
        assert result.resistor_current("R1")[-1] == pytest.approx(0.02,
                                                                  rel=1e-6)
        with pytest.raises(SimulationError):
            result.resistor_current("V1")

    def test_initial_conditions_respected(self):
        circuit = Circuit("ic")
        circuit.resistor("R1", "a", GROUND, 1000.0)
        circuit.capacitor("C1", "a", GROUND, 1e-12)
        result = simulate(circuit, 5e-9, 1e-11, initial_voltages={"a": 1.0})
        v = result.voltage("a")
        assert v[0] == pytest.approx(1.0)
        tau = 1000.0 * 1e-12
        expected = np.exp(-result.time / tau)
        assert v == pytest.approx(expected, abs=5e-3)


class TestSolverBehaviour:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(SimulationError):
            simulate(rc_charge_circuit(), 0.0, 1e-12)
        with pytest.raises(SimulationError):
            simulate(rc_charge_circuit(), 1e-9, -1e-12)

    def test_validates_netlist_on_construction(self):
        circuit = Circuit("bad")
        circuit.resistor("R1", "a", "b", 100.0)
        circuit.resistor("R2", "a", GROUND, 100.0)
        with pytest.raises(Exception):
            TransientSolver(circuit)

    def test_final_voltages_helper(self):
        result = simulate(rc_charge_circuit(), 20e-9, 1e-11)
        finals = result.final_voltages()
        assert finals["out"] == pytest.approx(1.0, abs=1e-3)
        assert finals[GROUND] == 0.0

    def test_result_time_grid(self):
        result = simulate(rc_charge_circuit(), 1e-9, 1e-10)
        assert result.time[0] == 0.0
        assert result.time[-1] == pytest.approx(1e-9)
        assert np.all(np.diff(result.time) > 0.0)

    def test_node_names_listed(self):
        result = simulate(rc_charge_circuit(), 1e-10, 1e-11)
        assert set(result.node_names) == {"in", "out"}

    def test_unknown_integration_method_rejected(self):
        with pytest.raises(ValueError):
            TransientOptions(method="magic")


class TestUnknownNames:
    """Unknown node or element names raise NetlistError naming them."""

    def test_voltage_of_unknown_node(self):
        result = simulate(rc_charge_circuit(), 1e-10, 1e-11)
        with pytest.raises(NetlistError, match="'nope'"):
            result.voltage("nope")

    def test_branch_current_of_resistor(self):
        result = simulate(rc_charge_circuit(), 1e-10, 1e-11)
        with pytest.raises(NetlistError, match="'R1'.*no branch current"):
            result.branch_current("R1")

    def test_initial_voltage_of_unknown_node(self):
        with pytest.raises(NetlistError, match="'otu'"):
            simulate(rc_charge_circuit(), 1e-10, 1e-11,
                     initial_voltages={"otu": 1.0})


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
class TestSingularMatrix:
    """Two voltage sources across one node pair make the step matrix
    singular; the solver must say so instead of returning garbage."""

    def test_parallel_sources_linear_circuit(self):
        circuit = Circuit("parallel sources")
        circuit.voltage_source("V1", "a", GROUND, 1.0)
        circuit.voltage_source("V2", "a", GROUND, 1.0)
        circuit.resistor("R1", "a", "b", 100.0)
        circuit.capacitor("C1", "b", GROUND, 1e-12)
        with pytest.raises(SimulationError, match="singular"):
            simulate(circuit, 1e-10, 1e-11)

    def test_parallel_rails_in_the_nonlinear_block(self):
        """Both rail sources sit on a MOSFET terminal, so their currents
        join the Newton block; the gate is fed through a linear part."""
        circuit = Circuit("parallel rails")
        circuit.voltage_source("VDD1", "vdd", GROUND, 1.2)
        circuit.voltage_source("VDD2", "vdd", GROUND, 1.2)
        circuit.voltage_source("VIN", "src", GROUND, Step(level=1.2))
        circuit.resistor("RIN", "src", "in", 100.0)
        circuit.add(Mosfet(name="MN", drain="out", gate="in", source=GROUND,
                           polarity=1, vth=0.3, beta=1e-4))
        circuit.add(Mosfet(name="MP", drain="out", gate="in", source="vdd",
                           polarity=-1, vth=0.3, beta=1e-4))
        circuit.capacitor("CL", "out", GROUND, 1e-15)
        with pytest.raises(SimulationError, match="singular"):
            simulate(circuit, 1e-10, 1e-11,
                     initial_voltages={"vdd": 1.2, "out": 1.2})
