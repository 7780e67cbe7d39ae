"""Unit tests for MNA assembly and the DC operating point."""

import pytest

from repro.circuits import (Circuit, GROUND, MnaStructure, Mosfet,
                            dc_operating_point)
from repro.errors import NetlistError, SimulationError


class TestStructure:
    def test_index_maps(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "a", GROUND, 1.0)
        circuit.resistor("R1", "a", "b", 100.0)
        circuit.inductor("L1", "b", "c", 1e-9)
        circuit.capacitor("C1", "c", GROUND, 1e-12)
        structure = MnaStructure(circuit)
        assert structure.n_nodes == 3
        assert structure.n_branches == 2      # inductor + source
        assert structure.size == 5
        assert structure.node_index(GROUND) == -1
        assert structure.node_index("a") == 0
        assert structure.branch_row("L1") == 3
        assert structure.branch_row("V1") == 4

    def test_unknown_names_raise_netlist_error(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "a", GROUND, 1.0)
        circuit.resistor("R1", "a", GROUND, 100.0)
        structure = MnaStructure(circuit)
        with pytest.raises(NetlistError, match="'zz'"):
            structure.node_index("zz")
        with pytest.raises(NetlistError, match="'R1'.*no branch current"):
            structure.branch_row("R1")
        with pytest.raises(NetlistError, match="no element 'L9'"):
            structure.branch_row("L9")

    def test_terminal_block_holds_device_nodes_and_their_rail(self):
        """T: the MOSFET terminals plus the rail source sitting on them;
        the resistor-fed source and its node stay in the linear block."""
        circuit = Circuit()
        circuit.voltage_source("VDD", "vdd", GROUND, 1.2)
        circuit.voltage_source("VIN", "src", GROUND, 0.0)
        circuit.resistor("RIN", "src", "in", 100.0)
        circuit.add(Mosfet(name="MN", drain="out", gate="in", source=GROUND,
                           polarity=1, vth=0.3, beta=1e-4))
        circuit.add(Mosfet(name="MP", drain="out", gate="in", source="vdd",
                           polarity=-1, vth=0.3, beta=1e-4))
        circuit.capacitor("CL", "out", GROUND, 1e-15)
        structure = MnaStructure(circuit)
        t_rows, l_rows, local = structure.terminal_block()
        index = structure.node_index
        assert t_rows.tolist() == sorted([index("vdd"), index("in"),
                                          index("out"),
                                          structure.branch_row("VDD")])
        assert l_rows.tolist() == sorted([index("src"),
                                          structure.branch_row("VIN")])
        assert local[GROUND] == -1
        for node in ("vdd", "in", "out"):
            assert t_rows[local[node]] == index(node)


class TestDcOperatingPoint:
    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", GROUND, 3.0)
        circuit.resistor("R1", "in", "mid", 1000.0)
        circuit.resistor("R2", "mid", GROUND, 2000.0)
        solution = dc_operating_point(circuit)
        assert solution["in"] == pytest.approx(3.0)
        assert solution["mid"] == pytest.approx(2.0, rel=1e-6)

    def test_inductor_is_dc_short(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", GROUND, 1.0)
        circuit.resistor("R1", "in", "a", 100.0)
        circuit.inductor("L1", "a", "b", 1e-9)
        circuit.resistor("R2", "b", GROUND, 100.0)
        solution = dc_operating_point(circuit)
        assert solution["a"] == pytest.approx(solution["b"], abs=1e-9)
        assert solution["a"] == pytest.approx(0.5, rel=1e-6)

    def test_capacitor_is_dc_open(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "in", GROUND, 1.0)
        circuit.resistor("R1", "in", "out", 1000.0)
        circuit.capacitor("C1", "out", GROUND, 1e-12)
        solution = dc_operating_point(circuit)
        # No DC path through the capacitor: out floats up to the source.
        assert solution["out"] == pytest.approx(1.0, rel=1e-3)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        circuit.current_source("I1", GROUND, "a", 1e-3)
        circuit.resistor("R1", "a", GROUND, 1000.0)
        solution = dc_operating_point(circuit)
        assert solution["a"] == pytest.approx(1.0, rel=1e-6)

    def test_cmos_inverter_transfer_points(self):
        """Gate low -> output at VDD; gate high -> output near ground."""
        vdd, vth, beta = 1.2, 0.3, 1e-4
        for vin, expected in ((0.0, vdd), (vdd, 0.0)):
            circuit = Circuit()
            circuit.voltage_source("VDD", "vdd", GROUND, vdd)
            circuit.voltage_source("VIN", "g", GROUND, vin)
            circuit.add(Mosfet(name="MN", drain="out", gate="g",
                               source=GROUND, polarity=1, vth=vth,
                               beta=beta))
            circuit.add(Mosfet(name="MP", drain="out", gate="g",
                               source="vdd", polarity=-1, vth=vth,
                               beta=beta))
            solution = dc_operating_point(circuit)
            assert solution["out"] == pytest.approx(expected, abs=0.05)

    def test_symmetric_inverter_trip_point(self):
        """Equal-beta inverter balances at VDD/2 (lam > 0 pins the output;
        with lam = 0 the output would be indeterminate across the shared
        saturation plateau)."""
        vdd, vth, beta = 1.2, 0.3, 1e-4
        circuit = Circuit()
        circuit.voltage_source("VDD", "vdd", GROUND, vdd)
        circuit.voltage_source("VIN", "g", GROUND, vdd / 2.0)
        circuit.add(Mosfet(name="MN", drain="out", gate="g", source=GROUND,
                           polarity=1, vth=vth, beta=beta, lam=0.05))
        circuit.add(Mosfet(name="MP", drain="out", gate="g", source="vdd",
                           polarity=-1, vth=vth, beta=beta, lam=0.05))
        solution = dc_operating_point(circuit)
        assert solution["out"] == pytest.approx(vdd / 2.0, abs=0.05)

    def test_ground_always_zero(self):
        circuit = Circuit()
        circuit.voltage_source("V1", "a", GROUND, 5.0)
        circuit.resistor("R1", "a", GROUND, 1.0)
        assert dc_operating_point(circuit)[GROUND] == 0.0
