"""The transient solver against a dense per-element reference.

The reference below is the straightforward form of the fixed-step
algorithm: every step re-stamps each element into a dense MNA matrix and
every Newton iteration solves the full system.  The solver computes the
same steps through index arrays, a linear block factored once per step
size and a Schur complement on the nonlinear terminals, so its
elimination order differs and the two agree to the transient ledger
bound, relative to each waveform's scale.
"""

import math

import numpy as np
import pytest

from repro.circuits import (Circuit, GROUND, MnaStructure, Pulse, Step,
                            TransientOptions, add_rlc_ladder, simulate)
from repro.circuits.inverter import (InverterCalibration,
                                     add_mosfet_inverter, add_switch_inverter)
from repro.core.params import DriverParams, LineParams
from repro.verify import unit_tolerance


def dense_reference(circuit, t_end, dt, *, initial_voltages=None,
                    options=None):
    """States (n_points, size) of the fixed-step run, without halving."""
    options = options or TransientOptions()
    mna = MnaStructure(circuit)
    index = mna.node_index

    def v(x, node):
        return 0.0 if index(node) < 0 else x[index(node)]

    x = np.zeros(mna.size)
    for node, value in (initial_voltages or {}).items():
        if index(node) >= 0:
            x[index(node)] = value
    for inductor in mna.inductors:
        x[mna.branch_row(inductor.name)] = inductor.initial_current
    cap_v = [c.initial_voltage if c.initial_voltage is not None
             else v(x, c.a) - v(x, c.b) for c in mna.capacitors]
    cap_i = [0.0] * len(mna.capacitors)
    states = [x]
    t = 0.0
    for step in range(1, int(math.ceil(t_end / dt * (1.0 - 1e-12))) + 1):
        method = "backward_euler" if step == 1 else options.method
        trapezoidal = method == "trapezoidal"
        factor = 2.0 if trapezoidal else 1.0
        h = min(step * dt, t_end) - t
        base = np.zeros((mna.size, mna.size))
        mna.stamp_static(base, gmin=options.gmin)
        rhs = np.zeros(mna.size)
        for j, cap in enumerate(mna.capacitors):
            geq = factor * cap.capacitance / h
            ia, ib = index(cap.a), index(cap.b)
            mna.stamp_conductance(base, ia, ib, geq)
            hist = geq * cap_v[j] + cap_i[j] if trapezoidal \
                else geq * cap_v[j]
            if ia >= 0:
                rhs[ia] += hist
            if ib >= 0:
                rhs[ib] -= hist
        for inductor in mna.inductors:
            row = mna.branch_row(inductor.name)
            base[row, row] -= factor * inductor.inductance / h
            hist = factor * inductor.inductance / h * x[row]
            if trapezoidal:
                hist += v(x, inductor.a) - v(x, inductor.b)
            rhs[row] = -hist
        for row_a, row_b, m in mna.mutual_terms:
            base[row_a, row_b] -= factor * m / h
            base[row_b, row_a] -= factor * m / h
            rhs[row_a] -= factor * m / h * x[row_b]
            rhs[row_b] -= factor * m / h * x[row_a]
        for source in mna.voltage_sources:
            rhs[mna.branch_row(source.name)] = source.waveform(t + h)
        mna.stamp_current_sources(rhs, t + h)

        x_new = x.copy()
        for _ in range(options.max_newton_iterations):
            matrix, r = mna.stamp_nonlinear(x_new[None], base[None],
                                            rhs[None])
            x_next = np.linalg.solve(matrix[0], r[0])
            delta = x_next - x_new
            max_delta = float(np.max(np.abs(delta)))
            if max_delta > options.max_update:
                x_new = x_new + delta * (options.max_update / max_delta)
                continue
            x_new = x_next
            if np.all(np.abs(delta)
                      <= options.abstol + options.reltol * np.abs(x_next)):
                break
        else:
            raise AssertionError(f"reference Newton failed at step {step}")
        for j, cap in enumerate(mna.capacitors):
            v_next = v(x_new, cap.a) - v(x_new, cap.b)
            geq = factor * cap.capacitance / h
            cap_i[j] = (geq * v_next - (geq * cap_v[j] + cap_i[j])
                        if trapezoidal else geq * (v_next - cap_v[j]))
            cap_v[j] = v_next
        x = x_new
        t += h
        states.append(x)
    return np.array(states)


def coupled_lines():
    """Two mutually coupled RLC lines: a step source, a current source,
    a coupling capacitor, and initial capacitor voltage and inductor
    current."""
    circuit = Circuit("coupled lines")
    circuit.voltage_source("V1", "in1", GROUND,
                           Pulse(v1=0.0, v2=1.0, delay=5e-12, rise=2e-11,
                                 fall=2e-11, width=2e-10, period=5e-10))
    circuit.resistor("R1", "in1", "a1", 50.0)
    circuit.inductor("L1", "a1", "b1", 2e-9)
    circuit.capacitor("C1", "b1", GROUND, 2e-13, initial_voltage=0.2)
    circuit.resistor("RL1", "b1", GROUND, 500.0)
    circuit.current_source("I2", GROUND, "in2", 1e-3)
    circuit.resistor("RS2", "in2", GROUND, 100.0)
    circuit.resistor("R2", "in2", "a2", 50.0)
    circuit.inductor("L2", "a2", "b2", 2e-9, initial_current=1e-4)
    circuit.capacitor("C2", "b2", GROUND, 2e-13)
    circuit.resistor("RL2", "b2", GROUND, 500.0)
    circuit.mutual("K12", "L1", "L2", 0.4)
    circuit.capacitor("CC", "b1", "b2", 5e-14)
    return circuit, None


def inverter_chain():
    """A CMOS inverter driving an RLC ladder into a switch inverter."""
    driver = DriverParams(r_s=8000.0, c_0=1e-15, c_p=3e-15)
    calibration = InverterCalibration(vdd=1.2, vth=0.3, beta=2e-4,
                                      lam=0.05, driver=driver)
    circuit = Circuit("inverter chain")
    circuit.voltage_source("VDD", "vdd", GROUND, 1.2)
    circuit.voltage_source("VIN", "src", GROUND,
                           Pulse(v1=0.0, v2=1.2, delay=2e-11, rise=1e-11,
                                 fall=1e-11, width=1.5e-10, period=4e-10))
    circuit.resistor("RIN", "src", "g", 200.0)
    add_mosfet_inverter(circuit, "inv1", "g", "d", "vdd", calibration, 20.0)
    line = LineParams(r=4400.0, l=1.5e-6, c=1.2e-10)
    add_rlc_ladder(circuit, "line", "d", "far", line, 2e-3, 6)
    add_switch_inverter(circuit, "inv2", "far", "out", calibration, 20.0)
    circuit.resistor("RLOAD", "out", GROUND, 1e5)
    return circuit, {"vdd": 1.2, "d": 1.2}


@pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
@pytest.mark.parametrize("build", [coupled_lines, inverter_chain])
def test_solver_matches_dense_reference(build, method):
    circuit, initial = build()
    options = TransientOptions(method=method, max_update=2.4)
    t_end, dt = 6e-10, 2e-12
    result = simulate(circuit, t_end, dt, initial_voltages=initial,
                      options=options)
    reference = dense_reference(circuit, t_end, dt,
                                initial_voltages=initial, options=options)
    states = np.column_stack(
        [result.voltage(n) for n in result.node_names]
        + [result.branch_current(e) for e in _branch_names(circuit)])
    assert states.shape == reference.shape
    scale = np.max(np.abs(reference), axis=0)
    error = np.max(np.abs(states - reference), axis=0)
    bound = unit_tolerance("transient.golden.rel")
    assert np.all(error <= bound * np.maximum(scale, 1e-30))


def _branch_names(circuit):
    mna = MnaStructure(circuit)
    return [e.name for e in (*mna.inductors, *mna.voltage_sources)]
