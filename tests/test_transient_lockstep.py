"""The lockstep transient: N circuits of one layout advanced together.

Every lane must be bitwise its own N = 1 run, through the Newton
iterations, the step halvings and the failures; a run may record only
some unknowns and may stop at a measured crossing without changing what
it measures; and the ring sweep shares its rings through a memo.
"""

import sys
import threading

import numpy as np
import pytest

from repro import rc_optimum, units
from repro.circuits import (Circuit, Crossing, GROUND, MnaStructure, Mosfet,
                            Step, TransientOptions, TransientSolver,
                            build_ring_oscillator)
from repro.circuits import transient as transient_module
from repro.errors import NetlistError, SimulationError
from repro.experiments import ring
from repro.tech import NODE_100NM, characterize

#: The fig11 ``--fast`` inductances (nH/mm).
L_VALUES = (1.0, 1.8, 2.2, 3.0)


def ring_circuits(l_values, segments=4):
    """100 nm rings at RC-optimal sizing, with their initial voltages."""
    calibration = ring.calibrated("100nm")
    rc_opt = rc_optimum(NODE_100NM.line, NODE_100NM.driver)
    oscillators = [
        build_ring_oscillator(
            calibration, NODE_100NM.line_with_inductance(l * units.NH_PER_MM),
            rc_opt.h_opt, rc_opt.k_opt, segments=segments)
        for l in l_values]
    return ([o.circuit for o in oscillators],
            [o.initial_voltages() for o in oscillators])


def run(circuits, initial, options, **kwargs):
    """Three nominal periods at 200 steps per period."""
    nominal = ring.expected_period(NODE_100NM)
    return TransientSolver(circuits, options).run(
        3.0 * nominal, nominal / 200.0, initial_voltages=initial, **kwargs)


def ring_options(**overrides):
    return TransientOptions(max_update=max(1.0, 2.0 * NODE_100NM.vdd),
                            **overrides)


def all_unknowns(result, circuit):
    """(n_points, size) of a one-lane result of ``circuit``: node voltages,
    then branch currents, in MNA order."""
    structure = MnaStructure(circuit)
    branches = [e.name for e in (*structure.inductors,
                                 *structure.voltage_sources)]
    return np.column_stack([result.voltage(n) for n in result.node_names]
                           + [result.branch_current(b) for b in branches])


def assert_lanes_are_solo_runs(lockstep, solos, circuits):
    assert lockstep.lanes == len(circuits)
    for i, (solo, circuit) in enumerate(zip(solos, circuits)):
        assert np.array_equal(lockstep.time, solo.time)
        assert np.array_equal(all_unknowns(lockstep.lane(i), circuit),
                              all_unknowns(solo, circuit))


class TestLanesAreSoloRuns:
    def test_every_unknown_of_every_lane_is_bitwise(self):
        circuits, initial = ring_circuits(L_VALUES)
        solos = [run(c, v, ring_options()) for c, v in zip(circuits, initial)]
        assert_lanes_are_solo_runs(run(circuits, initial, ring_options()),
                                   solos, circuits)

    def test_forced_halving_keeps_lanes_bitwise(self, monkeypatch):
        """Three Newton iterations are too few for many steps: each lane
        halves, at its own steps, alone, and rejoins."""
        circuits, initial = ring_circuits(L_VALUES)
        options = ring_options(max_newton_iterations=3)
        nominal_dt = ring.expected_period(NODE_100NM) / 200.0
        halved = []
        single_step = TransientSolver._single_step

        def spy(self, lanes, x, *args):
            dt = args[3]
            if dt < 0.9 * nominal_dt:
                halved.extend(range(lanes.start, lanes.stop))
            return single_step(self, lanes, x, *args)

        monkeypatch.setattr(TransientSolver, "_single_step", spy)
        solos, solo_counts = [], []
        for circuit, voltages in zip(circuits, initial):
            halved.clear()
            solos.append(run(circuit, voltages, options))
            solo_counts.append(len(halved))
        assert solo_counts == [302, 198, 164, 126]
        halved.clear()
        lockstep = run(circuits, initial, options)
        assert [halved.count(lane) for lane in range(4)] == solo_counts
        assert_lanes_are_solo_runs(lockstep, solos, circuits)

    def test_lockstep_raises_the_first_failing_lanes_own_error(self):
        circuits, initial = ring_circuits(L_VALUES)
        options = ring_options(max_newton_iterations=2)
        with pytest.raises(SimulationError) as solo:
            run(circuits[0], initial[0], options)
        with pytest.raises(SimulationError) as lockstep:
            run(circuits, initial, options)
        assert "t=1.50242e-10" in str(solo.value)
        assert str(lockstep.value) == str(solo.value)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_singular_lanes_raise_their_own_error(self, nonlinear):
        """Parallel sources make the linear block (or, on MOSFET rails,
        the Newton block) singular in every lane: the stacked solve fails
        as a whole, and the lockstep raises lane 0's own error."""
        def parallel_sources(v):
            circuit = Circuit(f"parallel sources {v}")
            circuit.voltage_source("V1", "a", GROUND, v)
            circuit.voltage_source("V2", "a", GROUND, v)
            circuit.voltage_source("VIN", "src", GROUND, Step(level=v))
            circuit.resistor("RIN", "src", "b", 100.0)
            circuit.capacitor("C1", "b", GROUND, 1e-15)
            if nonlinear:
                circuit.add(Mosfet(name="MN", drain="b", gate="b",
                                   source="a", polarity=1, vth=0.3,
                                   beta=1e-4))
            else:
                circuit.resistor("R1", "a", "b", 100.0)
            return circuit

        circuits = [parallel_sources(1.2), parallel_sources(1.0)]
        with pytest.raises(SimulationError, match="singular") as solo:
            TransientSolver(circuits[0]).run(1e-10, 1e-11)
        with pytest.raises(SimulationError) as lockstep:
            TransientSolver(circuits).run(1e-10, 1e-11)
        assert str(lockstep.value) == str(solo.value)

    def test_coupled_and_linear_lanes(self):
        """Mutual inductors, current sources and initial conditions take
        the stacked right-hand side too; a linear circuit has no Newton."""
        def coupled(k, r):
            circuit = Circuit(f"coupled k={k}")
            circuit.voltage_source("V1", "in1", GROUND,
                                   Step(level=1.0, rise=2e-11))
            circuit.resistor("R1", "in1", "a1", r)
            circuit.inductor("L1", "a1", "b1", 2e-9)
            circuit.capacitor("C1", "b1", GROUND, 2e-13,
                              initial_voltage=0.2)
            circuit.current_source("I2", GROUND, "b2", 1e-3)
            circuit.inductor("L2", "b2", "c2", 3e-9, initial_current=1e-4)
            circuit.resistor("R2", "c2", GROUND, 80.0)
            circuit.capacitor("C2", "b2", GROUND, 2e-13)
            circuit.mutual("K12", "L1", "L2", k)
            circuit.capacitor("CC", "b1", "b2", 5e-14)
            return circuit

        circuits = [coupled(0.2, 50.0), coupled(0.5, 20.0),
                    coupled(0.7, 75.0)]
        for method in ("trapezoidal", "backward_euler"):
            options = TransientOptions(method=method)
            lockstep = TransientSolver(circuits, options).run(4e-10, 2e-12)
            for i, circuit in enumerate(circuits):
                solo = TransientSolver(circuit, options).run(4e-10, 2e-12)
                assert np.array_equal(
                    all_unknowns(lockstep.lane(i), circuit),
                    all_unknowns(solo, circuit))


class TestLayouts:
    def test_mixed_layouts_are_rejected(self):
        circuits, _ = ring_circuits((0.0, 1.0))
        with pytest.raises(NetlistError, match="layout"):
            TransientSolver(circuits)

    def test_initial_voltages_per_lane(self):
        circuits, initial = ring_circuits((1.0, 2.0))
        with pytest.raises(SimulationError, match="2 lanes"):
            TransientSolver(circuits).run(1e-11, 1e-12,
                                          initial_voltages=initial[:1])

    def test_a_multi_lane_result_is_read_lane_by_lane(self):
        circuits, initial = ring_circuits((1.0, 2.0))
        result = TransientSolver(circuits, ring_options()).run(
            2e-12, 1e-12, initial_voltages=initial)
        with pytest.raises(SimulationError, match="lane"):
            result.voltage("vdd")
        assert result.lane(-1).voltage("vdd")[0] == NODE_100NM.vdd

    def test_sweep_with_zero_inductance_matches_solo_runs(self):
        options = dict(segments=4, period_budget=3.0, steps_per_period=200)
        l_values = [1.0, 0.0, 2.0]
        ring._MEMO.clear()
        sweep = ring.run_ring_sweep("100nm", l_values, **options)
        for l_nh, run_data in zip(l_values, sweep):
            ring._MEMO.clear()
            solo = ring.run_ring("100nm", l_nh, **options)
            assert solo is not run_data
            for probe in ("input_waveform", "output_waveform"):
                assert np.array_equal(getattr(run_data, probe).values,
                                      getattr(solo, probe).values)
            ladder = solo.oscillator.ladders[solo.probe_stage]
            name = ladder.current_probe_element(0)
            current = ("branch_current" if ladder.sections[0].inductor
                       else "resistor_current")
            assert np.array_equal(getattr(run_data.result, current)(name),
                                  getattr(solo.result, current)(name))


class TestRecording:
    def test_recorded_waveforms_equal_the_full_recording(self):
        circuits, initial = ring_circuits((1.0, 0.0), segments=3)
        for circuit, voltages in zip(circuits, initial):
            inductive = "s2.line.L1" in circuit
            probe, reader = (("s2.line.L1", "branch_current") if inductive
                             else ("s2.line.R1", "resistor_current"))
            full = run(circuit, voltages, ring_options())
            kept = run(circuit, voltages, ring_options(),
                       record=["s2.in", "s2.out", probe])
            assert np.array_equal(kept.time, full.time)
            for node in ("s2.in", "s2.out", GROUND):
                assert np.array_equal(kept.voltage(node), full.voltage(node))
            assert np.array_equal(getattr(kept, reader)(probe),
                                  getattr(full, reader)(probe))
            with pytest.raises(NetlistError, match="'s3.in'.*not recorded"):
                kept.voltage("s3.in")
            # A resistor's current reads its terminal voltages.
            expected = {GROUND, "s2.in", "s2.out"} | (
                set() if inductive else {"s2.line.n1"})
            assert set(kept.final_voltages()) == expected

    def test_record_names_are_checked(self):
        circuits, initial = ring_circuits((1.0,), segments=3)
        with pytest.raises(NetlistError, match="'nope'"):
            run(circuits[0], initial[0], ring_options(), record=["nope"])

    def test_results_are_read_only(self):
        circuits, initial = ring_circuits((1.0,), segments=3)
        result = run(circuits[0], initial[0], ring_options())
        with pytest.raises(ValueError):
            result.time[0] = 1.0
        result.voltage("s2.in")[0] = 1.0      # accessors return copies


class TestStopAtCrossing:
    def test_crossing_rule_matches_waveform_crossings(self):
        """Strictly before the level, at or past it after."""
        steps = [(0.4, 0.5), (0.5, 0.6), (0.4, 0.45), (0.6, 0.7)]
        rising, falling = Crossing("n", 0.5), Crossing("n", 0.5, rising=False)
        assert [rising.crossed(*s) for s in steps] == \
            [True, False, False, False]
        assert [falling.crossed(b, a) for a, b in steps] == \
            [False, True, False, False]

    def test_falling_delay_is_bitwise_and_the_run_ends_at_it(
            self, monkeypatch):
        calibration = ring.calibrated("100nm")
        c_load = 20.0 * calibration.driver.c_0
        runs = []
        simulate = transient_module.simulate

        def stopped(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        def full(*args, stop=None, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(characterize, "simulate", stopped)
        delay = characterize.measure_falling_delay(calibration, c_load=c_load)
        monkeypatch.setattr(characterize, "simulate", full)
        assert delay == characterize.measure_falling_delay(calibration,
                                                           c_load=c_load)
        short, whole = runs
        out = whole.voltage("out") - 0.5 * calibration.vdd
        step = int(np.flatnonzero((out[:-1] > 0.0) & (out[1:] <= 0.0))[0]) + 1
        assert len(short.time) == step + 1 < len(whole.time)
        assert np.array_equal(short.time, whole.time[:step + 1])
        assert np.array_equal(short.voltage("out"),
                              whole.voltage("out")[:step + 1])


class TestSweepMemo:
    OPTIONS = dict(segments=3, period_budget=2.0, steps_per_period=150)

    @pytest.fixture()
    def lanes_run(self, monkeypatch):
        """The lane count of every lockstep the sweep starts."""
        ring._MEMO.clear()
        counts = []

        class Counting(TransientSolver):
            def run(self, *args, **kwargs):
                counts.append(len(self.structures))
                return super().run(*args, **kwargs)

        monkeypatch.setattr(ring, "TransientSolver", Counting)
        yield counts
        ring._MEMO.clear()

    def test_overlapping_sweep_simulates_only_new_lanes(self, lanes_run):
        first = ring.run_ring_sweep("100nm", [1.0, 2.0, 1.0], **self.OPTIONS)
        assert lanes_run == [2]
        assert first[0] is first[2]
        second = ring.run_ring_sweep("100nm", [2.0, 3.0], **self.OPTIONS)
        assert lanes_run == [2, 1]
        assert second[0] is first[1]
        ring._MEMO.clear()
        fresh = ring.run_ring_sweep("100nm", [2.0], **self.OPTIONS)
        assert np.array_equal(fresh[0].output_waveform.values,
                              second[0].output_waveform.values)
        with pytest.raises(ValueError):
            second[0].result.time[0] = 1.0

    def test_the_memo_keys_on_the_probe_stage(self, lanes_run):
        ring.run_ring_sweep("100nm", [1.0], probe_stage=2, **self.OPTIONS)
        ring.run_ring_sweep("100nm", [1.0], probe_stage=1, **self.OPTIONS)
        assert lanes_run == [1, 1]

    def test_failures_are_not_memoized(self, lanes_run, monkeypatch):
        def fail(*args, **kwargs):
            raise SimulationError("injected")

        counting = ring.TransientSolver
        monkeypatch.setattr(counting, "run", fail)
        with pytest.raises(SimulationError, match="injected"):
            ring.run_ring_sweep("100nm", [1.0], **self.OPTIONS)
        assert not ring._MEMO

    def test_concurrent_sweeps_share_the_memo(self, monkeypatch):
        """Threads (the thread backend runs experiments this way) sweep
        overlapping rings through a memo small enough to evict."""
        monkeypatch.setattr(ring, "_MEMO_SIZE", 2)
        ring._MEMO.clear()
        options = dict(n_stages=3, segments=1, period_budget=0.5,
                       steps_per_period=20)
        errors = []

        def worker():
            try:
                for l_values in ([1.0, 2.0], [2.0, 3.0], [3.0, 1.0]) * 3:
                    runs = ring.run_ring_sweep("100nm", l_values, **options)
                    assert [r.l / units.NH_PER_MM for r in runs] == \
                        pytest.approx(l_values)
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(ring._MEMO) <= 2
