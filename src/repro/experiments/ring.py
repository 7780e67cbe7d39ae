"""Shared ring-oscillator machinery for the Fig. 9-12 experiments.

The three simulation figures all run the same testbench: a five-stage
ring oscillator at a node's RC-optimal sizing (h_optRC, k_optRC), swept
over line inductance.  This module owns the calibrated-inverter cache and
the sweep helper, so waveform, period and current-density experiments
stay consistent with each other.

Rings that differ only in l share one MNA layout and one time grid, so
:func:`run_ring_sweep` advances them as lanes of one lockstep transient
(:class:`~repro.circuits.transient.TransientSolver`) and records only the
probes the experiments read.  Each lane is bitwise the ring's own run.  A
per-process memo shares rings between experiments: ``run all`` asks for
fig9_10's l values again in fig11.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List

from .. import units
from ..analysis.waveform import Waveform
from ..circuits.builders import RingOscillator, build_ring_oscillator
from ..circuits.inverter import InverterCalibration
from ..circuits.mna import MnaStructure
from ..circuits.transient import (TransientOptions, TransientResult,
                                  TransientSolver)
from ..core.elmore import rc_optimum
from ..errors import ParameterError
from ..tech.characterize import calibrate_inverter
from ..tech.node import TechnologyNode, get_node

#: Default ladder segments for the ring-oscillator lines (speed/accuracy
#: compromise; the segment-convergence ablation bench quantifies it).
DEFAULT_RING_SEGMENTS = 10

#: Default simulation length in units of the *naive* period estimate
#: 2 n_stages tau_optRC.  The real period is 2-3x the naive estimate
#: (inductive slow-down), and the period measurement needs several full
#: cycles after the start-up transient, hence the generous budget.
DEFAULT_PERIOD_BUDGET = 14.0

#: Rings the per-process memo keeps (a full ``run all`` needs 13).  The
#: thread backend runs experiments concurrently, hence the lock.
_MEMO_SIZE = 32
_MEMO: "OrderedDict[tuple, RingRun]" = OrderedDict()
_MEMO_LOCK = threading.Lock()


@lru_cache(maxsize=8)
def calibrated(node_name: str) -> InverterCalibration:
    """Cached refined inverter calibration for a node."""
    return calibrate_inverter(get_node(node_name), refine=True)


def expected_period(node: TechnologyNode, n_stages: int = 5) -> float:
    """Rough ring period estimate 2 * n_stages * tau_optRC for sizing runs."""
    return 2.0 * n_stages * rc_optimum(node.line, node.driver).tau_opt


@dataclass(frozen=True)
class RingRun:
    """One simulated ring-oscillator run with its probe waveforms.

    ``result`` records the probed stage only: its input and output nodes
    and the current of its line's first segment.
    """

    node_name: str
    l: float                       #: line inductance (H/m)
    oscillator: RingOscillator
    result: TransientResult
    probe_stage: int

    @property
    def input_waveform(self) -> Waveform:
        """Voltage at the probed inverter's input (line far end)."""
        node = self.oscillator.stage_inputs[self.probe_stage]
        return Waveform(self.result.time, self.result.voltage(node))

    @property
    def output_waveform(self) -> Waveform:
        """Voltage at the probed inverter's output (line near end)."""
        node = self.oscillator.stage_outputs[self.probe_stage]
        return Waveform(self.result.time, self.result.voltage(node))

    def period(self, *, skip: int = 1) -> float:
        """Oscillation period measured at the probed output, VDD/2 level."""
        return self.output_waveform.oscillation_period(
            0.5 * self.oscillator.vdd, skip=skip, min_cycles=2)


def run_ring_sweep(node_name: str, l_values: Iterable[float], *,
                   n_stages: int = 5, segments: int = DEFAULT_RING_SEGMENTS,
                   style: str = "mosfet", probe_stage: int = 2,
                   period_budget: float = DEFAULT_PERIOD_BUDGET,
                   steps_per_period: int = 700) -> List[RingRun]:
    """Build and simulate the ring oscillator at several inductance values.

    The rings run as lanes of one lockstep transient per MNA layout (an
    l = 0 ring has no inductor branches, so it runs apart from the
    others).  Rings already simulated in this process with the same
    arguments come from a memo; a failed run is not kept.

    Parameters
    ----------
    l_values:
        Line inductances in the paper's nH/mm unit; one run each, in order.
    probe_stage:
        The stage whose input, output and line current are recorded.
    period_budget:
        Simulation length in units of the estimated nominal period.
    steps_per_period:
        Time resolution relative to the estimated nominal period.

    Raises
    ------
    ParameterError
        For a negative inductance or a ``probe_stage`` outside
        ``[0, n_stages)``, before anything is simulated.
    """
    l_values = [float(l) for l in l_values]
    if not 0 <= probe_stage < n_stages:
        raise ParameterError(
            f"probe_stage must be in [0, {n_stages}), got {probe_stage}")
    for l_nh_per_mm in l_values:
        if l_nh_per_mm < 0.0:
            raise ParameterError(
                f"inductance must be >= 0, got {l_nh_per_mm}")
    node = get_node(node_name)
    spec = (node_name, n_stages, segments, style, probe_stage, period_budget,
            steps_per_period)
    with _MEMO_LOCK:
        found = {l: _MEMO[spec, l] for l in dict.fromkeys(l_values)
                 if (spec, l) in _MEMO}
    missing = [l for l in dict.fromkeys(l_values) if l not in found]
    if missing:
        calibration = calibrated(node_name)
        rc_opt = rc_optimum(node.line, node.driver)
        groups: dict = {}
        for l_nh_per_mm in missing:
            line = node.line_with_inductance(l_nh_per_mm * units.NH_PER_MM)
            oscillator = build_ring_oscillator(
                calibration, line, rc_opt.h_opt, rc_opt.k_opt,
                n_stages=n_stages, segments=segments, style=style)
            layout = MnaStructure(oscillator.circuit).layout
            groups.setdefault(layout, []).append(
                (l_nh_per_mm, line.l, oscillator))
        nominal = expected_period(node, n_stages)
        options = TransientOptions(max_update=max(1.0, 2.0 * node.vdd))
        for lanes in groups.values():
            oscillators = [oscillator for _, _, oscillator in lanes]
            probe = oscillators[0]
            result = TransientSolver(
                [o.circuit for o in oscillators], options).run(
                period_budget * nominal, nominal / steps_per_period,
                initial_voltages=[o.initial_voltages() for o in oscillators],
                record=[probe.stage_inputs[probe_stage],
                        probe.stage_outputs[probe_stage],
                        probe.ladders[probe_stage].current_probe_element(0)])
            for i, (l_nh_per_mm, l, oscillator) in enumerate(lanes):
                found[l_nh_per_mm] = RingRun(
                    node_name=node_name, l=l, oscillator=oscillator,
                    result=result.lane(i), probe_stage=probe_stage)
    with _MEMO_LOCK:
        for l_nh_per_mm, run in found.items():
            _MEMO[spec, l_nh_per_mm] = run
            _MEMO.move_to_end((spec, l_nh_per_mm))
        while len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
    return [found[l_nh_per_mm] for l_nh_per_mm in l_values]


def run_ring(node_name: str, l_nh_per_mm: float, **options) -> RingRun:
    """The ring oscillator at one inductance value: the one-lane
    :func:`run_ring_sweep`, which documents ``options``."""
    return run_ring_sweep(node_name, [l_nh_per_mm], **options)[0]
