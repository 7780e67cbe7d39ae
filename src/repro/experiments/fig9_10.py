"""Figures 9 & 10: ring-oscillator waveforms below/above the failure onset.

Simulates the 100 nm five-stage ring oscillator at l = 1.8 nH/mm (Fig. 9:
heavily ringing input, still "clean" output, nominal period) and at
l = 2.2 nH/mm (Fig. 10: undershoot deep enough to falsely switch the
inverter — the period collapses to less than half).  The tabulated metrics
are the ones the paper reads off the waveforms: input overshoot and
undershoot, output cleanliness and the oscillation period.
"""

from __future__ import annotations

from .. import units
from ..errors import ParameterError, SimulationError
from ..tech.node import get_node
from .base import ExperimentResult, experiment
from .ring import DEFAULT_RING_SEGMENTS, run_ring

#: The paper's two illustrated inductance values (nH/mm).
PAPER_L_VALUES = (1.8, 2.2)


@experiment("fig9_10", "Ring-oscillator waveforms below/above failure onset")
def run(node_name: str = "100nm", l_values=PAPER_L_VALUES,
        segments: int = DEFAULT_RING_SEGMENTS,
        style: str = "mosfet", period_budget: float = 14.0,
        steps_per_period: int = 700) -> ExperimentResult:
    """Simulate the ring oscillator at the paper's two l values."""
    node = get_node(node_name)
    vdd = node.vdd
    headers = ["l (nH/mm)", "period (ps)", "input overshoot (V)",
               "input undershoot (V)", "output overshoot (V)",
               "output undershoot (V)"]
    rows = []
    data: dict = {"node": node_name, "vdd": vdd}
    for l_nh in l_values:
        run_data = run_ring(node_name, float(l_nh), segments=segments,
                            style=style, period_budget=period_budget,
                            steps_per_period=steps_per_period)
        vin = run_data.input_waveform
        vout = run_data.output_waveform
        try:
            period = run_data.period()
        except (ParameterError, SimulationError):
            period = None       # too few crossings to measure a period
        rows.append([float(l_nh),
                     None if period is None else units.to_ps(period),
                     vin.overshoot(vdd), vin.undershoot(0.0),
                     vout.overshoot(vdd), vout.undershoot(0.0)])
        data[f"l={l_nh}"] = {"input": vin, "output": vout, "period": period}
    notes = [
        "paper: at l = 1.8 nH/mm the input rings hard but the output stays "
        "clean and the period is nominal (Fig. 9)",
        "paper: at l = 2.2 nH/mm undershoot falsely switches the inverter "
        "and the period drops to less than half (Fig. 10)",
    ]
    if len(rows) >= 2 and rows[0][1] is not None \
            and rows[1][1] is not None:
        ratio = rows[1][1] / rows[0][1]
        notes.append(f"measured period ratio "
                     f"(l={l_values[1]} / l={l_values[0]}): {ratio:.2f}")
    return ExperimentResult(
        experiment_id="fig9_10",
        title="Inverter input/output waveforms in the 5-stage ring "
              "(paper Figs. 9-10)",
        headers=headers, rows=rows, notes=notes, data=data)
