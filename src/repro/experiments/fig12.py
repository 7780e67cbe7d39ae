"""Figure 12: peak and rms interconnect current densities vs inductance.

For the 100 nm five-stage ring oscillator, measure the current through the
first segment of a stage's line over the steady oscillation window, reduce
to peak and rms current densities over the Table 1 cross section, and
screen them against representative electromigration / Joule-heating
limits.  Paper's claim: neither density changes appreciably with l, so
wire reliability is not degraded by inductance variations.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.currents import current_density_report
from ..analysis.reliability import assess_current_density
from ..tech.node import get_node
from .base import ExperimentResult, experiment
from .ring import DEFAULT_RING_SEGMENTS, run_ring_sweep

#: Default inductance sweep (nH/mm) — below the false-switching onset the
#: paper's Fig. 12 x-axis spans, plus points above it.
DEFAULT_L_VALUES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@experiment("fig12", "Interconnect current densities vs line inductance")
def run(node_name: str = "100nm",
        l_values: Sequence[float] = DEFAULT_L_VALUES,
        segments: int = DEFAULT_RING_SEGMENTS,
        style: str = "mosfet", period_budget: float = 14.0,
        steps_per_period: int = 700) -> ExperimentResult:
    """Sweep peak/rms current densities of the ring's interconnect over l."""
    node = get_node(node_name)
    area = node.geometry.cross_section_area
    headers = ["l (nH/mm)", "peak J (MA/cm^2)", "rms J (MA/cm^2)",
               "reliability ok"]
    rows = []
    reports = []
    runs = run_ring_sweep(node_name, l_values, segments=segments,
                          style=style, period_budget=period_budget,
                          steps_per_period=steps_per_period)
    for l_nh, run_data in zip(l_values, runs):
        ladder = run_data.oscillator.ladders[run_data.probe_stage]
        report = current_density_report(run_data.result, ladder, area)
        verdict = assess_current_density(report)
        rows.append([float(l_nh),
                     report.peak_density_a_per_cm2 / 1e6,
                     report.rms_density_a_per_cm2 / 1e6,
                     verdict.ok])
        reports.append(report)
    peaks = [r.peak_density for r in reports]
    spread = max(peaks) / min(peaks) if min(peaks) > 0 else float("inf")
    notes = [
        "paper: peak and rms densities do not change appreciably with l "
        "-> no reliability degradation from inductance variation",
        f"measured peak-density spread across the sweep: {spread:.2f}x",
    ]
    return ExperimentResult(
        experiment_id="fig12",
        title=f"Interconnect current densities vs l, {node_name} "
              "(paper Fig. 12)",
        headers=headers, rows=rows, notes=notes,
        data={"node": node_name, "l_values": list(l_values),
              "reports": reports})
