"""Figure 11: ring-oscillator period vs line inductance.

Sweeps l for the five-stage ring oscillator and measures the oscillation
period.  Paper's claims: at 100 nm the period collapses sharply around
l ~ 2 nH/mm (onset of false switching); at 250 nm no collapse occurs
anywhere in 0 <= l < 5 nH/mm.  The measured onset (largest l before the
period drops below half its low-l value) is reported in the notes.
"""

from __future__ import annotations

from typing import Sequence

from .. import units
from ..errors import ParameterError, SimulationError
from .base import ExperimentResult, experiment
from .ring import DEFAULT_RING_SEGMENTS, run_ring

#: Default sweep (nH/mm) for the 100 nm node — dense around the onset.
DEFAULT_L_VALUES_100NM = (0.5, 1.0, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.8, 3.2)

#: Default sweep (nH/mm) for the 250 nm immunity check.
DEFAULT_L_VALUES_250NM = (0.5, 1.5, 2.5, 3.5, 4.5)


@experiment("fig11", "Ring-oscillator period vs line inductance")
def run(node_name: str = "100nm",
        l_values: Sequence[float] | None = None,
        segments: int = DEFAULT_RING_SEGMENTS,
        style: str = "mosfet", period_budget: float = 14.0,
        steps_per_period: int = 700) -> ExperimentResult:
    """Sweep the ring-oscillator period over line inductance for one node."""
    if l_values is None:
        l_values = (DEFAULT_L_VALUES_100NM if node_name == "100nm"
                    else DEFAULT_L_VALUES_250NM)
    headers = ["l (nH/mm)", "period (ps)", "period / period(l_min)"]
    periods: list[float | None] = []
    rows = []
    for l_nh in l_values:
        run_data = run_ring(node_name, float(l_nh), segments=segments,
                            style=style, period_budget=period_budget,
                            steps_per_period=steps_per_period)
        try:
            period: float | None = run_data.period()
        except (ParameterError, SimulationError):
            period = None       # not oscillating: no period to measure
        periods.append(period)
    reference = next((p for p in periods if p is not None), None)
    for l_nh, period in zip(l_values, periods):
        if period is None:
            rows.append([float(l_nh), None, None])
        else:
            rows.append([float(l_nh), units.to_ps(period),
                         period / reference])
    onset = _collapse_onset(list(l_values), periods)
    notes = [
        "paper (100nm): sharp period collapse around l ~ 2 nH/mm — onset of "
        "false switching",
        "paper (250nm): no collapse for any l < 5 nH/mm",
        (f"measured collapse onset: l ~ {onset:.2g} nH/mm" if onset is not None
         else "measured: no period collapse in the swept range"),
    ]
    return ExperimentResult(
        experiment_id="fig11",
        title=f"Ring-oscillator period vs l, {node_name} (paper Fig. 11)",
        headers=headers, rows=rows, notes=notes,
        data={"node": node_name, "l_values": list(l_values),
              "periods": periods, "collapse_onset": onset})


def _collapse_onset(l_values: list[float], periods: list[float | None],
                    threshold: float = 0.6) -> float | None:
    """First l whose period drops below ``threshold`` x the running maximum.

    Below the failure onset the period *grows* gently with l (inductive
    slow-down), so the collapse is detected against the largest period seen
    so far, not against the first point.  A non-oscillating run (``None``)
    after a measured one also counts as a collapse.
    """
    max_so_far: float | None = None
    for l_nh, period in zip(l_values, periods):
        if period is None:
            if max_so_far is not None:
                return l_nh
            continue
        if max_so_far is not None and period < threshold * max_so_far:
            return l_nh
        max_so_far = period if max_so_far is None else max(max_so_far, period)
    return None
