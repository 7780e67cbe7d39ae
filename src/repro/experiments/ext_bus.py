"""Extension experiment: switching-pattern (Miller) effects on a bus.

A three-line bus at Table 1 geometry, victim in the centre switching up,
neighbours driven quiet / in-phase / anti-phase.  Two regimes:

* **capacitive coupling only** (mutual k = 0): the classic Miller
  ordering — in-phase neighbours hide the lateral capacitance (fast),
  anti-phase neighbours double it (slow);
* **with inductive coupling**: the ordering *inverts*.  Anti-phase
  neighbours carry the victim's return current close by (small effective
  loop inductance, fast); in-phase switching pushes the return far away
  (large effective inductance, slow) — the dynamic, measurable form of
  the paper's Sec. 1.1 argument that the effective l depends on the
  switching pattern through the return-path location.
"""

from __future__ import annotations

from .. import units
from ..analysis.waveform import Waveform
from ..circuits.bus import build_bus_bench, initial_bus_voltages
from ..circuits.transient import Crossing, simulate
from ..core.elmore import rc_optimum
from ..extraction.capacitance import sakurai_coupling
from ..extraction.geometry import wire_from_tech
from ..tech.node import get_node
from .base import ExperimentResult, experiment

#: Neighbour patterns studied (victim is always the middle line, 'up').
NEIGHBOUR_CASES = (("quiet", ("low", "up", "low")),
                   ("in-phase", ("up", "up", "up")),
                   ("anti-phase", ("down", "up", "down")))


@experiment("ext_bus",
            "Bus switching patterns: capacitive vs inductive Miller effect "
            "(extension)")
def run(node_name: str = "100nm", l_nh: float = 1.0,
        inductive_couplings=(0.0, 0.3, 0.5), segments: int = 10
        ) -> ExperimentResult:
    """Victim 50% delay per neighbour pattern and coupling regime."""
    node = get_node(node_name)
    rc_opt = rc_optimum(node.line, node.driver)
    wire = wire_from_tech(node.geometry)
    coupling_c = sakurai_coupling(wire, node.epsilon_r)
    drv = node.driver.sized(rc_opt.k_opt)
    line = node.line_with_inductance(l_nh * units.NH_PER_MM)

    headers = ["mutual k"] + [f"{label} (ps)" for label, _ in NEIGHBOUR_CASES]
    rows = []
    delays: dict = {}
    for km in inductive_couplings:
        row = [float(km)]
        for label, patterns in NEIGHBOUR_CASES:
            bench = build_bus_bench(
                line, n_lines=3, length=rc_opt.h_opt, segments=segments,
                r_driver=drv.r_series, c_load=drv.c_load,
                coupling_capacitance_per_length=coupling_c,
                patterns=patterns, vdd=node.vdd,
                inductive_coupling=float(km))
            victim = bench.far_node(1)
            # The run ends at the crossing it measures.
            result = simulate(bench.circuit, 2e-9, 2e-12,
                              initial_voltages=initial_bus_voltages(bench),
                              record=[victim],
                              stop=Crossing(victim, 0.5 * node.vdd))
            waveform = Waveform(result.time, result.voltage(victim))
            tau = waveform.first_crossing(0.5 * node.vdd)
            row.append(units.to_ps(tau))
            delays[(float(km), label)] = tau
        rows.append(row)
    notes = [
        "capacitive-only (k = 0): classic Miller — in-phase fastest, "
        "anti-phase slowest",
        "with inductive coupling the ordering inverts: in-phase switching "
        "pushes the return current away (larger effective l, slower); "
        "anti-phase neighbours are nearby returns (smaller l, faster)",
        "this is the dynamic counterpart of the paper's claim that the "
        "effective inductance depends on neighbours' switching activity",
    ]
    return ExperimentResult(
        experiment_id="ext_bus",
        title="Victim delay vs neighbour switching pattern (extension)",
        headers=headers, rows=rows, notes=notes,
        data={"delays": delays, "coupling_c": coupling_c})
