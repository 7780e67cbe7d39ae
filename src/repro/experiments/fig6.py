"""Figure 6: k_optRLC / k_optRC as a function of line inductance.

The optimal repeater shrinks with l and asymptotes toward the size whose
output impedance matches the line's lossless characteristic impedance
sqrt(l/c) — the matched-termination limit of transmission-line theory.
The table includes that matching size for comparison.
"""

from __future__ import annotations

import math

from .. import units
from ..tech.node import get_node
from .base import ExperimentResult, experiment
from .sweeps import DEFAULT_POINTS, FIGURE_NODES, node_sweep


@experiment("fig6", "Optimal repeater size ratio k_optRLC/k_optRC vs l")
def run(points: int = DEFAULT_POINTS, f: float = 0.5) -> ExperimentResult:
    """Tabulate k ratios and the impedance-matched size for both nodes."""
    headers = ["l (nH/mm)"]
    sweeps = []
    for name in FIGURE_NODES:
        sweeps.append(node_sweep(name, f, points))
        headers.append(f"k ratio {name}")
        headers.append(f"k matched/k_RC {name}")
    l_nh = units.to_nh_per_mm(sweeps[0].l_values)
    rows = []
    for i in range(len(l_nh)):
        row = [float(l_nh[i])]
        for name, sweep in zip(FIGURE_NODES, sweeps):
            node = get_node(name)
            row.append(float(sweep.k_ratio[i]))
            l = float(sweep.l_values[i])
            if l > 0.0:
                z0 = math.sqrt(l / node.line.c)
                k_matched = node.driver.r_s / z0
                row.append(k_matched / sweep.rc_reference.k_opt)
            else:
                row.append(None)    # no matched size for a pure-RC line
        rows.append(row)
    notes = [
        "paper: k ratio decreases with l toward the impedance-matched size",
        "k matched = r_s / sqrt(l/c): driver output impedance equal to Z0",
    ]
    return ExperimentResult(
        experiment_id="fig6",
        title="k_optRLC / k_optRC vs line inductance (paper Fig. 6)",
        headers=headers, rows=rows, notes=notes,
        data={"sweeps": {n: s for n, s in zip(FIGURE_NODES, sweeps)}})
