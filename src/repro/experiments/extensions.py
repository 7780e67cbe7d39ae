"""Extension experiments beyond the paper's numbered artifacts.

Each follows up a remark the paper makes but does not quantify:

* ``ext_crosstalk`` — "the traditional RC model ... can result in
  substantial errors in predicting both delay and crosstalk" (Sec. 1.1,
  after Deutsch et al. [6]): coupled-pair noise with and without line
  inductance.
* ``ext_miller`` — "effective line capacitance can vary by as much as 4x"
  (Sec. 3): the repeater optimum across the Miller switching range.
* ``ext_skin`` — the frequency dependence of r flagged via [11, 20]: skin
  effect on Table 1 geometries.
* ``ext_power`` — "glitches increase the dynamic power dissipation"
  (Sec. 1.1): the power cost of delay-optimal repeater insertion and the
  delay cost of capping it.
* ``ext_sensitivity`` — Sec. 3.2 generalized: the full elasticity table
  of the stage delay at the RLC optimum.
* ``ext_refit`` — Sec. 2.2's critique of curve-fitted formulas: the
  Ismail-Friedman (1 + aT^3)^b form refitted to the exact optimizer at
  each node.
"""

from __future__ import annotations

import numpy as np

from .. import units
from ..analysis.crosstalk import measure_crosstalk
from ..analysis.power import optimize_with_power_cap, power_report
from ..baselines.refit import refit_if_coefficients
from ..circuits.coupled_line import build_crosstalk_bench
from ..core.optimize import optimize_repeater
from ..core.elmore import rc_optimum
from ..core.sensitivity import delay_sensitivities
from ..core.params import Stage
from ..extraction.capacitance import sakurai_coupling, total_capacitance
from ..extraction.geometry import COPPER_RESISTIVITY, wire_from_tech
from ..extraction.skin import (resistance_ratio_table, skin_depth,
                               skin_onset_frequency)
from ..tech.node import get_node
from .base import ExperimentResult, experiment


@experiment("ext_crosstalk",
            "Coupled noise: RC vs RLC victim response (extension)")
def run_crosstalk(node_name: str = "100nm", segments: int = 10,
                  l_values=(0.0, 0.5, 1.0, 1.5, 2.0),
                  inductive_coupling: float = 0.3) -> ExperimentResult:
    """Victim far-end noise vs line inductance on a coupled pair.

    The geometry-derived lateral coupling capacitance of Table 1's pitch
    is used; the l = 0 row is the RC-only prediction the paper says
    underestimates crosstalk.
    """
    node = get_node(node_name)
    rc_opt = rc_optimum(node.line, node.driver)
    wire = wire_from_tech(node.geometry)
    coupling_c = sakurai_coupling(wire, node.epsilon_r)
    drv = node.driver.sized(rc_opt.k_opt)

    headers = ["l (nH/mm)", "peak noise (V)", "trough noise (V)",
               "noise / VDD"]
    rows = []
    reports = {}
    for l_nh in l_values:
        line = node.line_with_inductance(float(l_nh) * units.NH_PER_MM)
        km = inductive_coupling if l_nh > 0.0 else 0.0
        bench = build_crosstalk_bench(
            line, length=rc_opt.h_opt, segments=segments,
            r_driver=drv.r_series, c_load=drv.c_load,
            coupling_capacitance_per_length=coupling_c,
            inductive_coupling=km, v_step=node.vdd)
        report = measure_crosstalk(bench, t_end=1.5e-9, dt=2e-12)
        rows.append([float(l_nh), report.peak_noise, report.trough_noise,
                     report.worst_noise / node.vdd])
        reports[float(l_nh)] = report
    rc_noise = rows[0][1]
    worst = max(row[1] for row in rows)
    notes = [
        "paper Sec. 1.1 (after [6]): RC-only models substantially "
        "underestimate crosstalk on global wires",
        f"measured: RC-only peak noise {rc_noise:.3f} V vs worst RLC "
        f"{worst:.3f} V ({worst / rc_noise:.1f}x underestimate)",
        f"coupling capacitance from Table 1 geometry: "
        f"{units.to_pf_per_m(coupling_c):.1f} pF/m per neighbour",
    ]
    return ExperimentResult(
        experiment_id="ext_crosstalk",
        title="Victim noise vs line inductance (extension)",
        headers=headers, rows=rows, notes=notes,
        data={"reports": reports, "coupling_c": coupling_c})


@experiment("ext_miller",
            "Repeater optimum across the Miller capacitance range (extension)")
def run_miller(node_name: str = "100nm", l_nh: float = 1.0,
               miller_factors=(0.0, 0.5, 1.0, 1.5, 2.0)) -> ExperimentResult:
    """Optimal (h, k) as the effective c swings with neighbour activity.

    The paper fixes c and varies l "for simplicity"; here the extraction
    model supplies c(miller) for Table 1's geometry and the exact
    optimizer re-runs at each point.
    """
    node = get_node(node_name)
    wire = wire_from_tech(node.geometry)
    headers = ["miller factor", "c (pF/m)", "h_opt (mm)", "k_opt",
               "delay/len (ps/mm)"]
    rows = []
    solver_log = []
    for miller in miller_factors:
        breakdown = total_capacitance(wire, node.epsilon_r,
                                      miller_factor=float(miller))
        line = node.line.with_capacitance(breakdown.total) \
            .with_inductance(l_nh * units.NH_PER_MM)
        optimum = optimize_repeater(line, node.driver)
        rows.append([float(miller), units.to_pf_per_m(breakdown.total),
                     units.to_mm(optimum.h_opt), optimum.k_opt,
                     optimum.delay_per_length * 1e9])
        entry = {"miller": float(miller), "method": optimum.method.value}
        if optimum.trace is not None:
            entry.update(optimum.trace.summary())
        solver_log.append(entry)
    spread = rows[-1][1] / rows[0][1]
    notes = [
        f"effective c swings {spread:.1f}x across the Miller range for "
        "Table 1's pitch (paper Sec. 3: 'as much as 4x' for aspect ratios "
        "> 1 and tighter pitches)",
        "h_opt tracks 1/sqrt(c), k_opt sqrt(c): quiet-neighbour sizing is "
        "mis-sized for worst-case switching",
    ]
    return ExperimentResult(
        experiment_id="ext_miller",
        title="Repeater optimum vs Miller capacitance factor (extension)",
        headers=headers, rows=rows, notes=notes,
        data={"optimizer": solver_log})


@experiment("ext_skin", "Skin-effect resistance of Table 1 wires (extension)")
def run_skin(node_name: str = "250nm",
             frequencies=(1e8, 1e9, 3e9, 1e10, 3e10, 1e11)
             ) -> ExperimentResult:
    """r_ac/r_dc across frequency for the top-metal geometry."""
    node = get_node(node_name)
    wire = wire_from_tech(node.geometry)
    ratios = resistance_ratio_table(wire, COPPER_RESISTIVITY, frequencies)
    onset = skin_onset_frequency(wire, COPPER_RESISTIVITY)
    headers = ["frequency (GHz)", "skin depth (um)", "r_ac / r_dc"]
    rows = [[f / 1e9, skin_depth(COPPER_RESISTIVITY, f) * 1e6, ratio]
            for f, ratio in ratios.items()]
    notes = [
        f"skin onset (delta = min(w,t)/2): {onset / 1e9:.1f} GHz — above "
        "2001-era clock fundamentals, inside the edge-rate harmonics",
        "supports the paper's constant-r treatment while quantifying its "
        "frequency limit",
    ]
    return ExperimentResult(
        experiment_id="ext_skin",
        title=f"Skin effect on {node.name} top metal (extension)",
        headers=headers, rows=rows, notes=notes,
        data={"onset": onset})


@experiment("ext_power",
            "Power cost of repeater insertion and power-capped optima "
            "(extension)")
def run_power(node_name: str = "100nm", l_nh: float = 1.0,
              frequency: float = 2e9, activity: float = 0.15,
              budget_fractions=(1.0, 0.9, 0.8, 0.7)) -> ExperimentResult:
    """Delay penalty of capping the repeater power budget."""
    node = get_node(node_name)
    line = node.line_with_inductance(l_nh * units.NH_PER_MM)
    unconstrained = optimize_repeater(line, node.driver)
    full_power = power_report(line, node.driver, unconstrained.h_opt,
                              unconstrained.k_opt, vdd=node.vdd,
                              frequency=frequency, activity=activity)
    headers = ["power budget (x optimal)", "P (mW/mm)", "h_opt (mm)",
               "k_opt", "delay penalty"]
    rows = []
    for fraction in budget_fractions:
        budget = fraction * full_power.dynamic_power_per_length
        result = optimize_with_power_cap(
            line, node.driver, vdd=node.vdd, frequency=frequency,
            activity=activity, power_budget_per_length=budget)
        rows.append([float(fraction), result.power_per_length * 1e0,
                     units.to_mm(result.h_opt), result.k_opt,
                     result.delay_penalty])
    notes = [
        f"delay-optimal insertion spends "
        f"{full_power.repeater_fraction * 100:.0f}% of its switching "
        "capacitance on repeaters",
        "capping power lengthens segments and shrinks repeaters; the "
        "delay penalty grows steeply below ~70% of the optimal power",
    ]
    solver = {"method": unconstrained.method.value}
    if unconstrained.trace is not None:
        solver.update(unconstrained.trace.summary())
    return ExperimentResult(
        experiment_id="ext_power",
        title="Power-delay trade-off of repeater insertion (extension)",
        headers=headers, rows=rows, notes=notes,
        data={"full_power": full_power, "optimizer": solver})


@experiment("ext_sensitivity",
            "Delay elasticities at the RLC optimum (extension)")
def run_sensitivity(node_name: str = "100nm",
                    l_nh: float = 1.0) -> ExperimentResult:
    """Relative delay sensitivities (p/tau) dtau/dp at the optimum."""
    node = get_node(node_name)
    line = node.line_with_inductance(l_nh * units.NH_PER_MM)
    optimum = optimize_repeater(line, node.driver)
    stage = Stage(line=line, driver=node.driver,
                  h=optimum.h_opt, k=optimum.k_opt)
    sens = delay_sensitivities(stage)
    headers = ["parameter", "relative sensitivity (%/%)"]
    order = sorted(sens.relative, key=lambda p: -abs(sens.relative[p]))
    rows = [[p, sens.relative[p]] for p in order]
    notes = [
        "first-order conditions at the optimum: the k elasticity is zero "
        "and the h elasticity is exactly 1 (dtau/dh = tau/h) — the other "
        "rows isolate the *uncontrollable* parameters",
        f"dominant uncontrollable parameter: "
        f"{next(p for p in order if p not in ('h', 'k'))}",
        "the l elasticity quantifies Sec. 3.2's variation argument at one "
        "operating point",
    ]
    solver = {"method": optimum.method.value}
    if optimum.trace is not None:
        solver.update(optimum.trace.summary())
    return ExperimentResult(
        experiment_id="ext_sensitivity",
        title=f"Delay elasticities at the {node.name} RLC optimum "
              "(extension)",
        headers=headers, rows=rows, notes=notes,
        data={"sensitivities": sens, "optimizer": solver})


@experiment("ext_refit",
            "Ismail-Friedman form refitted to the exact optimizer "
            "(extension)")
def run_refit(l_max_nh: float = 5.0, points: int = 11) -> ExperimentResult:
    """Fitted (1 + a T^3)^b coefficients of h_opt and k_opt per node.

    Each node's exact optima over l = 0..l_max are refitted with the
    curve-fitted form of Ismail & Friedman; the fit errors measure the
    form, the spread of the coefficients across nodes measures how far
    a fit carries.
    """
    l_values = np.linspace(0.0, l_max_nh, points) * units.NH_PER_MM
    headers = ["node", "a_h", "b_h", "a_k", "b_k", "max h fit error (%)",
               "max k fit error (%)"]
    rows = []
    for node_name in ("250nm", "100nm"):
        node = get_node(node_name)
        fit = refit_if_coefficients(node.line, node.driver,
                                    l_values=l_values)
        rows.append([node.name, fit.a_h, fit.b_h, fit.a_k, fit.b_k,
                     fit.max_residual_h * 100.0,
                     fit.max_residual_k * 100.0])
    worst = max(max(row[5], row[6]) for row in rows)
    notes = [
        "paper Sec. 2.2: curve-fitted repeater formulas hold only over "
        "the ranges they were fitted on",
        f"the form fits each node's exact optima to within {worst:.2f}%",
        f"the coefficients do not carry across nodes: a_h = "
        f"{rows[0][1]:.2f} at {rows[0][0]} vs {rows[1][1]:.2f} at "
        f"{rows[1][0]}",
    ]
    return ExperimentResult(
        experiment_id="ext_refit",
        title=f"Ismail-Friedman form refitted over l = 0..{l_max_nh} "
              "nH/mm (extension)",
        headers=headers, rows=rows, notes=notes)
