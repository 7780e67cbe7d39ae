"""Device calibration: Table 1 driver parameters -> simulator inverters.

The paper obtains r_s, c_p, c_0 by SPICE characterization.  Going the
other way, this module builds simulator inverters (square-law CMOS) whose
minimum-size effective output resistance matches Table 1's r_s, whose
input loading is the linear c_0 and whose output parasitic is the linear
c_p — the exact abstraction the paper's analysis assumes ("linear r_s and
c_p for the entire voltage range").

Calibration path
----------------
For a symmetric square-law inverter discharging a capacitor with the gate
at VDD, the classical average switching resistance over the top half of
the swing is approximately R_eff ~= 0.75 VDD / Id_sat, giving the analytic
seed

    beta = 1.5 VDD / (r_s (VDD - vth)^2).

``calibrate_inverter(..., refine=True)`` then bisects a multiplicative
correction on beta until the *simulated* 50% delay of a minimum inverter
driving a pure capacitive load matches the ideal-switch RC prediction
ln(2) r_s (C_load + c_p), closing the loop through the very transient
engine used in the ring-oscillator experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..circuits.inverter import (InverterCalibration, add_mosfet_inverter,
                                 analytic_beta)
from ..circuits.mosfet import DEFAULT_LAMBDA
from ..circuits.netlist import GROUND, Circuit
from ..circuits.transient import Crossing, TransientOptions, simulate
from ..circuits.waveforms import Pulse
from ..core.params import DriverParams
from ..errors import ConvergenceError
from .node import TechnologyNode

#: Default threshold voltage as a fraction of VDD.
DEFAULT_VTH_FRACTION = 0.25

__all__ = [
    "DEFAULT_VTH_FRACTION", "InverterCalibration", "VtcReport",
    "add_mosfet_inverter", "analytic_beta", "calibrate_inverter",
    "inverter_vtc", "measure_falling_delay", "measured_driver_params",
]


def calibrate_inverter(node: TechnologyNode, *,
                       vth_fraction: float = DEFAULT_VTH_FRACTION,
                       lam: float = DEFAULT_LAMBDA,
                       refine: bool = False,
                       tolerance: float = 0.02) -> InverterCalibration:
    """Calibrate a symmetric CMOS inverter to a technology node.

    Parameters
    ----------
    refine:
        When true, bisect a correction factor on beta so the simulated
        falling 50% delay into a pure capacitive load matches the ideal
        ln(2) r_s (C + c_p) switch model within ``tolerance``.
    """
    vdd = node.vdd
    vth = vth_fraction * vdd
    beta = analytic_beta(vdd, vth, node.driver.r_s)
    calibration = InverterCalibration(vdd=vdd, vth=vth, beta=beta, lam=lam,
                                      driver=node.driver)
    if not refine:
        return calibration
    # Measured/ideal delay ratio is monotone decreasing in beta.
    lo, hi = 0.2, 5.0
    ratio_lo = _delay_ratio(calibration, lo)
    ratio_hi = _delay_ratio(calibration, hi)
    if not (ratio_hi < 1.0 < ratio_lo):
        raise ConvergenceError(
            "calibration bracket failed: delay ratios "
            f"{ratio_lo:.3f} (x0.2) .. {ratio_hi:.3f} (x5) do not straddle 1")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        ratio = _delay_ratio(calibration, mid)
        if abs(ratio - 1.0) < tolerance:
            return replace(calibration, beta=beta * mid)
        if ratio > 1.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("inverter beta refinement did not converge")


def _delay_ratio(calibration: InverterCalibration, beta_scale: float,
                 *, load_multiple: float = 20.0) -> float:
    """Simulated/ideal falling-delay ratio for a scaled-beta min inverter."""
    scaled = replace(calibration, beta=calibration.beta * beta_scale)
    c_load = load_multiple * scaled.driver.c_0
    measured = measure_falling_delay(scaled, c_load=c_load)
    ideal = math.log(2.0) * scaled.driver.r_s * (c_load + scaled.driver.c_p)
    return measured / ideal


def measure_falling_delay(calibration: InverterCalibration, *,
                          c_load: float, k: float = 1.0) -> float:
    """Simulate a size-k inverter discharging ``c_load``; return 50% delay.

    The input steps 0 -> VDD abruptly; the returned time is from the input
    step to the output falling through VDD/2.
    """
    from ..analysis.waveform import Waveform

    vdd = calibration.vdd
    circuit = Circuit("inverter-characterization")
    circuit.voltage_source("VDD", "vdd", GROUND, vdd)
    t_unit = calibration.driver.r_s * (c_load + calibration.driver.c_p) / k
    delay = 2.0 * t_unit
    circuit.voltage_source(
        "VIN", "in", GROUND,
        Pulse(v1=0.0, v2=vdd, delay=delay, rise=t_unit / 200.0,
              width=50.0 * t_unit, period=200.0 * t_unit))
    add_mosfet_inverter(circuit, "inv", "in", "out", "vdd", calibration, k)
    circuit.capacitor("CL", "out", GROUND, c_load)

    t_end = delay + 10.0 * t_unit
    dt = t_unit / 100.0
    # The run ends at the crossing it measures.
    result = simulate(circuit, t_end, dt,
                      initial_voltages={"out": vdd, "vdd": vdd},
                      options=TransientOptions(max_update=max(1.0, vdd)),
                      record=["out"],
                      stop=Crossing("out", 0.5 * vdd, rising=False))
    out = Waveform(result.time, result.voltage("out"))
    crossing = out.falling_crossings(0.5 * vdd)
    if crossing.size == 0:
        raise ConvergenceError("inverter output never fell through VDD/2")
    return float(crossing[0]) - delay


@dataclass(frozen=True)
class VtcReport:
    """Static voltage-transfer characteristic of a calibrated inverter."""

    input_voltages: "np.ndarray"
    output_voltages: "np.ndarray"
    switching_threshold: float     #: v_in where v_out = v_in
    peak_gain: float               #: max |dv_out/dv_in|
    noise_margin_low: float        #: NML = V_IL - 0
    noise_margin_high: float      #: NMH = VDD - V_IH

    @property
    def symmetric(self) -> bool:
        """True when the threshold sits within 5% of VDD/2."""
        vdd = float(self.input_voltages[-1])
        return abs(self.switching_threshold - 0.5 * vdd) < 0.05 * vdd


def inverter_vtc(calibration: InverterCalibration, *, k: float = 1.0,
                 points: int = 81) -> VtcReport:
    """DC voltage-transfer curve of a size-k inverter via the MNA solver.

    Sweeps v_in over [0, VDD], solving the DC operating point at each
    step, and extracts the switching threshold (v_out = v_in crossing),
    the peak small-signal gain and the unity-gain noise margins.
    """
    import numpy as np

    vdd = calibration.vdd
    v_in = np.linspace(0.0, vdd, points)
    v_out = np.empty(points)
    for i, vi in enumerate(v_in):
        circuit = Circuit("vtc-point")
        circuit.voltage_source("VDD", "vdd", GROUND, vdd)
        circuit.voltage_source("VIN", "in", GROUND, float(vi))
        add_mosfet_inverter(circuit, "inv", "in", "out", "vdd",
                            calibration, k)
        from ..circuits.mna import dc_operating_point
        v_out[i] = dc_operating_point(circuit)["out"]

    gain = np.gradient(v_out, v_in)
    crossing_idx = int(np.argmin(np.abs(v_out - v_in)))
    threshold = float(v_in[crossing_idx])
    # Unity-gain points bracket the transition region.
    steep = np.nonzero(np.abs(gain) >= 1.0)[0]
    if steep.size:
        v_il = float(v_in[steep[0]])
        v_ih = float(v_in[steep[-1]])
    else:
        v_il, v_ih = threshold, threshold
    return VtcReport(input_voltages=v_in, output_voltages=v_out,
                     switching_threshold=threshold,
                     peak_gain=float(np.max(np.abs(gain))),
                     noise_margin_low=v_il,
                     noise_margin_high=vdd - v_ih)


def measured_driver_params(calibration: InverterCalibration, *,
                           load_multiple: float = 20.0) -> DriverParams:
    """Re-measure (r_s, c_p, c_0) of the calibrated inverter by simulation.

    c_0 and c_p are linear capacitors by construction and are returned
    verbatim; r_s is extracted from the simulated 50% discharge delay via
    the ideal-switch relation tau = ln(2) r_s (C_load + c_p).  This is the
    simulator-based equivalent of the paper's SPICE characterization, used
    by the Table 1 experiment as a cross-check.
    """
    c_load = load_multiple * calibration.driver.c_0
    tau = measure_falling_delay(calibration, c_load=c_load)
    r_s = tau / (math.log(2.0) * (c_load + calibration.driver.c_p))
    return DriverParams(r_s=r_s, c_p=calibration.driver.c_p,
                        c_0=calibration.driver.c_0)
