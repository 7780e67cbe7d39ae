"""Behavioral switch-level inverter.

A fast alternative to the MOSFET inverter for the ring-oscillator studies:
the output stage is a resistance ``r_out`` to an internal ideal rail whose
value is a smooth (logistic) function of the input voltage,

    v_rail(v_in) = vdd * sigma((v_threshold - v_in) / width).

This captures exactly the mechanism of Sec. 3.3.1 — the output flips when
the (ringing) input crosses the switching threshold — with a crisp,
controllable threshold and no device-model detail, and it is used in the
test-suite and in the ablation benchmark comparing switching-onset
predictions against the calibrated MOSFET inverter.

The input pin draws no current; its loading (c_0 k) is attached externally
as a linear capacitor, like for the MOSFET inverter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import ParameterError
from .elements import NonlinearDevice


@dataclass(frozen=True)
class SwitchInverter(NonlinearDevice):
    """Threshold-switched resistive inverter between two nodes.

    Attributes
    ----------
    input_node, output_node:
        Terminals; the input is purely capacitive (no current drawn here).
    vdd:
        Supply rail voltage (the high output level), volts.
    threshold:
        Input switching threshold, volts (typically vdd/2).
    r_out:
        Output pull resistance to the selected rail, ohms (r_s / k).
    width:
        Transition width of the logistic switch, volts.  Small values give
        a sharper inverter characteristic (higher gain).
    """

    input_node: str = ""
    output_node: str = ""
    vdd: float = 1.2
    threshold: float = 0.6
    r_out: float = 100.0
    width: float = 0.02

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ParameterError(f"inverter {self.name}: vdd must be positive")
        if self.r_out <= 0.0:
            raise ParameterError(f"inverter {self.name}: r_out must be positive")
        if self.width <= 0.0:
            raise ParameterError(f"inverter {self.name}: width must be positive")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.input_node, self.output_node)

    # ------------------------------------------------------------------
    def rail_voltage(self, v_in: float) -> Tuple[float, float]:
        """(v_rail, dv_rail/dv_in) of the logistic rail selector."""
        z = (self.threshold - v_in) / self.width
        # Numerically safe logistic.
        if z >= 0.0:
            ez = math.exp(-z)
            sigma = 1.0 / (1.0 + ez)
        else:
            ez = math.exp(z)
            sigma = ez / (1.0 + ez)
        dsigma = sigma * (1.0 - sigma) / self.width
        return self.vdd * sigma, -self.vdd * dsigma

    def stamp(self, voltages, terminals, size, matrix, rhs) -> None:
        i_in, i_out = terminals
        v_in = voltages[i_in]
        v_out = voltages[i_out]
        v_rail, dv_rail = self.rail_voltage(v_in)
        g = 1.0 / self.r_out

        # Current leaving the output node into the device: (v_out-v_rail)*g.
        current = (v_out - v_rail) * g
        d_dout = g
        d_din = -dv_rail * g
        i_eq = current - (d_dout * v_out + d_din * v_in)
        if i_out >= 0:
            row = i_out * size
            matrix[row + i_out] += d_dout
            if i_in >= 0:
                matrix[row + i_in] += d_din
            rhs[i_out] -= i_eq
