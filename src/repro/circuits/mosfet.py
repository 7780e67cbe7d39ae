"""Square-law MOSFET with channel-length modulation and symmetric conduction.

The ring-oscillator experiments (Sec. 3.3) need a device whose switching
threshold and drive strength are calibrated to Table 1's minimum repeater
(r_s, c_0, c_p); the fine structure of a BSIM model is irrelevant to the
undershoot-induced false-switching mechanism.  A square-law model with

    Id = 0                                        for vgs <= vth
    Id = beta [ (vgs-vth) vds - vds^2/2 ] (1 + lambda vds)   (triode)
    Id = beta/2 (vgs-vth)^2 (1 + lambda vds)                 (saturation)

is therefore used, made *symmetric* in drain/source (conduction reverses
when vds < 0 — essential here, because inductive undershoot drives output
nodes below ground and above VDD).  PMOS devices are the sign-mirrored
equivalent.  Device capacitances are not modelled internally; the builders
attach the calibrated c_0 k and c_p k as explicit linear capacitors,
matching the paper's linear-C_P assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ParameterError
from .elements import NonlinearDevice

#: Default channel-length-modulation coefficient (1/V).
DEFAULT_LAMBDA = 0.05


def _square_law(vgs: float, vds: float, vth: float, beta: float,
                lam: float) -> Tuple[float, float, float]:
    """(Id, dId/dvgs, dId/dvds) for vds >= 0 in the device's own frame."""
    vov = vgs - vth
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    clm = 1.0 + lam * vds
    if vds >= vov:                        # saturation
        id_core = 0.5 * beta * vov * vov
        current = id_core * clm
        gm = beta * vov * clm
        gds = id_core * lam
    else:                                 # triode
        id_core = beta * (vov * vds - 0.5 * vds * vds)
        current = id_core * clm
        gm = beta * vds * clm
        gds = beta * (vov - vds) * clm + id_core * lam
    return current, gm, gds


def _symmetric_square_law(vgs: float, vds: float, vth: float, beta: float,
                          lam: float) -> Tuple[float, float, float]:
    """Square law extended to vds < 0 by drain/source exchange."""
    if vds >= 0.0:
        return _square_law(vgs, vds, vth, beta, lam)
    current, gm_swapped, gds_swapped = _square_law(vgs - vds, -vds, vth,
                                                   beta, lam)
    # I(d->s) = -I'(vgs - vds, -vds); chain rule for the swapped arguments.
    return -current, -gm_swapped, gm_swapped + gds_swapped


@dataclass(frozen=True)
class Mosfet(NonlinearDevice):
    """Three-terminal MOSFET (drain, gate, source); body effect ignored.

    Attributes
    ----------
    polarity:
        +1 for NMOS, -1 for PMOS.
    vth:
        Threshold voltage magnitude (positive for both polarities), volts.
    beta:
        Transconductance parameter (A/V^2) of *this* device (already
        scaled by the width multiplier).
    lam:
        Channel-length modulation coefficient (1/V).
    """

    drain: str = ""
    gate: str = ""
    source: str = ""
    polarity: int = 1
    vth: float = 0.3
    beta: float = 1e-4
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        if self.polarity not in (1, -1):
            raise ParameterError(f"mosfet {self.name}: polarity must be +-1")
        if self.vth <= 0.0:
            raise ParameterError(f"mosfet {self.name}: vth must be positive")
        if self.beta <= 0.0:
            raise ParameterError(f"mosfet {self.name}: beta must be positive")
        if self.lam < 0.0:
            raise ParameterError(f"mosfet {self.name}: lambda must be >= 0")

    @property
    def nodes(self) -> Tuple[str, ...]:
        return (self.drain, self.gate, self.source)

    # ------------------------------------------------------------------
    def evaluate(self, vd: float, vg: float, vs: float
                 ) -> Tuple[float, float, float]:
        """(Id, gm, gds): physical drain->source current and its partials.

        ``gm`` = dId/dv_gate and ``gds`` = dId/dv_drain; the source partial
        is -(gm + gds) by construction of the two controlling voltages.
        """
        sign = float(self.polarity)
        vgs_eff = sign * (vg - vs)
        vds_eff = sign * (vd - vs)
        current, gm, gds = _symmetric_square_law(vgs_eff, vds_eff, self.vth,
                                                 self.beta, self.lam)
        # Both sign factors (current mirror and voltage mirror) cancel in
        # the conductances; only the current itself carries the polarity.
        return sign * current, gm, gds

    def stamp(self, voltages, terminals, size, matrix, rhs) -> None:
        d, g, s = terminals
        vd = voltages[d]
        vg = voltages[g]
        vs = voltages[s]
        current, gm, gds = self.evaluate(vd, vg, vs)
        g_source = -(gm + gds)
        # Norton equivalent current of the linearization.
        i_eq = current - (gm * vg + gds * vd + g_source * vs)

        if d >= 0:
            row = d * size
            if g >= 0:
                matrix[row + g] += gm
            matrix[row + d] += gds
            if s >= 0:
                matrix[row + s] += g_source
            rhs[d] -= i_eq
        if s >= 0:
            row = s * size
            if g >= 0:
                matrix[row + g] -= gm
            if d >= 0:
                matrix[row + d] -= gds
            matrix[row + s] -= g_source
            rhs[s] += i_eq
