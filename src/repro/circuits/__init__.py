"""MNA transient circuit simulator (the repo's SPICE substitute).

Built from scratch for the ring-oscillator / current-density experiments
of Sec. 3.3: netlist container, element library (R, L, C, sources,
square-law MOSFETs, behavioral switch inverters), MNA assembly, DC
operating point and fixed-step trapezoidal/backward-Euler transient (the
linear block factored once per step size, per-step Newton on the
nonlinear-terminal block) with automatic step halving.
"""

from .ac import AcAnalysis, ac_transfer, bode_magnitude_db, find_bandwidth
from .behavioral import SwitchInverter
from .builders import (DEFAULT_SEGMENTS, BufferedLine, RingOscillator,
                       StageTestbench, build_buffered_line,
                       build_linear_stage, build_ring_oscillator)
from .bus import (PATTERNS, BusBench, PatternSearchResult, build_bus_bench,
                  initial_bus_voltages, worst_case_pattern)
from .coupled_line import (CoupledPair, CrosstalkBench, add_coupled_pair,
                           build_crosstalk_bench)
from .coupling import MutualInductance
from .elements import (Capacitor, CurrentSource, Element, Inductor,
                       NonlinearDevice, Resistor, TwoTerminal, VoltageSource)
from .inverter import (InverterCalibration, add_mosfet_inverter,
                       add_switch_inverter, analytic_beta)
from .mna import DEFAULT_GMIN, MnaStructure, dc_operating_point
from .mosfet import DEFAULT_LAMBDA, Mosfet
from .netlist import GROUND, Circuit
from .rlc_line import LadderSection, RlcLadder, add_rlc_ladder
from .transient import (Crossing, TransientOptions, TransientResult,
                        TransientSolver, simulate)
from .waveforms import DC, PiecewiseLinear, Pulse, Sine, Step

from .export import SpiceExport, to_spice, write_spice

__all__ = [
    "AcAnalysis", "ac_transfer", "bode_magnitude_db", "find_bandwidth",
    "SpiceExport", "to_spice", "write_spice",
    "SwitchInverter",
    "DEFAULT_SEGMENTS", "BufferedLine", "RingOscillator", "StageTestbench",
    "build_buffered_line", "build_linear_stage", "build_ring_oscillator",
    "CoupledPair", "CrosstalkBench", "add_coupled_pair",
    "build_crosstalk_bench", "MutualInductance",
    "PATTERNS", "BusBench", "PatternSearchResult", "build_bus_bench",
    "initial_bus_voltages", "worst_case_pattern",
    "Capacitor", "CurrentSource", "Element", "Inductor", "NonlinearDevice",
    "Resistor", "TwoTerminal", "VoltageSource",
    "InverterCalibration", "add_mosfet_inverter", "add_switch_inverter",
    "analytic_beta",
    "DEFAULT_GMIN", "MnaStructure", "dc_operating_point",
    "DEFAULT_LAMBDA", "Mosfet",
    "GROUND", "Circuit",
    "LadderSection", "RlcLadder", "add_rlc_ladder",
    "Crossing", "TransientOptions", "TransientResult", "TransientSolver",
    "simulate",
    "DC", "PiecewiseLinear", "Pulse", "Sine", "Step",
]
