"""N-line coupled bus with per-line switching patterns.

Generalizes the two-line crosstalk bench to a bus: ``n_lines`` parallel
wires, nearest-neighbour (and optionally next-nearest) coupling
capacitance, mutual inductance decaying with wire separation, and a
drive assignment per line:

* ``'up'``     — 0 -> VDD step through the driver resistance,
* ``'down'``   — VDD -> 0 step,
* ``'low'``    — held at 0 (quiet victim candidates),
* ``'high'``   — held at VDD.

This is the substrate for the dynamic Miller-effect experiment: the
victim's measured delay under in-phase vs anti-phase neighbours is the
time-domain counterpart of the paper's static "effective c varies by up
to 4x" remark, and the bus geometry feeds straight from the Table 1
extraction models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.params import LineParams
from ..errors import ParameterError
from .netlist import GROUND, Circuit
from .rlc_line import RlcLadder, add_rlc_ladder
from .waveforms import DC, Step

#: Recognized per-line drive patterns.
PATTERNS = ("up", "down", "low", "high")


@dataclass(frozen=True)
class BusBench:
    """A built bus: per-line ladders plus probe bookkeeping."""

    circuit: Circuit
    ladders: List[RlcLadder]
    patterns: List[str]
    vdd: float

    @property
    def n_lines(self) -> int:
        return len(self.ladders)

    def far_node(self, index: int) -> str:
        """Far-end (receiver) node of line ``index``."""
        return self.ladders[index].output_node

    def near_node(self, index: int) -> str:
        """Near-end (driver) node of line ``index``."""
        return self.ladders[index].input_node


def build_bus_bench(line: LineParams, *, n_lines: int, length: float,
                    segments: int, r_driver: float, c_load: float,
                    coupling_capacitance_per_length: float,
                    patterns: Sequence[str], vdd: float = 1.0,
                    inductive_coupling: float = 0.0,
                    coupling_decay: float = 0.5,
                    rise: float = 0.0) -> BusBench:
    """Build an ``n_lines`` coupled bus with the given switching pattern.

    Parameters
    ----------
    patterns:
        One pattern string per line (see :data:`PATTERNS`).
    coupling_capacitance_per_length:
        Lateral capacitance between *adjacent* lines (F/m).
    inductive_coupling:
        Mutual coefficient between adjacent lines' segment inductors;
        between lines i and j it decays as
        ``inductive_coupling * coupling_decay**(|i-j|-1)``.
    coupling_decay:
        Per-wire-pitch decay of the mutual coefficient (inductive
        coupling reaches beyond nearest neighbours, unlike capacitive).
    """
    if n_lines < 2:
        raise ParameterError(f"a bus needs >= 2 lines, got {n_lines}")
    if len(patterns) != n_lines:
        raise ParameterError(
            f"need {n_lines} patterns, got {len(patterns)}")
    for pattern in patterns:
        if pattern not in PATTERNS:
            raise ParameterError(
                f"unknown pattern {pattern!r}; use one of {PATTERNS}")
    if not 0.0 <= inductive_coupling < 1.0:
        raise ParameterError("inductive coupling must be in [0, 1)")
    if not 0.0 < coupling_decay <= 1.0:
        raise ParameterError("coupling decay must be in (0, 1]")
    if inductive_coupling > 0.0 and line.l == 0.0:
        raise ParameterError(
            "inductive coupling requires a line with nonzero inductance")

    circuit = Circuit(f"bus x{n_lines}")
    ladders: List[RlcLadder] = []
    for i, pattern in enumerate(patterns):
        source_node = f"b{i}.src"
        if pattern == "up":
            waveform = Step(level=vdd, rise=rise)
        elif pattern == "down":
            # VDD falling to 0: a high DC minus a step.
            waveform = _FallingStep(vdd=vdd, rise=rise)
        elif pattern == "low":
            waveform = DC(0.0)
        else:
            waveform = DC(vdd)
        circuit.voltage_source(f"V{i}", source_node, GROUND, waveform)
        circuit.resistor(f"R{i}", source_node, f"b{i}.in", r_driver)
        ladders.append(add_rlc_ladder(circuit, f"b{i}.line", f"b{i}.in",
                                      f"b{i}.out", line, length, segments))
        circuit.capacitor(f"CL{i}", f"b{i}.out", GROUND, c_load)

    c_adjacent = coupling_capacitance_per_length * length / segments
    for i in range(n_lines - 1):
        for s, (section_a, section_b) in enumerate(
                zip(ladders[i].sections, ladders[i + 1].sections)):
            if c_adjacent > 0.0:
                circuit.capacitor(f"CC{i}_{i + 1}_{s}", section_a.out_node,
                                  section_b.out_node, c_adjacent)
    if inductive_coupling > 0.0:
        for i in range(n_lines):
            for j in range(i + 1, n_lines):
                k = inductive_coupling * coupling_decay ** (j - i - 1)
                if k <= 1e-6:
                    continue
                for s, (section_a, section_b) in enumerate(
                        zip(ladders[i].sections, ladders[j].sections)):
                    circuit.mutual(f"K{i}_{j}_{s}", section_a.inductor,
                                   section_b.inductor, k)
    return BusBench(circuit=circuit, ladders=ladders,
                    patterns=list(patterns), vdd=vdd)


@dataclass(frozen=True)
class _FallingStep:
    """VDD before t=0+, ramping to 0 — the mirror of Step."""

    vdd: float
    rise: float = 0.0

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return self.vdd
        if self.rise <= 0.0 or t >= self.rise:
            return 0.0
        return self.vdd * (1.0 - t / self.rise)


def initial_bus_voltages(bench: BusBench) -> dict[str, float]:
    """Initial node voltages consistent with each line's pattern.

    'up'/'low' lines start at 0 V everywhere; 'down'/'high' lines start at
    VDD, so the t=0 state is the pre-transition steady state.
    """
    ics: dict[str, float] = {}
    for ladder, pattern in zip(bench.ladders, bench.patterns):
        level = bench.vdd if pattern in ("down", "high") else 0.0
        ics[f"{ladder.input_node}"] = level
        ics[ladder.input_node.replace(".in", ".src")] = level
        for section in ladder.sections:
            if section.mid_node is not None:
                ics[section.mid_node] = level
            ics[section.out_node] = level
    return ics
