"""Modified nodal analysis: system structure, stamps and DC solve.

The unknown vector is x = [node voltages | branch currents], with one
branch current per inductor and per voltage source.  KCL rows come first
(one per non-ground node), then one constitutive row per branch.

All companion-model stamping for transient analysis lives in
:mod:`repro.circuits.transient`; this module owns the index maps
(including the nonlinear-terminal block the transient solver's Schur
complement runs on, and the layout that lockstep lanes share), the static
(resistive + topological) stamps and the device stamps shared by DC and
transient, and the Newton DC operating-point solve with gmin
continuation.
"""

from __future__ import annotations

from typing import (Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import NetlistError, SimulationError
from .coupling import MutualInductance
from .elements import (Capacitor, CurrentSource, Inductor, NonlinearDevice,
                       Resistor, VoltageSource)
from .netlist import GROUND, Circuit

#: Conductance from every node to ground, for numerical robustness.
DEFAULT_GMIN = 1e-12


class MnaStructure:
    """Index maps and element categorization for one circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.node_names: List[str] = circuit.nodes
        self._node_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)}
        self._node_index[GROUND] = -1

        self.resistors = circuit.elements_of_type(Resistor)
        self.capacitors = circuit.elements_of_type(Capacitor)
        self.inductors = circuit.elements_of_type(Inductor)
        self.voltage_sources = circuit.elements_of_type(VoltageSource)
        self.current_sources = circuit.elements_of_type(CurrentSource)
        self.nonlinear = circuit.elements_of_type(NonlinearDevice)
        self.mutuals = circuit.elements_of_type(MutualInductance)

        self.n_nodes = len(self.node_names)
        branch_elements = [*self.inductors, *self.voltage_sources]
        self._branch_index: Dict[str, int] = {
            e.name: self.n_nodes + j for j, e in enumerate(branch_elements)}
        self.n_branches = len(branch_elements)
        self.size = self.n_nodes + self.n_branches

        inductor_by_name = {e.name: e for e in self.inductors}
        for mutual in self.mutuals:
            for name in (mutual.inductor_a, mutual.inductor_b):
                if name not in inductor_by_name:
                    raise NetlistError(
                        f"mutual {mutual.name} references unknown inductor "
                        f"{name!r}")
        #: (row_a, row_b, M) triples resolved for the transient stamps.
        self.mutual_terms = [
            (self._branch_index[m.inductor_a], self._branch_index[m.inductor_b],
             m.mutual_inductance(inductor_by_name[m.inductor_a].inductance,
                                 inductor_by_name[m.inductor_b].inductance))
            for m in self.mutuals]
        #: The system without its values: nodes, each element's type, name
        #: and terminals, and the coupled branch rows, in order.  Circuits
        #: with one layout share every index map, so a transient can
        #: advance them in lockstep.
        self.layout = (tuple(self.node_names),
                       tuple((type(e), e.name, e.nodes)
                             for e in circuit.elements),
                       tuple((a, b) for a, b, _ in self.mutual_terms))

    # ------------------------------------------------------------------
    def node_index(self, node: str) -> int:
        """Row/column of a node's KCL equation; -1 for ground.

        Raises
        ------
        NetlistError
            If the circuit has no node of that name.
        """
        try:
            return self._node_index[node]
        except KeyError:
            raise NetlistError(
                f"circuit {self.circuit.title!r} has no node {node!r}") \
                from None

    def branch_row(self, element_name: str) -> int:
        """Row/column of a branch element's current unknown.

        Raises
        ------
        NetlistError
            If the element does not exist or carries no branch current
            (only inductors and voltage sources do).
        """
        try:
            return self._branch_index[element_name]
        except KeyError:
            if element_name in self.circuit:
                raise NetlistError(
                    f"element {element_name!r} has no branch current; only "
                    f"inductors and voltage sources carry one") from None
            raise NetlistError(
                f"circuit {self.circuit.title!r} has no element "
                f"{element_name!r}") from None

    def terminal_rows(self, elements) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of the ``a`` and ``b`` terminals of two-terminal elements
        (-1 for ground), as index arrays."""
        index = self._node_index
        return (np.array([index[e.a] for e in elements], dtype=np.intp),
                np.array([index[e.b] for e in elements], dtype=np.intp))

    def terminal_block(self) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
        """Split the unknowns into the nonlinear block T and the rest L.

        T holds every nonlinear-device terminal node, plus the branch
        current of each voltage source whose terminals all lie in T or on
        ground: such a source's constitutive row has no entry outside T,
        so leaving its current in L would leave an empty row in the linear
        block.  Returns the T rows and the L rows (each ascending), and the
        T-local node index (ground -> -1) that devices stamp through.
        """
        terminals = {node for device in self.nonlinear
                     for node in device.nodes if node != GROUND}
        on_block = terminals | {GROUND}
        t_rows = sorted(
            [self._node_index[node] for node in terminals]
            + [self._branch_index[source.name]
               for source in self.voltage_sources
               if source.a in on_block and source.b in on_block])
        in_t = set(t_rows)
        l_rows = [i for i in range(self.size) if i not in in_t]
        local = {GROUND: -1}
        for position, row in enumerate(t_rows):
            if row < self.n_nodes:
                local[self.node_names[row]] = position
        return (np.array(t_rows, dtype=np.intp),
                np.array(l_rows, dtype=np.intp), local)

    # ------------------------------------------------------------------
    # Shared stamps.
    # ------------------------------------------------------------------
    def stamp_conductance(self, matrix: np.ndarray, a: int, b: int,
                          g: float) -> None:
        """Stamp a conductance g between rows/cols a and b (-1 = ground)."""
        if a >= 0:
            matrix[a, a] += g
            if b >= 0:
                matrix[a, b] -= g
                matrix[b, a] -= g
        if b >= 0:
            matrix[b, b] += g

    def stamp_static(self, matrix: np.ndarray, *, gmin: float) -> None:
        """Add resistor conductances, source/branch topology and gmin.

        The inductor/voltage-source *constitutive* diagonal terms are left
        to the caller (they differ between DC and transient); only the KCL
        coupling (+-1 in the branch current column) and the +-1 voltage
        terms of the branch rows are stamped here, because those are common
        to every analysis.
        """
        for resistor in self.resistors:
            self.stamp_conductance(matrix,
                                   self.node_index(resistor.a),
                                   self.node_index(resistor.b),
                                   resistor.conductance)
        for element in (*self.inductors, *self.voltage_sources):
            row = self.branch_row(element.name)
            ia = self.node_index(element.a)
            ib = self.node_index(element.b)
            if ia >= 0:
                matrix[ia, row] += 1.0      # current leaves node a
                matrix[row, ia] += 1.0      # +v(a) in branch equation
            if ib >= 0:
                matrix[ib, row] -= 1.0
                matrix[row, ib] -= 1.0
        if gmin > 0.0:
            for i in range(self.n_nodes):
                matrix[i, i] += gmin

    def stamp_current_sources(self, rhs: np.ndarray, t: float) -> None:
        """Add independent current-source contributions at time t."""
        for source in self.current_sources:
            value = source.waveform(t)
            ia = self.node_index(source.a)
            ib = self.node_index(source.b)
            if ia >= 0:
                rhs[ia] -= value
            if ib >= 0:
                rhs[ib] += value

    def device_terminals(self, index: Optional[Mapping[str, int]] = None
                         ) -> Tuple[Tuple[int, ...], ...]:
        """Per nonlinear device, the positions of its terminals.

        ``index`` maps node names to positions (ground -> -1); it defaults
        to the full MNA map.  The transient solver passes the T-local map
        of :meth:`terminal_block`.
        """
        index = self._node_index if index is None else index
        return tuple(tuple(index[node] for node in device.nodes)
                     for device in self.nonlinear)

    def stamp_nonlinear(self, x: np.ndarray, matrix: np.ndarray,
                        rhs: np.ndarray,
                        terminals: Optional[Tuple[Tuple[int, ...], ...]]
                        = None,
                        devices: Optional[Sequence[Sequence[NonlinearDevice]]]
                        = None) -> Tuple[np.ndarray, np.ndarray]:
        """``matrix`` and ``rhs`` plus every nonlinear device's linearized
        stamp, per lane.

        ``x`` (lanes, m) holds each lane's iterate, ``matrix`` (lanes, m, m)
        and ``rhs`` (lanes, m) the system the stamps add to; the inputs are
        left unchanged.  ``terminals`` is :meth:`device_terminals` of the
        map from nodes to positions in ``x``; it defaults to the full MNA
        map.  ``devices`` lists each lane's devices, in the order of a
        circuit with this layout; it defaults to this circuit's devices for
        every lane.

        The devices evaluate in Python floats (see
        :meth:`~repro.circuits.elements.NonlinearDevice.stamp`) and
        accumulate through flat memoryviews of the returned copies, which
        index faster than array elements and need no conversion back.
        """
        lanes, size = x.shape
        if terminals is None:
            terminals = self.device_terminals()
        stamped = np.array(matrix, dtype=float, order="C")
        currents = np.array(rhs, dtype=float, order="C")
        for lane_devices, voltages, lane_matrix, lane_rhs in zip(
                devices or [self.nonlinear] * lanes, x.tolist(), stamped,
                currents):
            voltages.append(0.0)            # ground, read at position -1
            flat = memoryview(lane_matrix).cast("B").cast("d")
            lane_rhs = memoryview(lane_rhs)
            for device, rows in zip(lane_devices, terminals):
                device.stamp(voltages, rows, size, flat, lane_rhs)
        return stamped, currents


def dc_operating_point(circuit: Circuit, *, t: float = 0.0,
                       gmin: float = DEFAULT_GMIN,
                       max_iterations: int = 200,
                       abstol: float = 1e-9,
                       reltol: float = 1e-6) -> Dict[str, float]:
    """Newton DC operating point: capacitors open, inductors shorted.

    Uses gmin continuation (large-to-small shunt conductances) when the
    plain Newton iteration fails, which handles the strongly nonlinear
    CMOS circuits built by :mod:`repro.circuits.builders`.

    Returns
    -------
    dict
        Node name -> voltage (ground included as 0.0).
    """
    structure = MnaStructure(circuit)
    gmin_schedule = [1e-3, 1e-5, 1e-7, 1e-9, gmin] if gmin < 1e-9 else [gmin]
    x = np.zeros(structure.size)
    last_error: SimulationError | None = None
    for g in gmin_schedule:
        try:
            x = _dc_newton(structure, x, t=t, gmin=g,
                           max_iterations=max_iterations,
                           abstol=abstol, reltol=reltol)
            last_error = None
        except SimulationError as exc:
            last_error = exc
    if last_error is not None:
        raise last_error
    result = {GROUND: 0.0}
    for name in structure.node_names:
        result[name] = float(x[structure.node_index(name)])
    return result


def _dc_newton(structure: MnaStructure, x0: np.ndarray, *, t: float,
               gmin: float, max_iterations: int, abstol: float,
               reltol: float) -> np.ndarray:
    base = np.zeros((structure.size, structure.size))
    structure.stamp_static(base, gmin=gmin)
    # DC constitutive rows: inductor => v(a) - v(b) = 0 (already stamped);
    # voltage source rows get the waveform value on the RHS.
    rhs_base = np.zeros(structure.size)
    for source in structure.voltage_sources:
        rhs_base[structure.branch_row(source.name)] = source.waveform(t)
    structure.stamp_current_sources(rhs_base, t)

    x = x0.copy()
    for _ in range(max_iterations):
        matrix, rhs = structure.stamp_nonlinear(x[None], base[None],
                                                rhs_base[None])
        try:
            x_new = np.linalg.solve(matrix[0], rhs[0])
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"singular MNA matrix in DC solve: {exc}") \
                from exc
        delta = np.abs(x_new - x)
        x = x_new
        if np.all(delta <= abstol + reltol * np.abs(x)):
            return x
    raise SimulationError(
        f"DC operating point did not converge in {max_iterations} iterations "
        f"(gmin={gmin:g})")
