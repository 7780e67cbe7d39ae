"""Fixed-step transient analysis with Newton iterations per step.

Integration is trapezoidal by default (with a backward-Euler first step to
damp artificial transients from user initial conditions), selectable to
pure backward Euler.  Companion models:

* capacitor (trapezoidal): geq = 2C/dt, history current
  I_hist = geq * v_ab(t_n) + i_C(t_n); (BE): geq = C/dt, I_hist = geq v_ab.
* inductor (trapezoidal): branch row (2L/dt) i - v_ab = (2L/dt) i_n +
  v_ab(t_n); (BE): (L/dt) i - v_ab = (L/dt) i_n.

The companion matrix depends only on the step size and the method, so it
is factored once per ``(dt, method)``.  Nonlinear devices touch only the
block T of :meth:`~repro.circuits.mna.MnaStructure.terminal_block` (their
terminal nodes, plus the current of a voltage source sitting on them);
the rest, L, is linear.  Per ``(dt, method)`` the solver caches

    lu(A_LL),   W = A_LL^-1 A_LT,   S = A_TT - A_TL W   (Schur complement).

Each step solves y_L = A_LL^-1 b_L once.  Each Newton iteration stamps the
devices' linearization (:meth:`~repro.circuits.mna.MnaStructure.stamp_nonlinear`)
into a copy of S, solves the small system
(S + J) x_T = b_T - A_TL y_L + r and recovers x_L = y_L - W x_T.  A linear
circuit has T empty and costs one back-substitution per step.  On Newton
failure a step is recursively halved (up to a configurable depth), which
carries the ring-oscillator circuits of Sec. 3.3 through their switching
instants.

One solver advances N circuits that share one MNA layout (lanes: the
same netlist with different element values, e.g. a ring at several line
inductances) in lockstep, and one circuit is the N = 1 case of the same
code.  The lanes' step matrices are stacked, each step builds every
lane's right-hand side at once, and the Newton iterations run on the
stacked terminal blocks: a lane that converges leaves the iteration, and
a lane whose Newton fails takes the recursive halving alone and rejoins
at the next step.  The stacked LAPACK and BLAS calls compute each lane
exactly as a run of that lane alone does, so every lane's waveforms are
bitwise those of its own run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrs

from ..errors import NetlistError, SimulationError
from .elements import Resistor
from .mna import DEFAULT_GMIN, MnaStructure
from .netlist import GROUND, Circuit

#: Newton update cap (volts); larger proposed updates are scaled down.
DEFAULT_MAX_UPDATE = 1.0


@dataclass
class TransientOptions:
    """Knobs of the transient solver (SPICE-like defaults)."""

    method: str = "trapezoidal"           #: 'trapezoidal' or 'backward_euler'
    gmin: float = DEFAULT_GMIN
    abstol: float = 1e-9                  #: absolute Newton tolerance
    reltol: float = 1e-6                  #: relative Newton tolerance
    max_newton_iterations: int = 60
    max_step_halvings: int = 8            #: recursive dt halving depth
    max_update: float = DEFAULT_MAX_UPDATE

    def __post_init__(self) -> None:
        if self.method not in ("trapezoidal", "backward_euler"):
            raise ValueError(f"unknown integration method {self.method!r}")


@dataclass(frozen=True)
class Crossing:
    """Stop condition: ``node`` crosses ``level`` in one direction.

    A step crosses when the node sits strictly on the starting side of
    the level before it and at or past the level after it, the rule of
    :meth:`repro.analysis.waveform.Waveform.first_crossing`; a run that
    stops there still holds the measured crossing bit for bit.
    """

    node: str
    level: float
    rising: bool = True

    def crossed(self, before: float, after: float) -> bool:
        """Whether a step from ``before`` to ``after`` volts crosses."""
        before, after = before - self.level, after - self.level
        if self.rising:
            return before < 0.0 <= after
        return before > 0.0 >= after


class TransientResult:
    """The shared time grid of one run and each lane's recorded waveforms.

    The waveform accessors read a one-lane result: one circuit's run, or
    one lane of a lockstep taken with :meth:`lane`.  The arrays are
    read-only; the accessors return copies.
    """

    def __init__(self, structures: Sequence[MnaStructure], times: np.ndarray,
                 states: np.ndarray,
                 columns: Optional[Dict[int, int]]) -> None:
        self._structures = structures
        self.time = times                   #: (n_points,) seconds
        self._states = states               #: (n_points, lanes, recorded)
        #: MNA row -> column of ``_states``; None when every row is recorded.
        self._columns = columns
        times.flags.writeable = False
        states.flags.writeable = False

    @property
    def lanes(self) -> int:
        """Number of circuits the run advanced in lockstep."""
        return self._states.shape[1]

    def lane(self, i: int) -> "TransientResult":
        """The result of lane ``i`` alone (shares this result's arrays)."""
        i = range(self.lanes)[i]
        return TransientResult(self._structures[i:i + 1], self.time,
                               self._states[:, i:i + 1], self._columns)

    @property
    def _structure(self) -> MnaStructure:
        if self.lanes != 1:
            raise SimulationError(
                f"this result holds {self.lanes} lanes; read one through "
                f"lane(i)")
        return self._structures[0]

    def _read(self, row: int, name: str) -> np.ndarray:
        column = row if self._columns is None else self._columns.get(row)
        if column is None:
            raise NetlistError(f"{name!r} was not recorded in this run")
        return self._states[:, 0, column].copy()

    @property
    def node_names(self) -> list[str]:
        """All non-ground node names."""
        return list(self._structure.node_names)

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of a node (ground returns zeros)."""
        i = self._structure.node_index(node)
        if i < 0:
            return np.zeros_like(self.time)
        return self._read(i, node)

    def branch_current(self, name: str) -> np.ndarray:
        """Current through an inductor or voltage source (a -> b)."""
        return self._read(self._structure.branch_row(name), name)

    def resistor_current(self, name: str) -> np.ndarray:
        """Current through a resistor computed as g * (v_a - v_b)."""
        element = self._structure.circuit.element(name)
        if not isinstance(element, Resistor):
            raise SimulationError(f"{name!r} is not a resistor")
        va = self.voltage(element.a)
        vb = self.voltage(element.b)
        return (va - vb) * element.conductance

    def final_voltages(self) -> Dict[str, float]:
        """Recorded node voltages at the final time point."""
        structure = self._structure
        out = {GROUND: 0.0}
        for node in structure.node_names:
            row = structure.node_index(node)
            if self._columns is None or row in self._columns:
                out[node] = float(self._read(row, node)[-1])
        return out


@dataclass(frozen=True)
class _StepMatrices:
    """The parts of every lane's step system that depend only on
    (dt, method), stacked over the lanes."""

    lu: list                   #: per lane lu_factor(A_LL); None when L is empty
    w_t: np.ndarray            #: (A_LL^-1 A_LT)^T, each lane row-major
    schur: np.ndarray          #: S = A_TT - A_TL W
    a_tl: np.ndarray           #: A_TL, which folds y_L into b_T
    cap_geq: np.ndarray        #: capacitor companion conductances
    ind_coef: np.ndarray       #: inductor companion factor * L / dt
    mut_coef: np.ndarray       #: factor * M / dt per stamped mutual entry
    errors: dict               #: lane -> SimulationError of a singular A_LL


#: Initial node voltages: one map for every lane, or one map per lane.
_InitialVoltages = Union[Mapping[str, float],
                        Sequence[Optional[Mapping[str, float]]], None]


class TransientSolver:
    """Runs fixed-step transient analysis on one circuit, or in lockstep on
    several circuits that share one MNA layout (the lanes)."""

    def __init__(self, circuits: Union[Circuit, Sequence[Circuit]],
                 options: Optional[TransientOptions] = None) -> None:
        lanes = [circuits] if isinstance(circuits, Circuit) else list(circuits)
        if not lanes:
            raise NetlistError("a transient run needs at least one circuit")
        for circuit in lanes:
            circuit.validate()
        self.options = options or TransientOptions()
        self.structures = [MnaStructure(circuit) for circuit in lanes]
        structure = self.structure = self.structures[0]
        for other in self.structures[1:]:
            if other.layout != structure.layout:
                raise NetlistError(
                    f"circuit {other.circuit.title!r} does not share the MNA "
                    f"layout of {structure.circuit.title!r}; lockstep lanes "
                    f"need the same nodes and the same elements by name, "
                    f"type and terminals, in order")

        def per_lane(kind: str, value) -> np.ndarray:
            """(lanes, count) array of ``value`` over each lane's elements
            of one kind."""
            return np.array([[value(e) for e in getattr(lane, kind)]
                             for lane in self.structures], dtype=float)

        # Index arrays replacing per-element loops; -1 is ground, which
        # reads 0 V from the zero appended to the state (see _with_ground).
        self._cap_a, self._cap_b = structure.terminal_rows(
            structure.capacitors)
        self._cap_c = per_lane("capacitors", lambda c: c.capacitance)
        self._cap_has_ic = per_lane(
            "capacitors", lambda c: c.initial_voltage is not None) > 0.0
        self._cap_ic = per_lane("capacitors",
                                lambda c: c.initial_voltage or 0.0)
        # History scatter: +I_hist into node a and -I_hist into node b, in
        # element order, so node sums accumulate as the stamps always did.
        scatter = [(row, j, sign)
                   for j, (a, b) in enumerate(zip(self._cap_a.tolist(),
                                                  self._cap_b.tolist()))
                   for row, sign in ((a, 1.0), (b, -1.0)) if row >= 0]
        hist_rows = np.array([s[0] for s in scatter], dtype=np.intp)
        self._hist_cap = np.array([s[1] for s in scatter], dtype=np.intp)
        self._hist_sign = np.array([s[2] for s in scatter], dtype=float)
        # One bincount builds every lane's right-hand side: lane k's rows
        # are offset by k * size.  Keyed by lane count (N, or 1 for a lane
        # that halves alone).
        self._hist_rows = {
            n: (hist_rows + structure.size * np.arange(n)[:, None]).ravel()
            for n in {1, len(lanes)}}

        inductors = structure.inductors
        self._ind_rows = np.array([structure.branch_row(e.name)
                                   for e in inductors], dtype=np.intp)
        self._ind_a, self._ind_b = structure.terminal_rows(inductors)
        self._ind_l = per_lane("inductors", lambda e: e.inductance)
        self._ind_i0 = per_lane("inductors", lambda e: e.initial_current)
        # Mutual terms (row_a, row_b, M) unrolled into the two entries each
        # stamps: row_a couples to row_b's current and vice versa.
        terms = structure.mutual_terms
        self._mut_rows = np.array([r for a, b, _ in terms for r in (a, b)],
                                  dtype=np.intp)
        self._mut_partner = np.array([r for a, b, _ in terms for r in (b, a)],
                                     dtype=np.intp)
        self._mut_m = np.array([[m for _, _, m in lane.mutual_terms
                                 for _ in (0, 1)]
                                for lane in self.structures], dtype=float)
        self._src_rows = np.array([structure.branch_row(s.name)
                                   for s in structure.voltage_sources],
                                  dtype=np.intp)
        self._src_waveforms = [[s.waveform for s in lane.voltage_sources]
                               for lane in self.structures]
        self._devices = [lane.nonlinear for lane in self.structures]

        self._t_rows, self._l_rows, t_index = structure.terminal_block()
        self._block_order = np.concatenate((self._t_rows, self._l_rows))
        self._terminals = structure.device_terminals(t_index)
        # Step matrices keyed by (dt, method); rebuilt when dt halves.
        self._step_cache: Dict[tuple[float, str], _StepMatrices] = {}

    # ------------------------------------------------------------------
    def run(self, t_end: float, dt: float, *,
            initial_voltages: _InitialVoltages = None,
            record: Optional[Iterable[str]] = None,
            stop: Optional[Crossing] = None) -> TransientResult:
        """Simulate every lane from t = 0 to ``t_end`` with nominal step ``dt``.

        Parameters
        ----------
        initial_voltages:
            Node name -> voltage at t = 0, one map for every lane or a
            sequence of one map per lane; unspecified nodes start at 0 V.
            Inductor initial currents come from the elements themselves.
        record:
            Names whose waveforms the result keeps: a node keeps its
            voltage; an inductor or voltage source its branch current; a
            resistor its terminal voltages, from which its current is
            computed.  ``None`` (the default) keeps every unknown.
        stop:
            End the run after the first step at which every lane has
            crossed (see :class:`Crossing`).

        Raises
        ------
        NetlistError
            If ``initial_voltages``, ``record`` or ``stop`` names a node
            or element the circuits do not have.
        SimulationError
            If a step matrix is singular, or Newton fails even after the
            configured step halvings, in any lane: the first lane to fail
            raises the error its own run raises.
        """
        if t_end <= 0.0 or dt <= 0.0:
            raise SimulationError("t_end and dt must be positive")
        # Tolerate float noise in t_end/dt (e.g. 2000.0000000000002) so an
        # exact multiple does not gain a spurious zero-length extra step.
        n_steps = max(1, int(math.ceil(t_end / dt * (1.0 - 1e-12))))
        lanes = slice(0, len(self.structures))

        x, cap_current, cap_voltage = self._initial_state(initial_voltages)
        rows = None if record is None else self._recorded_rows(record)
        recorded = slice(None) if rows is None else rows
        stop_levels = None                    # the stop node, per lane
        if stop is not None:
            stop_row = self.structure.node_index(stop.node)
            if stop_row >= 0:                 # ground never crosses
                crossed = [False] * len(self.structures)
                stop_levels = x[:, stop_row].tolist()
        times = np.empty(n_steps + 1)
        states = np.empty((n_steps + 1,) + x[:, recorded].shape)
        times[0] = 0.0
        states[0] = x[:, recorded]

        t = 0.0
        for step in range(1, n_steps + 1):
            # Pin each target time to the ideal grid so float accumulation
            # cannot produce a zero-length (or overshooting) final step.
            t_target = min(step * dt, t_end)
            step_dt = t_target - t
            # First step uses BE to damp inconsistent initial conditions.
            method = ("backward_euler" if step == 1 else self.options.method)
            x, cap_current, cap_voltage = self._advance(
                lanes, x, cap_current, cap_voltage, t, step_dt, method,
                depth=0)
            t = t_target
            times[step] = t
            states[step] = x[:, recorded]
            if stop_levels is not None:
                levels = x[:, stop_row].tolist()
                crossed = [done or stop.crossed(before, after)
                           for done, before, after
                           in zip(crossed, stop_levels, levels)]
                stop_levels = levels
                if all(crossed):
                    times = times[:step + 1].copy()
                    states = states[:step + 1].copy()
                    break
        columns = None if rows is None else \
            {row: j for j, row in enumerate(rows.tolist())}
        return TransientResult(self.structures, times, states, columns)

    # ------------------------------------------------------------------
    def _initial_state(self, initial_voltages: _InitialVoltages):
        """State vectors, capacitor currents and voltages at t = 0, per lane."""
        structure = self.structure
        n_lanes = len(self.structures)
        if initial_voltages is None or isinstance(initial_voltages, Mapping):
            per_lane = [initial_voltages] * n_lanes
        else:
            per_lane = list(initial_voltages)
            if len(per_lane) != n_lanes:
                raise SimulationError(
                    f"{len(per_lane)} initial-voltage maps for "
                    f"{n_lanes} lanes")
        x = np.zeros((n_lanes, structure.size))
        for lane_x, values in zip(x, per_lane):
            for node, value in (values or {}).items():
                i = structure.node_index(node)
                if i >= 0:
                    lane_x[i] = value
        x[:, self._ind_rows] = self._ind_i0
        voltages = _with_ground(x)
        cap_voltage = np.where(self._cap_has_ic, self._cap_ic,
                               voltages[:, self._cap_a]
                               - voltages[:, self._cap_b])
        return x, np.zeros_like(cap_voltage), cap_voltage

    def _recorded_rows(self, names: Iterable[str]) -> np.ndarray:
        """Ascending MNA rows that reading ``names`` needs (see :meth:`run`)."""
        structure = self.structure
        rows = set()
        for name in names:
            element = (structure.circuit.element(name)
                       if name in structure.circuit else None)
            if element is None:
                rows.add(structure.node_index(name))
            elif isinstance(element, Resistor):
                rows.update(structure.node_index(node)
                            for node in element.nodes)
            else:
                rows.add(structure.branch_row(name))
        rows.discard(-1)                      # ground is always 0 V
        return np.array(sorted(rows), dtype=np.intp)

    def _step_matrices(self, dt: float, method: str) -> _StepMatrices:
        key = (dt, method)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        structure = self.structure
        factor = 2.0 if method == "trapezoidal" else 1.0
        cap_geq = factor * self._cap_c / dt
        ind_coef = factor * self._ind_l / dt
        mut_coef = factor * self._mut_m / dt

        # Empty blocks are skipped, not handed to LAPACK: an all-terminal
        # circuit (the inverter calibration bench) has no L, a linear
        # circuit has no T.
        t_rows, l_rows = self._t_rows, self._l_rows
        n_lanes = len(self.structures)
        w_t = np.zeros((n_lanes, t_rows.size, l_rows.size))
        schur = np.empty((n_lanes, t_rows.size, t_rows.size))
        a_tl = np.empty((n_lanes, t_rows.size, l_rows.size))
        lus, errors = [], {}
        for lane, lane_structure in enumerate(self.structures):
            matrix = np.zeros((structure.size, structure.size))
            lane_structure.stamp_static(matrix, gmin=self.options.gmin)
            for a, b, geq in zip(self._cap_a.tolist(), self._cap_b.tolist(),
                                 cap_geq[lane].tolist()):
                structure.stamp_conductance(matrix, a, b, geq)
            # Branch rows carry +v_ab from stamp_static, so the trapezoidal
            # companion reads v_ab - (factor L/dt) i = -(factor L/dt) i_n
            # [- v_ab,n].
            matrix[self._ind_rows, self._ind_rows] -= ind_coef[lane]
            # Mutual coupling: v1 picks up M di2/dt (and symmetrically).
            np.subtract.at(matrix, (self._mut_rows, self._mut_partner),
                           mut_coef[lane])

            lane_a_tl = a_tl[lane] = matrix[np.ix_(t_rows, l_rows)]
            lane_w = w_t[lane].T
            lu = None
            if l_rows.size:
                lu = lu_factor(matrix[np.ix_(l_rows, l_rows)],
                               check_finite=False)
                # lu_factor only warns on an exactly zero pivot.
                if not np.all(np.diagonal(lu[0])):
                    errors[lane] = SimulationError(
                        f"singular transient matrix (dt={dt:g}, {method}): "
                        f"zero pivot in the linear block")
                elif t_rows.size:
                    lane_w = lu_solve(lu, matrix[np.ix_(l_rows, t_rows)],
                                      check_finite=False)
                    w_t[lane] = lane_w.T
            lus.append(lu)
            schur[lane] = matrix[np.ix_(t_rows, t_rows)] - lane_a_tl @ lane_w
        matrices = _StepMatrices(
            lu=lus, w_t=w_t, schur=schur, a_tl=a_tl, cap_geq=cap_geq,
            ind_coef=ind_coef, mut_coef=mut_coef, errors=errors)
        if len(self._step_cache) > 32:
            self._step_cache.clear()
        self._step_cache[key] = matrices
        return matrices

    def _advance(self, lanes: slice, x: np.ndarray, cap_current: np.ndarray,
                 cap_voltage: np.ndarray, t: float, dt: float,
                 method: str, depth: int):
        """Advance ``lanes`` one step of size dt; a lane that fails halves
        the step recursively, alone."""
        x_new, cap_current_new, cap_voltage_new, failures = \
            self._single_step(lanes, x, cap_current, cap_voltage, t, dt,
                              method)
        for j in sorted(failures):
            if depth >= self.options.max_step_halvings:
                raise failures[j]
            lane = slice(lanes.start + j, lanes.start + j + 1)
            half = 0.5 * dt
            state = self._advance(lane, x[j:j + 1], cap_current[j:j + 1],
                                  cap_voltage[j:j + 1], t, half, method,
                                  depth + 1)
            state = self._advance(lane, *state, t + half, half, method,
                                  depth + 1)
            x_new[j], cap_current_new[j], cap_voltage_new[j] = \
                (part[0] for part in state)
        return x_new, cap_current_new, cap_voltage_new

    def _single_step(self, lanes: slice, x: np.ndarray,
                     cap_current: np.ndarray, cap_voltage: np.ndarray,
                     t: float, dt: float, method: str):
        """One step of every lane in ``lanes``; returns the new states and
        {position in lanes: SimulationError} for the lanes that failed."""
        structure = self.structure
        n, size = x.shape
        t_next = t + dt
        trapezoidal = method == "trapezoidal"
        step = self._step_matrices(dt, method)
        lane_ids = range(len(self.structures))[lanes]
        failures = {j: step.errors[lane] for j, lane in enumerate(lane_ids)
                    if lane in step.errors}

        # Capacitor companion history.
        cap_geq = step.cap_geq[lanes]
        hist = cap_geq * cap_voltage
        if trapezoidal:
            hist += cap_current
        # (bincount returns integers for a circuit without capacitors.)
        rhs = np.bincount(self._hist_rows[n],
                          (hist[:, self._hist_cap] * self._hist_sign).ravel(),
                          minlength=n * size).astype(float, copy=False)
        rhs = rhs.reshape(n, size)
        # Inductor companion history.
        if self._ind_rows.size:
            ind_hist = step.ind_coef[lanes] * x[:, self._ind_rows]
            if trapezoidal:
                voltages = _with_ground(x)
                ind_hist += voltages[:, self._ind_a] - voltages[:, self._ind_b]
            rhs[:, self._ind_rows] = -ind_hist
        if self._mut_rows.size:
            np.subtract.at(rhs, (slice(None), self._mut_rows),
                           step.mut_coef[lanes] * x[:, self._mut_partner])
        # Independent sources at t_{n+1}.
        rhs[:, self._src_rows] = [[waveform(t_next) for waveform in waveforms]
                                  for waveforms in self._src_waveforms[lanes]]
        if structure.current_sources:
            for lane_structure, lane_rhs in zip(self.structures[lanes], rhs):
                lane_structure.stamp_current_sources(lane_rhs, t_next)

        # Each lane takes one back-substitution through its own LU.
        y_l = rhs[:, self._l_rows]
        if self._l_rows.size:
            for j, lane in enumerate(lane_ids):
                if j not in failures:
                    y_l[j] = dgetrs(*step.lu[lane], y_l[j])[0]
        if self._t_rows.size:
            x_new = self._newton(lanes, step, rhs, y_l, x, t_next, dt,
                                 failures)
        else:
            x_new = x.copy()
            live = [j for j in range(n) if j not in failures]
            x_new[live] = y_l[live]

        # Update capacitor history at t_{n+1}.
        voltages = _with_ground(x_new)
        v_next = voltages[:, self._cap_a] - voltages[:, self._cap_b]
        if trapezoidal:
            new_cap_current = cap_geq * v_next - hist
        else:
            new_cap_current = cap_geq * (v_next - cap_voltage)
        return x_new, new_cap_current, v_next, failures

    def _newton(self, lanes: slice, step: _StepMatrices, rhs: np.ndarray,
                y_l: np.ndarray, x: np.ndarray, t_next: float, dt: float,
                failures: dict) -> np.ndarray:
        """Masked Newton on the stacked terminal blocks; returns the full
        states at t_next and adds the lanes that fail to ``failures``.

        The iterates are in block order [x_T | x_L]: the convergence tests
        are elementwise or exact maxima, which the order does not change.
        A lane that converges, or fails, leaves the stacks.
        """
        options = self.options
        n_t = self._t_rows.size
        rhs_t = rhs[:, self._t_rows] - np.matmul(step.a_tl[lanes],
                                                 y_l[:, :, None])[:, :, 0]
        done = current = x[:, self._block_order]
        # W_T is stored transposed, so each lane's W is column-major, as
        # lu_solve returns it: the stacked matmul then computes every lane
        # exactly as that lane's own run does.
        schur, w = step.schur[lanes], step.w_t[lanes].transpose(0, 2, 1)
        devices = self._devices[lanes]
        live = np.arange(len(x))
        leaving = (np.array([j in failures for j in live.tolist()])
                   if failures else None)
        for _ in range(options.max_newton_iterations):
            if leaving is not None:
                if leaving.all():
                    break
                stay = ~leaving
                live, current, y_l, rhs_t, schur, w = (
                    part[stay] for part in (live, current, y_l, rhs_t, schur,
                                            w))
                devices = [d for d, keep in zip(devices, stay.tolist())
                           if keep]
            leaving = None
            matrix, rhs_iter = self.structure.stamp_nonlinear(
                current[:, :n_t], schur, rhs_t, self._terminals, devices)
            try:
                x_t = np.linalg.solve(matrix, rhs_iter[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # The stacked solve fails as a whole: solve lane by lane so
                # only the singular lanes fail, as they do alone.
                x_t = np.zeros_like(rhs_iter)
                leaving = np.zeros(live.size, dtype=bool)
                for k, j in enumerate(live.tolist()):
                    try:
                        x_t[k] = np.linalg.solve(matrix[k], rhs_iter[k])
                    except np.linalg.LinAlgError as exc:
                        failures[j] = SimulationError(
                            f"singular transient matrix at t={t_next:g}: "
                            f"{exc}")
                        leaving[k] = True
            x_next = np.concatenate(
                (x_t, y_l - np.matmul(w, x_t[:, :, None])[:, :, 0]), axis=1)
            delta = x_next - current
            abs_delta = np.abs(delta)
            converged = _all(abs_delta <= options.abstol
                             + options.reltol * np.abs(x_next), axis=1)
            if _max(abs_delta, axis=None) > options.max_update:
                max_delta = _max(abs_delta, axis=1)
                damped = max_delta > options.max_update
                x_next[damped] = current[damped] + delta[damped] * (
                    options.max_update / max_delta[damped])[:, None]
                converged &= ~damped
            current = x_next
            if leaving is not None:
                converged &= ~leaving
            if _any(converged):
                done[live[converged]] = current[converged]
                leaving = converged if leaving is None else converged | leaving
        else:
            for j in (live if leaving is None else live[~leaving]).tolist():
                failures[j] = SimulationError(
                    f"Newton failed to converge at t={t_next:g} (dt={dt:g})")
        x_new = np.empty_like(x)
        x_new[:, self._block_order] = done
        return x_new


#: The Newton loop's reductions: on arrays this small, the Python
#: wrappers of the ndarray methods cost more than the reductions.
_all, _any, _max = (np.logical_and.reduce, np.logical_or.reduce,
                    np.maximum.reduce)


def _with_ground(x: np.ndarray) -> np.ndarray:
    """``x`` (lanes, size) with a trailing 0 V column, so row index -1
    (ground) reads zero."""
    return np.concatenate((x, np.zeros((len(x), 1))), axis=1)


def simulate(circuit: Circuit, t_end: float, dt: float, *,
             initial_voltages: Optional[Mapping[str, float]] = None,
             options: Optional[TransientOptions] = None,
             record: Optional[Iterable[str]] = None,
             stop: Optional[Crossing] = None) -> TransientResult:
    """One-call transient simulation of one circuit (the N = 1 lockstep)."""
    return TransientSolver(circuit, options).run(
        t_end, dt, initial_voltages=initial_voltages, record=record,
        stop=stop)
