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
devices' linearization (:meth:`~repro.circuits.elements.NonlinearDevice.stamp`)
into a copy of S, solves the small system
(S + J) x_T = b_T - A_TL y_L + r and recovers x_L = y_L - W x_T.  A linear
circuit has T empty and costs one back-substitution per step.  On Newton
failure a step is recursively halved (up to a configurable depth), which
carries the ring-oscillator circuits of Sec. 3.3 through their switching
instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ..errors import SimulationError
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


class TransientResult:
    """Waveform storage for one transient run."""

    def __init__(self, structure: MnaStructure, times: np.ndarray,
                 states: np.ndarray) -> None:
        self._structure = structure
        self.time = times                   #: (n_points,) seconds
        self._states = states               #: (n_points, size)

    @property
    def node_names(self) -> list[str]:
        """All non-ground node names."""
        return list(self._structure.node_names)

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of a node (ground returns zeros)."""
        i = self._structure.node_index(node)
        if i < 0:
            return np.zeros_like(self.time)
        return self._states[:, i].copy()

    def branch_current(self, name: str) -> np.ndarray:
        """Current through an inductor or voltage source (a -> b)."""
        return self._states[:, self._structure.branch_row(name)].copy()

    def resistor_current(self, name: str) -> np.ndarray:
        """Current through a resistor computed as g * (v_a - v_b)."""
        element = self._structure.circuit.element(name)
        if not isinstance(element, Resistor):
            raise SimulationError(f"{name!r} is not a resistor")
        va = self.voltage(element.a)
        vb = self.voltage(element.b)
        return (va - vb) * element.conductance

    def final_voltages(self) -> Dict[str, float]:
        """Node voltages at the final time point."""
        out = {GROUND: 0.0}
        for node in self._structure.node_names:
            out[node] = float(self._states[-1, self._structure.node_index(node)])
        return out


@dataclass(frozen=True)
class _StepMatrices:
    """The parts of the step system that depend only on (dt, method)."""

    lu: Optional[tuple]        #: lu_factor(A_LL); None when L is empty
    w: np.ndarray              #: A_LL^-1 A_LT
    schur: np.ndarray          #: S = A_TT - A_TL W
    a_tl: np.ndarray           #: A_TL, which folds y_L into b_T
    cap_geq: np.ndarray        #: capacitor companion conductances
    ind_coef: np.ndarray       #: inductor companion factor * L / dt
    mut_coef: np.ndarray       #: factor * M / dt per stamped mutual entry


class TransientSolver:
    """Runs fixed-step transient analysis on one circuit."""

    def __init__(self, circuit: Circuit,
                 options: Optional[TransientOptions] = None) -> None:
        circuit.validate()
        self.circuit = circuit
        self.options = options or TransientOptions()
        structure = self.structure = MnaStructure(circuit)

        # Index arrays replacing per-element loops; -1 is ground, which
        # reads 0 V from the zero appended to the state (see _with_ground).
        caps = structure.capacitors
        self._cap_a, self._cap_b = structure.terminal_rows(caps)
        self._cap_c = np.array([c.capacitance for c in caps], dtype=float)
        self._cap_has_ic = np.array([c.initial_voltage is not None
                                     for c in caps], dtype=bool)
        self._cap_ic = np.array([c.initial_voltage or 0.0 for c in caps],
                                dtype=float)
        # History scatter: +I_hist into node a and -I_hist into node b, in
        # element order, so node sums accumulate as the stamps always did.
        scatter = [(row, j, sign)
                   for j, (a, b) in enumerate(zip(self._cap_a.tolist(),
                                                  self._cap_b.tolist()))
                   for row, sign in ((a, 1.0), (b, -1.0)) if row >= 0]
        self._hist_rows = np.array([s[0] for s in scatter], dtype=np.intp)
        self._hist_cap = np.array([s[1] for s in scatter], dtype=np.intp)
        self._hist_sign = np.array([s[2] for s in scatter], dtype=float)

        inductors = structure.inductors
        self._ind_rows = np.array([structure.branch_row(e.name)
                                   for e in inductors], dtype=np.intp)
        self._ind_a, self._ind_b = structure.terminal_rows(inductors)
        self._ind_l = np.array([e.inductance for e in inductors], dtype=float)
        self._ind_i0 = np.array([e.initial_current for e in inductors],
                                dtype=float)
        # Mutual terms (row_a, row_b, M) unrolled into the two entries each
        # stamps: row_a couples to row_b's current and vice versa.
        terms = structure.mutual_terms
        self._mut_rows = np.array([r for a, b, _ in terms for r in (a, b)],
                                  dtype=np.intp)
        self._mut_partner = np.array([r for a, b, _ in terms for r in (b, a)],
                                     dtype=np.intp)
        self._mut_m = np.array([m for _, _, m in terms for _ in (0, 1)],
                               dtype=float)
        self._src_rows = np.array([structure.branch_row(s.name)
                                   for s in structure.voltage_sources],
                                  dtype=np.intp)
        self._src_waveforms = [s.waveform for s in structure.voltage_sources]

        self._t_rows, self._l_rows, self._t_index = structure.terminal_block()
        # Step matrices keyed by (dt, method); rebuilt when dt halves.
        self._step_cache: Dict[tuple[float, str], _StepMatrices] = {}

    # ------------------------------------------------------------------
    def run(self, t_end: float, dt: float, *,
            initial_voltages: Optional[Mapping[str, float]] = None
            ) -> TransientResult:
        """Simulate from t = 0 to ``t_end`` with nominal step ``dt``.

        Parameters
        ----------
        initial_voltages:
            Node name -> voltage at t = 0; unspecified nodes start at 0 V.
            Inductor initial currents come from the elements themselves.

        Raises
        ------
        NetlistError
            If ``initial_voltages`` names a node the circuit does not have.
        SimulationError
            If the step matrix is singular, or Newton fails even after the
            configured step halvings.
        """
        if t_end <= 0.0 or dt <= 0.0:
            raise SimulationError("t_end and dt must be positive")
        # Tolerate float noise in t_end/dt (e.g. 2000.0000000000002) so an
        # exact multiple does not gain a spurious zero-length extra step.
        n_steps = max(1, int(math.ceil(t_end / dt * (1.0 - 1e-12))))

        x, cap_current, cap_voltage = self._initial_state(initial_voltages)
        times = np.empty(n_steps + 1)
        states = np.empty((n_steps + 1, self.structure.size))
        times[0] = 0.0
        states[0] = x

        t = 0.0
        for step in range(1, n_steps + 1):
            # Pin each target time to the ideal grid so float accumulation
            # cannot produce a zero-length (or overshooting) final step.
            t_target = min(step * dt, t_end)
            step_dt = t_target - t
            # First step uses BE to damp inconsistent initial conditions.
            method = ("backward_euler" if step == 1 else self.options.method)
            x, cap_current, cap_voltage = self._advance(
                x, cap_current, cap_voltage, t, step_dt, method,
                depth=0)
            t = t_target
            times[step] = t
            states[step] = x
        return TransientResult(self.structure, times, states)

    # ------------------------------------------------------------------
    def run_adaptive(self, t_end: float, *, dt_initial: float,
                     dt_min: float, dt_max: float,
                     lte_reltol: float = 1e-3, lte_abstol: float = 1e-6,
                     initial_voltages: Optional[Mapping[str, float]] = None,
                     safety: float = 0.9) -> TransientResult:
        """Adaptive-step transient with step-doubling error control.

        Each accepted step compares one full step of size dt against two
        half steps (Richardson estimate of the local truncation error of
        the trapezoidal rule); the step shrinks when the weighted error
        exceeds one and grows (up to 2x, capped at ``dt_max``) when it is
        comfortably below.  The half-step (more accurate) solution is the
        one kept.  Useful when a waveform alternates fast edges with long
        quiet stretches — the ring oscillators of Figs. 9-11 take 3-6x
        fewer steps than the fixed-step run at equal accuracy.

        Returns a :class:`TransientResult` on the (non-uniform) accepted
        time grid.
        """
        if t_end <= 0.0 or dt_initial <= 0.0:
            raise SimulationError("t_end and dt_initial must be positive")
        if not 0.0 < dt_min <= dt_initial <= dt_max:
            raise SimulationError(
                "need 0 < dt_min <= dt_initial <= dt_max")

        x, cap_current, cap_voltage = self._initial_state(initial_voltages)
        times = [0.0]
        states = [x.copy()]
        t = 0.0
        dt = dt_initial
        first = True
        while t < t_end * (1.0 - 1e-12):
            dt = min(dt, t_end - t)
            method = "backward_euler" if first else self.options.method
            try:
                full, _, _ = self._single_step(x, cap_current, cap_voltage,
                                               t, dt, method)
                x_half, cc_half, cv_half = self._single_step(
                    x, cap_current, cap_voltage, t, 0.5 * dt, method)
                x_new, cc_new, cv_new = self._single_step(
                    x_half, cc_half, cv_half, t + 0.5 * dt, 0.5 * dt,
                    method)
            except SimulationError:
                if dt <= dt_min * (1.0 + 1e-12):
                    raise
                dt = max(dt_min, 0.5 * dt)
                continue
            weight = lte_abstol + lte_reltol * np.maximum(np.abs(x_new),
                                                          np.abs(x))
            error = float(np.max(np.abs(x_new - full) / weight))
            if error > 1.0 and dt > dt_min * (1.0 + 1e-12):
                dt = max(dt_min, safety * dt / np.sqrt(error))
                continue
            # Accept the half-step solution.
            t += dt
            x, cap_current, cap_voltage = x_new, cc_new, cv_new
            times.append(t)
            states.append(x.copy())
            first = False
            if error < 0.25:
                dt = min(dt_max, 2.0 * dt)
            elif error > 0.75:
                dt = max(dt_min, safety * dt / np.sqrt(max(error, 1e-12)))
        return TransientResult(self.structure, np.asarray(times),
                               np.asarray(states))

    # ------------------------------------------------------------------
    def _initial_state(self, initial_voltages: Optional[Mapping[str, float]]):
        """State vector, capacitor currents and voltages at t = 0."""
        structure = self.structure
        x = np.zeros(structure.size)
        if initial_voltages:
            for node, value in initial_voltages.items():
                i = structure.node_index(node)
                if i >= 0:
                    x[i] = value
        x[self._ind_rows] = self._ind_i0
        voltages = _with_ground(x)
        cap_voltage = np.where(self._cap_has_ic, self._cap_ic,
                               voltages[self._cap_a] - voltages[self._cap_b])
        return x, np.zeros(len(cap_voltage)), cap_voltage

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

        matrix = np.zeros((structure.size, structure.size))
        structure.stamp_static(matrix, gmin=self.options.gmin)
        for a, b, geq in zip(self._cap_a.tolist(), self._cap_b.tolist(),
                             cap_geq.tolist()):
            structure.stamp_conductance(matrix, a, b, geq)
        # Branch rows carry +v_ab from stamp_static, so the trapezoidal
        # companion reads v_ab - (factor L/dt) i = -(factor L/dt) i_n [- v_ab,n].
        matrix[self._ind_rows, self._ind_rows] -= ind_coef
        # Mutual coupling: v1 picks up M di2/dt (and symmetrically).
        np.subtract.at(matrix, (self._mut_rows, self._mut_partner), mut_coef)

        # Empty blocks are skipped, not handed to LAPACK: an all-terminal
        # circuit (the inverter calibration bench) has no L, a linear
        # circuit has no T.
        t_rows, l_rows = self._t_rows, self._l_rows
        a_tl = matrix[np.ix_(t_rows, l_rows)]
        lu = None
        w = np.zeros((l_rows.size, t_rows.size))
        if l_rows.size:
            lu = lu_factor(matrix[np.ix_(l_rows, l_rows)], check_finite=False)
            # lu_factor only warns on an exactly zero pivot.
            if not np.all(np.diagonal(lu[0])):
                raise SimulationError(
                    f"singular transient matrix (dt={dt:g}, {method}): "
                    f"zero pivot in the linear block")
            if t_rows.size:
                w = lu_solve(lu, matrix[np.ix_(l_rows, t_rows)],
                             check_finite=False)
        matrices = _StepMatrices(
            lu=lu, w=w, schur=matrix[np.ix_(t_rows, t_rows)] - a_tl @ w,
            a_tl=a_tl, cap_geq=cap_geq, ind_coef=ind_coef, mut_coef=mut_coef)
        if len(self._step_cache) > 32:
            self._step_cache.clear()
        self._step_cache[key] = matrices
        return matrices

    def _advance(self, x: np.ndarray, cap_current: np.ndarray,
                 cap_voltage: np.ndarray, t: float, dt: float,
                 method: str, depth: int):
        """Advance one step of size dt; recursively halve on failure."""
        try:
            return self._single_step(x, cap_current, cap_voltage, t, dt,
                                     method)
        except SimulationError:
            if depth >= self.options.max_step_halvings:
                raise
        half = 0.5 * dt
        x1, c1, v1 = self._advance(x, cap_current, cap_voltage, t, half,
                                   method, depth + 1)
        return self._advance(x1, c1, v1, t + half, half, method, depth + 1)

    def _single_step(self, x: np.ndarray, cap_current: np.ndarray,
                     cap_voltage: np.ndarray, t: float, dt: float,
                     method: str):
        structure = self.structure
        t_next = t + dt
        trapezoidal = method == "trapezoidal"
        step = self._step_matrices(dt, method)

        # Capacitor companion history.
        hist = step.cap_geq * cap_voltage
        if trapezoidal:
            hist += cap_current
        # (bincount returns integers for a circuit without capacitors.)
        rhs = np.bincount(self._hist_rows,
                          hist[self._hist_cap] * self._hist_sign,
                          minlength=structure.size).astype(float, copy=False)
        # Inductor companion history.
        ind_hist = step.ind_coef * x[self._ind_rows]
        if trapezoidal:
            voltages = _with_ground(x)
            ind_hist += voltages[self._ind_a] - voltages[self._ind_b]
        rhs[self._ind_rows] = -ind_hist
        if self._mut_rows.size:
            np.subtract.at(rhs, self._mut_rows,
                           step.mut_coef * x[self._mut_partner])
        # Independent sources at t_{n+1}.
        rhs[self._src_rows] = [waveform(t_next)
                               for waveform in self._src_waveforms]
        structure.stamp_current_sources(rhs, t_next)

        if self._t_rows.size:
            x_new = self._newton(step, rhs, x, t_next, dt)
        else:
            x_new = lu_solve(step.lu, rhs, check_finite=False)

        # Update capacitor history at t_{n+1}.
        voltages = _with_ground(x_new)
        v_next = voltages[self._cap_a] - voltages[self._cap_b]
        if trapezoidal:
            new_cap_current = step.cap_geq * v_next - hist
        else:
            new_cap_current = step.cap_geq * (v_next - cap_voltage)
        return x_new, new_cap_current, v_next

    def _newton(self, step: _StepMatrices, rhs: np.ndarray, x: np.ndarray,
                t_next: float, dt: float) -> np.ndarray:
        """Newton on the terminal block; returns the full state at t_next."""
        options = self.options
        t_rows, l_rows = self._t_rows, self._l_rows
        y_l = rhs[l_rows]
        if step.lu is not None:
            y_l = lu_solve(step.lu, y_l, check_finite=False)
        rhs_t = rhs[t_rows] - step.a_tl @ y_l

        x_new = x.copy()
        for _ in range(options.max_newton_iterations):
            matrix = step.schur.copy()
            rhs_iter = rhs_t.copy()
            self.structure.stamp_nonlinear(x_new[t_rows], matrix, rhs_iter,
                                           self._t_index)
            try:
                x_t = np.linalg.solve(matrix, rhs_iter)
            except np.linalg.LinAlgError as exc:
                raise SimulationError(
                    f"singular transient matrix at t={t_next:g}: {exc}") \
                    from exc
            x_next = np.empty_like(x)
            x_next[t_rows] = x_t
            x_next[l_rows] = y_l - step.w @ x_t
            delta = x_next - x_new
            abs_delta = np.abs(delta)
            max_delta = float(abs_delta.max())
            if max_delta > options.max_update:
                x_new = x_new + delta * (options.max_update / max_delta)
                continue
            x_new = x_next
            if (abs_delta <= options.abstol
                    + options.reltol * np.abs(x_next)).all():
                return x_new
        raise SimulationError(
            f"Newton failed to converge at t={t_next:g} (dt={dt:g})")


_GROUND_VOLTAGE = np.zeros(1)


def _with_ground(x: np.ndarray) -> np.ndarray:
    """``x`` with a trailing 0 V, so row index -1 (ground) reads zero."""
    return np.concatenate((x, _GROUND_VOLTAGE))


def simulate(circuit: Circuit, t_end: float, dt: float, *,
             initial_voltages: Optional[Mapping[str, float]] = None,
             options: Optional[TransientOptions] = None) -> TransientResult:
    """One-call transient simulation (constructs a solver and runs it)."""
    return TransientSolver(circuit, options).run(
        t_end, dt, initial_voltages=initial_voltages)
