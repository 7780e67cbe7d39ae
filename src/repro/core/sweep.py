"""Inductance sweeps of the repeater-insertion optimum (Figs. 4-8).

Every results figure in the paper is a sweep of the line inductance per
unit length l over [0, 5) nH/mm with everything else fixed.  This module
runs the optimizer across such a sweep with warm starting (each optimum
seeds the next l point, which keeps the Newton solver in its convergence
basin) and collects all derived quantities the figures need:

* h_optRLC, k_optRLC, tau, tau/h               (Figs. 5, 6)
* ratios against the closed-form RC optimum    (Figs. 5, 6, 7)
* l_crit evaluated at the RLC optimum          (Fig. 4)
* delay of the *RC-sized* stage at each l      (Fig. 8)

Each sweep point runs as one :class:`repro.engine.jobs.OptimizeJob`,
warm-started from the previous optimum (so the points run in order), with
that job's one RC re-seed retry.  The derived columns are array-first:
l_crit is one :func:`repro.core.kernels.critical_inductance_v` call and
the RC-sized delay column one :func:`repro.core.kernels.threshold_delay_v`
call.  A sweep runs in-process; run it as a ``SweepJob`` through the
batch engine to cache it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import DelaySolverError, OptimizationError
from .elmore import RCOptimum, rc_optimum
from .kernels import StageBatch, critical_inductance_v, threshold_delay_v
from .optimize import OptimizerMethod
from .params import DriverParams, LineParams


@dataclass(frozen=True)
class InductanceSweep:
    """Optimizer results across a line-inductance sweep (SI units).

    All arrays are indexed by the sweep points ``l_values`` (H/m).
    ``methods`` and ``traces`` carry the per-point solver diagnostics
    (solver name and serialized
    :class:`~repro.core.evaluate.OptimizationTrace` payload), so a sweep
    can report exactly where Newton stalled and the direct fallback took
    over — see :attr:`fallback_points` and :meth:`fallback_report`.
    """

    l_values: np.ndarray
    h_opt: np.ndarray
    k_opt: np.ndarray
    tau: np.ndarray
    delay_per_length: np.ndarray
    l_crit: np.ndarray
    rc_reference: RCOptimum
    threshold: float
    rc_sized_delay_per_length: np.ndarray
    methods: Optional[Tuple[str, ...]] = field(default=None, compare=False)
    traces: Optional[Tuple[dict, ...]] = field(default=None, repr=False,
                                               compare=False)

    @property
    def fallback_points(self) -> list:
        """Sweep indices where the direct method produced the optimum."""
        if self.methods is None:
            return []
        return [i for i, name in enumerate(self.methods)
                if name == OptimizerMethod.DIRECT.value]

    @property
    def backtrack_steps(self) -> int:
        """Total Newton backtracking halvings across all sweep points."""
        if self.traces is None:
            return 0
        return sum(int(step.get("backtracks", 0))
                   for trace in self.traces if trace
                   for step in trace.get("steps", []))

    def fallback_report(self) -> str:
        """Human-readable account of per-point solver behaviour."""
        if self.methods is None:
            return "no per-point traces recorded"
        lines = []
        for i in self.fallback_points:
            detail = ""
            if self.traces and self.traces[i]:
                for event in self.traces[i].get("events", []):
                    if event.get("kind") == "fallback":
                        detail = f": {event.get('detail', '')}"
                        break
            lines.append(f"point {i} (l = {self.l_values[i]:.4g} H/m) "
                         f"fell back to direct{detail}")
        if not lines:
            lines.append(
                f"all {len(self.methods)} points converged via newton")
        lines.append(f"total backtracking steps: {self.backtrack_steps}")
        return "\n".join(lines)

    @property
    def h_ratio(self) -> np.ndarray:
        """h_optRLC / h_optRC (Fig. 5)."""
        return self.h_opt / self.rc_reference.h_opt

    @property
    def k_ratio(self) -> np.ndarray:
        """k_optRLC / k_optRC (Fig. 6)."""
        return self.k_opt / self.rc_reference.k_opt

    @property
    def delay_ratio_vs_rc(self) -> np.ndarray:
        """(tau/h)_RLC(l) / (tau/h)_RLC(l=0) (Fig. 7).

        The paper normalizes the optimized RLC delay per unit length by the
        corresponding value without inductance, i.e. the same two-pole
        optimization at l = 0 (which is slightly below the Elmore optimum,
        see Fig. 5 discussion).  The sweep must therefore include l = 0 (or
        a point close to it) as its first entry.
        """
        return self.delay_per_length / self.delay_per_length[0]

    @property
    def mistuning_penalty(self) -> np.ndarray:
        """Delay ratio of the RC-sized stage over the RLC optimum (Fig. 8)."""
        return self.rc_sized_delay_per_length / self.delay_per_length

    @property
    def damping_margin(self) -> np.ndarray:
        """l / l_crit at the optimum; > 1 means the optimum is underdamped."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.l_crit > 0.0, self.l_values / self.l_crit,
                            np.inf)


def sweep_inductance(line_zero_l: LineParams, driver: DriverParams,
                     l_values, f: float = 0.5, *,
                     method: OptimizerMethod = OptimizerMethod.AUTO
                     ) -> InductanceSweep:
    """Run the repeater optimizer for each inductance in ``l_values``.

    Parameters
    ----------
    line_zero_l:
        Line parameters whose inductance field is replaced by each sweep
        value in turn (its own ``l`` is ignored).
    driver:
        Minimum-repeater parameters.
    l_values:
        Iterable of inductances per unit length in H/m, in ascending order
        for effective warm starting.
    f:
        Delay threshold fraction.

    A point that fails, or whose optimum holds a non-finite number,
    raises :class:`OptimizationError` naming the point.
    """
    from ..engine.jobs import OptimizeJob, screen_nonfinite

    l_array = np.asarray(list(l_values), dtype=float)
    if l_array.size == 0:
        raise ValueError("l_values must be non-empty")

    rc_ref = rc_optimum(line_zero_l, driver)
    n = l_array.size
    h_opt = np.empty(n)
    k_opt = np.empty(n)
    tau = np.empty(n)
    dpl = np.empty(n)

    methods: list = []
    traces: list = []
    warm_start = (rc_ref.h_opt, rc_ref.k_opt)
    for i, l in enumerate(l_array):
        line = line_zero_l.with_inductance(float(l))
        try:
            # OptimizeJob retries once from the RC optimum when the warm
            # start fails.
            optimum = screen_nonfinite(OptimizeJob(
                line=line, driver=driver, f=f, method=method,
                initial=warm_start).run())
        except Exception as exc:
            raise OptimizationError(
                f"sweep point {i} (l = {l:.4g} H/m) failed: "
                f"{type(exc).__name__}: {exc}") from exc
        warm_start = (optimum["h_opt"], optimum["k_opt"])
        h_opt[i] = optimum["h_opt"]
        k_opt[i] = optimum["k_opt"]
        tau[i] = optimum["tau"]
        dpl[i] = optimum["delay_per_length"]
        methods.append(optimum["method"])
        traces.append(optimum.get("trace"))

    # l_crit at each RLC optimum (Fig. 4) — one vectorized kernel call.
    optima = StageBatch.from_arrays(
        r=line_zero_l.r, l=l_array, c=line_zero_l.c,
        r_s=driver.r_s, c_p=driver.c_p, c_0=driver.c_0, h=h_opt, k=k_opt)
    l_crit = critical_inductance_v(optima)

    # Delay of the RC-sized stage at each l (Fig. 8) — one kernel call.
    rc_sized = StageBatch.from_inductance_sweep(
        line_zero_l, driver, l_array, h=rc_ref.h_opt, k=rc_ref.k_opt)
    try:
        rc_sized_dpl = threshold_delay_v(rc_sized, f).tau / rc_sized.h
    except DelaySolverError as exc:
        lanes = getattr(exc, "lanes", [])
        where = "; ".join(f"point {i} (l = {l_array[i]:.4g} H/m)"
                          for i in lanes[:3])
        more = f" and {len(lanes) - 3} more" if len(lanes) > 3 else ""
        raise OptimizationError(
            f"RC-sized delay column (h = {rc_ref.h_opt:.4g} m, "
            f"k = {rc_ref.k_opt:.4g}) failed at "
            f"{where or 'an unknown point'}{more}: {exc}",
            iterations=exc.iterations, residual=exc.residual) from exc

    return InductanceSweep(l_values=l_array, h_opt=h_opt, k_opt=k_opt,
                           tau=tau, delay_per_length=dpl, l_crit=l_crit,
                           rc_reference=rc_ref, threshold=f,
                           rc_sized_delay_per_length=rc_sized_dpl,
                           methods=tuple(methods), traces=tuple(traces))

