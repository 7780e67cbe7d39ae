"""Repeater-insertion optimizer for distributed RLC lines (paper Sec. 2.2).

A long line of length L is split into L/h buffered segments; the total
delay is (L/h) tau(h, k), so the optimizer minimizes the *delay per unit
length* tau/h over the segment length h and the repeater size k.  Setting
the gradient to zero gives d tau/d h = tau/h and d tau/d k = 0; inserting
these into the differentiated delay equation (Eq. 3 multiplied by
(s2 - s1)) yields the paper's stationarity residuals

  g1 = (1-f)(s2_h - s1_h) - s2_h e^{s1 tau} + s1_h e^{s2 tau}
       - s2 tau (s1_h + s1/h) e^{s1 tau} + s1 tau (s2_h + s2/h) e^{s2 tau}
  g2 = (1-f)(s2_k - s1_k) - s2_k e^{s1 tau} - s2 tau s1_k e^{s1 tau}
       + s1_k e^{s2 tau} + s1 tau s2_k e^{s2 tau}

(subscripts denote partial derivatives).  The paper drives (g1, g2) to zero
with a 2-D Newton method; we implement exactly that (analytic pole
derivatives, finite-difference outer Jacobian, damped steps) and add a
derivative-free direct minimization of tau/h as a fallback and as an
independent validator: the pole-derivative terms contain 1/sqrt(b1^2-4b2),
which blows up where the optimum rides close to critical damping — there
the direct method takes over automatically.

There is one Newton driver, :func:`optimize_repeater_many`, which
advances N optimizations in lockstep; :func:`optimize_repeater` is its
N = 1 call.  Every residual evaluation is served by a per-lane
:class:`repro.core.evaluate.StageEvaluator`: each iteration's base
points and finite-difference probes, and each backtracking wave's
trials, pool across lanes into single kernel batches, evaluations are
memoized, and the direct fallback's simplex reuses the same cache.  The
convergence path — and therefore the returned (h_opt, k_opt, tau) — is
bitwise identical to the scalar implementation, which is preserved
below as :func:`stationarity_residuals` (the reference oracle the
equivalence tests and benchmarks compare against).  Every run also
records an :class:`~repro.core.evaluate.OptimizationTrace` on the
returned optimum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from ..errors import DelaySolverError, OptimizationError, ParameterError
from .delay import threshold_delay
from .elmore import rc_optimum
from .evaluate import (OptimizationTrace, StageEvaluator, TraceStep,
                       damping_name, prime_pairs)
from .kernels import DAMPING_BY_CODE
from .moments import compute_moments
from .params import DriverParams, LineParams, Stage
from .poles import Damping, compute_poles
from .response import StepResponse


class OptimizerMethod(enum.Enum):
    """Which solver produced (or should produce) the optimum."""

    NEWTON = "newton"
    DIRECT = "direct"
    AUTO = "auto"


@dataclass(frozen=True)
class RepeaterOptimum:
    """Optimal repeater insertion for one (line, driver, f) configuration.

    Attributes
    ----------
    h_opt:
        Optimal segment length in metres.
    k_opt:
        Optimal repeater size (multiple of minimum size).
    tau:
        f*100% delay of one optimal segment in seconds.
    delay_per_length:
        tau / h_opt in s/m — the minimized objective.
    damping:
        Damping regime of the two-pole model at the optimum.
    method:
        Solver that produced the result (NEWTON or DIRECT).
    iterations:
        Outer iterations used by that solver.
    trace:
        Per-iteration :class:`~repro.core.evaluate.OptimizationTrace` of
        the run (seed + accepted iterates, backtracking counts, fallback
        events, kernel-lane accounting).
    """

    h_opt: float
    k_opt: float
    tau: float
    delay_per_length: float
    damping: Damping
    method: OptimizerMethod
    iterations: int
    trace: Optional[OptimizationTrace] = field(
        default=None, repr=False, compare=False)


def stage_delay_per_length(line: LineParams, driver: DriverParams,
                           h: float, k: float, f: float) -> float:
    """Objective tau(h, k)/h for given segment length and repeater size."""
    stage = Stage(line=line, driver=driver, h=h, k=k)
    return threshold_delay(stage, f, polish_with_newton=False).tau / h


def stationarity_residuals(line: LineParams, driver: DriverParams,
                           h: float, k: float, f: float
                           ) -> tuple[float, float, float]:
    """Evaluate the paper's residuals (g1, g2) and the delay tau at (h, k).

    This is the scalar reference evaluation — one full walk of the
    moments -> poles -> response -> delay chain.  The optimizer itself
    now evaluates through the batched
    :class:`~repro.core.evaluate.StageEvaluator`, whose lanes are
    verified bitwise against this function; it is kept as the oracle for
    those equivalence tests and the pre-refactor benchmark baseline.

    The residuals are returned normalized by (s2 - s1) and
    nondimensionalized by h (g1) and k (g2).  The normalization matters:
    g1 and g2 come from differentiating Eq. 3 *multiplied by (s2 - s1)*, so
    for conjugate poles they are purely imaginary while for real poles they
    are purely real.  Dividing by (s2 - s1) — itself imaginary for
    conjugate poles and real otherwise — recovers a real residual
    d(phi)/d{h,k} in every damping regime without moving its zero (phi is
    the real left-hand side of Eq. 3; the identity dF/dx = (s2-s1) dphi/dx
    holds on the solution manifold phi(tau) = 0).
    """
    stage = Stage(line=line, driver=driver, h=h, k=k)
    moments = compute_moments(stage)
    poles = compute_poles(moments)
    response = StepResponse.from_poles(poles)
    tau = threshold_delay(response, f, polish_with_newton=False).tau

    s1, s2 = poles.s1, poles.s2
    e1 = np.exp(s1 * tau)
    e2 = np.exp(s2 * tau)
    one_minus_f = 1.0 - f

    g1 = (one_minus_f * (poles.ds2_dh - poles.ds1_dh)
          - poles.ds2_dh * e1 + poles.ds1_dh * e2
          - s2 * tau * (poles.ds1_dh + s1 / h) * e1
          + s1 * tau * (poles.ds2_dh + s2 / h) * e2)
    g2 = (one_minus_f * (poles.ds2_dk - poles.ds1_dk)
          - poles.ds2_dk * e1 - s2 * tau * poles.ds1_dk * e1
          + poles.ds1_dk * e2 + s1 * tau * poles.ds2_dk * e2)

    pole_gap = s2 - s1
    g1_real = complex(g1 / pole_gap).real
    g2_real = complex(g2 / pole_gap).real
    return g1_real * h, g2_real * k, tau


def _fail(message: str, *, iteration: int, norm: float,
          trace: OptimizationTrace) -> OptimizationError:
    """Build an OptimizationError carrying the trace's failure context."""
    worse = trace.accepted_worse_total
    if worse:
        message += (f" (accepted {worse} worse iterate"
                    f"{'s' if worse != 1 else ''} during backtracking)")
    trace.record_event("newton_error", message)
    error = OptimizationError(message, iterations=iteration, residual=norm)
    error.trace = trace
    error.accepted_worse = worse
    return error


def _direct_optimize(evaluator: StageEvaluator, trace: OptimizationTrace,
                     h0: float, k0: float, *, tol: float,
                     max_iterations: int) -> RepeaterOptimum:
    """Nelder-Mead on log(h), log(k) — derivative-free and damping-agnostic."""

    def objective(x: np.ndarray) -> float:
        h = h0 * math.exp(x[0])
        k = k0 * math.exp(x[1])
        try:
            return evaluator.delay(h, k) / h
        except (DelaySolverError, ParameterError):
            return float("inf")

    result = minimize(objective, x0=np.zeros(2), method="Nelder-Mead",
                      options={"xatol": tol * 0.1, "fatol": 0.0,
                               "maxiter": max_iterations,
                               "maxfev": 4 * max_iterations})
    iterations = int(result.get("nit", 0))
    if not result.success and result.status != 2:
        # status 2 = max iterations; anything else is a genuine failure.
        trace.record_event("direct_error", str(result.message))
        error = OptimizationError(
            f"direct optimizer failed: {result.message}",
            iterations=iterations)
        error.trace = trace
        raise error
    h = h0 * math.exp(result.x[0])
    k = k0 * math.exp(result.x[1])
    g1, g2, tau, damping_code = evaluator.evaluate(h, k)
    trace.record_event(
        "direct", f"nelder-mead converged in {iterations} iterations, "
        f"{int(result.get('nfev', 0))} evaluations")
    trace.record_step(TraceStep(
        iteration=trace.next_iteration, h=float(h), k=float(k),
        g1=g1, g2=g2, tau=tau, residual_norm=math.hypot(g1, g2),
        damping=damping_name(damping_code), step_scale=None,
        backtracks=0, accepted_worse=False))
    trace.attach_counters(evaluator)
    return RepeaterOptimum(h_opt=h, k_opt=k, tau=tau,
                           delay_per_length=tau / h,
                           damping=DAMPING_BY_CODE[damping_code],
                           method=OptimizerMethod.DIRECT,
                           iterations=iterations, trace=trace)


def optimize_repeater(line: LineParams, driver: DriverParams,
                      f: float = 0.5, *,
                      method: OptimizerMethod = OptimizerMethod.AUTO,
                      initial: Optional[tuple[float, float]] = None,
                      tol: float = 1e-9,
                      max_iterations: int = 200) -> RepeaterOptimum:
    """Find (h_optRLC, k_optRLC) minimizing the f*100% delay per unit length.

    The N = 1 call of :func:`optimize_repeater_many`: one lane through
    the same lockstep driver every batch uses, so a solo optimum, its
    trace and its counters equal that lane's entry in any batch.

    Parameters
    ----------
    line, driver:
        Interconnect and minimum-repeater parameters (SI units).
    f:
        Delay threshold fraction; the paper's plots use f = 0.5.
    method:
        NEWTON runs only the paper's 2-D Newton solve; DIRECT runs only the
        Nelder-Mead fallback; AUTO (default) tries Newton first and falls
        back when it stalls (typically near critical damping).
    initial:
        Optional (h, k) starting point.  Defaults to the closed-form RC
        optimum, which is exact at l = 0 and an excellent warm start
        elsewhere; inductance sweeps should pass the previous optimum.

    Returns
    -------
    RepeaterOptimum
        With a populated :attr:`~RepeaterOptimum.trace`.

    Raises
    ------
    OptimizationError
        If the requested solver(s) fail to converge.
    ParameterError
        If ``f`` or ``initial`` is out of range.
    """
    (outcome,) = optimize_repeater_many(
        [line], driver, f, method=method, initials=[initial], tol=tol,
        max_iterations=max_iterations)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _NewtonLane:
    """Mutable per-lane state of the lockstep Newton driver."""

    __slots__ = ("index", "line", "driver", "h", "k", "tol",
                 "max_iterations", "evaluator", "trace", "g1", "g2", "tau",
                 "damping_code", "norm", "probes", "eps_h", "eps_k", "step",
                 "scale", "backtracks", "accept")

    def __init__(self, index, line, driver, h0, k0, tol, max_iterations,
                 evaluator, trace):
        self.index = index
        self.line = line
        self.driver = driver
        self.h = h0
        self.k = k0
        self.tol = tol
        self.max_iterations = max_iterations
        self.evaluator = evaluator
        self.trace = trace


def _newton_optimize_lockstep(lanes: List[_NewtonLane],
                              outcomes: List) -> None:
    """Run N independent Newton solves with pooled kernel batches.

    All lanes advance one iteration per round; every round pools the
    lanes' base/probe points — and then each backtracking wave's trial
    points — into single multi-configuration kernel batches via
    :func:`~repro.core.evaluate.prime_pairs`.  Because lane values are
    batch-size invariant and each lane's own evaluator replays its
    memoized points, every lane walks *exactly* the iterate sequence it
    walks alone: results, traces, counters and failure modes do not
    depend on the other lanes; only the pooling changes.

    Outcomes (a :class:`RepeaterOptimum` or the lane's exception) are
    written into ``outcomes`` at each lane's ``index``.
    """
    # Seed evaluations: one pooled batch, then per-lane bookkeeping.
    prime_pairs([(lane.evaluator, [(lane.h, lane.k)]) for lane in lanes])
    active: List[_NewtonLane] = []
    for lane in lanes:
        try:
            g1, g2, tau, code = lane.evaluator.evaluate(lane.h, lane.k)
        except (DelaySolverError, ParameterError) as exc:
            outcomes[lane.index] = exc
            continue
        lane.g1, lane.g2, lane.tau, lane.damping_code = g1, g2, tau, code
        lane.norm = math.hypot(g1, g2)
        lane.trace.record_step(TraceStep(
            iteration=lane.trace.next_iteration, h=float(lane.h),
            k=float(lane.k), g1=g1, g2=g2, tau=tau,
            residual_norm=lane.norm, damping=damping_name(code),
            step_scale=None, backtracks=0, accepted_worse=False))
        active.append(lane)

    iteration = 0
    while active:
        iteration += 1
        still: List[_NewtonLane] = []
        for lane in active:
            if iteration > lane.max_iterations:
                outcomes[lane.index] = _fail(
                    f"Newton optimizer did not converge in "
                    f"{lane.max_iterations} iterations",
                    iteration=lane.max_iterations, norm=lane.norm,
                    trace=lane.trace)
            else:
                still.append(lane)
        active = still
        if not active:
            break

        # Probe wave: every lane's base + both FD probes, one batch.
        for lane in active:
            lane.eps_h = 1e-6 * lane.h
            lane.eps_k = 1e-6 * lane.k
            lane.probes = [(lane.h, lane.k),
                           (lane.h + lane.eps_h, lane.k),
                           (lane.h, lane.k + lane.eps_k)]
        prime_pairs([(lane.evaluator, lane.probes) for lane in active])
        stepped: List[_NewtonLane] = []
        for lane in active:
            try:
                _, probe_h, probe_k = lane.evaluator.evaluate_many(
                    lane.probes)
            except (DelaySolverError, ParameterError) as exc:
                outcomes[lane.index] = exc
                continue
            jac = np.array([
                [(probe_h[0] - lane.g1) / lane.eps_h,
                 (probe_k[0] - lane.g1) / lane.eps_k],
                [(probe_h[1] - lane.g2) / lane.eps_h,
                 (probe_k[1] - lane.g2) / lane.eps_k]])
            rhs = np.array([lane.g1, lane.g2])
            try:
                lane.step = np.linalg.solve(jac, rhs)
            except np.linalg.LinAlgError:
                outcomes[lane.index] = _fail(
                    f"singular Jacobian at iteration {iteration}",
                    iteration=iteration, norm=lane.norm, trace=lane.trace)
                continue
            if not np.all(np.isfinite(lane.step)):
                outcomes[lane.index] = _fail(
                    f"non-finite Newton step at iteration {iteration}",
                    iteration=iteration, norm=lane.norm, trace=lane.trace)
                continue
            lane.scale = 1.0
            lane.backtracks = 0
            stepped.append(lane)

        # Backtracking waves: pool each wave's positive trial points.
        pending = list(stepped)
        accepted: List[_NewtonLane] = []
        for _ in range(40):
            if not pending:
                break
            prime_pairs([
                (lane.evaluator,
                 [(lane.h - lane.scale * lane.step[0],
                   lane.k - lane.scale * lane.step[1])])
                for lane in pending
                if (lane.h - lane.scale * lane.step[0]) > 0.0
                and (lane.k - lane.scale * lane.step[1]) > 0.0])
            retrying: List[_NewtonLane] = []
            for lane in pending:
                h_new = lane.h - lane.scale * lane.step[0]
                k_new = lane.k - lane.scale * lane.step[1]
                if h_new > 0.0 and k_new > 0.0:
                    try:
                        g1n, g2n, taun, coden = lane.evaluator.evaluate(
                            h_new, k_new)
                    except (DelaySolverError, ParameterError):
                        lane.scale *= 0.5
                        lane.backtracks += 1
                        retrying.append(lane)
                        continue
                    norm_new = math.hypot(g1n, g2n)
                    if norm_new < lane.norm or lane.scale < 1e-3:
                        lane.accept = (h_new, k_new, g1n, g2n, taun,
                                       coden, norm_new)
                        accepted.append(lane)
                        continue
                lane.scale *= 0.5
                lane.backtracks += 1
                retrying.append(lane)
            pending = retrying
        for lane in pending:
            outcomes[lane.index] = _fail(
                f"Newton backtracking failed at iteration {iteration}",
                iteration=iteration, norm=lane.norm, trace=lane.trace)

        # Acceptance bookkeeping.
        active = []
        for lane in accepted:
            h_new, k_new, g1n, g2n, taun, coden, norm_new = lane.accept
            accepted_worse = not norm_new < lane.norm
            if accepted_worse:
                lane.trace.record_event(
                    "accepted_worse",
                    f"iteration {iteration}: accepted residual "
                    f"{norm_new:.6g} >= {lane.norm:.6g} at step scale "
                    f"{lane.scale:.3g}")
            moved = max(abs(h_new - lane.h) / lane.h,
                        abs(k_new - lane.k) / lane.k)
            lane.h, lane.k = h_new, k_new
            lane.g1, lane.g2, lane.tau, lane.norm = g1n, g2n, taun, norm_new
            lane.damping_code = coden
            lane.trace.record_step(TraceStep(
                iteration=lane.trace.next_iteration, h=float(lane.h),
                k=float(lane.k), g1=g1n, g2=g2n, tau=taun,
                residual_norm=norm_new, damping=damping_name(coden),
                step_scale=lane.scale, backtracks=lane.backtracks,
                accepted_worse=accepted_worse))
            if moved < lane.tol:
                lane.trace.attach_counters(lane.evaluator)
                outcomes[lane.index] = RepeaterOptimum(
                    h_opt=lane.h, k_opt=lane.k, tau=lane.tau,
                    delay_per_length=lane.tau / lane.h,
                    damping=DAMPING_BY_CODE[lane.damping_code],
                    method=OptimizerMethod.NEWTON, iterations=iteration,
                    trace=lane.trace)
            else:
                active.append(lane)


def optimize_repeater_many(lines: Sequence[LineParams],
                           driver: DriverParams, f: float = 0.5, *,
                           method: OptimizerMethod = OptimizerMethod.AUTO,
                           initials: Optional[Sequence[
                               Optional[tuple]]] = None,
                           tol: float = 1e-9,
                           max_iterations: int = 200
                           ) -> List[Union[RepeaterOptimum, Exception]]:
    """N independent repeater optimizations with a lockstep Newton phase.

    The optimizer's one Newton driver (:func:`optimize_repeater` is its
    N = 1 call): all lanes' Newton iterations advance together so each
    iteration's probe and backtracking evaluations pool into single
    multi-configuration kernel batches (see
    :func:`_newton_optimize_lockstep`).  Each lane owns a fresh
    :class:`~repro.core.evaluate.StageEvaluator` and trace, and lane
    values are batch-size invariant, so a lane's optimum, trace,
    counters and exception are the same at every batch size.  Lanes that
    need the direct method (requested or AUTO fallback) finish
    individually on their own evaluator/trace.

    Returns one entry per line: a :class:`RepeaterOptimum` on success,
    or the lane's exception (not raised here — callers own per-lane
    fault handling).
    """
    n = len(lines)
    if not 0.0 < f < 1.0:
        return [ParameterError(f"threshold fraction must be in (0, 1), "
                               f"got {f}") for _ in range(n)]
    evaluators = [StageEvaluator(line, driver, f) for line in lines]
    outcomes: List[Union[RepeaterOptimum, Exception, None]] = [None] * n
    traces = [OptimizationTrace() for _ in range(n)]

    lanes: List[_NewtonLane] = []
    seeds: List[Optional[tuple]] = [None] * n
    for i, line in enumerate(lines):
        initial = initials[i] if initials is not None else None
        if initial is None:
            rc_opt = rc_optimum(line, driver)
            h0, k0 = rc_opt.h_opt, rc_opt.k_opt
        else:
            h0, k0 = initial
            if h0 <= 0.0 or k0 <= 0.0:
                outcomes[i] = ParameterError(
                    "initial (h, k) must be positive")
                continue
        seeds[i] = (h0, k0)
        if method is not OptimizerMethod.DIRECT:
            lanes.append(_NewtonLane(i, line, driver, h0, k0, tol,
                                     max_iterations, evaluators[i],
                                     traces[i]))

    if lanes:
        _newton_optimize_lockstep(lanes, outcomes)

    for i in range(n):
        if seeds[i] is None or isinstance(outcomes[i], RepeaterOptimum):
            continue
        if method is OptimizerMethod.AUTO and \
                isinstance(outcomes[i], OptimizationError):
            # The fallback shares the lane's evaluator (its simplex
            # reuses Newton's memoized lanes) and trace.
            traces[i].record_event("fallback",
                                   f"newton failed: {outcomes[i]}")
        elif method is not OptimizerMethod.DIRECT:
            continue
        try:
            outcomes[i] = _direct_optimize(
                evaluators[i], traces[i], *seeds[i], tol=tol,
                max_iterations=max_iterations)
        except Exception as exc:  # noqa: BLE001 — per-lane isolation
            outcomes[i] = exc
    return outcomes
