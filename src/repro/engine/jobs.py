"""Declarative, hashable job specifications for the batch engine.

A *job* is a frozen dataclass that fully describes one evaluation of the
library — a threshold-delay solve, a repeater optimization, an inductance
sweep, a ring-oscillator transient, or a whole registered experiment.
Jobs serialize to a canonical, JSON-stable dictionary (``canonical()``)
which is the unit of content addressing: two jobs with the same canonical
form are the same computation and may share a cached result.

Every job knows how to execute itself (``run()``) and returns a plain,
JSON-serializable result dictionary with no timestamps or other
nondeterministic fields, so a batch run with ``--jobs 4`` is bitwise
identical to a serial one and a cached replay is bitwise identical to a
fresh evaluation.

:func:`run_jobs` is the engine's one unit of execution: every backend
dispatch of ``repro-batch``, ``repro-experiments``, ``repro-verify`` and
``repro-serve`` is one call of it.  It runs the lanes of
:class:`DelayJob`, :class:`CriticalInductanceJob` and
:class:`OptimizeJob` through their kind's ``run_many`` (vector kernels
and the lockstep optimizer), so a lane's payload is the same at every
batch size and on every entry point; their ``run()`` is the N = 1 call.

The kinds are :class:`DelayJob`, :class:`CriticalInductanceJob`,
:class:`OptimizeJob`, :class:`SweepJob`, :class:`TransientJob` and
:class:`ExperimentJob` here, plus :class:`repro.verify.jobs.VerifyJob`.
Manifest rows become jobs through
:func:`repro.engine.manifest.job_from_entry`, served requests through the
``from_dict`` of the three served kinds
(:data:`repro.serve.protocol.REQUEST_JOB_TYPES`).
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass
from typing import (Any, Callable, ClassVar, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..core.critical import critical_inductance
from ..core.delay import threshold_delay
from ..core.elmore import rc_optimum
from ..core.kernels import (StageBatch, critical_inductance_v,
                            threshold_delay_v)
from ..core.optimize import (OptimizerMethod, RepeaterOptimum,
                             optimize_repeater, optimize_repeater_many)
from ..core.params import DriverParams, LineParams, Stage
from ..errors import DelaySolverError, OptimizationError, ParameterError
from ..faults import hooks as _faults

#: Lanes per ``run_many`` call, in the engine and in serve's micro-batches.
#: It bounds a call's memory; a lane's payload does not depend on it.
DEFAULT_MAX_BATCH_SIZE = 64


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to the canonical JSON form used for hashing.

    Keys are sorted and separators minimized so the text depends only on
    the content.  ``float`` round-trips exactly through ``repr``, so equal
    specs hash equally and unequal ones (almost surely) do not.
    """
    # repro: ignore[RPR004] -- digest preimage, not a payload path: this
    # text feeds sha256 for cache/flight keys and is never parsed by a
    # strict peer.  Strict encoding here would crash key computation on
    # a non-finite spec *before* the engine/serve layers can answer it
    # with their structured evaluation error.
    return json.dumps(jsonify(obj), sort_keys=True, separators=(",", ":"))


def jsonify(obj: Any) -> Any:
    """Recursively convert ``obj`` to plain JSON types.

    Handles numpy scalars/arrays, tuples and enums so result payloads and
    job specs built from library objects serialize deterministically.
    """
    import enum

    import numpy as np

    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def nonfinite_path(value: Any, path: str = "") -> Optional[str]:
    """Dotted path of the first non-finite number in ``value``, or ``None``.

    The one walk for NaN/inf on every payload path: lane results
    (through :func:`screen_nonfinite`), manifest entries and request
    documents, each walked whole.  No electrical parameter or answer is
    legitimately non-finite, and strict JSON cannot carry one; an
    undefined value is ``None`` (an optimizer trace writes a probe's NaN
    residual that way).
    """
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        for key, item in value.items():
            found = nonfinite_path(item, f"{path}.{key}" if path
                                   else str(key))
            if found is not None:
                return found
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            found = nonfinite_path(item, f"{path}[{index}]")
            if found is not None:
                return found
    return None


def screen_nonfinite(result: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``result``, or raise if it holds a non-finite number.

    The one non-finite screen of every lane :func:`run_jobs` evaluates
    and of every :func:`repro.core.sweep.sweep_inductance` point, with
    one failure text: a NaN that slipped out of a solver is that lane's
    failure, never a cached or served answer.
    """
    bad = nonfinite_path(result, "result")
    if bad is not None:
        raise DelaySolverError(f"job produced a non-finite value at {bad} "
                               f"(solver escape; result not cached)")
    return result


def flag_of(data: Dict[str, Any], key: str, default: bool) -> bool:
    """The boolean field ``data[key]``, or ``default`` when it is absent.

    A flag must be a JSON boolean.  ``bool("false")`` is true, so a
    string (a CSV cell that does not parse as JSON, a hand-written
    request) would otherwise flip the flag silently; it raises
    ``ValueError`` naming the field instead.
    """
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key!r} must be true or false, got {value!r}")
    return value


def line_to_dict(line: LineParams) -> Dict[str, float]:
    """Canonical dictionary form of per-unit-length line parameters."""
    return {"r": line.r, "l": line.l, "c": line.c}


def line_from_dict(data: Dict[str, float]) -> LineParams:
    """Rebuild :class:`LineParams` from its canonical dictionary."""
    return LineParams(r=float(data["r"]), l=float(data["l"]),
                      c=float(data["c"]))


def driver_to_dict(driver: DriverParams) -> Dict[str, float]:
    """Canonical dictionary form of minimum-repeater parameters."""
    return {"r_s": driver.r_s, "c_p": driver.c_p, "c_0": driver.c_0}


def driver_from_dict(data: Dict[str, float]) -> DriverParams:
    """Rebuild :class:`DriverParams` from its canonical dictionary."""
    return DriverParams(r_s=float(data["r_s"]), c_p=float(data["c_p"]),
                        c_0=float(data["c_0"]))


def _outcome(run: Callable[[], Any]) -> Any:
    """``run()``, or the exception it raised: one lane's outcome."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 — isolate the lane
        return exc


def _batched(jobs: Sequence[Any], kernel: Callable[[Sequence[Any]], Any]
             ) -> Optional[Any]:
    """``kernel(jobs)`` for two or more lanes, else ``None``.

    ``None`` also stands for a batch the kernel refused (one bad lane
    fails batch validation).  The caller then runs each lane's scalar
    path, the N = 1 form of the same kernel, so only a bad lane fails.
    """
    if len(jobs) < 2:
        return None
    try:
        return kernel(jobs)
    except Exception:  # noqa: BLE001 — isolate per lane via solo path
        return None


def _stage_batch(jobs: Sequence[Any]) -> StageBatch:
    """Pack delay/critical jobs' stages into one kernel batch."""
    return StageBatch.from_arrays(
        r=[job.line.r for job in jobs],
        l=[job.line.l for job in jobs],
        c=[job.line.c for job in jobs],
        r_s=[job.driver.r_s for job in jobs],
        c_p=[job.driver.c_p for job in jobs],
        c_0=[job.driver.c_0 for job in jobs],
        h=[job.h for job in jobs],
        k=[job.k for job in jobs])


class _Lanes:
    """``run()`` of a kind that evaluates N specs in one call: the N = 1
    call of its ``run_many``, which returns a result or the exception
    per lane."""

    def run(self) -> Dict[str, Any]:
        (outcome,) = type(self).run_many([self])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@dataclass(frozen=True)
class DelayJob(_Lanes):
    """Threshold-delay solve of one fully specified stage (paper Eq. 3)."""

    kind: ClassVar[str] = "delay"

    line: LineParams
    driver: DriverParams
    h: float
    k: float
    f: float = 0.5
    polish_with_newton: bool = False

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "line": line_to_dict(self.line),
                "driver": driver_to_dict(self.driver),
                "h": self.h, "k": self.k, "f": self.f,
                "polish_with_newton": self.polish_with_newton}

    def _payload(self, tau: float, damping: str,
                 newton_iterations: int) -> Dict[str, Any]:
        return {"tau": tau,
                "delay_per_length": tau / self.h,
                "threshold": float(self.f),
                "damping": damping,
                "newton_iterations": newton_iterations}

    def _solo(self) -> Dict[str, Any]:
        """The scalar solve (and the paper's Newton polish, if asked)."""
        stage = Stage(line=self.line, driver=self.driver, h=self.h, k=self.k)
        delay = threshold_delay(stage, self.f,
                                polish_with_newton=self.polish_with_newton)
        return self._payload(delay.tau, delay.damping.value,
                             delay.newton_iterations)

    @classmethod
    def run_many(cls, jobs: Sequence["DelayJob"]
                 ) -> List[Union[Dict[str, Any], Exception]]:
        """N delay solves; the unpolished lanes as one ``threshold_delay_v``.

        A lane's payload is bitwise the scalar solve's.  Polished lanes
        (``polish_with_newton``, which only manifests set) run the
        scalar :func:`~repro.core.delay.threshold_delay`, as does a lone
        lane and every lane of a batch the kernel refuses.
        """
        plain = [i for i, job in enumerate(jobs)
                 if not job.polish_with_newton]
        solved = _batched([jobs[i] for i in plain], lambda batch:
                          threshold_delay_v(_stage_batch(batch),
                                            [job.f for job in batch]))
        results: List[Any] = [None] * len(jobs)
        if solved is not None:
            damping = solved.damping_values()
            for lane, i in enumerate(plain):
                results[i] = jobs[i]._payload(float(solved.tau[lane]),
                                              damping[lane].value, 0)
        return [result if result is not None else _outcome(job._solo)
                for result, job in zip(results, jobs)]

    def summary(self, result: Dict[str, Any]) -> str:
        return (f"tau={result['tau']:.6g}s "
                f"damping={result['damping']}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DelayJob":
        return cls(line=line_from_dict(data["line"]),
                   driver=driver_from_dict(data["driver"]),
                   h=float(data["h"]), k=float(data["k"]),
                   f=float(data.get("f", 0.5)),
                   polish_with_newton=flag_of(
                       data, "polish_with_newton", False))


@dataclass(frozen=True)
class CriticalInductanceJob(_Lanes):
    """Eq. 4 critical-inductance query of one (h, k) configuration.

    Returns the line inductance per unit length that would make the
    stage critically damped, plus the damping margin ``l / l_crit`` of
    the stage's *actual* inductance (``None`` when ``l_crit <= 0``,
    i.e. the configuration is underdamped even at l = 0).  The scalar
    :func:`repro.core.critical.critical_inductance` and the batched
    :func:`repro.core.kernels.critical_inductance_v` share one
    expression graph, so a lane of :meth:`run_many` is bitwise the
    scalar answer.
    """

    kind: ClassVar[str] = "critical_inductance"

    line: LineParams
    driver: DriverParams
    h: float
    k: float

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "line": line_to_dict(self.line),
                "driver": driver_to_dict(self.driver),
                "h": self.h, "k": self.k}

    def _payload(self, l_crit: float) -> Dict[str, Any]:
        margin = (self.line.l / l_crit) if l_crit > 0.0 else None
        return {"l_crit": l_crit, "l": self.line.l,
                "damping_margin": margin}

    def _solo(self) -> Dict[str, Any]:
        stage = Stage(line=self.line, driver=self.driver, h=self.h, k=self.k)
        return self._payload(critical_inductance(stage))

    @classmethod
    def run_many(cls, jobs: Sequence["CriticalInductanceJob"]
                 ) -> List[Union[Dict[str, Any], Exception]]:
        """N queries as one ``critical_inductance_v`` call (a lone lane,
        or each lane of a refused batch, runs the scalar query)."""
        l_crit = _batched(jobs, lambda batch: critical_inductance_v(
            _stage_batch(batch)))
        if l_crit is None:
            return [_outcome(job._solo) for job in jobs]
        return [job._payload(float(value))
                for job, value in zip(jobs, l_crit)]

    def summary(self, result: Dict[str, Any]) -> str:
        margin = result["damping_margin"]
        margin_text = f"{margin:.4g}" if margin is not None else "inf"
        return (f"l_crit={result['l_crit']:.6g}H/m "
                f"margin={margin_text}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CriticalInductanceJob":
        return cls(line=line_from_dict(data["line"]),
                   driver=driver_from_dict(data["driver"]),
                   h=float(data["h"]), k=float(data["k"]))


def _optimum_payload(optimum, retried: bool) -> Dict[str, Any]:
    """Shared result-dict form of a RepeaterOptimum (plus its trace).

    ``h_opt``/``k_opt`` are passed through *uncoerced*:
    :func:`repro.core.sweep.sweep_inductance` reads them straight from
    ``OptimizeJob.run()``, and its warm-start chain depends on receiving
    the optimizer's raw (possibly ``np.float64``) iterates — coercing
    here would perturb downstream optima by ulps.
    JSON boundaries (cache, manifests) canonicalize via ``jsonify``.
    """
    return {"h_opt": optimum.h_opt, "k_opt": optimum.k_opt,
            "tau": optimum.tau,
            "delay_per_length": optimum.delay_per_length,
            "damping": optimum.damping.value,
            "method": optimum.method.value,
            "iterations": optimum.iterations,
            "retried": retried,
            "trace": (optimum.trace.to_payload()
                      if optimum.trace is not None else None)}


def reseed_failed_lanes(jobs: Sequence["OptimizeJob"],
                        outcomes: Sequence[Union[RepeaterOptimum,
                                                 Exception]]
                        ) -> List[Union[Dict[str, Any], Exception]]:
    """Finish optimize lanes: the one RC re-seed retry of the package.

    ``jobs`` share (driver, f, method, tol, max_iterations), i.e. they
    form one :func:`~repro.core.optimize.optimize_repeater_many` group,
    and ``outcomes`` are their first-pass results.  Each lane that
    failed with :class:`OptimizationError` from a warm start it was
    given (``initial`` set, ``retry_reseed`` true) re-runs once from
    the closed-form RC optimum (the Elmore optimum ignores l, so this is
    the l = 0 seed); all such lanes share one more lockstep call on
    fresh evaluators.  Every optimize lane finishes through here, so the
    same failed spec reports the same error on every entry point.

    Returns, per lane, its :func:`_optimum_payload` (``retried`` true
    when the re-seed produced it) or its exception.
    """
    results: List[Union[Dict[str, Any], Exception]] = [
        outcome if isinstance(outcome, Exception)
        else _optimum_payload(outcome, False) for outcome in outcomes]
    retry = [i for i, (job, outcome) in enumerate(zip(jobs, outcomes))
             if isinstance(outcome, OptimizationError)
             and job.retry_reseed and job.initial is not None]
    if not retry:
        return results
    group = jobs[retry[0]]
    seeds = [rc_optimum(jobs[i].line, jobs[i].driver) for i in retry]
    second = optimize_repeater_many(
        [jobs[i].line for i in retry], group.driver, group.f,
        method=group.method,
        initials=[(seed.h_opt, seed.k_opt) for seed in seeds],
        tol=group.tol, max_iterations=group.max_iterations)
    for i, seed, outcome in zip(retry, seeds, second):
        if isinstance(outcome, OptimizationError):
            # Retry exhausted: name both failures so the report points
            # at the job, not just the last attempt.
            error = OptimizationError(
                f"optimize retry exhausted: warm start "
                f"{jobs[i].initial} failed ({outcomes[i]}); RC re-seed "
                f"({seed.h_opt:.6g}, {seed.k_opt:.6g}) also failed: "
                f"{outcome}",
                iterations=outcome.iterations, residual=outcome.residual)
            error.__cause__ = outcome
            results[i] = error
        elif isinstance(outcome, Exception):
            results[i] = outcome
        else:
            results[i] = _optimum_payload(outcome, True)
    return results


def _first_pass(jobs: Sequence["OptimizeJob"]
                ) -> List[Union[RepeaterOptimum, Exception]]:
    """First-pass outcomes of one optimize group, from each warm start:
    one ``optimize_repeater_many`` call, or each lane's own
    ``optimize_repeater`` (its N = 1 call) when the lane is alone or the
    call raises.

    Two named fault sites act per lane here: ``optimize.warm_start``
    fails a lane's warm start before the lockstep call, and
    ``serve.optimize.lane_error`` makes one lane of the call diverge;
    :func:`reseed_failed_lanes` must then recover (or fail) that lane
    alone.
    """
    outcomes: List[Any] = [None] * len(jobs)
    if _faults.ACTIVE is not None:
        for i in range(len(jobs)):
            try:
                _faults.fire("optimize.warm_start")
            except Exception as exc:  # noqa: BLE001 — this lane's failure
                outcomes[i] = exc
    lanes = [i for i, outcome in enumerate(outcomes) if outcome is None]
    head = jobs[0]
    solved = _batched([jobs[i] for i in lanes], lambda batch:
                      optimize_repeater_many(
                          [job.line for job in batch], head.driver, head.f,
                          method=head.method,
                          initials=[job.initial for job in batch],
                          tol=head.tol, max_iterations=head.max_iterations))
    for lane, i in enumerate(lanes):
        outcomes[i] = (solved[lane] if solved is not None
                       else _outcome(jobs[i]._solo))
    if _faults.ACTIVE is not None:
        lane = _faults.pick_lane("serve.optimize.lane_error", len(outcomes))
        if lane is not None:
            outcomes[lane] = OptimizationError(
                "injected fault at serve.optimize.lane_error: "
                "lane diverged")
    return outcomes


@dataclass(frozen=True)
class OptimizeJob(_Lanes):
    """Repeater-insertion optimization of one (line, driver, f) config.

    ``initial`` is the warm start; when it fails with
    :class:`OptimizationError` and ``retry_reseed`` is true, the job
    retries exactly once from the closed-form RC optimum — the recovery
    each warm-started point of :func:`repro.core.sweep.sweep_inductance`
    relies on.  The retry is part of the spec, so it is deterministic and
    cache-safe.
    """

    kind: ClassVar[str] = "optimize"

    line: LineParams
    driver: DriverParams
    f: float = 0.5
    method: OptimizerMethod = OptimizerMethod.AUTO
    initial: Optional[Tuple[float, float]] = None
    tol: float = 1e-9
    max_iterations: int = 200
    retry_reseed: bool = True

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "line": line_to_dict(self.line),
                "driver": driver_to_dict(self.driver),
                "f": self.f, "method": self.method.value,
                "initial": list(self.initial) if self.initial else None,
                "tol": self.tol, "max_iterations": self.max_iterations,
                "retry_reseed": self.retry_reseed}

    def _solo(self) -> RepeaterOptimum:
        return optimize_repeater(
            self.line, self.driver, self.f, method=self.method,
            initial=self.initial, tol=self.tol,
            max_iterations=self.max_iterations)

    @classmethod
    def run_many(cls, jobs: Sequence["OptimizeJob"]
                 ) -> List[Union[Dict[str, Any], Exception]]:
        """N optimizations, lockstep-batched per shared configuration.

        Lanes sharing (driver, f, method, tol, max_iterations) run their
        Newton loops in lockstep through
        :func:`~repro.core.optimize.optimize_repeater_many` and finish
        through :func:`reseed_failed_lanes`.  The optimizer's lanes are
        batch-size invariant, so a lane's payload, trace counters
        included, or its error text is the same at every batch size.
        """
        results: List[Any] = [None] * len(jobs)
        groups: Dict[Any, List[int]] = {}
        for i, job in enumerate(jobs):
            key = (job.driver, job.f, job.method, job.tol,
                   job.max_iterations)
            groups.setdefault(key, []).append(i)
        for indices in groups.values():
            group = [jobs[i] for i in indices]
            for i, result in zip(indices, reseed_failed_lanes(
                    group, _first_pass(group))):
                results[i] = result
        return results

    def summary(self, result: Dict[str, Any]) -> str:
        return (f"h={result['h_opt']:.6g}m k={result['k_opt']:.6g} "
                f"tau/h={result['delay_per_length']:.6g}s/m "
                f"[{result['method']}:{result['iterations']}"
                f"{' reseed' if result['retried'] else ''}]")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OptimizeJob":
        initial = data.get("initial")
        return cls(line=line_from_dict(data["line"]),
                   driver=driver_from_dict(data["driver"]),
                   f=float(data.get("f", 0.5)),
                   method=OptimizerMethod(data.get("method", "auto")),
                   initial=(tuple(float(x) for x in initial)
                            if initial else None),
                   tol=float(data.get("tol", 1e-9)),
                   max_iterations=int(data.get("max_iterations", 200)),
                   retry_reseed=flag_of(data, "retry_reseed", True))


@dataclass(frozen=True)
class SweepJob:
    """Warm-started inductance sweep of the repeater optimum (Figs. 4-8)."""

    kind: ClassVar[str] = "sweep"

    line_zero_l: LineParams
    driver: DriverParams
    l_values: Tuple[float, ...]
    f: float = 0.5
    method: OptimizerMethod = OptimizerMethod.AUTO

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "line": line_to_dict(self.line_zero_l),
                "driver": driver_to_dict(self.driver),
                "l_values": list(self.l_values),
                "f": self.f, "method": self.method.value}

    def run(self) -> Dict[str, Any]:
        from ..core.sweep import sweep_inductance

        sweep = sweep_inductance(self.line_zero_l, self.driver,
                                 self.l_values, self.f, method=self.method)
        return {"l_values": jsonify(sweep.l_values),
                "h_opt": jsonify(sweep.h_opt),
                "k_opt": jsonify(sweep.k_opt),
                "tau": jsonify(sweep.tau),
                "delay_per_length": jsonify(sweep.delay_per_length),
                "l_crit": jsonify(sweep.l_crit),
                "rc_sized_delay_per_length":
                    jsonify(sweep.rc_sized_delay_per_length),
                "rc_reference": {"h_opt": sweep.rc_reference.h_opt,
                                 "k_opt": sweep.rc_reference.k_opt,
                                 "tau_opt": sweep.rc_reference.tau_opt},
                "threshold": sweep.threshold,
                "methods": list(sweep.methods or ()),
                "fallback_points": jsonify(sweep.fallback_points),
                "backtrack_steps": sweep.backtrack_steps}

    def summary(self, result: Dict[str, Any]) -> str:
        dpl = result["delay_per_length"]
        return (f"{len(result['l_values'])} points "
                f"degradation={dpl[-1] / dpl[0]:.4g}x")


@dataclass(frozen=True)
class TransientJob:
    """Ring-oscillator transient at one inductance (Figs. 9-12 testbench)."""

    kind: ClassVar[str] = "transient"

    node_name: str
    l_nh_per_mm: float
    n_stages: int = 5
    segments: int = 10
    style: str = "mosfet"
    probe_stage: int = 2
    period_budget: float = 14.0
    steps_per_period: int = 700

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind, "node_name": self.node_name,
                "l_nh_per_mm": self.l_nh_per_mm,
                "n_stages": self.n_stages, "segments": self.segments,
                "style": self.style, "probe_stage": self.probe_stage,
                "period_budget": self.period_budget,
                "steps_per_period": self.steps_per_period}

    def run(self) -> Dict[str, Any]:
        from ..errors import SimulationError
        from ..experiments.ring import run_ring

        ring = run_ring(self.node_name, self.l_nh_per_mm,
                        n_stages=self.n_stages, segments=self.segments,
                        style=self.style, probe_stage=self.probe_stage,
                        period_budget=self.period_budget,
                        steps_per_period=self.steps_per_period)
        try:
            period = ring.period()
        except (ParameterError, SimulationError):
            period = None  # non-oscillating run (false switching)
        wave = ring.input_waveform
        return {"node_name": self.node_name,
                "l_nh_per_mm": self.l_nh_per_mm,
                "period": period,
                "oscillates": period is not None,
                "input_min": float(wave.values.min()),
                "input_max": float(wave.values.max())}

    def summary(self, result: Dict[str, Any]) -> str:
        if result["period"] is None:
            return "no oscillation (false switching)"
        return f"period={result['period']:.6g}s"


@dataclass(frozen=True)
class ExperimentJob:
    """One registered paper/extension experiment, run as a batch job.

    ``options_json`` holds the experiment keyword overrides as canonical
    JSON text so the spec stays hashable; build instances through
    :meth:`create` rather than passing the string by hand.
    """

    kind: ClassVar[str] = "experiment"

    experiment_id: str
    options_json: str = "{}"

    @classmethod
    def create(cls, experiment_id: str, **options: Any) -> "ExperimentJob":
        return cls(experiment_id=experiment_id,
                   options_json=canonical_json(options))

    @property
    def options(self) -> Dict[str, Any]:
        return json.loads(self.options_json)

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind, "experiment_id": self.experiment_id,
                "options": self.options}

    def run(self) -> Dict[str, Any]:
        from ..experiments.base import run_experiment

        result = run_experiment(self.experiment_id, **self.options)
        return result.to_payload()

    def summary(self, result: Dict[str, Any]) -> str:
        return f"{result['title']} ({len(result['rows'])} rows)"


def job_to_dict(job: Any) -> Dict[str, Any]:
    """Serialize any job to its canonical dictionary (includes ``kind``)."""
    return job.canonical()


def _envelope(outcome: Any, wall_time: float) -> Dict[str, Any]:
    """One lane's envelope: its screened result, or its failure.

    A lane's exception is raised here, so its envelope carries a
    traceback whether ``run()`` raised it or ``run_many`` returned it.
    """
    try:
        if isinstance(outcome, Exception):
            raise outcome
        return {"ok": True, "result": screen_nonfinite(outcome),
                "wall_time": wall_time}
    except Exception as exc:  # noqa: BLE001 — the lane's own failure
        return {"ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
                "wall_time": wall_time}


def run_jobs(jobs: Sequence[Any]) -> List[Dict[str, Any]]:
    """Evaluate N job specs, never raising: the unit of execution.

    Module-level so it pickles for the process backend.  Returns one
    envelope per job, in order: ``{"ok", "result" | ("error",
    "error_type", "traceback"), "wall_time"}``.

    * The fault sites ``executor.job.hang`` and ``executor.job.error``
      fire per lane, before any lane runs.
    * Lanes of a kind with a ``run_many`` (delay, critical inductance,
      optimize) go to it in calls of at most
      :data:`DEFAULT_MAX_BATCH_SIZE` lanes; every other lane runs its
      own ``run()``.  Calls run in the order of their first lane.
    * Every lane takes :func:`screen_nonfinite`, and fails alone.
    * ``wall_time`` is metrics-only.  A lane that ran alone reports its
      own time; each lane of a batched call reports the call's time
      divided by its lane count, so the lanes' times sum to the time
      spent evaluating.
    """
    envelopes: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
    calls: Dict[Any, List[int]] = {}
    for index, job in enumerate(jobs):
        if _faults.ACTIVE is not None:
            start = time.perf_counter()
            try:
                _faults.sleep("executor.job.hang")
                _faults.fire("executor.job.error", kind=job.kind)
            except Exception as exc:  # noqa: BLE001 — isolate the lane
                envelopes[index] = _envelope(
                    exc, time.perf_counter() - start)
                continue
        batched = hasattr(type(job), "run_many")
        calls.setdefault(type(job) if batched else index, []).append(index)
    for key, indices in calls.items():
        for at in range(0, len(indices), DEFAULT_MAX_BATCH_SIZE):
            lanes = indices[at:at + DEFAULT_MAX_BATCH_SIZE]
            batch = [jobs[i] for i in lanes]
            start = time.perf_counter()
            try:
                outcomes = (key.run_many(batch) if isinstance(key, type)
                            else [batch[0].run()])
            except Exception as exc:  # noqa: BLE001 — isolate the call
                outcomes = [exc] * len(batch)
            share = (time.perf_counter() - start) / len(lanes)
            for index, outcome in zip(lanes, outcomes):
                envelopes[index] = _envelope(outcome, share)
    return envelopes  # type: ignore[return-value]
