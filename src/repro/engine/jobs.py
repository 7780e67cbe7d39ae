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

Job kinds are *pluggable*: any module may define a frozen dataclass with a
``kind`` tag, ``canonical()``, ``run()``, ``summary()`` and a ``from_dict``
classmethod, and register it with :func:`register_job_type`.  The registry
is what ``job_from_dict`` (and therefore manifests and the result cache)
dispatches on; :mod:`repro.verify.jobs` uses it to route verification
oracles through the same executor and cache as every other evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import (Any, ClassVar, Dict, List, Optional, Sequence, Tuple,
                    Type, Union)

import numpy as np

from ..core.critical import critical_inductance
from ..core.delay import threshold_delay
from ..core.elmore import rc_optimum
from ..core.optimize import (OptimizerMethod, RepeaterOptimum,
                             optimize_repeater, optimize_repeater_many)
from ..core.params import DriverParams, LineParams, Stage
from ..errors import OptimizationError, ParameterError
from ..faults import hooks as _faults


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

    The one screen for NaN/inf on every payload path: engine job
    results, served lanes and request documents, each walked whole.  No
    electrical parameter or answer is legitimately non-finite, and
    strict JSON cannot carry one; an undefined value is ``None`` (an
    optimizer trace writes a probe's NaN residual that way).
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


#: All registered job classes by their ``kind`` tag, for manifest/cache
#: round-trips.  Populated by :func:`register_job_type`.
JOB_TYPES: Dict[str, Type[Any]] = {}


def register_job_type(cls: Type[Any]) -> Type[Any]:
    """Class decorator registering a job kind for ``job_from_dict``.

    The class must carry a ``kind`` class variable and a ``from_dict``
    classmethod inverting its ``canonical()`` dictionary.  Registering a
    kind twice replaces the earlier class (latest wins), which keeps
    reloads idempotent.
    """
    kind = getattr(cls, "kind", None)
    if not isinstance(kind, str) or not kind:
        raise TypeError(f"{cls.__name__} must define a string 'kind' tag")
    if not callable(getattr(cls, "from_dict", None)):
        raise TypeError(f"{cls.__name__} must define a from_dict classmethod")
    JOB_TYPES[kind] = cls
    return cls


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


@register_job_type
@dataclass(frozen=True)
class DelayJob:
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

    def run(self) -> Dict[str, Any]:
        stage = Stage(line=self.line, driver=self.driver, h=self.h, k=self.k)
        delay = threshold_delay(stage, self.f,
                                polish_with_newton=self.polish_with_newton)
        return {"tau": delay.tau,
                "delay_per_length": delay.tau / self.h,
                "threshold": delay.threshold,
                "damping": delay.damping.value,
                "newton_iterations": delay.newton_iterations}

    def summary(self, result: Dict[str, Any]) -> str:
        return (f"tau={result['tau']:.6g}s "
                f"damping={result['damping']}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DelayJob":
        return cls(line=line_from_dict(data["line"]),
                   driver=driver_from_dict(data["driver"]),
                   h=float(data["h"]), k=float(data["k"]),
                   f=float(data.get("f", 0.5)),
                   polish_with_newton=bool(
                       data.get("polish_with_newton", False)))


@register_job_type
@dataclass(frozen=True)
class BatchDelayJob:
    """Vectorized threshold-delay solve of N stages as *one* cached unit.

    The batch is evaluated with
    :func:`repro.core.kernels.threshold_delay_v`, so an inductance sweep's
    whole RC-sized delay column is a single job — one cache entry, one
    process-pool dispatch — instead of N per-point :class:`DelayJob`\\ s.
    With ``polish_with_newton`` false (the default of both specs), lane
    values are bitwise identical to the corresponding scalar
    :class:`DelayJob` results.

    When ``polish_with_newton`` is true the result's
    ``newton_iterations`` reports the masked hybrid's accepted Newton
    steps per lane (the batched analogue of the paper's iteration count);
    otherwise it is all zeros, mirroring the scalar job's "0 unless
    polished" contract.
    """

    kind: ClassVar[str] = "batch_delay"

    driver: DriverParams
    lines: Tuple[LineParams, ...]
    h: Tuple[float, ...]
    k: Tuple[float, ...]
    f: float = 0.5
    polish_with_newton: bool = False

    def __post_init__(self) -> None:
        n = len(self.lines)
        if n == 0:
            raise ParameterError("BatchDelayJob needs at least one stage")
        if len(self.h) != n or len(self.k) != n:
            raise ParameterError(
                f"BatchDelayJob field lengths disagree: "
                f"{n} lines, {len(self.h)} h, {len(self.k)} k")

    @classmethod
    def from_stages(cls, stages, f: float = 0.5, *,
                    polish_with_newton: bool = False) -> "BatchDelayJob":
        """Pack stages sharing one driver into a batch job."""
        stages = list(stages)
        drivers = {stage.driver for stage in stages}
        if len(drivers) != 1:
            raise ParameterError(
                f"BatchDelayJob stages must share one driver, got "
                f"{len(drivers)}")
        return cls(driver=stages[0].driver,
                   lines=tuple(stage.line for stage in stages),
                   h=tuple(stage.h for stage in stages),
                   k=tuple(stage.k for stage in stages),
                   f=f, polish_with_newton=polish_with_newton)

    @classmethod
    def from_inductance_sweep(cls, line_zero_l: LineParams,
                              driver: DriverParams, l_values, *,
                              h: float, k: float,
                              f: float = 0.5) -> "BatchDelayJob":
        """One fixed (h, k) sizing swept across an inductance grid."""
        lines = tuple(line_zero_l.with_inductance(float(l))
                      for l in l_values)
        return cls(driver=driver, lines=lines,
                   h=(float(h),) * len(lines), k=(float(k),) * len(lines),
                   f=f)

    def __len__(self) -> int:
        return len(self.lines)

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "driver": driver_to_dict(self.driver),
                "lines": [line_to_dict(line) for line in self.lines],
                "h": list(self.h), "k": list(self.k), "f": self.f,
                "polish_with_newton": self.polish_with_newton}

    def run(self) -> Dict[str, Any]:
        from ..core.kernels import StageBatch, threshold_delay_v
        from ..errors import DelaySolverError

        batch = StageBatch.from_arrays(
            r=[line.r for line in self.lines],
            l=[line.l for line in self.lines],
            c=[line.c for line in self.lines],
            r_s=self.driver.r_s, c_p=self.driver.c_p,
            c_0=self.driver.c_0, h=self.h, k=self.k)
        try:
            solved = threshold_delay_v(batch, self.f)
        except DelaySolverError as exc:
            # Name the failing sweep points, not just the kernel lanes.
            lanes = getattr(exc, "lanes", [])
            where = "; ".join(
                f"point {i} (l = {self.lines[i].l:.4g} H/m, "
                f"h = {self.h[i]:.4g} m, k = {self.k[i]:.4g})"
                for i in lanes[:3])
            suffix = f" and {len(lanes) - 3} more" if len(lanes) > 3 else ""
            raise DelaySolverError(
                f"batch delay solve of {len(self)} points failed at "
                f"{where or 'unknown point'}{suffix}: {exc}",
                iterations=exc.iterations,
                residual=exc.residual) from exc
        tau = solved.tau
        h_arr = np.asarray(self.h, dtype=float)
        iterations = (solved.newton_iterations if self.polish_with_newton
                      else np.zeros(len(self), dtype=np.int64))
        return {"n": len(self),
                "tau": jsonify(tau),
                "delay_per_length": jsonify(tau / h_arr),
                "threshold": self.f,
                "damping": [d.value for d in solved.damping_values()],
                "newton_iterations": jsonify(iterations)}

    def summary(self, result: Dict[str, Any]) -> str:
        tau = result["tau"]
        return (f"{result['n']} lanes tau=[{min(tau):.6g}.."
                f"{max(tau):.6g}]s")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchDelayJob":
        return cls(driver=driver_from_dict(data["driver"]),
                   lines=tuple(line_from_dict(d) for d in data["lines"]),
                   h=tuple(float(x) for x in data["h"]),
                   k=tuple(float(x) for x in data["k"]),
                   f=float(data.get("f", 0.5)),
                   polish_with_newton=bool(
                       data.get("polish_with_newton", False)))


@register_job_type
@dataclass(frozen=True)
class CriticalInductanceJob:
    """Eq. 4 critical-inductance query of one (h, k) configuration.

    Returns the line inductance per unit length that would make the
    stage critically damped, plus the damping margin ``l / l_crit`` of
    the stage's *actual* inductance (``None`` when ``l_crit <= 0``,
    i.e. the configuration is underdamped even at l = 0).  The scalar
    :func:`repro.core.critical.critical_inductance` and the batched
    :func:`repro.core.kernels.critical_inductance_v` share one
    expression graph, so the serve layer may answer this job from a
    vectorized batch bitwise identically to ``run()``.
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

    def run(self) -> Dict[str, Any]:
        stage = Stage(line=self.line, driver=self.driver, h=self.h, k=self.k)
        l_crit = critical_inductance(stage)
        margin = (self.line.l / l_crit) if l_crit > 0.0 else None
        return {"l_crit": l_crit, "l": self.line.l,
                "damping_margin": margin}

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

    ``h_opt``/``k_opt`` are passed through *uncoerced*: the serial
    in-process executor hands this dict straight to callers such as
    :func:`repro.core.sweep.sweep_inductance`, whose warm-start chain
    depends on receiving the optimizer's raw (possibly ``np.float64``)
    iterates — coercing here would perturb downstream optima by ulps.
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
    fresh evaluators.  ``OptimizeJob``, ``BatchOptimizeJob`` and the
    serve layer's optimize batches all finish through here, so the same
    failed spec reports the same error on every entry point.

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


@register_job_type
@dataclass(frozen=True)
class OptimizeJob:
    """Repeater-insertion optimization of one (line, driver, f) config.

    ``initial`` is the warm start; when it fails with
    :class:`OptimizationError` and ``retry_reseed`` is true, the job
    retries exactly once from the closed-form RC optimum — the same
    recovery :func:`repro.core.sweep.sweep_inductance` has always applied
    inline.  The retry is part of the spec, so it is deterministic and
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

    def run(self) -> Dict[str, Any]:
        try:
            if _faults.ACTIVE is not None:
                _faults.fire("optimize.warm_start")
            outcome = optimize_repeater(
                self.line, self.driver, self.f, method=self.method,
                initial=self.initial, tol=self.tol,
                max_iterations=self.max_iterations)
        except OptimizationError as exc:
            outcome = exc
        (result,) = reseed_failed_lanes([self], [outcome])
        if isinstance(result, Exception):
            raise result
        return result

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
                   retry_reseed=bool(data.get("retry_reseed", True)))


@register_job_type
@dataclass(frozen=True)
class BatchOptimizeJob:
    """N independent repeater optimizations as one cached batch unit.

    Multi-start (one configuration, many seeds) and multi-config (one
    sizing problem per line, e.g. an inductance grid) both reduce to N
    independent ``optimize_repeater`` runs; this job executes them with
    two batching advantages over N :class:`OptimizeJob`\\ s:

    * the N Newton loops advance in *lockstep*
      (:func:`repro.core.optimize.optimize_repeater_many`): the seeds,
      every iteration's finite-difference probes and every backtracking
      wave's trial points pool into single kernel batches, and the
      failed warm starts re-seed together (:func:`reseed_failed_lanes`),
      and
    * the whole batch is a single cache entry / pool dispatch.

    Per-lane results — including the convergence path, the attached
    trace with its counters, and any per-lane failure — are identical
    to running each lane as its own :class:`OptimizeJob` (lane
    evaluation is batch-size invariant).  Failed lanes are isolated
    into ``errors``; ``best_index`` points at the lowest surviving delay
    per unit length.
    """

    kind: ClassVar[str] = "batch_optimize"

    driver: DriverParams
    lines: Tuple[LineParams, ...]
    f: float = 0.5
    method: OptimizerMethod = OptimizerMethod.AUTO
    initials: Optional[Tuple[Optional[Tuple[float, float]], ...]] = None
    tol: float = 1e-9
    max_iterations: int = 200
    retry_reseed: bool = True

    def __post_init__(self) -> None:
        if not self.lines:
            raise ParameterError("BatchOptimizeJob needs at least one lane")
        if self.initials is not None and len(self.initials) != len(self.lines):
            raise ParameterError(
                f"BatchOptimizeJob field lengths disagree: "
                f"{len(self.lines)} lines, {len(self.initials)} initials")

    @classmethod
    def from_multistart(cls, line: LineParams, driver: DriverParams,
                        seeds, f: float = 0.5, **kwargs
                        ) -> "BatchOptimizeJob":
        """One configuration optimized from several (h, k) seeds."""
        seeds = tuple(tuple(float(x) for x in seed) for seed in seeds)
        return cls(driver=driver, lines=(line,) * len(seeds), f=f,
                   initials=seeds, **kwargs)

    @classmethod
    def from_inductance_grid(cls, line_zero_l: LineParams,
                             driver: DriverParams, l_values,
                             f: float = 0.5, **kwargs
                             ) -> "BatchOptimizeJob":
        """One optimization per inductance, each seeded independently
        (unlike the warm-start chain of ``sweep_inductance``)."""
        lines = tuple(line_zero_l.with_inductance(float(l))
                      for l in l_values)
        return cls(driver=driver, lines=lines, f=f, **kwargs)

    def __len__(self) -> int:
        return len(self.lines)

    def canonical(self) -> Dict[str, Any]:
        return {"kind": self.kind,
                "driver": driver_to_dict(self.driver),
                "lines": [line_to_dict(line) for line in self.lines],
                "f": self.f, "method": self.method.value,
                "initials": ([list(i) if i else None for i in self.initials]
                             if self.initials is not None else None),
                "tol": self.tol, "max_iterations": self.max_iterations,
                "retry_reseed": self.retry_reseed}

    def run(self) -> Dict[str, Any]:
        initials = self.initials or (None,) * len(self.lines)
        lanes = [OptimizeJob(line=line, driver=self.driver, f=self.f,
                             method=self.method, initial=initial,
                             tol=self.tol,
                             max_iterations=self.max_iterations,
                             retry_reseed=self.retry_reseed)
                 for line, initial in zip(self.lines, initials)]
        outcomes = optimize_repeater_many(
            self.lines, self.driver, self.f, method=self.method,
            initials=initials, tol=self.tol,
            max_iterations=self.max_iterations)
        results: list = []
        errors: list = []
        for i, result in enumerate(reseed_failed_lanes(lanes, outcomes)):
            if isinstance(result, Exception):
                results.append(None)
                errors.append({"lane": i,
                               "error_type": type(result).__name__,
                               "error": str(result)})
            else:
                results.append(result)
        ok = [i for i, res in enumerate(results) if res is not None]
        best_index = (min(ok, key=lambda i: results[i]["delay_per_length"])
                      if ok else None)
        return {"n": len(self),
                "results": results,
                "errors": errors,
                "best_index": best_index}

    def summary(self, result: Dict[str, Any]) -> str:
        failed = len(result["errors"])
        best = result["best_index"]
        if best is None:
            return f"{result['n']} lanes, all failed"
        dpl = result["results"][best]["delay_per_length"]
        return (f"{result['n']} lanes ({failed} failed) "
                f"best[{best}] tau/h={dpl:.6g}s/m")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchOptimizeJob":
        initials = data.get("initials")
        return cls(driver=driver_from_dict(data["driver"]),
                   lines=tuple(line_from_dict(d) for d in data["lines"]),
                   f=float(data.get("f", 0.5)),
                   method=OptimizerMethod(data.get("method", "auto")),
                   initials=(tuple(
                       tuple(float(x) for x in i) if i else None
                       for i in initials) if initials is not None else None),
                   tol=float(data.get("tol", 1e-9)),
                   max_iterations=int(data.get("max_iterations", 200)),
                   retry_reseed=bool(data.get("retry_reseed", True)))


@register_job_type
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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepJob":
        return cls(line_zero_l=line_from_dict(data["line"]),
                   driver=driver_from_dict(data["driver"]),
                   l_values=tuple(float(x) for x in data["l_values"]),
                   f=float(data.get("f", 0.5)),
                   method=OptimizerMethod(data.get("method", "auto")))


@register_job_type
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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TransientJob":
        return cls(
            node_name=str(data["node_name"]),
            l_nh_per_mm=float(data["l_nh_per_mm"]),
            n_stages=int(data.get("n_stages", 5)),
            segments=int(data.get("segments", 10)),
            style=str(data.get("style", "mosfet")),
            probe_stage=int(data.get("probe_stage", 2)),
            period_budget=float(data.get("period_budget", 14.0)),
            steps_per_period=int(data.get("steps_per_period", 700)))


@register_job_type
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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentJob":
        return cls(experiment_id=str(data["experiment_id"]),
                   options_json=canonical_json(data.get("options", {})))


def job_to_dict(job: Any) -> Dict[str, Any]:
    """Serialize any job to its canonical dictionary (includes ``kind``)."""
    return job.canonical()


def job_from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild a job from a canonical dictionary produced by ``canonical()``."""
    kind = data.get("kind")
    if kind not in JOB_TYPES:
        if kind == "verify":
            # The verify job kind registers on package import; pull it in
            # so manifests containing verification jobs load standalone.
            from .. import verify  # noqa: F401
        if kind not in JOB_TYPES:
            known = ", ".join(sorted(JOB_TYPES))
            raise ValueError(f"unknown job kind {kind!r}; known: {known}")
    return JOB_TYPES[kind].from_dict(data)
