"""Shared stage evaluator: the optimizer's (h, k) -> (g1, g2, tau) oracle.

The repeater optimizer (:mod:`repro.core.optimize`) needs the paper's
stationarity residuals (Eqs. 7-8) at many nearby sizings: the base point,
two finite-difference probes per Newton iteration, and every backtracking
trial.  Before this module each of those was a full scalar walk of the
moments -> poles -> response -> delay chain; here the walk happens once
per *batch* through the kernel expression graphs of
:mod:`repro.core.kernels`, and a per-evaluator memo guarantees no (h, k)
is ever computed twice.

Bitwise compatibility
---------------------
The refactor contract is that :func:`repro.core.optimize.optimize_repeater`
returns bit-for-bit the same (h_opt, k_opt, tau) as the scalar
implementation — including its convergence path, i.e. every intermediate
residual must match exactly.  The scalar chain mixes two flavours of
complex/real scalar division, selected by Python's type coercion:

* ``complex / float`` (CPython) divides each component directly;
* ``np.complex128 / np.float64`` (numpy) follows Smith's algorithm with a
  reciprocal-multiply (``scl = 1/denom`` then componentwise multiply),
  which can differ from the direct quotient in the last ulp.

Which flavour the scalar code hits depends on whether numpy scalars have
"tainted" the operands.  Tracing the taint through
:func:`repro.core.moments.moments_terms` leaves exactly two independent
decisions, captured by :class:`ScalarSemantics`:

* ``numpy_b1`` — b1 (no l term) is an ``np.float64``; decides the pole
  divisions ``(-b1 +- sqrt)/2 b2``, the ``s*db2/b2`` term and ``s/h``.
* ``numpy_db2`` — db2 (contains every parameter) is an ``np.float64``;
  decides ``(b1 db1 - 2 db2)/sqrt`` and the ``numerator/2 b2`` division.

numpy complex *multiplication* needs no switch: the numpy scalar product
uses the naive componentwise formula, identical to CPython.  Array
multiplication, however, may use SIMD/FMA contraction, so every complex
product below is spelled out componentwise (:func:`_cmul`).

:class:`StageEvaluator` derives the semantics from the live types of the
line/driver parameters and the (h, k) iterates — e.g. a sweep warm start
carries ``np.float64`` optima into the next point's first evaluation —
so batched evaluation reproduces the scalar bits in every mixed-type
scenario the optimizer stack produces.  The line and driver are frozen,
so their taint is derived once per evaluator; each evaluation inspects
only its (h, k) operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DelaySolverError, ParameterError
from . import moments as _moments_mod
from .kernels import (DAMPING_BY_CODE, ResponseBatch, classify_damping_v,
                      threshold_delay_v)
from .params import DriverParams, LineParams


# ----------------------------------------------------------------------
# Scalar-semantics selection.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalarSemantics:
    """Which scalar division flavour each site of the chain would use.

    See the module docstring: ``numpy_b1`` tracks the taint of the moment
    b1 (every parameter except l), ``numpy_db2`` the taint of db2/dh
    (every parameter).  ``numpy_db2`` is implied by ``numpy_b1``.
    """

    numpy_b1: bool
    numpy_db2: bool

    @classmethod
    def for_values(cls, line: LineParams, driver: DriverParams,
                   h_values: Iterable[Any],
                   k_values: Iterable[Any]) -> "ScalarSemantics":
        """Derive the semantics the scalar chain would use for these types."""
        taint_s = any(
            isinstance(x, np.generic)
            for x in (line.r, line.c, driver.r_s, driver.c_p, driver.c_0))
        taint_s = taint_s or any(
            isinstance(x, np.generic) for x in h_values) or any(
            isinstance(x, np.generic) for x in k_values)
        return cls(numpy_b1=taint_s,
                   numpy_db2=taint_s or isinstance(line.l, np.generic))


# ----------------------------------------------------------------------
# Componentwise complex helpers (immune to SIMD/FMA contraction).
# ----------------------------------------------------------------------
def _cparts(re, im) -> np.ndarray:
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive componentwise complex product (the scalar formula)."""
    return _cparts(a.real * b.real - a.imag * b.imag,
                   a.real * b.imag + a.imag * b.real)


def _div_real(num: np.ndarray, den: np.ndarray,
              numpy_style: bool) -> np.ndarray:
    """complex / positive-real, in the requested scalar flavour.

    Warnings are silenced: exactly-critical lanes carry inf/NaN
    components here that ``np.where`` overrides downstream, and the
    scalar chain never divides on that branch at all.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if numpy_style:
            return num / np.asarray(den, dtype=float)
        return _cparts(num.real / den, num.imag / den)


# ----------------------------------------------------------------------
# Batched stationarity residuals.
# ----------------------------------------------------------------------
def stationarity_residuals_v(r, l, c, r_s, c_p, c_0, h, k, f: float, *,
                             semantics: ScalarSemantics
                             ) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
    """Batched (g1, g2, tau, damping code) over N stage lanes.

    Evaluates the paper's normalized residuals (see
    :func:`repro.core.optimize.stationarity_residuals`) for every lane of
    a parameter batch in one pipeline walk.  With ``semantics`` matching
    the operand types the scalar chain would see, each lane is
    bit-for-bit identical to the scalar evaluation (NaN lanes — exactly
    critical poles — are NaN in both).

    Raises
    ------
    ParameterError
        If any lane has b2 <= 0 or b1 <= 0, naming the first bad lane
        (mirroring :func:`repro.core.poles.compute_poles`).
    DelaySolverError
        If the threshold-crossing solve fails for any lane.
    """
    arrs = [np.asarray(x, dtype=float)
            for x in (r, l, c, r_s, c_p, c_0, h, k)]
    r, l, c, r_s, c_p, c_0, h, k = np.broadcast_arrays(*arrs)
    # Mirror the scalar chain's Stage/SizedDriver validation: a lane the
    # scalar path would reject must raise here too (the direct optimizer
    # maps these to +inf objective values).
    for name, values in (("segment length", h), ("driver size", k)):
        bad = np.flatnonzero(~(values > 0.0))
        if bad.size:
            i = int(bad[0])
            raise ParameterError(
                f"{name} must be positive, got {values.flat[i]} (lane {i})")
    b1, b2, db1_dh, db1_dk, db2_dh, db2_dk = _moments_mod.moments_terms(
        r, l, c, r_s, c_p, c_0, h, k)

    for name, values in (("b2", b2), ("b1", b1)):
        bad = np.flatnonzero(values <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise ParameterError(
                f"two-pole model requires {name} > 0, got "
                f"{values.flat[i]} (lane {i})")

    disc = b1 * b1 - 4.0 * b2
    sqrt_abs = np.sqrt(np.abs(disc))
    over = disc >= 0.0
    sqrt_re = np.where(over, sqrt_abs, 0.0)
    sqrt_im = np.where(over, 0.0, sqrt_abs)
    two_b2 = 2.0 * b2
    s1 = _div_real(_cparts(-b1 + sqrt_re, sqrt_im), two_b2,
                   semantics.numpy_b1)
    s2 = _div_real(_cparts(-b1 - sqrt_re, -sqrt_im), two_b2,
                   semantics.numpy_b1)
    crit = sqrt_abs == 0.0

    def dterms(sign: float, s: np.ndarray, db1p: np.ndarray,
               db2p: np.ndarray) -> np.ndarray:
        x = sign * (b1 * db1p - 2.0 * db2p)
        if semantics.numpy_db2:
            with np.errstate(divide="ignore", invalid="ignore"):
                div = _cparts(x, 0.0) / _cparts(sqrt_re, sqrt_im)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                div = _cparts(np.where(over, x / sqrt_abs, 0.0),
                              np.where(over, 0.0, (0.0 - x) / sqrt_abs))
        num = _cparts(-db1p + div.real, div.imag)
        q1 = _div_real(num, two_b2, semantics.numpy_db2)
        sdb2 = _cparts(s.real * db2p - s.imag * 0.0,
                       s.real * 0.0 + s.imag * db2p)
        q2 = _div_real(sdb2, b2, semantics.numpy_b1)
        res = q1 - q2
        # Exactly coincident poles: the scalar chain switches to the
        # derivative of the double root (pure real arithmetic).
        if np.any(crit):
            crit_val = -db1p / two_b2 + b1 * db2p / (two_b2 * b2)
            res = np.where(crit, _cparts(crit_val, 0.0), res)
        return res

    ds1_dh = dterms(+1.0, s1, db1_dh, db2_dh)
    ds1_dk = dterms(+1.0, s1, db1_dk, db2_dk)
    ds2_dh = dterms(-1.0, s2, db1_dh, db2_dh)
    ds2_dk = dterms(-1.0, s2, db1_dk, db2_dk)

    solved = threshold_delay_v(ResponseBatch.from_s1s2(s1, s2), f)
    tau = solved.tau

    e1 = np.exp(_cparts(s1.real * tau, s1.imag * tau))
    e2 = np.exp(_cparts(s2.real * tau, s2.imag * tau))
    one_minus_f = 1.0 - f
    s1h = _div_real(s1, h, semantics.numpy_b1)
    s2h = _div_real(s2, h, semantics.numpy_b1)
    s1t = _cparts(s1.real * tau, s1.imag * tau)
    s2t = _cparts(s2.real * tau, s2.imag * tau)

    def rmul(x, z: np.ndarray) -> np.ndarray:
        # real * complex with the scalar's naive expansion.
        return _cparts(x * z.real - 0.0 * z.imag, x * z.imag + 0.0 * z.real)

    g1 = (rmul(one_minus_f, ds2_dh - ds1_dh)
          - _cmul(ds2_dh, e1) + _cmul(ds1_dh, e2)
          - _cmul(_cmul(s2t, ds1_dh + s1h), e1)
          + _cmul(_cmul(s1t, ds2_dh + s2h), e2))
    g2 = (rmul(one_minus_f, ds2_dk - ds1_dk)
          - _cmul(ds2_dk, e1) - _cmul(_cmul(s2t, ds1_dk), e1)
          + _cmul(ds1_dk, e2) + _cmul(_cmul(s1t, ds2_dk), e2))

    pole_gap = s2 - s1
    with np.errstate(divide="ignore", invalid="ignore"):
        g1_real = (g1 / pole_gap).real
        g2_real = (g2 / pole_gap).real
    return g1_real * h, g2_real * k, tau, classify_damping_v(b1, b2)


def delay_per_length_grid(line_zero_l: LineParams, driver: DriverParams,
                          l_values, h, k, f: float = 0.5) -> np.ndarray:
    """tau(h, k, l)/h over an inductance grid at one fixed sizing.

    The class-aware batched equivalent of looping
    ``threshold_delay(Stage(line.with_inductance(float(l)), ...)).tau / h``
    over ``l_values`` — each lane is bitwise identical to that scalar
    evaluation (the grid values are float-coerced exactly as the scalar
    loops do).  Used by :mod:`repro.core.robust` to collapse its
    per-candidate worst-case scans into one kernel walk each.
    """
    if not float(h) > 0.0:
        raise ParameterError(f"segment length must be positive, got {h}")
    if not float(k) > 0.0:
        raise ParameterError(f"driver size must be positive, got {k}")
    l_arr = np.asarray([float(l) for l in l_values], dtype=float)
    semantics = ScalarSemantics.for_values(line_zero_l, driver, (h,), (k,))
    r = np.full(l_arr.shape, float(line_zero_l.r))
    c = np.full(l_arr.shape, float(line_zero_l.c))
    h_arr = np.full(l_arr.shape, float(h))
    k_arr = np.full(l_arr.shape, float(k))
    b1, b2, _, _, _, _ = _moments_mod.moments_terms(
        r, l_arr, c, np.full(l_arr.shape, float(driver.r_s)),
        np.full(l_arr.shape, float(driver.c_p)),
        np.full(l_arr.shape, float(driver.c_0)), h_arr, k_arr)
    for name, values in (("b2", b2), ("b1", b1)):
        bad = np.flatnonzero(values <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise ParameterError(
                f"two-pole model requires {name} > 0, got "
                f"{values.flat[i]} (lane {i})")
    disc = b1 * b1 - 4.0 * b2
    sqrt_abs = np.sqrt(np.abs(disc))
    over = disc >= 0.0
    s1 = _div_real(_cparts(-b1 + np.where(over, sqrt_abs, 0.0),
                           np.where(over, 0.0, sqrt_abs)),
                   2.0 * b2, semantics.numpy_b1)
    s2 = _div_real(_cparts(-b1 - np.where(over, sqrt_abs, 0.0),
                           np.where(over, 0.0, -sqrt_abs)),
                   2.0 * b2, semantics.numpy_b1)
    tau = threshold_delay_v(ResponseBatch.from_s1s2(s1, s2), f).tau
    return tau / h


# ----------------------------------------------------------------------
# Optimization traces.
# ----------------------------------------------------------------------
def _finite(value: Any) -> Optional[float]:
    """``value`` as a float, or ``None`` where it is NaN/inf."""
    number = float(value)
    return number if math.isfinite(number) else None


def _number(value: Any) -> float:
    """Inverse of :func:`_finite`: ``None`` reads back as NaN."""
    return math.nan if value is None else float(value)


@dataclass(frozen=True)
class TraceStep:
    """One accepted optimizer iterate (iteration 0 is the seed)."""

    iteration: int
    h: float
    k: float
    g1: float
    g2: float
    tau: float
    residual_norm: float
    damping: str
    step_scale: Optional[float]   #: damping factor applied; None at seed
    backtracks: int               #: step halvings before acceptance
    accepted_worse: bool          #: accepted with residual not decreased


@dataclass(frozen=True)
class TraceEvent:
    """A non-iterate optimizer event (fallback, error, direct stats)."""

    iteration: int
    kind: str
    detail: str


@dataclass
class OptimizationTrace:
    """Structured per-iteration history of one optimization run.

    Populated by :func:`repro.core.optimize.optimize_repeater` and
    attached to :class:`~repro.core.optimize.RepeaterOptimum`; the engine
    serializes it through :meth:`to_payload` so cached/parallel runs
    carry the same diagnostics as in-process ones.
    """

    steps: List[TraceStep] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    lanes_evaluated: int = 0     #: kernel lanes actually computed
    batch_calls: int = 0         #: vectorized pipeline walks issued
    memo_hits: int = 0           #: evaluations served from the memo

    def record_step(self, step: TraceStep) -> None:
        self.steps.append(step)

    def record_event(self, kind: str, detail: str = "") -> None:
        self.events.append(TraceEvent(iteration=self.next_iteration - 1,
                                      kind=kind, detail=detail))

    @property
    def next_iteration(self) -> int:
        return self.steps[-1].iteration + 1 if self.steps else 0

    @property
    def backtrack_total(self) -> int:
        return sum(step.backtracks for step in self.steps)

    @property
    def accepted_worse_total(self) -> int:
        return sum(1 for step in self.steps if step.accepted_worse)

    @property
    def fallback(self) -> bool:
        """True when Newton stalled and the direct method took over."""
        return any(event.kind == "fallback" for event in self.events)

    def attach_counters(self, evaluator: "StageEvaluator") -> None:
        """Snapshot the evaluator's lane accounting into the trace."""
        self.lanes_evaluated = evaluator.lanes_evaluated
        self.batch_calls = evaluator.batch_calls
        self.memo_hits = evaluator.memo_hits

    def summary(self) -> Dict[str, Any]:
        """Plain-typed roll-up for metrics output."""
        return {"steps": len(self.steps),
                "backtracks": self.backtrack_total,
                "accepted_worse": self.accepted_worse_total,
                "fallback": self.fallback,
                "lanes_evaluated": self.lanes_evaluated,
                "batch_calls": self.batch_calls,
                "memo_hits": self.memo_hits}

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dictionary form: finite floats, ints, strs, None.

        A non-finite number (the residual of a probe that solved to NaN)
        is written as ``None``, the package's one form of an undefined
        value, so every payload path can screen the whole result.
        """
        return {
            "steps": [{"iteration": step.iteration,
                       "h": _finite(step.h), "k": _finite(step.k),
                       "g1": _finite(step.g1), "g2": _finite(step.g2),
                       "tau": _finite(step.tau),
                       "residual_norm": _finite(step.residual_norm),
                       "damping": step.damping,
                       "step_scale": (None if step.step_scale is None
                                      else _finite(step.step_scale)),
                       "backtracks": step.backtracks,
                       "accepted_worse": step.accepted_worse}
                      for step in self.steps],
            "events": [{"iteration": event.iteration, "kind": event.kind,
                        "detail": event.detail}
                       for event in self.events],
            "lanes_evaluated": self.lanes_evaluated,
            "batch_calls": self.batch_calls,
            "memo_hits": self.memo_hits,
        }

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "OptimizationTrace":
        """Inverse of :meth:`to_payload`; a ``None`` number reads as NaN."""
        trace = cls(lanes_evaluated=int(data.get("lanes_evaluated", 0)),
                    batch_calls=int(data.get("batch_calls", 0)),
                    memo_hits=int(data.get("memo_hits", 0)))
        for entry in data.get("steps", []):
            scale = entry.get("step_scale")
            trace.steps.append(TraceStep(
                iteration=int(entry["iteration"]),
                h=_number(entry["h"]), k=_number(entry["k"]),
                g1=_number(entry["g1"]), g2=_number(entry["g2"]),
                tau=_number(entry["tau"]),
                residual_norm=_number(entry["residual_norm"]),
                damping=str(entry["damping"]),
                step_scale=None if scale is None else float(scale),
                backtracks=int(entry.get("backtracks", 0)),
                accepted_worse=bool(entry.get("accepted_worse", False))))
        for entry in data.get("events", []):
            trace.events.append(TraceEvent(
                iteration=int(entry["iteration"]),
                kind=str(entry["kind"]),
                detail=str(entry.get("detail", ""))))
        return trace


# ----------------------------------------------------------------------
# The evaluator.
# ----------------------------------------------------------------------
class StageEvaluator:
    """Memoized, batched (h, k) -> (g1, g2, tau, damping) oracle.

    One evaluator is bound to a (line, driver, f) configuration; all
    optimizer layers for that configuration share it, so the Newton base
    point, finite-difference probes, backtracking trials and a direct
    fallback's simplex never recompute an already-seen sizing.

    The memo key includes the derived :class:`ScalarSemantics`, because
    the same (h, k) *values* evaluated under float vs numpy operand types
    may legitimately differ in the last ulp — both variants are cached
    independently so each caller sees exactly its scalar-path bits.
    """

    def __init__(self, line: LineParams, driver: DriverParams,
                 f: float) -> None:
        self.line = line
        self.driver = driver
        self.f = f
        # The line and driver are frozen, so their taint is derived once:
        # a numpy (h, k) operand taints both moments whatever they hold.
        self._semantics = (ScalarSemantics.for_values(line, driver, (), ()),
                           ScalarSemantics(numpy_b1=True, numpy_db2=True))
        self._memo: Dict[Tuple[float, float, bool, bool],
                         Tuple[float, float, float, int]] = {}
        self.lanes_evaluated = 0
        self.batch_calls = 0
        self.memo_hits = 0

    # -- semantics ------------------------------------------------------
    def semantics_for(self, pairs: Sequence[Tuple[Any, Any]]
                      ) -> ScalarSemantics:
        """The scalar flavour these (h, k) operand types would select.

        Equal to ``ScalarSemantics.for_values(line, driver, hs, ks)``;
        only the (h, k) operands are inspected per call.
        """
        return self._semantics[any(
            isinstance(pair[0], np.generic) or isinstance(pair[1], np.generic)
            for pair in pairs)]

    def _key(self, h: Any, k: Any, semantics: ScalarSemantics
             ) -> Tuple[float, float, bool, bool]:
        return (float(h), float(k), semantics.numpy_b1, semantics.numpy_db2)

    # -- evaluation -----------------------------------------------------
    def evaluate_many(self, pairs: Sequence[Tuple[Any, Any]]
                      ) -> List[Tuple[float, float, float, int]]:
        """Evaluate every (h, k) pair; misses become one kernel batch.

        Pairs are grouped by their derived semantics (in practice one
        group — an iteration's base point and probes share types), each
        group's misses run as a single vectorized pipeline walk, and all
        results are memoized per lane.
        """
        semantics = [self.semantics_for([pair]) for pair in pairs]
        keys = [self._key(pair[0], pair[1], sem)
                for pair, sem in zip(pairs, semantics)]
        by_group: Dict[ScalarSemantics, List[int]] = {}
        for index, (key, sem) in enumerate(zip(keys, semantics)):
            if key in self._memo:
                self.memo_hits += 1
            else:
                by_group.setdefault(sem, []).append(index)
        for sem, indices in by_group.items():
            # A pair may appear twice in one call; evaluate it once.
            unique: List[int] = []
            seen = set()
            for index in indices:
                if keys[index] not in seen:
                    seen.add(keys[index])
                    unique.append(index)
            self._evaluate_batch([keys[i] for i in unique], sem)
        return [self._memo[key] for key in keys]

    def evaluate(self, h: Any, k: Any) -> Tuple[float, float, float, int]:
        """(g1, g2, tau, damping code) at one sizing."""
        return self.evaluate_many([(h, k)])[0]

    def delay(self, h: Any, k: Any) -> float:
        """tau(h, k) alone — for objective-only callers (direct method,
        power golden sections); shares the residual memo."""
        return self.evaluate(h, k)[2]

    def prime(self, key: Tuple[float, float, bool, bool],
              value: Tuple[float, float, float, int]) -> None:
        """Insert an externally computed lane (see :func:`prime_pairs`)."""
        self._memo.setdefault(key, value)

    def __len__(self) -> int:
        return len(self._memo)

    def _evaluate_batch(self, keys: List[Tuple[float, float, bool, bool]],
                        semantics: ScalarSemantics) -> None:
        if not keys:
            return
        n = len(keys)
        line, driver = self.line, self.driver
        g1, g2, tau, codes = stationarity_residuals_v(
            [float(line.r)] * n, [float(line.l)] * n, [float(line.c)] * n,
            [float(driver.r_s)] * n, [float(driver.c_p)] * n,
            [float(driver.c_0)] * n,
            [key[0] for key in keys], [key[1] for key in keys],
            self.f, semantics=semantics)
        self.lanes_evaluated += n
        self.batch_calls += 1
        for j, key in enumerate(keys):
            self._memo[key] = (float(g1[j]), float(g2[j]), float(tau[j]),
                               int(codes[j]))


def prime_pairs(requests: Sequence[Tuple[StageEvaluator,
                                         Sequence[Tuple[Any, Any]]]]) -> int:
    """Pool uncached (h, k) points of many evaluators into kernel batches.

    ``requests`` pairs each :class:`StageEvaluator` with the sizings it is
    about to evaluate.  All points not already memoized are grouped by
    (semantics, f) — across evaluators, i.e. across line/driver
    configurations — and each group runs as one multi-configuration
    kernel batch whose lanes are bitwise identical to solo evaluation
    (lane values are batch-size invariant).  This is the engine of the
    lockstep Newton driver: N optimizations' probes and backtracking
    trials become one pipeline walk per iteration instead of N.

    A group whose batch fails (bad trial parameters, delay-solver
    failure) is re-run as one batch per evaluator, and an evaluator
    whose own batch fails is skipped: its points then evaluate — and
    raise — inside their own lane.  Each evaluator thus primes exactly
    what it would prime alone, so its counters and per-lane exception
    types never depend on the other evaluators in the call.

    Returns the number of lanes actually primed.
    """
    groups: Dict[Tuple[ScalarSemantics, float],
                 List[Tuple[StageEvaluator,
                            Tuple[float, float, bool, bool]]]] = {}
    seen = set()
    for evaluator, pairs in requests:
        for pair in pairs:
            sem = evaluator.semantics_for([pair])
            key = evaluator._key(pair[0], pair[1], sem)
            if key in evaluator._memo:
                continue
            marker = (id(evaluator), key)
            if marker in seen:
                continue
            seen.add(marker)
            groups.setdefault((sem, evaluator.f), []).append(
                (evaluator, key))

    primed = 0
    for (sem, f), lanes in groups.items():
        try:
            primed += _prime_batch(lanes, sem, f)
        except (ParameterError, DelaySolverError):
            owners: Dict[int, list] = {}
            for evaluator, key in lanes:
                owners.setdefault(id(evaluator), []).append(
                    (evaluator, key))
            if len(owners) == 1:
                continue    # the failed batch was this evaluator's own
            for own in owners.values():
                try:
                    primed += _prime_batch(own, sem, f)
                except (ParameterError, DelaySolverError):
                    continue
    return primed


def _prime_batch(lanes: List[Tuple[StageEvaluator,
                                   Tuple[float, float, bool, bool]]],
                 semantics: ScalarSemantics, f: float) -> int:
    """Evaluate one (semantics, f) group as one kernel batch and memoize
    each lane in its evaluator; raises if any lane fails."""
    g1, g2, tau, codes = stationarity_residuals_v(
        [float(ev.line.r) for ev, _ in lanes],
        [float(ev.line.l) for ev, _ in lanes],
        [float(ev.line.c) for ev, _ in lanes],
        [float(ev.driver.r_s) for ev, _ in lanes],
        [float(ev.driver.c_p) for ev, _ in lanes],
        [float(ev.driver.c_0) for ev, _ in lanes],
        [key[0] for _, key in lanes], [key[1] for _, key in lanes],
        f, semantics=semantics)
    touched: Dict[int, StageEvaluator] = {}
    for j, (evaluator, key) in enumerate(lanes):
        evaluator.prime(key, (float(g1[j]), float(g2[j]), float(tau[j]),
                              int(codes[j])))
        evaluator.lanes_evaluated += 1
        touched[id(evaluator)] = evaluator
    for evaluator in touched.values():
        evaluator.batch_calls += 1
    return len(lanes)


def damping_name(code: int) -> str:
    """Damping enum value string for an integer classification code."""
    return DAMPING_BY_CODE[int(code)].value
