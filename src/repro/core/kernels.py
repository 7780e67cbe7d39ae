"""Array-first numeric kernels: the batched moments→poles→response→delay
pipeline.

Every figure in the paper is a sweep and the verification matrix evaluates
dozens of cases, so the natural unit of evaluation is a *batch* of stages,
not a single point.  This module is the vectorized core the rest of the
library routes through:

* :class:`StageBatch` — N driver-line-load stages as parallel arrays,
* :func:`compute_moments_v` — Padé moments b1, b2 + sizing partials,
* :func:`poles_v` — pole pairs with vectorized damping classification,
* :func:`response_v` / :class:`ResponseBatch` — two-pole step responses
  evaluated on shared or per-lane time grids,
* :func:`threshold_delay_v` — the f*100% first-crossing delay of all N
  lanes at once: a shared (per-lane scaled) sample grid brackets the
  first upward crossing, then a masked Newton/bisection hybrid with
  per-lane convergence tracking refines it — no per-point
  ``scipy.brentq`` calls,
* :func:`critical_inductance_v` — Eq. 4's l_crit for a whole sweep.

The scalar entry points (:func:`repro.core.moments.compute_moments`,
:func:`repro.core.delay.threshold_delay`,
:meth:`repro.core.response.StepResponse.__call__`) are thin shims over
these kernels, sharing the *same* elementwise expression graph, so a
batch lane is bitwise identical to the corresponding scalar evaluation —
batch size and lane order never change results.

Numeric contract: every lane is computed independently (no cross-lane
reductions feed back into a lane's value), which is what makes the
permutation- and singleton-invariance properties in
``tests/test_kernels_properties.py`` exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..errors import DelaySolverError, ParameterError
from ..faults import hooks as _faults
from .moments import Moments
from .params import DriverParams, LineParams, Stage
from .poles import CRITICAL_RTOL, Damping
from . import moments as _moments_mod

#: Samples per characteristic time when hunting for the first crossing.
GRID_PER_TIMESCALE = 64

#: Hard cap on the bracket search horizon, in units of the slow time scale.
MAX_HORIZON_FACTOR = 400.0

#: Grid points per bracketing round (per active lane), evaluated as
#: :data:`BRACKET_SUBBLOCK` samples and then the rest.
BRACKET_CHUNK = 512

#: Samples in a round's first sub-block: two fast time scales.  A
#: two-pole 50% crossing at the paper's sizings lies within two time
#: scales, so nearly every lane stops after this sub-block; a lane that
#: misses it evaluates the rest of the round in one more call.
BRACKET_SUBBLOCK = 2 * GRID_PER_TIMESCALE

#: Poles closer (relatively) than this are treated as coincident.
COINCIDENT_RTOL = 1e-9

#: Integer damping codes used by the batched classification.
DAMPING_OVERDAMPED = 0
DAMPING_CRITICAL = 1
DAMPING_UNDERDAMPED = 2

#: Code -> :class:`~repro.core.poles.Damping` lookup (index = code).
DAMPING_BY_CODE: Tuple[Damping, ...] = (
    Damping.OVERDAMPED, Damping.CRITICALLY_DAMPED, Damping.UNDERDAMPED)


def _as_lane_array(name: str, values: Any) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ParameterError(
            f"batch field {name!r} must be scalar or 1-D, got shape "
            f"{arr.shape}")
    return arr


# ----------------------------------------------------------------------
# Batch containers.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageBatch:
    """N driver-line-load stages as parallel 1-D arrays (SI units).

    The fields mirror :class:`~repro.core.params.LineParams` (``r``,
    ``l``, ``c``), :class:`~repro.core.params.DriverParams` (``r_s``,
    ``c_p``, ``c_0``) and :class:`~repro.core.params.Stage` (``h``,
    ``k``); validation matches their ``__post_init__`` checks but names
    the offending lane.
    """

    r: np.ndarray
    l: np.ndarray
    c: np.ndarray
    r_s: np.ndarray
    c_p: np.ndarray
    c_0: np.ndarray
    h: np.ndarray
    k: np.ndarray

    _FIELDS = ("r", "l", "c", "r_s", "c_p", "c_0", "h", "k")

    def __post_init__(self) -> None:
        arrays = [getattr(self, name) for name in self._FIELDS]
        sizes = {arr.shape for arr in arrays}
        if len(sizes) != 1:
            raise ParameterError(
                f"StageBatch fields must share one shape, got {sizes}")
        if arrays[0].size == 0:
            raise ParameterError("StageBatch must hold at least one stage")
        for name, positive in (("r", True), ("l", False), ("c", True),
                               ("r_s", True), ("c_p", False),
                               ("c_0", True), ("h", True), ("k", True)):
            arr = getattr(self, name)
            bad = (arr <= 0.0) if positive else (arr < 0.0)
            if np.any(bad):
                lane = int(np.nonzero(bad)[0][0])
                bound = "positive" if positive else ">= 0"
                raise ParameterError(
                    f"stage batch lane {lane}: {name} must be {bound}, "
                    f"got {arr[lane]}")

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, *, r, l, c, r_s, c_p, c_0, h, k) -> "StageBatch":
        """Build a batch from arrays/scalars, broadcasting to one length."""
        fields = {"r": r, "l": l, "c": c, "r_s": r_s, "c_p": c_p,
                  "c_0": c_0, "h": h, "k": k}
        arrays = {name: _as_lane_array(name, value)
                  for name, value in fields.items()}
        broadcast = np.broadcast_arrays(*arrays.values())
        return cls(**{name: np.ascontiguousarray(arr, dtype=float)
                      for name, arr in zip(arrays, broadcast)})

    @classmethod
    def from_stages(cls, stages: Sequence[Stage]) -> "StageBatch":
        """Pack a sequence of :class:`Stage` objects into one batch."""
        stages = list(stages)
        if not stages:
            raise ParameterError("StageBatch must hold at least one stage")
        return cls.from_arrays(
            r=[s.line.r for s in stages], l=[s.line.l for s in stages],
            c=[s.line.c for s in stages],
            r_s=[s.driver.r_s for s in stages],
            c_p=[s.driver.c_p for s in stages],
            c_0=[s.driver.c_0 for s in stages],
            h=[s.h for s in stages], k=[s.k for s in stages])

    @classmethod
    def from_inductance_sweep(cls, line_zero_l: LineParams,
                              driver: DriverParams, l_values, *,
                              h, k) -> "StageBatch":
        """One fixed (h, k) sizing swept across an inductance grid."""
        return cls.from_arrays(
            r=line_zero_l.r, l=l_values, c=line_zero_l.c,
            r_s=driver.r_s, c_p=driver.c_p, c_0=driver.c_0, h=h, k=k)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.h.size)

    def stage(self, index: int) -> Stage:
        """Materialize lane ``index`` back into a scalar :class:`Stage`."""
        return Stage(
            line=LineParams(r=float(self.r[index]), l=float(self.l[index]),
                            c=float(self.c[index])),
            driver=DriverParams(r_s=float(self.r_s[index]),
                                c_p=float(self.c_p[index]),
                                c_0=float(self.c_0[index])),
            h=float(self.h[index]), k=float(self.k[index]))


@dataclass(frozen=True)
class MomentsBatch:
    """Padé moments b1, b2 and sizing partials for N lanes."""

    b1: np.ndarray
    b2: np.ndarray
    db1_dh: np.ndarray
    db1_dk: np.ndarray
    db2_dh: np.ndarray
    db2_dk: np.ndarray

    @property
    def discriminant(self) -> np.ndarray:
        """b1^2 - 4 b2 per lane: sign selects over- vs under-damped."""
        return self.b1 * self.b1 - 4.0 * self.b2

    def __len__(self) -> int:
        return int(self.b1.size)

    def moments(self, index: int) -> Moments:
        """Materialize lane ``index`` back into a scalar :class:`Moments`."""
        return Moments(
            b1=float(self.b1[index]), b2=float(self.b2[index]),
            db1_dh=float(self.db1_dh[index]),
            db1_dk=float(self.db1_dk[index]),
            db2_dh=float(self.db2_dh[index]),
            db2_dk=float(self.db2_dk[index]))


def compute_moments_v(stages: StageBatch) -> MomentsBatch:
    """Batched Padé moments — the array form of ``compute_moments``.

    Shares :func:`repro.core.moments.moments_terms` with the scalar path,
    so lane ``i`` is bitwise identical to
    ``compute_moments(stages.stage(i))``.  The helper is resolved through
    the moments module at call time so a (test-injected) perturbation of
    the formula reaches the batched path too.
    """
    b1, b2, db1_dh, db1_dk, db2_dh, db2_dk = _moments_mod.moments_terms(
        stages.r, stages.l, stages.c, stages.r_s, stages.c_p, stages.c_0,
        stages.h, stages.k)
    return MomentsBatch(b1=b1, b2=b2, db1_dh=db1_dh, db1_dk=db1_dk,
                        db2_dh=db2_dh, db2_dk=db2_dk)


# ----------------------------------------------------------------------
# Damping classification and poles.
# ----------------------------------------------------------------------
def classify_damping_v(b1, b2, *, rtol: float = CRITICAL_RTOL) -> np.ndarray:
    """Vectorized damping classification; returns int8 codes.

    Mirrors :func:`repro.core.poles.classify_damping`: the discriminant
    is compared against ``rtol * b1**2`` so the classification is scale
    invariant, and the critical band takes precedence over the sign.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    disc = b1 * b1 - 4.0 * b2
    codes = np.where(disc > 0.0, DAMPING_OVERDAMPED, DAMPING_UNDERDAMPED)
    codes = np.where(np.abs(disc) <= rtol * b1 * b1, DAMPING_CRITICAL,
                     codes)
    return codes.astype(np.int8)


@dataclass(frozen=True)
class PoleBatch:
    """Pole pairs of N two-pole systems.

    ``s1`` carries the ``+sqrt`` branch and ``s2`` the ``-sqrt`` branch,
    as in :class:`~repro.core.poles.PolePair`.  ``damping`` holds the
    moments-based classification codes (see :data:`DAMPING_BY_CODE`).
    """

    s1: np.ndarray
    s2: np.ndarray
    damping: np.ndarray

    def __len__(self) -> int:
        return int(self.s1.size)


def poles_v(moments: MomentsBatch, *,
            critical_rtol: float = CRITICAL_RTOL) -> PoleBatch:
    """Batched pole pairs with vectorized damping classification.

    Raises :class:`~repro.errors.ParameterError` naming the first lane
    whose moments are outside the two-pole model's domain (b1, b2 > 0).
    """
    b1 = np.asarray(moments.b1, dtype=float)
    b2 = np.asarray(moments.b2, dtype=float)
    for name, arr in (("b2", b2), ("b1", b1)):
        bad = arr <= 0.0
        if np.any(bad):
            lane = int(np.nonzero(bad)[0][0])
            raise ParameterError(
                f"two-pole model requires {name} > 0, got {arr[lane]} "
                f"(batch lane {lane})")
    disc = b1 * b1 - 4.0 * b2
    # The discriminant is exactly real, so take the (correctly rounded)
    # real sqrt of |disc| and place it on the real or imaginary axis —
    # bitwise identical to cmath.sqrt on the scalar path, which
    # np.sqrt(complex) is not guaranteed to be.  Likewise divide by
    # 2 b2 per component: complex-by-real division in numpy can differ
    # from CPython's in the last ulp.
    sqrt_abs = np.sqrt(np.abs(disc))
    overdamped = disc >= 0.0
    sqrt_re = np.where(overdamped, sqrt_abs, 0.0)
    sqrt_im = np.where(overdamped, 0.0, sqrt_abs)
    two_b2 = 2.0 * b2
    s1 = (-b1 + sqrt_re) / two_b2 + 1j * (sqrt_im / two_b2)
    s2 = (-b1 - sqrt_re) / two_b2 + 1j * (-sqrt_im / two_b2)
    return PoleBatch(s1=s1, s2=s2,
                     damping=classify_damping_v(b1, b2, rtol=critical_rtol))


# ----------------------------------------------------------------------
# Step-response evaluation.
# ----------------------------------------------------------------------
def two_pole_values(s1, s2, t):
    """Unit-step response v(t) of two-pole systems, elementwise.

    ``s1``/``s2`` and ``t`` broadcast against each other, so the same
    kernel serves a scalar :class:`~repro.core.response.StepResponse`
    (0-d poles, any-shape t) and a batch ((n, 1) poles against a shared
    (T,) grid or per-lane (n, T)/(n,) times).  Coincident pole pairs use
    the degenerate critically-damped form.
    """
    s1 = np.asarray(s1, dtype=complex)
    s2 = np.asarray(s2, dtype=complex)
    t = np.asarray(t, dtype=float)
    coincident = np.abs(s1 - s2) <= COINCIDENT_RTOL * np.abs(s1)
    if not np.any(coincident):
        denom = s2 - s1
        v = (1.0
             - (s2 / denom) * np.exp(s1 * t)
             + (s1 / denom) * np.exp(s2 * t))
        return np.real(v)
    denom = np.where(coincident, 1.0, s2 - s1)
    v = (1.0
         - (s2 / denom) * np.exp(s1 * t)
         + (s1 / denom) * np.exp(s2 * t))
    p = 0.5 * (s1 + s2)
    vc = 1.0 - (1.0 - p * t) * np.exp(p * t)
    return np.real(np.where(coincident, vc, v))


def two_pole_derivative(s1, s2, t):
    """dv/dt of two-pole step responses, elementwise (see
    :func:`two_pole_values` for the broadcasting contract)."""
    s1 = np.asarray(s1, dtype=complex)
    s2 = np.asarray(s2, dtype=complex)
    t = np.asarray(t, dtype=float)
    coincident = np.abs(s1 - s2) <= COINCIDENT_RTOL * np.abs(s1)
    if not np.any(coincident):
        denom = s2 - s1
        s1s2 = s1 * s2
        dv = (s1s2 / denom) * (np.exp(s2 * t) - np.exp(s1 * t))
        return np.real(dv)
    denom = np.where(coincident, 1.0, s2 - s1)
    s1s2 = s1 * s2
    dv = (s1s2 / denom) * (np.exp(s2 * t) - np.exp(s1 * t))
    p = 0.5 * (s1 + s2)
    dvc = (p * p) * t * np.exp(p * t)
    return np.real(np.where(coincident, dvc, dv))


@dataclass(frozen=True)
class ResponseBatch:
    """Normalized step responses of N two-pole systems.

    ``damping`` is the pole-derived classification (the moments are
    reconstructed from s1, s2 exactly as
    :attr:`repro.core.response.StepResponse.damping` does), so a batch
    lane reports the same regime as the scalar response it mirrors.
    """

    s1: np.ndarray
    s2: np.ndarray
    damping: np.ndarray

    @classmethod
    def from_s1s2(cls, s1, s2) -> "ResponseBatch":
        s1 = np.atleast_1d(np.asarray(s1, dtype=complex))
        s2 = np.atleast_1d(np.asarray(s2, dtype=complex))
        b2 = (1.0 / (s1 * s2)).real
        b1 = (-(s1 + s2) * b2).real
        return cls(s1=s1, s2=s2, damping=classify_damping_v(b1, b2))

    @classmethod
    def from_poles(cls, poles: PoleBatch) -> "ResponseBatch":
        return cls.from_s1s2(poles.s1, poles.s2)

    @classmethod
    def from_moments(cls, moments: MomentsBatch) -> "ResponseBatch":
        return cls.from_poles(poles_v(moments))

    @classmethod
    def from_stages(cls, stages: StageBatch) -> "ResponseBatch":
        return cls.from_moments(compute_moments_v(stages))

    @classmethod
    def from_responses(cls, responses: Sequence[Any]) -> "ResponseBatch":
        """Pack objects exposing ``s1``/``s2`` (e.g. StepResponse)."""
        return cls.from_s1s2([r.s1 for r in responses],
                             [r.s2 for r in responses])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.s1.size)

    def values(self, t_grid) -> np.ndarray:
        """v(t) on a shared (T,) grid or per-lane (n, T) grids -> (n, T)."""
        t = np.asarray(t_grid, dtype=float)
        return two_pole_values(self.s1[:, None], self.s2[:, None], t)

    def values_at(self, t) -> np.ndarray:
        """v(t_i) at one time per lane, (n,) -> (n,)."""
        return two_pole_values(self.s1, self.s2, np.asarray(t, dtype=float))

    def derivative_at(self, t) -> np.ndarray:
        """dv/dt at one time per lane, (n,) -> (n,)."""
        return two_pole_derivative(self.s1, self.s2,
                                   np.asarray(t, dtype=float))


def as_response_batch(source) -> ResponseBatch:
    """Coerce any batched (or sequence-of-scalar) source to responses.

    Accepts :class:`ResponseBatch`, :class:`PoleBatch`,
    :class:`MomentsBatch`, :class:`StageBatch`, or a sequence of
    :class:`Stage` / :class:`Moments` / response-like (``s1``/``s2``)
    objects.
    """
    if isinstance(source, ResponseBatch):
        return source
    if isinstance(source, PoleBatch):
        return ResponseBatch.from_poles(source)
    if isinstance(source, MomentsBatch):
        return ResponseBatch.from_moments(source)
    if isinstance(source, StageBatch):
        return ResponseBatch.from_stages(source)
    if isinstance(source, (list, tuple)):
        if not source:
            raise ParameterError("batch source must be non-empty")
        first = source[0]
        if isinstance(first, Stage):
            return ResponseBatch.from_stages(StageBatch.from_stages(source))
        if isinstance(first, Moments):
            return ResponseBatch.from_moments(MomentsBatch(
                b1=np.array([m.b1 for m in source], dtype=float),
                b2=np.array([m.b2 for m in source], dtype=float),
                db1_dh=np.array([m.db1_dh for m in source], dtype=float),
                db1_dk=np.array([m.db1_dk for m in source], dtype=float),
                db2_dh=np.array([m.db2_dh for m in source], dtype=float),
                db2_dk=np.array([m.db2_dk for m in source], dtype=float)))
        if hasattr(first, "s1") and hasattr(first, "s2"):
            return ResponseBatch.from_responses(source)
    raise TypeError(
        "expected StageBatch, MomentsBatch, PoleBatch, ResponseBatch or a "
        f"sequence of Stage/Moments/StepResponse, got "
        f"{type(source).__name__}")


def response_v(source, t_grid) -> np.ndarray:
    """Evaluate all lanes of ``source`` on ``t_grid`` -> (n, T) array."""
    return as_response_batch(source).values(t_grid)


# ----------------------------------------------------------------------
# Batched first-crossing threshold delay.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DelayBatchResult:
    """Outcome of a batched threshold-delay solve.

    Attributes
    ----------
    tau:
        First time each lane's response reaches its threshold (s).
    threshold:
        Per-lane threshold fractions that were solved for.
    damping:
        Pole-derived damping codes (see :data:`DAMPING_BY_CODE`).
    newton_iterations:
        Accepted Newton steps of the masked hybrid per lane (bisection
        fallbacks are not counted, matching the paper's iteration
        metric).
    bracket_lo, bracket_hi:
        The first-crossing bracket each refined root lies in (0 for
        f = 0 lanes).  The scalar shim uses these to guard its optional
        Newton polish, exactly as the legacy Brent path did.
    """

    tau: np.ndarray
    threshold: np.ndarray
    damping: np.ndarray
    newton_iterations: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray

    def __len__(self) -> int:
        return int(self.tau.size)

    def damping_values(self) -> List[Damping]:
        """Per-lane :class:`~repro.core.poles.Damping` members."""
        return [DAMPING_BY_CODE[int(code)] for code in self.damping]


def _bracket_first_crossing_v(resp: ResponseBatch, lanes: np.ndarray,
                              f: np.ndarray
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized first-crossing bracketing on per-lane scaled grids.

    Mirrors the legacy scalar hunt exactly — per-lane step
    ``fast / GRID_PER_TIMESCALE``, 512-sample chunks, step doubling far
    past the slow time scale — but advances every active lane per round,
    so lane ``i`` samples the identical grid the scalar path would.  A
    round evaluates its chunk in sub-blocks (:data:`BRACKET_SUBBLOCK`
    samples, then the rest) and a lane stops at the sub-block holding
    its first crossing; every sample is the same ``t_start + dt * step``
    either way, so the brackets do not depend on the split.
    Returns ``(t_lo, t_hi)`` aligned with ``lanes``.
    """
    s1 = resp.s1[lanes]
    s2 = resp.s2[lanes]
    omega_n = np.sqrt(np.abs(s1 * s2))
    fast = 1.0 / omega_n
    decay = np.minimum(np.abs(s1.real), np.abs(s2.real))
    slow = 1.0 / decay
    dt = fast / GRID_PER_TIMESCALE
    horizon = MAX_HORIZON_FACTOR * np.maximum(fast, slow)

    m = lanes.size
    t_lo = np.zeros(m)
    t_hi = np.zeros(m)
    t_start = np.zeros(m)
    t_last = np.zeros(m)    # the last time sampled, per lane
    v_last = np.zeros(m)
    fb = f[lanes]
    steps = np.arange(1, BRACKET_CHUNK + 1, dtype=float)
    subblocks = (steps[:BRACKET_SUBBLOCK], steps[BRACKET_SUBBLOCK:])
    active = np.arange(m)
    while active.size:
        adv = active
        for block in subblocks:
            t = t_start[adv][:, None] + dt[adv][:, None] * block
            v = two_pole_values(s1[adv][:, None], s2[adv][:, None], t)
            above = v >= fb[adv][:, None]
            hit = above.any(axis=1)
            if hit.any():
                rows = np.nonzero(hit)[0]
                cols = above[rows].argmax(axis=1)
                found = adv[rows]
                t_hi[found] = t[rows, cols]
                t_lo[found] = np.where(cols > 0,
                                       t[rows, np.maximum(cols - 1, 0)],
                                       t_last[found])
            miss = np.nonzero(~hit)[0]
            adv = adv[miss]
            t_last[adv] = t[miss, -1]
            v_last[adv] = v[miss, -1]
            if not adv.size:
                break
        t_start[adv] = t_last[adv]
        # Far beyond the slow time scale the response is monotone within
        # (1 - f); stretch the step to reach the asymptote faster.
        dt[adv] = np.where(t_start[adv] > 10.0 * slow[adv],
                           dt[adv] * 2.0, dt[adv])
        alive = t_start[adv] < horizon[adv]
        if not alive.all():
            dead = adv[~alive]
            first = int(dead[0])
            error = DelaySolverError(
                f"step response never reached its threshold in "
                f"{dead.size} of {m} batch lanes (first: lane "
                f"{int(lanes[first])}, f = {fb[first]:g}, "
                f"t < {horizon[first]:.3e}s, final sampled value "
                f"{v_last[first]:.6f})")
            error.lanes = [int(lanes[i]) for i in dead]
            raise error
        active = adv[alive]
    return t_lo, t_hi


def _refine_first_crossing_v(resp: ResponseBatch, lanes: np.ndarray,
                             f: np.ndarray, t_lo: np.ndarray,
                             t_hi: np.ndarray, rtol: float,
                             max_iterations: int = 120
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Masked Newton/bisection hybrid inside the first-crossing brackets.

    Each lane keeps the invariant ``v(lo) < f <= v(hi)``; a Newton step
    is accepted only when it lands strictly inside the lane's current
    bracket, otherwise the lane bisects.  Lanes freeze as soon as their
    step satisfies the relative tolerance (or the bracket collapses to
    the Brent-style ``xtol``), so converged lanes cost nothing while
    stragglers finish.  Returns ``(tau, accepted_newton_steps)`` aligned
    with ``lanes``.
    """
    s1 = resp.s1[lanes]
    s2 = resp.s2[lanes]
    fb = f[lanes]
    lo = t_lo.copy()
    hi = t_hi.copy()
    m = lanes.size
    tau = np.empty(m)
    iterations = np.zeros(m, dtype=np.int64)

    v_lo = two_pole_values(s1, s2, lo)
    v_hi = two_pole_values(s1, s2, hi)
    # Crossing exactly at the lower grid point (legacy Brent-path quirk).
    at_lo = v_lo >= fb
    tau[at_lo] = lo[at_lo]

    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo + (fb - v_lo) * (hi - lo) / (v_hi - v_lo)
    inside = np.isfinite(secant) & (secant > lo) & (secant < hi)
    start = np.where(inside, secant, 0.5 * (lo + hi))
    active = np.nonzero(~at_lo)[0]
    tau[active] = start[active]

    xtol = np.maximum(rtol, 4.0 * np.finfo(float).eps) \
        * np.maximum(hi, 1e-30)
    for _ in range(max_iterations):
        if active.size == 0:
            break
        a = active
        ta = tau[a]
        va = two_pole_values(s1[a], s2[a], ta)
        residual = va - fb[a]
        reached = residual >= 0.0
        hi[a] = np.where(reached, ta, hi[a])
        lo[a] = np.where(reached, lo[a], ta)
        slope = two_pole_derivative(s1[a], s2[a], ta)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ta - residual / slope
        take = np.isfinite(newton) & (newton > lo[a]) & (newton < hi[a])
        nxt = np.where(take, newton, 0.5 * (lo[a] + hi[a]))
        exact = residual == 0.0
        nxt = np.where(exact, ta, nxt)
        iterations[a] += (take & ~exact).astype(np.int64)
        done = exact | (np.abs(nxt - ta) <= rtol * np.abs(nxt)) \
            | ((hi[a] - lo[a]) <= xtol[a])
        tau[a] = nxt
        active = a[~done]
    else:
        if active.size:
            error = DelaySolverError(
                f"batched delay refinement did not converge in "
                f"{max_iterations} iterations for {active.size} lanes "
                f"(first: lane {int(lanes[active[0]])})",
                iterations=max_iterations)
            error.lanes = [int(lanes[i]) for i in active]
            raise error
    return tau, iterations


def threshold_delay_v(source, f=0.5, *, rtol: float = 1e-12
                      ) -> DelayBatchResult:
    """Batched f*100% first-crossing delay of N two-pole responses.

    Parameters
    ----------
    source:
        Anything :func:`as_response_batch` accepts — a
        :class:`StageBatch`, :class:`MomentsBatch`, :class:`PoleBatch`,
        :class:`ResponseBatch` or a sequence of scalar stage/moments/
        response objects.
    f:
        Threshold fraction(s) in [0, 1) — a scalar applied to every
        lane, or one value per lane.
    rtol:
        Relative tolerance on each lane's tau.

    Returns
    -------
    DelayBatchResult
        Per-lane first-crossing times, damping codes, accepted-Newton
        iteration counts and the brackets the roots were refined in.
        Lane values are independent of batch size and order.
    """
    resp = as_response_batch(source)
    n = len(resp)
    f_arr = np.asarray(f, dtype=float)
    if f_arr.ndim == 0:
        f_arr = np.full(n, float(f_arr))
    if f_arr.shape != (n,):
        raise ParameterError(
            f"threshold array shape {f_arr.shape} does not match batch "
            f"size {n}")
    bad = ~((f_arr >= 0.0) & (f_arr < 1.0))    # NaN lanes are bad too
    if np.any(bad):
        lane = int(np.nonzero(bad)[0][0])
        raise ParameterError(
            f"threshold fraction must be in [0, 1), got {f_arr[lane]} "
            f"(batch lane {lane})")

    tau = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    bracket_lo = np.zeros(n)
    bracket_hi = np.zeros(n)
    lanes = np.nonzero(f_arr > 0.0)[0]
    if lanes.size:
        t_lo, t_hi = _bracket_first_crossing_v(resp, lanes, f_arr)
        tau_l, iter_l = _refine_first_crossing_v(resp, lanes, f_arr,
                                                 t_lo, t_hi, rtol)
        tau[lanes] = tau_l
        iterations[lanes] = iter_l
        bracket_lo[lanes] = t_lo
        bracket_hi[lanes] = t_hi
    if _faults.ACTIVE is not None:
        # Named fault site: one lane's solve silently produced NaN (the
        # shape a masked-solver regression would take).  Consumers must
        # fail that lane alone, never serialize the NaN.
        tau = _faults.nan_lanes("kernels.threshold_delay.nan_lane", tau)
    return DelayBatchResult(tau=tau, threshold=f_arr, damping=resp.damping,
                            newton_iterations=iterations,
                            bracket_lo=bracket_lo, bracket_hi=bracket_hi)


# ----------------------------------------------------------------------
# Critical inductance (Eq. 4), batched.
# ----------------------------------------------------------------------
def critical_inductance_terms(r, c, r_series, c_parasitic, c_load, h):
    """Eq. 4's l_crit from lumped element values; elementwise-polymorphic.

    Works identically on plain floats (the scalar
    :func:`repro.core.critical.critical_inductance` path) and on
    parallel arrays (:func:`critical_inductance_v`), so the two paths
    cannot drift apart.
    """
    rc = r * c
    h2 = h * h
    b1 = (r_series * (c_parasitic + c_load)
          + 0.5 * rc * h2
          + r_series * c * h
          + c_load * r * h)
    b2_rest = (rc * rc * h2 * h2 / 24.0
               + 0.5 * r_series * (c_parasitic + c_load) * rc * h2
               + (r_series * c * h + c_load * r * h) * rc * h2 / 6.0
               + r_series * c_parasitic * c_load * r * h)
    l_coefficient = 0.5 * c * h2 + c_load * h
    return (0.25 * b1 * b1 - b2_rest) / l_coefficient


def critical_inductance_v(stages: StageBatch) -> np.ndarray:
    """l_crit of every lane (the stages' own ``l`` fields are ignored)."""
    return critical_inductance_terms(
        stages.r, stages.c, stages.r_s / stages.k, stages.c_p * stages.k,
        stages.c_0 * stages.k, stages.h)
