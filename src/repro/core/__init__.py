"""Core analysis and optimization of distributed RLC interconnects.

This package implements the paper's primary contribution:

* :mod:`~repro.core.params` — stage parameter containers,
* :mod:`~repro.core.moments` — second-order Padé moments b1, b2,
* :mod:`~repro.core.poles` — pole pair and sizing derivatives,
* :mod:`~repro.core.response` — two-pole step response and SI metrics,
* :mod:`~repro.core.delay` — threshold-crossing delay solver (Eq. 3),
* :mod:`~repro.core.kernels` — array-first batched kernels: the
  vectorized moments→poles→response→delay pipeline,
* :mod:`~repro.core.critical` — critical inductance l_crit (Eq. 4),
* :mod:`~repro.core.elmore` — RC/Elmore baselines and closed-form optima,
* :mod:`~repro.core.abcd`, :mod:`~repro.core.transfer` — exact H(s) (Eq. 1),
* :mod:`~repro.core.evaluate` — kernel-backed stage evaluation: the
  memoizing :class:`~repro.core.evaluate.StageEvaluator`, batched
  stationarity residuals, and optimizer traces,
* :mod:`~repro.core.optimize` — repeater-insertion optimizer (Eqs. 7-8),
* :mod:`~repro.core.sweep` — inductance sweeps powering Figs. 4-8.
"""

from .critical import critical_inductance, damping_margin
from .delay import (DelayResult, brent_threshold_delay, newton_delay,
                    stage_delay, threshold_delay)
from .kernels import (DAMPING_BY_CODE, DelayBatchResult, MomentsBatch,
                      PoleBatch, ResponseBatch, StageBatch,
                      classify_damping_v, compute_moments_v,
                      critical_inductance_v, poles_v, response_v,
                      threshold_delay_v, two_pole_derivative,
                      two_pole_values)
from .elmore import (RCOptimum, driver_from_rc_optimum, elmore_stage_delay,
                     elmore_total_delay, rc_optimum)
from .evaluate import (OptimizationTrace, ScalarSemantics, StageEvaluator,
                       TraceEvent, TraceStep, delay_per_length_grid,
                       stationarity_residuals_v)
from .wire_sizing import (WireSizingResult, line_from_geometry,
                          optimize_wire_width)
from .moments import Moments, compute_moments, moments_from_lumped
from .optimize import (OptimizerMethod, RepeaterOptimum, optimize_repeater,
                       stage_delay_per_length, stationarity_residuals)
from .params import DriverParams, LineParams, SizedDriver, Stage
from .poles import Damping, PolePair, classify_damping, compute_poles
from .response import StepResponse, canonical_response
from .sensitivity import DelaySensitivities, delay_sensitivities
from .sweep import InductanceSweep, sweep_inductance
from .transfer import (exact_transfer, exact_transfer_via_abcd,
                       pade_transfer, transfer_error_at)

__all__ = [
    "critical_inductance", "damping_margin",
    "DelayResult", "brent_threshold_delay", "newton_delay", "stage_delay",
    "threshold_delay",
    "DAMPING_BY_CODE", "DelayBatchResult", "MomentsBatch", "PoleBatch",
    "ResponseBatch", "StageBatch", "classify_damping_v",
    "compute_moments_v", "critical_inductance_v", "poles_v", "response_v",
    "threshold_delay_v", "two_pole_derivative", "two_pole_values",
    "RCOptimum", "driver_from_rc_optimum", "elmore_stage_delay",
    "elmore_total_delay", "rc_optimum",
    "OptimizationTrace", "ScalarSemantics", "StageEvaluator", "TraceEvent",
    "TraceStep", "delay_per_length_grid", "stationarity_residuals_v",
    "Moments", "compute_moments", "moments_from_lumped",
    "OptimizerMethod", "RepeaterOptimum", "optimize_repeater",
    "stage_delay_per_length", "stationarity_residuals",
    "DriverParams", "LineParams", "SizedDriver", "Stage",
    "Damping", "PolePair", "classify_damping", "compute_poles",
    "StepResponse", "canonical_response",
    "DelaySensitivities", "delay_sensitivities",
    "InductanceSweep", "sweep_inductance",
    "WireSizingResult", "line_from_geometry", "optimize_wire_width",
    "exact_transfer", "exact_transfer_via_abcd", "pade_transfer",
    "transfer_error_at",
]
