"""repro — reproduction of Banerjee & Mehrotra, DAC 2001.

"Analysis of On-Chip Inductance Effects using a Novel Performance
Optimization Methodology for Distributed RLC Interconnects."

Public API highlights
---------------------
* :func:`repro.optimize_repeater` — inductance-aware repeater insertion
  (the paper's contribution, Eqs. 7-8).
* :func:`repro.threshold_delay` — f*100% delay of a driver-line-load stage
  from the two-pole model (Eq. 3).
* :func:`repro.rc_optimum` — Elmore-based closed-form baseline.
* :func:`repro.critical_inductance` — l_crit (Eq. 4).
* :data:`repro.NODE_250NM` / :data:`repro.NODE_100NM` — Table 1 technology
  nodes.
* :mod:`repro.circuits` — MNA transient simulator (SPICE substitute) used
  by the ring-oscillator failure studies (Figs. 9-12).
"""

# 1.2.0: optimizer stack on the kernel layer (repro.core.evaluate); the
# OptimizeJob payload gained a "trace" entry, so the bump salts the engine's
# content-addressed cache and keeps pre-trace results from being replayed.
# 1.2.1: canonical_json now serializes with allow_nan=False (strict JSON on
# every payload path); byte-identical for finite payloads, but the salted
# jobs module changed, so the bump re-blesses the salt fingerprint.
# 1.3.0: the transient solver factors the linear MNA block once per step
# size and runs Newton on the nonlinear-terminal block only; ring results
# move in the last digits, so the bump keeps TransientJob and
# ExperimentJob records of the dense solver from being replayed (the salt
# does not fingerprint circuits/*).
__version__ = "1.3.0"

from . import units
from .core import (Damping, DelayBatchResult, DelayResult,
                   DelaySensitivities, DriverParams, InductanceSweep,
                   LineParams, Moments, MomentsBatch, OptimizerMethod,
                   PoleBatch, PolePair, RCOptimum, RCTree, RepeaterOptimum,
                   ResponseBatch, SizedDriver, Stage, StageBatch,
                   StepResponse, canonical_response, classify_damping,
                   classify_damping_v, compute_moments, compute_moments_v,
                   compute_poles, critical_inductance,
                   critical_inductance_v, damping_margin,
                   delay_sensitivities, driver_from_rc_optimum,
                   elmore_stage_delay, elmore_total_delay, exact_transfer,
                   newton_delay, optimize_repeater, pade_transfer, poles_v,
                   rc_optimum, response_v, stage_delay,
                   stage_delay_per_length, sweep_inductance,
                   threshold_delay, threshold_delay_v)
from .core import (OptimizationTrace, StageEvaluator,
                   stationarity_residuals_v)
from .errors import (ConvergenceError, DelaySolverError, ExtractionError,
                     NetlistError, OptimizationError, ParameterError,
                     ReproError, SimulationError)
from .tech.node import (MAX_PRACTICAL_INDUCTANCE, NODE_100NM,
                        NODE_100NM_EPS_250NM, NODE_250NM, NODES,
                        TechnologyNode, WireGeometrySpec, get_node)
from . import engine
from . import verify

__all__ = [
    "__version__", "units", "engine", "verify",
    # core
    "Damping", "DelayResult", "DriverParams", "InductanceSweep", "LineParams",
    "Moments", "OptimizerMethod", "PolePair", "RCOptimum", "RepeaterOptimum",
    "SizedDriver", "Stage", "StepResponse", "canonical_response",
    "classify_damping", "compute_moments", "compute_poles",
    "critical_inductance", "damping_margin", "driver_from_rc_optimum",
    "elmore_stage_delay", "elmore_total_delay", "exact_transfer",
    "newton_delay", "optimize_repeater", "pade_transfer", "rc_optimum",
    "stage_delay", "stage_delay_per_length", "sweep_inductance",
    "threshold_delay", "DelaySensitivities", "delay_sensitivities",
    "RCTree",
    # core kernels (array-first batched pipeline)
    "DelayBatchResult", "MomentsBatch", "PoleBatch", "ResponseBatch",
    "StageBatch", "classify_damping_v", "compute_moments_v",
    "critical_inductance_v", "poles_v", "response_v", "threshold_delay_v",
    # kernel-backed optimizer stack
    "OptimizationTrace", "StageEvaluator", "stationarity_residuals_v",
    # errors
    "ConvergenceError", "DelaySolverError", "ExtractionError", "NetlistError",
    "OptimizationError", "ParameterError", "ReproError", "SimulationError",
    # tech
    "MAX_PRACTICAL_INDUCTANCE", "NODE_100NM", "NODE_100NM_EPS_250NM",
    "NODE_250NM", "NODES", "TechnologyNode", "WireGeometrySpec", "get_node",
]
