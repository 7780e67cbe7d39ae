"""Measurement and validation utilities.

* :mod:`~repro.analysis.waveform` — crossings, delays, ringing, periods.
* :mod:`~repro.analysis.laplace` — Talbot numerical inverse Laplace
  transform, used to validate the Padé model against the exact H(s).
* :mod:`~repro.analysis.currents` — interconnect current extraction and
  peak/rms current densities (Fig. 12).
* :mod:`~repro.analysis.reliability` — gate-oxide overstress and
  electromigration/Joule-heating screens (Sec. 3.3.2).
* :mod:`~repro.analysis.lint` — the static invariant plane
  (``repro-lint``): stdlib-``ast`` rules enforcing the stack's
  correctness contracts in CI.  Deliberately not re-exported here;
  it is a tool plane, not part of the numerical API.
"""

from .crosstalk import CrosstalkReport, measure_crosstalk
from .currents import CurrentDensityReport, current_density_report
from .laplace import step_response_exact, talbot_inverse
from .power import (PowerConstrainedOptimum, PowerReport,
                    optimize_with_power_cap, power_report,
                    switched_capacitance_per_length)
from .reliability import (EM_PEAK_LIMIT, EM_RMS_LIMIT, OxideStressReport,
                          ReliabilityVerdict, assess_current_density,
                          assess_oxide_stress)
from .variation import VariationResult, delay_variation
from .waveform import Waveform

__all__ = [
    "CrosstalkReport", "measure_crosstalk",
    "CurrentDensityReport", "current_density_report",
    "step_response_exact", "talbot_inverse",
    "PowerConstrainedOptimum", "PowerReport", "optimize_with_power_cap",
    "power_report", "switched_capacitance_per_length",
    "EM_PEAK_LIMIT", "EM_RMS_LIMIT", "OxideStressReport",
    "ReliabilityVerdict", "assess_current_density", "assess_oxide_stress",
    "VariationResult", "delay_variation",
    "Waveform",
]
