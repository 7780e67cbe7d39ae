"""Paper-artifact experiments: one runner per table/figure.

Importing this package registers every experiment:

========  ===========================================================
id        paper artifact
========  ===========================================================
table1    Table 1 — technology parameters and RC optima
fig2      Fig. 2 — second-order step responses
fig4      Fig. 4 — l_crit vs l at the RLC optimum
fig5      Fig. 5 — h_optRLC / h_optRC vs l
fig6      Fig. 6 — k_optRLC / k_optRC vs l
fig7      Fig. 7 — normalized optimal delay per unit length vs l
fig8      Fig. 8 — penalty of RC sizing vs the RLC optimum
fig9_10   Figs. 9-10 — ring waveforms below/above the failure onset
fig11     Fig. 11 — ring-oscillator period vs l
fig12     Fig. 12 — interconnect current densities vs l
========  ===========================================================

plus extension experiments following up the paper's unquantified remarks:
``ext_crosstalk`` (RC vs RLC coupled noise), ``ext_bus`` (capacitive vs
inductive Miller inversion), ``ext_miller`` (optimum vs neighbour
activity), ``ext_skin`` (r(f)), ``ext_power`` (power-capped insertion),
``ext_sensitivity`` (delay elasticities), ``ext_robust`` (minimax sizing),
``ext_refit`` (the Ismail-Friedman form refitted per node).

Use :func:`repro.experiments.run_experiment` or the ``repro-experiments``
CLI (:mod:`repro.experiments.runner`).
"""

from . import (ext_bus, ext_robust, extensions, fig2, fig4, fig5, fig6, fig7, fig8,
               fig9_10, fig11, fig12, table1)
from .base import (DESCRIPTIONS, REGISTRY, ExperimentResult,
                   all_experiment_ids, experiment, run_experiment)
from .export import result_to_csv, write_csv

__all__ = [
    "DESCRIPTIONS", "REGISTRY", "ExperimentResult", "all_experiment_ids",
    "experiment", "run_experiment", "result_to_csv", "write_csv",
    "table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9_10",
    "fig11", "fig12", "extensions", "ext_bus", "ext_robust",
]
