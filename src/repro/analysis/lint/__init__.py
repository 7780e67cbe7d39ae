"""repro.analysis.lint — the static invariant plane (``repro-lint``).

The third correctness plane of the stack, alongside ``repro-verify``
(numerical oracles) and ``repro-faults`` (dynamic fault injection):
a stdlib-``ast`` rule engine that enforces the contracts the runtime
planes can only check after the fact —

* **RPR001** event-loop purity in ``repro.serve`` (no blocking I/O in
  async bodies outside the ``Backend.run_io_async`` seam),
* **RPR002** fault-site registry consistency (hooks vs FAULT_POINTS),
* **RPR004** strict JSON (``allow_nan=False``) on engine/serve payload
  paths,
* **RPR005** tolerance-ledger discipline in tests/benchmarks,
* **RPR006** lock discipline in store/batcher/metrics modules,
* **RPR007** no silently swallowed broad exceptions,

plus suppression hygiene (RPR900/RPR901): every inline
``# repro: ignore[RPRxxx] -- why`` must carry a justification and must
still be needed, or it fails the run itself.

RPR003 is retired and its id is not reused: the result store salts its
keys with a digest of the package source, so there is no salt contract
left to lint.
"""

from .baseline import apply_baseline, load_baseline, save_baseline
from .engine import LintEngine, LintProject, LintReport
from .findings import Finding, Severity, Suppression
from .resolver import ModuleContext, parse_suppressions
from .rules import ALL_RULES, META_RULES, BaseRule, Rule, rule_by_id

__all__ = [
    "ALL_RULES", "META_RULES", "BaseRule", "Rule", "rule_by_id",
    "Finding", "Severity", "Suppression",
    "LintEngine", "LintProject", "LintReport",
    "ModuleContext", "parse_suppressions",
    "apply_baseline", "load_baseline", "save_baseline",
]
