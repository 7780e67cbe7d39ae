"""Correctness references of the benchmark's fixed-input workload.

``reference/experiments_fast.json`` is both the definition of the
``experiments_fast`` job list (experiment ids and their ``--fast``
options, frozen here so a later change to the program's own defaults
cannot silently change the workload) and the expected table of every
experiment, compared column by column under the tolerances it records.

Regenerate it — only for a change whose numerical effect is justified —
with::

    python3 perfbench/reference.py

which runs the listed jobs in-process with one BLAS thread and rewrites
the tables (the job list and tolerances are kept).
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def load(name: str) -> Dict[str, Any]:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _cell_matches(got: Any, want: Any, rtol: float) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return got == want or math.isclose(got, want, rel_tol=rtol,
                                           abs_tol=0.0)
    return got == want


def check_experiments(payloads: Dict[str, Dict[str, Any]],
                      reference: Dict[str, Any]) -> List[str]:
    """Failures of each experiment payload against the reference tables
    (column by column), plus the paper claims the reference asserts."""
    failures: List[str] = []
    tolerances = reference["tolerances"]
    for experiment_id, payload in payloads.items():
        table = reference["tables"].get(experiment_id)
        if table is None:
            failures.append(f"{experiment_id}: no reference table")
            continue
        group = ("simulated" if experiment_id in tolerances["simulated"]["ids"]
                 else "analytic")
        rtol = tolerances[group]["rtol"]
        if payload["headers"] != table["headers"]:
            failures.append(f"{experiment_id}: headers {payload['headers']} "
                            f"!= {table['headers']}")
            continue
        if len(payload["rows"]) != len(table["rows"]):
            failures.append(f"{experiment_id}: {len(payload['rows'])} rows, "
                            f"reference has {len(table['rows'])}")
            continue
        for column, header in enumerate(table["headers"]):
            for index, (row, want) in enumerate(zip(payload["rows"],
                                                    table["rows"])):
                if not _cell_matches(row[column], want[column], rtol):
                    failures.append(
                        f"{experiment_id}: column {header!r} row {index}: "
                        f"{row[column]!r} != {want[column]!r} "
                        f"(rtol {rtol:g})")
    fig11 = payloads.get("fig11")
    if fig11 is not None:
        low, high = reference["claims"]["fig11_collapse_onset_nh_per_mm"]
        onset = fig11["data"].get("collapse_onset")
        if onset is None or not low <= onset <= high:
            failures.append(f"fig11: collapse onset {onset} nH/mm outside "
                            f"the paper's [{low}, {high}]")
    return failures


def main() -> int:
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro.experiments  # noqa: F401  (registers every experiment)
    from repro.engine.executor import BatchExecutor
    from repro.engine.jobs import ExperimentJob

    path = REFERENCE_DIR / "experiments_fast.json"
    reference = json.loads(path.read_text())
    jobs = [ExperimentJob.create(experiment_id, **options)
            for experiment_id, options in reference["jobs"]]
    with BatchExecutor(jobs=1) as executor:
        report = executor.run(jobs)
    tables = {}
    for outcome in report:
        if not outcome.ok:
            print(f"{outcome.job.experiment_id} failed: {outcome.error}",
                  file=sys.stderr)
            return 1
        tables[outcome.job.experiment_id] = {
            "headers": outcome.result["headers"],
            "rows": outcome.result["rows"]}
    reference["tables"] = tables
    path.write_text(json.dumps(reference, indent=1, allow_nan=False) + "\n")
    print(f"wrote {len(tables)} reference tables to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
