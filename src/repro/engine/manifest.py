"""Manifest parsing: JSON/CSV configuration lists → job specs.

A manifest describes a batch as data.  JSON manifests are either a bare
list of entries or ``{"defaults": {...}, "jobs": [...]}``; CSV manifests
are one entry per row with a header line.  Each entry names a job
``kind`` plus its parameters, with two ways to specify the electrical
configuration:

* ``"node": "100nm"`` — a Table 1 technology node by name, optionally
  with ``"l_nh_per_mm"`` overriding the line inductance (paper units);
* explicit ``"line": {"r", "l", "c"}`` / ``"driver": {"r_s", "c_p",
  "c_0"}`` dictionaries in SI units.

Example JSON entry::

    {"kind": "optimize", "node": "100nm", "l_nh_per_mm": 1.5, "f": 0.5}

Example CSV (same batch)::

    kind,node,l_nh_per_mm,f
    optimize,100nm,1.5,0.5
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .. import units
from ..core.optimize import OptimizerMethod
from ..core.params import DriverParams, LineParams
from ..tech.node import get_node
from .jobs import (DelayJob, ExperimentJob, OptimizeJob, SweepJob,
                   TransientJob, driver_from_dict, flag_of, line_from_dict,
                   nonfinite_path)


class ManifestError(ValueError):
    """A manifest file or entry could not be interpreted."""


def _resolve_line_driver(entry: Dict[str, Any]
                         ) -> "tuple[LineParams, DriverParams]":
    """Electrical configuration of an entry: named node or explicit dicts."""
    node_name = entry.get("node")
    if node_name is not None:
        try:
            node = get_node(str(node_name))
        except KeyError as exc:
            raise ManifestError(f"unknown technology node {node_name!r}") \
                from exc
        line, driver = node.line, node.driver
    else:
        try:
            line = line_from_dict(entry["line"])
            driver = driver_from_dict(entry["driver"])
        except KeyError as exc:
            raise ManifestError(
                "entry needs either 'node' or explicit 'line' and "
                f"'driver' parameters: {entry!r}") from exc
    if "l_nh_per_mm" in entry:
        line = line.with_inductance(
            float(entry["l_nh_per_mm"]) * units.NH_PER_MM)
    elif "l" in entry and node_name is not None:
        line = line.with_inductance(float(entry["l"]))
    return line, driver


def _method_of(entry: Dict[str, Any]) -> OptimizerMethod:
    try:
        return OptimizerMethod(str(entry.get("method", "auto")).lower())
    except ValueError as exc:
        raise ManifestError(f"unknown optimizer method "
                            f"{entry.get('method')!r}") from exc


def job_from_entry(entry: Dict[str, Any]) -> Any:
    """Build one job spec from a manifest entry dictionary."""
    kind = str(entry.get("kind", entry.get("type", ""))).lower()
    if kind == "optimize":
        line, driver = _resolve_line_driver(entry)
        initial = entry.get("initial")
        return OptimizeJob(line=line, driver=driver,
                           f=float(entry.get("f", 0.5)),
                           method=_method_of(entry),
                           initial=(tuple(float(x) for x in initial)
                                    if initial else None),
                           tol=float(entry.get("tol", 1e-9)),
                           max_iterations=int(
                               entry.get("max_iterations", 200)),
                           retry_reseed=flag_of(entry, "retry_reseed",
                                                True))
    if kind == "delay":
        line, driver = _resolve_line_driver(entry)
        try:
            h = (float(entry["h_mm"]) * units.MM if "h_mm" in entry
                 else float(entry["h"]))
            k = float(entry["k"])
        except KeyError as exc:
            raise ManifestError(
                f"delay entry needs 'h' (or 'h_mm') and 'k': {entry!r}") \
                from exc
        return DelayJob(line=line, driver=driver, h=h, k=k,
                        f=float(entry.get("f", 0.5)),
                        polish_with_newton=flag_of(
                            entry, "polish_with_newton", False))
    if kind == "sweep":
        line, driver = _resolve_line_driver(entry)
        if "l_values_nh_per_mm" in entry:
            l_values = tuple(float(x) * units.NH_PER_MM
                             for x in entry["l_values_nh_per_mm"])
        elif "l_values" in entry:
            l_values = tuple(float(x) for x in entry["l_values"])
        else:
            raise ManifestError(
                f"sweep entry needs 'l_values' (H/m) or "
                f"'l_values_nh_per_mm': {entry!r}")
        return SweepJob(line_zero_l=line.with_inductance(0.0),
                        driver=driver, l_values=l_values,
                        f=float(entry.get("f", 0.5)),
                        method=_method_of(entry))
    if kind == "transient":
        if "node" not in entry:
            raise ManifestError(
                f"transient entry needs a technology 'node': {entry!r}")
        return TransientJob(
            node_name=str(entry["node"]),
            l_nh_per_mm=float(entry.get("l_nh_per_mm", 0.0)),
            n_stages=int(entry.get("n_stages", 5)),
            segments=int(entry.get("segments", 10)),
            style=str(entry.get("style", "mosfet")),
            probe_stage=int(entry.get("probe_stage", 2)),
            period_budget=float(entry.get("period_budget", 14.0)),
            steps_per_period=int(entry.get("steps_per_period", 700)))
    if kind == "experiment":
        experiment_id = entry.get("experiment_id", entry.get("id"))
        if not experiment_id:
            raise ManifestError(
                f"experiment entry needs 'experiment_id': {entry!r}")
        options = entry.get("options", {})
        if not isinstance(options, dict):
            raise ManifestError(
                f"experiment 'options' must be a mapping: {entry!r}")
        return ExperimentJob.create(str(experiment_id), **options)
    raise ManifestError(
        f"entry needs a valid 'kind' (delay, optimize, sweep, transient, "
        f"experiment), got {entry!r}")


def jobs_from_entries(entries: List[Dict[str, Any]],
                      defaults: Optional[Dict[str, Any]] = None
                      ) -> List[Any]:
    """Build jobs from entry dictionaries, applying manifest defaults.

    ``json.loads`` accepts ``NaN``/``Infinity`` tokens and a CSV cell
    ``NaN`` parses to ``nan``; an entry holding one is refused here,
    before any job runs, as serve refuses such a request.  So is an
    entry, or a ``defaults``, that is not an object.
    """
    if defaults is not None and not isinstance(defaults, dict):
        raise ManifestError(
            f"manifest 'defaults' must be an object, got {defaults!r}")
    jobs = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ManifestError(
                f"invalid manifest entry #{position}: expected an object, "
                f"got {entry!r}")
        merged = {**(defaults or {}), **entry}
        nonfinite = nonfinite_path(merged)
        if nonfinite is not None:
            raise ManifestError(
                f"invalid manifest entry #{position}: field "
                f"{nonfinite!r} is not a finite number")
        try:
            jobs.append(job_from_entry(merged))
        except ManifestError:
            raise
        except Exception as exc:
            raise ManifestError(
                f"invalid manifest entry #{position}: {exc}") from exc
    return jobs


def _parse_csv_cell(key: str, text: str) -> Any:
    """Interpret one CSV cell: JSON scalar, ';'-separated list, or string."""
    if ";" in text:
        return [_parse_csv_cell(key, part) for part in text.split(";")]
    try:
        return json.loads(text)
    except ValueError:
        return text


def load_manifest(path: "str | Path") -> List[Any]:
    """Read a JSON (``.json``) or CSV (anything else) manifest into jobs."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc

    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ManifestError(f"manifest {path} is not valid JSON: "
                                f"{exc}") from exc
        if isinstance(data, dict):
            entries = data.get("jobs")
            defaults = data.get("defaults")
            if not isinstance(entries, list):
                raise ManifestError(
                    f"manifest {path} must contain a 'jobs' list")
        elif isinstance(data, list):
            entries, defaults = data, None
        else:
            raise ManifestError(
                f"manifest {path} must be a list or an object with 'jobs'")
        return jobs_from_entries(entries, defaults)

    rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        raise ManifestError(f"manifest {path} has no data rows")
    entries = [{key: _parse_csv_cell(key, value)
                for key, value in row.items()
                if key is not None and value not in (None, "")}
               for row in rows]
    return jobs_from_entries(entries)
