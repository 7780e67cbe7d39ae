"""Experiment framework: results container, registry and formatting.

Every table/figure of the paper is an *experiment*: a named callable
returning an :class:`ExperimentResult` whose rows reproduce the series the
paper plots.  The registry powers the ``repro-experiments`` CLI and the
benchmark suite; EXPERIMENTS.md records paper-vs-measured for each entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """Reproduction output for one paper artifact.

    Attributes
    ----------
    experiment_id:
        Short id matching the paper artifact ('table1', 'fig7', ...).
    title:
        What the artifact shows.
    headers:
        Column names of the tabulated series.
    rows:
        Data rows (one per sweep point / configuration).  An undefined
        cell is ``None`` (JSON ``null``), never NaN: the engine rejects
        non-finite payloads.
    notes:
        Free-form commentary: paper's qualitative claims and whether the
        measured series matches them.
    data:
        Raw arrays for programmatic consumers (benchmarks, plots).
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    notes: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)

    def format_table(self, *, float_format: str = "{:.4g}") -> str:
        """Render the rows as a fixed-width text table; ``None`` is "—"."""
        def fmt(cell: Any) -> str:
            if cell is None:
                return "—"
            if isinstance(cell, float):
                return float_format.format(cell)
            return str(cell)

        str_rows = [[fmt(c) for c in row] for row in self.rows]
        widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
                  else len(h) for i, h in enumerate(self.headers)]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in str_rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def format_report(self) -> str:
        """Full report: header, table and notes."""
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 self.format_table()]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form for the batch engine's result cache.

        Numpy arrays/scalars in ``rows`` and ``data`` become plain lists
        and floats; ``data`` entries holding rich library objects (e.g. a
        whole :class:`~repro.core.sweep.InductanceSweep`) are omitted and
        listed under ``data_omitted``.  :meth:`from_payload` therefore
        returns an equivalent *report* (identical tables and notes), not
        an identical object.
        """
        from ..engine.jobs import jsonify

        data: Dict[str, Any] = {}
        omitted = []
        for key, value in self.data.items():
            try:
                data[key] = jsonify(value)
            except TypeError:
                omitted.append(key)
        return {"experiment_id": self.experiment_id, "title": self.title,
                "headers": list(self.headers),
                "rows": jsonify(self.rows),
                "notes": list(self.notes),
                "data": data, "data_omitted": omitted}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_payload` output."""
        return cls(experiment_id=payload["experiment_id"],
                   title=payload["title"],
                   headers=list(payload["headers"]),
                   rows=[list(row) for row in payload["rows"]],
                   notes=list(payload.get("notes", [])),
                   data=dict(payload.get("data", {})))


#: Global registry: experiment id -> runner callable.
REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}

#: One-line description per registered experiment.
DESCRIPTIONS: Dict[str, str] = {}


def experiment(experiment_id: str, description: str):
    """Decorator registering an experiment runner under ``experiment_id``."""

    def register(func: Callable[..., ExperimentResult]):
        if experiment_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = func
        DESCRIPTIONS[experiment_id] = description
        return func

    return register


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id."""
    try:
        runner = REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None
    return runner(**kwargs)


def all_experiment_ids() -> List[str]:
    """All registered ids in registration order."""
    return list(REGISTRY)
