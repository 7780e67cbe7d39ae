"""Order statistics and the regression rule of the benchmark.

Percentiles of latency samples are nearest-rank, the rule the program
itself uses (``repro.engine.metrics.latency_percentiles``), so a
benchmark p99 and a ``/metrics`` p99 mean the same thing.  Quartiles of
run-to-run values use :func:`statistics.quantiles` with ``n=4``, the
definition every spread in this benchmark is judged by.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A tail percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(len(ordered) - 1,
               max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def p99_or_max(values: Sequence[float]) -> float:
    """p99 when at least :data:`TAIL_SAMPLES_BEYOND` samples lie beyond
    it (1,000 or more samples), otherwise the slowest sample."""
    if len(values) * 0.01 >= TAIL_SAMPLES_BEYOND:
        return percentile(values, 99.0)
    return max(values)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    """median/q1/q3/n of one metric's run values."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def is_better(new: float, base: float, better: str) -> bool:
    return new < base if better == "lower" else new > base


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: Optional[float],
            pairs: Optional[List[tuple]] = None) -> Dict[str, object]:
    """Judge one metric on one workload, base runs against new runs.

    * ``regression`` — the new median is worse than the base median by
      more than ``bound``;
    * ``unresolved`` — either side's own spread exceeds ``bound``, so
      the medians cannot be told apart at that bound (unless every new
      run is better than every base run, which reads ``better``);
    * ``gain`` — at least nine tenths of the seed-paired runs improved
      and the medians differ by more than the base runs' own
      interquartile distance;
    * ``ok`` — none of the above.

    ``bound`` is ``None`` for per-layer metrics, which are reported, not
    judged.
    """
    b, n = summary(base), summary(new)
    result: Dict[str, object] = {
        "base": b, "new": n,
        "change": -worsening(b["median"], n["median"], better),
    }
    wins = losses = 0
    for base_value, new_value in pairs or []:
        if is_better(new_value, base_value, better):
            wins += 1
        elif is_better(base_value, new_value, better):
            losses += 1
    result["wins"], result["losses"] = wins, losses
    result["pairs"] = len(pairs or [])
    if bound is None:
        result["verdict"] = "reported"
        return result
    noisy = max(spread(base), spread(new)) > bound
    if noisy:
        every = all(is_better(x, y, better) for x in new for y in base)
        result["verdict"] = "better" if every else "unresolved"
    elif worsening(b["median"], n["median"], better) > bound:
        result["verdict"] = "regression"
    elif (pairs and wins >= 0.9 * len(pairs)
          and abs(n["median"] - b["median"]) > b["q3"] - b["q1"]
          and is_better(n["median"], b["median"], better)):
        result["verdict"] = "gain"
    else:
        result["verdict"] = "ok"
    return result
