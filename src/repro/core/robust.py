"""Robust repeater insertion under inductance uncertainty (minimax).

Sec. 3.2 of the paper observes that the effective l cannot be targeted,
and prices one specific hedge: sizing at the Elmore optimum.  The natural
completion is the *minimax* design — choose (h, k) minimizing the worst
delay per unit length over the whole plausible inductance interval:

    minimize_{h,k}  max_{l in [l_min, l_max]}  tau(h, k, l) / h.

Because tau is monotone increasing in l at fixed (h, k) (b2 is affine and
increasing in l while b1 is l-independent; see the test suite), the inner
maximum is attained at l_max, so the minimax design equals the nominal
optimum at l_max.  What the robust framing adds is the *regret* analysis:
how much that hedge costs when the inductance actually lands lower, and
how it compares to the RC-blind and mid-point sizings.  This module
reports the worst-case delay and regret of each candidate sizing over an
l grid; the minimax row is the one with the lowest worst-case delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import delay_per_length_grid
from .optimize import optimize_repeater
from .params import DriverParams, LineParams


@dataclass(frozen=True)
class RegretRow:
    """Worst-case performance of one candidate sizing over the interval."""

    label: str
    h: float
    k: float
    worst_delay_per_length: float
    worst_regret: float       #: max over l of (candidate / best-at-l) - 1


def regret_analysis(line_zero_l: LineParams, driver: DriverParams, *,
                    l_min: float, l_max: float, f: float = 0.5,
                    grid_points: int = 7) -> list[RegretRow]:
    """Compare sizings: RC-blind, nominal at l_min/mid/l_max (= minimax).

    For each candidate, the *regret* at l is its objective divided by the
    true optimum at that l; the worst regret over the interval is the
    price of committing to that sizing under uncertainty.
    """
    from .elmore import rc_optimum

    grid = np.linspace(l_min, l_max, grid_points)
    best_at = {}
    warm = None
    for l in grid:
        optimum = optimize_repeater(line_zero_l.with_inductance(float(l)),
                                    driver, f, initial=warm)
        warm = (optimum.h_opt, optimum.k_opt)
        best_at[float(l)] = optimum.delay_per_length

    rc = rc_optimum(line_zero_l, driver)
    candidates = [("rc-blind", rc.h_opt, rc.k_opt)]
    for label, l_design in (("nominal@l_min", l_min),
                            ("nominal@mid", 0.5 * (l_min + l_max)),
                            ("minimax (=nominal@l_max)", l_max)):
        optimum = optimize_repeater(
            line_zero_l.with_inductance(l_design), driver, f)
        candidates.append((label, optimum.h_opt, optimum.k_opt))

    rows = []
    for label, h, k in candidates:
        # One kernel batch per candidate; lanes match the scalar
        # per-point evaluations bitwise.
        values = delay_per_length_grid(line_zero_l, driver, grid, h, k, f)
        worst_value = -1.0
        worst_regret = -1.0
        for i, l in enumerate(grid):
            value = values[i]
            worst_value = max(worst_value, value)
            worst_regret = max(worst_regret,
                               value / best_at[float(l)] - 1.0)
        rows.append(RegretRow(label=label, h=h, k=k,
                              worst_delay_per_length=worst_value,
                              worst_regret=worst_regret))
    return rows
