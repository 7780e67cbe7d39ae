"""Optimizer throughput: kernel-backed Newton vs the scalar path.

Times the refactored optimizer stack against the pre-refactor scalar
Newton loop — reimplemented here verbatim on top of the retained scalar
reference :func:`~repro.core.optimize.stationarity_residuals` — on
identical work, in three sections:

* ``grid`` — the headline number: a Fig. 5-style inductance grid
  (l = 0..5 nH/mm, 11 points, each lane independently RC-seeded)
  optimized by the *lockstep* batch driver
  :func:`~repro.core.optimize.optimize_repeater_many`, which pools all
  lanes' probe and backtracking evaluations into single kernel batches
  per Newton iteration, vs the same 11 optimizations run sequentially
  through the scalar loop.  The asserted speedup floor applies here.
* ``single`` — one :func:`~repro.core.optimize.optimize_repeater`
  call, the lockstep driver's N = 1 batch.  Informational: one lane
  only batches 3 points per iteration, which does not amortize the
  kernel pipeline's fixed cost (see DESIGN.md S27), so this ratio is
  expected to be near or below 1.
* ``sweep`` — the warm-started sweep (each point seeded from the
  previous optimum, one N = 1 call per point), also informational for
  the same reason.

Every section first checks the two implementations converge to
bitwise-identical (h_opt, k_opt, tau), so the ratios are pure
implementation comparisons.  Results land in ``BENCH_optimize.json``
(override: ``REPRO_BENCH_OUT``); set ``REPRO_BENCH_SMOKE=1`` for the
single-repetition CI smoke mode.
"""

import json
import math
import os
import time

import numpy as np

from repro import NODE_100NM, rc_optimum, units
from repro.core.optimize import (optimize_repeater, optimize_repeater_many,
                                 stationarity_residuals)
from repro.core.params import LineParams
from repro.errors import (DelaySolverError, OptimizationError,
                          ParameterError)

#: Conservative floor asserted on the lockstep grid speedup; the
#: acceptance target (>= 2x, recorded in the JSON) has headroom over
#: this measurement (~3x on an idle box) so a loaded CI box cannot
#: flake the suite.
MIN_GRID_SPEEDUP = 1.5
TARGET_GRID_SPEEDUP = 2.0

L_VALUES_NH = np.linspace(0.0, 5.0, 11)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _out_path() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_optimize.json")


def _time(func, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _scalar_newton(line, driver, f, h0, k0, *, tol=1e-9,
                   max_iterations=200):
    """The pre-refactor scalar Newton loop (3+ scalar walks/iteration)."""
    h, k = h0, k0
    g1, g2, tau = stationarity_residuals(line, driver, h, k, f)
    norm = math.hypot(g1, g2)
    for iteration in range(1, max_iterations + 1):
        eps_h = 1e-6 * h
        eps_k = 1e-6 * k
        g1_h, g2_h, _ = stationarity_residuals(line, driver, h + eps_h, k, f)
        g1_k, g2_k, _ = stationarity_residuals(line, driver, h, k + eps_k, f)
        jac = np.array([[(g1_h - g1) / eps_h, (g1_k - g1) / eps_k],
                        [(g2_h - g2) / eps_h, (g2_k - g2) / eps_k]])
        rhs = np.array([g1, g2])
        step = np.linalg.solve(jac, rhs)
        scale = 1.0
        for _ in range(40):
            h_new = h - scale * step[0]
            k_new = k - scale * step[1]
            if h_new > 0.0 and k_new > 0.0:
                try:
                    g1_new, g2_new, tau_new = stationarity_residuals(
                        line, driver, h_new, k_new, f)
                except (DelaySolverError, ParameterError):
                    scale *= 0.5
                    continue
                norm_new = math.hypot(g1_new, g2_new)
                if norm_new < norm or scale < 1e-3:
                    break
            scale *= 0.5
        else:
            raise OptimizationError(
                f"backtracking failed at iteration {iteration}")
        moved = max(abs(h_new - h) / h, abs(k_new - k) / k)
        h, k, g1, g2, tau, norm = (h_new, k_new, g1_new, g2_new, tau_new,
                                   norm_new)
        if moved < tol:
            return h, k, tau, iteration
    raise OptimizationError(
        f"did not converge in {max_iterations} iterations")


def _line_at(l_nh):
    node = NODE_100NM
    return LineParams(r=node.line.r, l=l_nh * units.NH_PER_MM, c=node.line.c)


def _grid_lines_and_seeds():
    node = NODE_100NM
    lines = [_line_at(float(l_nh)) for l_nh in L_VALUES_NH]
    seeds = []
    for line in lines:
        rc = rc_optimum(line, node.driver)
        seeds.append((rc.h_opt, rc.k_opt))
    return lines, seeds


def _run_scalar_grid(lines, seeds):
    node = NODE_100NM
    return [_scalar_newton(line, node.driver, 0.5, *seed)
            for line, seed in zip(lines, seeds)]


def _run_lockstep_grid(lines, seeds):
    return optimize_repeater_many(lines, NODE_100NM.driver, initials=seeds)


def _run_scalar_sweep():
    node = NODE_100NM
    results = []
    warm = None
    for l_nh in L_VALUES_NH:
        line = _line_at(float(l_nh))
        if warm is None:
            rc = rc_optimum(line, node.driver)
            warm = (rc.h_opt, rc.k_opt)
        h, k, tau, _ = _scalar_newton(line, node.driver, 0.5, *warm)
        warm = (h, k)
        results.append((h, k, tau))
    return results


def _run_batched_sweep():
    node = NODE_100NM
    results = []
    warm = None
    for l_nh in L_VALUES_NH:
        line = _line_at(float(l_nh))
        optimum = optimize_repeater(line, node.driver, initial=warm)
        warm = (optimum.h_opt, optimum.k_opt)
        results.append((optimum.h_opt, optimum.k_opt, optimum.tau))
    return results


def test_newton_inner_loop_speedup():
    reps = 1 if _smoke() else 3
    node = NODE_100NM
    report = {"smoke": _smoke(), "reps": reps,
              "target_grid_speedup": TARGET_GRID_SPEEDUP,
              "asserted_floor": MIN_GRID_SPEEDUP}

    # --- grid: lockstep batch Newton vs N sequential scalar runs -----
    # Both must walk the same convergence path lane for lane: the ratio
    # below is meaningless if the iterates ever diverge.
    lines, seeds = _grid_lines_and_seeds()
    scalar_grid = _run_scalar_grid(lines, seeds)
    lockstep_grid = _run_lockstep_grid(lines, seeds)
    total_iterations = 0
    for lane, (want, got) in enumerate(zip(scalar_grid, lockstep_grid)):
        h_s, k_s, tau_s, it_s = want
        assert float(got.h_opt) == h_s, lane
        assert float(got.k_opt) == k_s, lane
        assert float(got.tau) == tau_s, lane
        assert got.iterations == it_s, lane
        total_iterations += it_s

    t_scalar_grid = _time(lambda: _run_scalar_grid(lines, seeds), reps)
    t_lockstep_grid = _time(lambda: _run_lockstep_grid(lines, seeds), reps)
    report["grid"] = {
        "points": len(L_VALUES_NH),
        "l_range_nh_per_mm": [float(L_VALUES_NH[0]), float(L_VALUES_NH[-1])],
        "newton_iterations_total": total_iterations,
        "scalar_seconds": t_scalar_grid,
        "lockstep_seconds": t_lockstep_grid,
        "speedup": t_scalar_grid / t_lockstep_grid,
    }

    # --- single + warm sweep: informational (3-lane batches only) ----
    line = _line_at(1.0)
    rc = rc_optimum(line, node.driver)
    h_s, k_s, tau_s, it_s = _scalar_newton(line, node.driver, 0.5,
                                           rc.h_opt, rc.k_opt)
    batched = optimize_repeater(line, node.driver)
    assert float(batched.h_opt) == h_s
    assert float(batched.k_opt) == k_s
    assert float(batched.tau) == tau_s
    assert batched.iterations == it_s
    scalar_sweep = _run_scalar_sweep()
    batched_sweep = _run_batched_sweep()
    for lane, (got, want) in enumerate(zip(batched_sweep, scalar_sweep)):
        assert tuple(float(v) for v in got) == want, lane

    t_scalar_single = _time(
        lambda: _scalar_newton(line, node.driver, 0.5, rc.h_opt, rc.k_opt),
        reps)
    t_batched_single = _time(
        lambda: optimize_repeater(line, node.driver), reps)
    report["single"] = {
        "iterations": it_s,
        "scalar_seconds": t_scalar_single,
        "batched_seconds": t_batched_single,
        "speedup": t_scalar_single / t_batched_single,
        "asserted": False,
    }

    t_scalar_sweep = _time(_run_scalar_sweep, reps)
    t_batched_sweep = _time(_run_batched_sweep, reps)
    report["sweep"] = {
        "points": len(L_VALUES_NH),
        "scalar_seconds": t_scalar_sweep,
        "batched_seconds": t_batched_sweep,
        "speedup": t_scalar_sweep / t_batched_sweep,
        "asserted": False,
    }

    with open(_out_path(), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    assert report["grid"]["speedup"] >= MIN_GRID_SPEEDUP, report
