"""The first-crossing bracket against its one-call-per-chunk reference.

``_bracket_first_crossing_v`` evaluates each chunk of the per-lane grid
in sub-blocks and stops a lane at the sub-block that holds its first
crossing.  The reference below is the straightforward form: every round
evaluates the whole chunk for every active lane.  Both sample the same
grid, so every bracket, every refined tau, every Newton count and the
horizon-exhausted error must agree bit for bit.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (NODE_100NM, NODE_250NM, Stage, canonical_response,
                   compute_moments, rc_optimum, units)
from repro.core import kernels
from repro.core.kernels import (as_response_batch, threshold_delay_v,
                                two_pole_values)
from repro.core.response import StepResponse
from repro.errors import DelaySolverError

from tests.strategies import stage_batches, thresholds


def reference_bracket(resp, lanes, f):
    """First-crossing brackets, one whole chunk per active lane per round."""
    s1 = resp.s1[lanes]
    s2 = resp.s2[lanes]
    omega_n = np.sqrt(np.abs(s1 * s2))
    fast = 1.0 / omega_n
    decay = np.minimum(np.abs(s1.real), np.abs(s2.real))
    slow = 1.0 / decay
    dt = fast / kernels.GRID_PER_TIMESCALE
    horizon = kernels.MAX_HORIZON_FACTOR * np.maximum(fast, slow)

    m = lanes.size
    t_lo = np.zeros(m)
    t_hi = np.zeros(m)
    t_start = np.zeros(m)
    v_last = np.zeros(m)
    fb = f[lanes]
    steps = np.arange(1, kernels.BRACKET_CHUNK + 1, dtype=float)
    active = np.arange(m)
    while active.size:
        t = t_start[active][:, None] + dt[active][:, None] * steps
        v = two_pole_values(s1[active][:, None], s2[active][:, None], t)
        above = v >= fb[active][:, None]
        hit = above.any(axis=1)
        if hit.any():
            rows = np.nonzero(hit)[0]
            cols = above[rows].argmax(axis=1)
            found = active[rows]
            t_hi[found] = t[rows, cols]
            t_lo[found] = np.where(cols > 0,
                                   t[rows, np.maximum(cols - 1, 0)],
                                   t_start[found])
        miss = np.nonzero(~hit)[0]
        adv = active[miss]
        t_start[adv] = t[miss, -1]
        v_last[adv] = v[miss, -1]
        dt[adv] = np.where(t_start[adv] > 10.0 * slow[adv],
                           dt[adv] * 2.0, dt[adv])
        alive = t_start[adv] < horizon[adv]
        if not alive.all():
            dead = adv[~alive]
            first = int(dead[0])
            error = DelaySolverError(
                f"step response never reached its threshold in "
                f"{dead.size} of {m} batch lanes (first: lane "
                f"{int(lanes[first])}, f = {fb[first]:g}, "
                f"t < {horizon[first]:.3e}s, final sampled value "
                f"{v_last[first]:.6f})")
            error.lanes = [int(lanes[i]) for i in dead]
            raise error
        active = adv[alive]
    return t_lo, t_hi


def solve_reference(source, f):
    with mock.patch.object(kernels, "_bracket_first_crossing_v",
                           reference_bracket):
        return threshold_delay_v(source, f)


FIELDS = ("tau", "bracket_lo", "bracket_hi", "newton_iterations")


def assert_lanes_bitwise(result, reference, lanes):
    """``result`` lane j is byte-identical to ``reference`` lane lanes[j]."""
    for name in FIELDS:
        got = getattr(result, name)
        want = getattr(reference, name)[lanes]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _rc_optimum_stage(node, l_nh_per_mm):
    rc = rc_optimum(node.line, node.driver)
    return Stage(line=node.line_with_inductance(l_nh_per_mm
                                                * units.NH_PER_MM),
                 driver=node.driver, h=rc.h_opt, k=rc.k_opt)


def _resized(node, h_factor, k):
    rc = rc_optimum(node.line, node.driver)
    return Stage(line=node.line, driver=node.driver,
                 h=h_factor * rc.h_opt, k=k)


#: Both nodes at their RC-optimal sizing: crossings at samples 73-116.
PAPER = [_rc_optimum_stage(node, l) for node in (NODE_100NM, NODE_250NM)
         for l in (0.0, 0.5, 1.0, 2.0, 5.0)]
#: Overdamped stages crossing after the first sub-block (zeta 1.8-3.6,
#: samples 170-327) but inside the first chunk.
LATE = [_resized(NODE_100NM, 20.0, 5.28), _resized(NODE_100NM, 1.0, 5.3e4),
        _resized(NODE_100NM, 5.0, 5.28)]
#: zeta ~ 20: a 50% crossing misses the first chunk (sample ~1,760); at
#: f = 0.99999 it comes after the step has doubled.
FAR = [_resized(NODE_100NM, 0.1, 5.28)]
#: Pole pairs that are exactly coincident (the critically damped form).
CRITICAL = [canonical_response(1.0, omega_n) for omega_n in (1e9, 2.5e10)]
#: One of each above, as responses, with thresholds that cover f = 0
#: (no bracket), f = 0.9999 and a crossing after step doubling.
MIXED = ([StepResponse.from_moments(compute_moments(stage))
          for stage in PAPER[:3] + LATE[:2] + FAR * 2] + CRITICAL)
MIXED_F = [0.5, 0.0, 0.9999, 0.5, 0.9, 0.5, 0.99999, 0.5, 0.9999]


def _first_step(lanes):
    """Each lane's bracket step before any doubling."""
    resp = as_response_batch(lanes)
    return 1.0 / np.sqrt(np.abs(resp.s1 * resp.s2)) \
        / kernels.GRID_PER_TIMESCALE


def _threshold_first_crossed_at(stage, sample):
    """A threshold a monotone ``stage`` first reaches at grid ``sample``
    (1-based) of the first chunks, before any step doubling."""
    t = _first_step([stage]) * np.array([sample - 1.0, sample])
    v = as_response_batch([stage]).values(t)[0]
    return 0.5 * (v[0] + v[1])


#: Crossings on the sub-block and chunk edges: the last sample of the
#: first sub-block, the first of the second, the first of the next chunk.
EDGE_SAMPLES = (kernels.BRACKET_SUBBLOCK, kernels.BRACKET_SUBBLOCK + 1,
                kernels.BRACKET_CHUNK + 1)
EDGES = [FAR[0]] * len(EDGE_SAMPLES)
EDGES_F = [_threshold_first_crossed_at(stage, sample)
           for stage, sample in zip(EDGES, EDGE_SAMPLES)]


class TestBracketMatchesReference:
    @given(lanes=stage_batches,
           f=thresholds | st.sampled_from([0.0, 0.9999]))
    @settings(max_examples=25, deadline=None)
    @example(lanes=PAPER, f=0.5)
    @example(lanes=PAPER, f=[0.1, 0.9, 0.9999, 0.0, 0.5] * 2)
    @example(lanes=LATE, f=0.5)
    @example(lanes=FAR, f=0.5)
    @example(lanes=FAR, f=0.99999)
    @example(lanes=CRITICAL, f=0.5)
    @example(lanes=CRITICAL, f=[0.9999, 0.0])
    @example(lanes=EDGES, f=EDGES_F)
    @example(lanes=MIXED, f=MIXED_F)
    @example(lanes=MIXED[:1], f=0.5)
    def test_threshold_delay_is_bitwise_the_reference(self, lanes, f):
        f_lanes = np.broadcast_to(np.asarray(f, dtype=float),
                                  (len(lanes),)).copy()
        reference = solve_reference(lanes, f_lanes)
        every = np.arange(len(lanes))
        assert_lanes_bitwise(threshold_delay_v(lanes, f_lanes), reference,
                             every)
        order = every[::-1]
        assert_lanes_bitwise(
            threshold_delay_v([lanes[i] for i in order], f_lanes[order]),
            reference, order)
        for i in every:
            assert_lanes_bitwise(
                threshold_delay_v([lanes[i]], f_lanes[i:i + 1]), reference,
                every[i:i + 1])

    def test_examples_reach_every_bracket_case(self):
        """The explicit examples exercise what the split could get wrong."""
        lanes = PAPER + LATE + FAR + FAR
        f = np.array([0.5] * (len(PAPER) + len(LATE) + 1) + [0.99999])
        solved = threshold_delay_v(lanes, f)
        dt0 = _first_step(lanes)
        sample = solved.bracket_hi / dt0
        paper, late = slice(0, len(PAPER)), slice(len(PAPER), -2)
        assert np.all(sample[paper] <= kernels.BRACKET_SUBBLOCK)
        assert np.all(sample[late] > kernels.BRACKET_SUBBLOCK)
        assert np.all(sample[late] <= kernels.BRACKET_CHUNK)
        assert sample[-2] > kernels.BRACKET_CHUNK
        width = (solved.bracket_hi - solved.bracket_lo) / dt0
        assert width[-2] == pytest.approx(1.0)
        assert width[-1] > 1.5        # the step doubled before the crossing
        critical = as_response_batch(CRITICAL)
        assert np.all(critical.s1 == critical.s2)
        edges = threshold_delay_v(EDGES, EDGES_F).bracket_hi
        assert list(np.rint(edges / _first_step(EDGES))) \
            == list(EDGE_SAMPLES)


class TestHorizonExhausted:
    """A lane that never crosses fails with the reference's exact error."""

    #: Half the slow time scale: FAR's 50% crossing (0.69 of it) lies
    #: past the horizon, the paper stages' crossings long before it.
    HORIZON_FACTOR = 0.5

    def _errors(self, monkeypatch, lanes, f):
        monkeypatch.setattr(kernels, "MAX_HORIZON_FACTOR",
                            self.HORIZON_FACTOR)
        errors = []
        for solve in (threshold_delay_v, solve_reference):
            with pytest.raises(DelaySolverError) as info:
                solve(lanes, f)
            errors.append(info.value)
        return errors

    def test_error_matches_reference(self, monkeypatch):
        lanes = [PAPER[0], FAR[0], PAPER[5], FAR[0]]
        new, ref = self._errors(monkeypatch, lanes, 0.5)
        assert str(new) == str(ref)
        assert new.lanes == ref.lanes == [1, 3]
        assert "2 of 4 batch lanes (first: lane 1, f = 0.5" in str(new)

    def test_final_sampled_value_is_the_last_chunk_end(self, monkeypatch):
        new, _ = self._errors(monkeypatch, FAR, 0.5)
        resp = as_response_batch(FAR)
        s1, s2 = resp.s1[0], resp.s2[0]
        fast = 1.0 / np.sqrt(np.abs(s1 * s2))
        slow = 1.0 / min(abs(s1.real), abs(s2.real))
        horizon = self.HORIZON_FACTOR * max(fast, slow)
        t, dt = 0.0, fast / kernels.GRID_PER_TIMESCALE
        while t < horizon:
            t = t + dt * float(kernels.BRACKET_CHUNK)
            if t > 10.0 * slow:
                dt = 2.0 * dt
        value = float(two_pole_values(s1, s2, t))
        assert value < 0.5
        match = re.search(r"final sampled value (\S+)\)$", str(new))
        assert match.group(1) == f"{value:.6f}"
