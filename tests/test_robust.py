"""Unit tests for the minimax (robust) repeater sizing."""

import pytest

from repro import Stage, threshold_delay, units
from repro.core.robust import regret_analysis


L_MIN = 0.2 * units.NH_PER_MM
L_MAX = 3.0 * units.NH_PER_MM


class TestMonotonicity:
    def test_delay_monotone_in_l_at_fixed_sizing(self, node, rc_opt):
        """The structural fact the minimax shortcut relies on."""
        taus = []
        for l_nh in (0.0, 0.5, 1.0, 2.0, 4.0):
            stage = Stage(line=node.line_with_inductance(
                l_nh * units.NH_PER_MM), driver=node.driver,
                h=rc_opt.h_opt, k=rc_opt.k_opt)
            taus.append(threshold_delay(stage,
                                        polish_with_newton=False).tau)
        assert taus == sorted(taus)


class TestRegret:
    @pytest.fixture(scope="class")
    def rows_100nm(self):
        from repro import NODE_100NM
        return regret_analysis(NODE_100NM.line, NODE_100NM.driver,
                               l_min=L_MIN, l_max=L_MAX, grid_points=5)

    def test_candidates_present(self, rows_100nm):
        labels = [row.label for row in rows_100nm]
        assert "rc-blind" in labels
        assert any("minimax" in label for label in labels)

    def test_minimax_has_lowest_worst_delay(self, rows_100nm):
        by_label = {row.label: row for row in rows_100nm}
        minimax = next(row for row in rows_100nm if "minimax" in row.label)
        for row in rows_100nm:
            assert row.worst_delay_per_length >= \
                minimax.worst_delay_per_length * (1.0 - 1e-9)

    def test_regret_nonnegative_and_bounded(self, rows_100nm):
        for row in rows_100nm:
            assert row.worst_regret >= -1e-9
            assert row.worst_regret < 0.25      # all hedges cost < 25%

    def test_rc_blind_worst_regret_exceeds_minimax(self, rows_100nm):
        by = {row.label: row.worst_regret for row in rows_100nm}
        minimax_label = next(l for l in by if "minimax" in l)
        assert by["rc-blind"] > by[minimax_label]
