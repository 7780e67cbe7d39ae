"""Tests for the Ismail-Friedman ansatz refit (``ext_refit``)."""

import numpy as np
import pytest

from repro import units
from repro.baselines.refit import refit_if_coefficients
from repro.errors import ParameterError


class TestRefit:
    @pytest.fixture(scope="class")
    def refit_100nm(self):
        from repro import NODE_100NM
        ls = np.linspace(0.0, 5.0, 9) * units.NH_PER_MM
        return refit_if_coefficients(NODE_100NM.line, NODE_100NM.driver,
                                     l_values=ls)

    def test_ansatz_fits_exact_optimizer_tightly(self, refit_100nm):
        """The (1 + a T^3)^b form captures the exact optima to ~1%."""
        assert refit_100nm.max_residual_h < 0.02
        assert refit_100nm.max_residual_k < 0.02

    def test_predictions_match_stored_ratios(self, refit_100nm):
        r = refit_100nm
        for t, h_ratio in zip(r.t_values[1:], r.h_ratios[1:]):
            assert r.predict_h_ratio(float(t)) == pytest.approx(
                float(h_ratio), rel=0.02)

    def test_ratios_monotone(self, refit_100nm):
        assert np.all(np.diff(refit_100nm.h_ratios) > 0.0)
        assert np.all(np.diff(refit_100nm.k_ratios) > 0.0)

    def test_coefficients_not_technology_portable(self, refit_100nm):
        """The fitted coefficients differ across nodes — quantifying the
        paper's critique that curve-fitted formulas have limited
        validity: the *form* transfers, the coefficients do not."""
        from repro import NODE_250NM
        ls = np.linspace(0.0, 5.0, 9) * units.NH_PER_MM
        refit_250 = refit_if_coefficients(NODE_250NM.line,
                                          NODE_250NM.driver, l_values=ls)
        assert refit_250.a_h != pytest.approx(refit_100nm.a_h, rel=0.1)

    def test_needs_enough_points(self):
        from repro import NODE_100NM
        with pytest.raises(ParameterError):
            refit_if_coefficients(NODE_100NM.line, NODE_100NM.driver,
                                  l_values=[0.0, 1e-6])

