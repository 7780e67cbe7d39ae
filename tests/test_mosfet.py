"""Unit tests for the square-law MOSFET model."""

import numpy as np
import pytest

from repro.circuits.mosfet import Mosfet, _square_law, _symmetric_square_law
from repro.errors import ParameterError


def nmos(beta=1e-4, vth=0.3, lam=0.05):
    return Mosfet(name="M", drain="d", gate="g", source="s",
                  polarity=1, vth=vth, beta=beta, lam=lam)


def pmos(beta=1e-4, vth=0.3, lam=0.05):
    return Mosfet(name="M", drain="d", gate="g", source="s",
                  polarity=-1, vth=vth, beta=beta, lam=lam)


class TestSquareLaw:
    def test_cutoff(self):
        current, gm, gds = _square_law(0.2, 1.0, 0.3, 1e-4, 0.05)
        assert current == gm == gds == 0.0

    def test_saturation_current(self):
        beta, vth = 1e-4, 0.3
        current, gm, _ = _square_law(1.2, 1.2, vth, beta, 0.0)
        vov = 1.2 - vth
        assert current == pytest.approx(0.5 * beta * vov * vov)
        assert gm == pytest.approx(beta * vov)

    def test_triode_current(self):
        beta, vth = 1e-4, 0.3
        vgs, vds = 1.2, 0.2
        current, _, gds = _square_law(vgs, vds, vth, beta, 0.0)
        vov = vgs - vth
        assert current == pytest.approx(beta * (vov * vds - 0.5 * vds ** 2))
        assert gds == pytest.approx(beta * (vov - vds))

    def test_continuity_at_saturation_boundary(self):
        beta, vth, lam = 1e-4, 0.3, 0.05
        vgs = 1.0
        vov = vgs - vth
        below = _square_law(vgs, vov - 1e-9, vth, beta, lam)
        above = _square_law(vgs, vov + 1e-9, vth, beta, lam)
        assert below[0] == pytest.approx(above[0], rel=1e-6)
        assert below[1] == pytest.approx(above[1], rel=1e-6)
        assert below[2] == pytest.approx(above[2], rel=1e-3)

    def test_positive_output_conductance_with_clm(self):
        _, _, gds = _square_law(1.2, 1.5, 0.3, 1e-4, 0.05)
        assert gds > 0.0


class TestSymmetry:
    def test_odd_symmetry_in_vds(self):
        """Swapping drain/source mirrors the current: I(vgs,vds) relates to
        the swapped device; at vgs large and small |vds| the conduction is
        nearly ohmic and antisymmetric."""
        beta, vth, lam = 1e-4, 0.6, 0.0
        forward, _, _ = _symmetric_square_law(1.2, 0.05, vth, beta, lam)
        reverse, _, _ = _symmetric_square_law(1.2, -0.05, vth, beta, lam)
        assert reverse == pytest.approx(-forward, rel=0.15)

    def test_reverse_conduction_active(self):
        """With vds < 0 the device still conducts (body of the undershoot
        mechanism: output below ground turns the 'off' path ohmic)."""
        current, _, _ = _symmetric_square_law(1.2, -0.4, 0.3, 1e-4, 0.0)
        assert current < 0.0

    def test_continuity_at_vds_zero(self):
        """I -> 0 from both sides and the ohmic slope gds matches."""
        below = _symmetric_square_law(1.0, -1e-9, 0.3, 1e-4, 0.05)
        above = _symmetric_square_law(1.0, 1e-9, 0.3, 1e-4, 0.05)
        assert below[0] == pytest.approx(0.0, abs=1e-12)
        assert above[0] == pytest.approx(0.0, abs=1e-12)
        assert below[2] == pytest.approx(above[2], rel=1e-6)


class TestDeviceEvaluate:
    @pytest.mark.parametrize("vd,vg,vs", [
        (1.2, 1.2, 0.0), (0.2, 1.2, 0.0), (0.0, 0.0, 0.0),
        (-0.3, 1.2, 0.0), (1.2, 0.6, 0.0),
    ])
    def test_nmos_derivatives_match_finite_difference(self, vd, vg, vs):
        device = nmos()
        eps = 1e-7
        current, gm, gds = device.evaluate(vd, vg, vs)
        fd_gm = (device.evaluate(vd, vg + eps, vs)[0]
                 - device.evaluate(vd, vg - eps, vs)[0]) / (2 * eps)
        fd_gds = (device.evaluate(vd + eps, vg, vs)[0]
                  - device.evaluate(vd - eps, vg, vs)[0]) / (2 * eps)
        assert gm == pytest.approx(fd_gm, rel=1e-5, abs=1e-12)
        assert gds == pytest.approx(fd_gds, rel=1e-5, abs=1e-12)

    @pytest.mark.parametrize("vd,vg,vs", [
        (0.0, 0.0, 1.2), (1.0, 0.0, 1.2), (1.5, 0.6, 1.2),
    ])
    def test_pmos_derivatives_match_finite_difference(self, vd, vg, vs):
        device = pmos()
        eps = 1e-7
        current, gm, gds = device.evaluate(vd, vg, vs)
        fd_gm = (device.evaluate(vd, vg + eps, vs)[0]
                 - device.evaluate(vd, vg - eps, vs)[0]) / (2 * eps)
        fd_gds = (device.evaluate(vd + eps, vg, vs)[0]
                  - device.evaluate(vd - eps, vg, vs)[0]) / (2 * eps)
        assert gm == pytest.approx(fd_gm, rel=1e-5, abs=1e-12)
        assert gds == pytest.approx(fd_gds, rel=1e-5, abs=1e-12)

    def test_pmos_pulls_up(self):
        """PMOS with gate low and source at VDD drives current into the
        drain (negative d->s current)."""
        device = pmos()
        current, _, _ = device.evaluate(0.0, 0.0, 1.2)
        assert current < 0.0

    def test_nmos_off_when_gate_low(self):
        current, gm, gds = nmos().evaluate(1.2, 0.0, 0.0)
        assert current == gm == gds == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            Mosfet(name="M", drain="d", gate="g", source="s", polarity=2,
                   vth=0.3, beta=1e-4)
        with pytest.raises(ParameterError):
            nmos(beta=-1.0)
        with pytest.raises(ParameterError):
            nmos(vth=0.0)
        with pytest.raises(ParameterError):
            nmos(lam=-0.1)

    def test_stamp_conserves_current(self):
        """Drain and source rows receive equal and opposite stamps."""
        device = nmos()
        n = 3
        flat = [0.0] * (n * n)
        rhs = [0.0] * n
        voltages = [0.6, 1.2, 0.0]          # drain, gate, source
        device.stamp(voltages, (0, 1, 2), n, flat, rhs)
        matrix = np.reshape(flat, (n, n))
        assert matrix[0] == pytest.approx(-matrix[2])
        assert rhs[0] == pytest.approx(-rhs[2])
        assert rhs[1] == 0.0              # gate draws no current
        assert np.all(matrix[1] == 0.0)
