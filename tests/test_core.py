import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispattern import (
    CosinePower,
    Isotropic,
    RisGeometry,
    Terminal,
    Wave,
    canonical_phase,
)
from rispattern.channel import _terminal_terms
from rispattern.core import ISOTROPIC


def distance_and_angle(terminal, center):
    """Distance, obliquity cosine z/r and polar angle from a terminal to an
    element center (x, y), read off the channel kernel's per-element terms."""
    amp, inv_r, _, _, _ = _terminal_terms(
        np.array([float(center[0])]),
        np.array([float(center[1])]),
        np.array([terminal.position]),
        ISOTROPIC,
        0.0,
    )
    dist = 1.0 / inv_r.item()
    obliquity = amp.item() * dist  # amp = (z/r) / r for an isotropic terminal
    return dist, obliquity, math.acos(min(obliquity, 1.0))


class TestElementCenters:
    def test_single_element_at_origin(self):
        geom = RisGeometry(1, 1, 0.3, 0.7)
        assert (geom.x_centers[0], geom.y_centers[0]) == (0.0, 0.0)

    def test_symmetric_pair(self):
        geom = RisGeometry(2, 1, 0.5, 0.5)
        assert geom.x_centers[0] == -0.25
        assert geom.x_centers[1] == 0.25

    def test_odd_grid_midpoint_exact(self):
        geom = RisGeometry(3, 3, 0.1, 0.1)
        assert (geom.x_centers[1], geom.y_centers[1]) == (0.0, 0.0)

    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        dx=st.floats(1e-4, 1.0),
        dy=st.floats(1e-4, 1.0),
    )
    def test_grid_centered(self, n, m, dx, dy):
        geom = RisGeometry(n, m, dx, dy)
        scale = max(np.abs(geom.x_centers).max(), np.abs(geom.y_centers).max(), 1e-30)
        assert abs(geom.x_centers.sum()) <= 1e-12 * scale * n
        assert abs(geom.y_centers.sum()) <= 1e-12 * scale * m

    def test_aperture_extents(self):
        geom = RisGeometry(10, 20, 0.05, 0.025)
        assert geom.aperture_x == pytest.approx(0.5)
        assert geom.aperture_y == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            RisGeometry(0, 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            RisGeometry(1, 1, -0.1, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pitch_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RisGeometry(2, 2, bad, 0.1)
        with pytest.raises(ValueError, match="finite"):
            RisGeometry(2, 2, 0.1, bad)


class TestDistanceAndAngle:
    def test_broadside(self):
        dist, obl, theta = distance_and_angle(Terminal((0, 0, 5)), (0, 0))
        assert dist == 5.0
        assert obl == 1.0
        assert theta == 0.0

    def test_3_4_5_triangle(self):
        dist, obl, theta = distance_and_angle(Terminal((3, 0, 4)), (0, 0))
        assert dist == pytest.approx(5.0, abs=0)
        assert obl == pytest.approx(0.8)
        assert theta == pytest.approx(math.acos(0.8))

    def test_offset_center(self):
        # direct vector-norm evaluation: sqrt(0.05^2 + 5^2)
        dist, _, _ = distance_and_angle(Terminal((0, 0, 5)), (0.05, 0))
        assert dist == pytest.approx(math.sqrt(25.0025), rel=1e-15)

    @given(
        tx=st.tuples(
            st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 100)
        ),
        cx=st.floats(-5, 5),
        cy=st.floats(-5, 5),
    )
    def test_pythagorean_consistency(self, tx, cx, cy):
        term = Terminal(tx)
        dist, obl, _ = distance_and_angle(term, (cx, cy))
        lateral = math.hypot(term.x - cx, term.y - cy)
        assert abs(obl**2 + (lateral / dist) ** 2 - 1.0) < 1e-12


class TestPhaseCanonicalization:
    @given(st.floats(-1e6, 1e6))
    def test_idempotent(self, phi):
        once = canonical_phase(phi)
        assert canonical_phase(once) == once

    @given(st.floats(-1e3, 1e3))
    def test_range(self, phi):
        w = canonical_phase(phi)
        assert -math.pi < w <= math.pi

    def test_known_wraps(self):
        assert canonical_phase(math.pi) == pytest.approx(math.pi)
        assert canonical_phase(-math.pi) == pytest.approx(math.pi)
        assert canonical_phase(math.radians(215)) == pytest.approx(math.radians(-145))
        assert canonical_phase(math.radians(-383.2)) == pytest.approx(
            math.radians(-23.2)
        )

    def test_array_input(self):
        out = canonical_phase(np.array([0.0, 3 * math.pi, -3 * math.pi]))
        assert out == pytest.approx([0.0, math.pi, math.pi])


class TestWave:
    def test_wavenumber_wavelength_identity(self):
        for f in (2.3e9, 3.6e9, 33e9):
            w = Wave(f)
            assert w.wavenumber * w.wavelength == pytest.approx(2 * math.pi, rel=1e-15)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            Wave(0.0)

    @pytest.mark.parametrize("frequency", [math.nan, math.inf])
    def test_non_finite_frequency(self, frequency):
        with pytest.raises(ValueError, match="finite"):
            Wave(frequency)


class TestTerminal:
    def test_must_be_above_surface(self):
        with pytest.raises(ValueError):
            Terminal((0, 0, 0))
        with pytest.raises(ValueError):
            Terminal((0, 0, -1))

    def test_isotropic_gain_is_one(self):
        assert Isotropic().gain(0.3) == 1.0

    def test_cosine_power_broadside_gain_is_one(self):
        assert CosinePower(2.0).gain(1.0) == 1.0

    def test_cosine_power_directivity_normalization(self):
        assert CosinePower(2.0, normalize_directivity=True).gain(1.0) == pytest.approx(6.0)

    def test_gain_finite_nonnegative_over_hemisphere(self):
        cos_theta = np.cos(np.radians(np.arange(0, 90, 1.0)))
        for pattern in (Isotropic(), CosinePower(0.0), CosinePower(3.5)):
            g = pattern.gain(cos_theta)
            assert np.all(np.isfinite(g))
            assert np.all(g >= 0)
