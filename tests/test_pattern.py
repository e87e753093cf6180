import math

import numpy as np
import pytest

from rispattern import (
    BeamMetrics,
    ChannelPair,
    NearFieldRadiusWarning,
    PatternTrace,
    RisGeometry,
    SweepSpec,
    Terminal,
    check_sweep_radius,
    Wave,
    design_specular,
    design_uacp,
    extract_metrics,
    far_field_radius,
    fraunhofer_distance,
    interference_study,
    received_power,
    rx_arc_position,
    sweep,
)


def square_setup(n=16, f=2.3e9, pitch_frac=2.0):
    wave = Wave(f)
    d = wave.wavelength / pitch_frac
    geom = RisGeometry(n, n, d, d)
    return geom, wave


class TestFieldRegions:
    def test_fraunhofer_square_meter_aperture(self):
        # 1 m x 1 m aperture at 2.3 GHz: 2 * (1 + 1) / lambda
        geom = RisGeometry(10, 10, 0.1, 0.1)
        wave = Wave(2.3e9)
        expected = 4.0 / wave.wavelength
        assert fraunhofer_distance(geom, wave) == pytest.approx(expected, rel=1e-12)
        assert far_field_radius(geom, wave) == pytest.approx(4 * expected, rel=1e-12)
        assert far_field_radius(geom, wave) == pytest.approx(122.75, abs=0.01)

    def test_doubling_aperture_quadruples_distance(self):
        wave = Wave(3.6e9)
        d1 = fraunhofer_distance(RisGeometry(10, 10, 0.05, 0.05), wave)
        d2 = fraunhofer_distance(RisGeometry(20, 20, 0.05, 0.05), wave)
        assert d2 == pytest.approx(4 * d1, rel=1e-12)

    def test_near_radius_warns(self):
        geom, wave = square_setup()
        with pytest.warns(NearFieldRadiusWarning):
            check_sweep_radius(geom, wave, 1.0)

    def test_far_radius_silent(self):
        geom, wave = square_setup()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_sweep_radius(geom, wave, 1e6)


class TestSweepSpec:
    def test_default_grid(self):
        angles = SweepSpec().angles
        assert len(angles) == 1801
        assert angles[0] == -90.0
        assert angles[-1] == 90.0
        assert angles[900] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SweepSpec(theta_min=10, theta_max=10)
        with pytest.raises(ValueError):
            SweepSpec(step=0.0)
        with pytest.raises(ValueError):
            SweepSpec(fixed_radius=-1.0)

    def test_rx_arc_position(self):
        x, y, z = rx_arc_position(10.0, 30.0)
        assert (x, y, z) == pytest.approx((5.0, 0.0, 10.0 * math.sqrt(3) / 2))
        assert rx_arc_position(5.0, 0.0) == pytest.approx((0.0, 0.0, 5.0))


class TestSweep:
    def test_matches_pointwise_received_power(self):
        # the chunked vectorized sweep must agree with the per-position
        # g/h evaluation route at every angle
        geom, wave = square_setup(n=6)
        radius = far_field_radius(geom, wave)
        tx = Terminal((0, 0, radius))
        rng = np.random.default_rng(5)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (6, 6)))
        spec = SweepSpec(theta_min=-60, theta_max=60, step=5.0)
        trace = sweep(geom, wave, tx, gamma, spec)
        for theta, p in zip(trace.angles, trace.power):
            rx = Terminal(rx_arc_position(radius, theta))
            pair = ChannelPair.compute(geom, wave, tx, rx)
            assert p == pytest.approx(received_power(pair, gamma), rel=1e-12)

    def test_specular_peaks_at_broadside(self):
        geom, wave = square_setup(n=16)
        tx = Terminal((0, 0, far_field_radius(geom, wave)))
        trace = sweep(geom, wave, tx, design_specular(geom), SweepSpec(step=0.1))
        assert extract_metrics(trace).peak_angle == pytest.approx(0.0, abs=0.05)

    def test_specular_pattern_mirror_symmetric(self):
        # normal incidence on a uniform surface: p(theta) = p(-theta)
        geom, wave = square_setup(n=12)
        tx = Terminal((0, 0, far_field_radius(geom, wave)))
        trace = sweep(geom, wave, tx, design_specular(geom), SweepSpec(step=0.5))
        assert trace.power == pytest.approx(trace.power[::-1], rel=1e-9)

    def test_uacp_beam_lands_near_design_angle(self):
        geom, wave = square_setup(n=24, f=5.45e9, pitch_frac=4.0)
        radius = far_field_radius(geom, wave)
        tx = Terminal((0, 0, radius))
        rx = Terminal(rx_arc_position(radius, 30.0))
        config = design_uacp(ChannelPair.compute(geom, wave, tx, rx))
        trace = sweep(geom, wave, tx, config, SweepSpec(step=0.1))
        assert abs(extract_metrics(trace).peak_angle - 30.0) < 1.0

    def test_normalized_db_peak_is_zero(self):
        geom, wave = square_setup(n=8)
        tx = Terminal((0, 0, far_field_radius(geom, wave)))
        trace = sweep(geom, wave, tx, design_specular(geom), SweepSpec(step=1.0))
        assert trace.power_db_normalized.max() == pytest.approx(0.0, abs=1e-12)

    def test_power_scales_with_p_tx(self):
        geom, wave = square_setup(n=4)
        tx = Terminal((0, 0, far_field_radius(geom, wave)))
        spec = SweepSpec(step=10.0)
        t1 = sweep(geom, wave, tx, design_specular(geom), spec, p_tx=1.0)
        t2 = sweep(geom, wave, tx, design_specular(geom), spec, p_tx=2.5)
        assert t2.power == pytest.approx(2.5 * t1.power, rel=1e-14)

    def test_shape_mismatch_rejected(self):
        geom, wave = square_setup(n=4)
        tx = Terminal((0, 0, 100.0))
        with pytest.raises(ValueError):
            sweep(geom, wave, tx, np.ones((5, 5), complex), SweepSpec(step=10.0))

    def test_metadata_recorded(self):
        geom, wave = square_setup(n=4)
        tx = Terminal((0, 0, far_field_radius(geom, wave)))
        trace = sweep(geom, wave, tx, design_specular(geom), SweepSpec(step=10.0))
        assert trace.metadata["grid"] == (4, 4)
        assert trace.metadata["frequency_hz"] == wave.frequency
        assert trace.metadata["criterion"] == "Specular"

    def test_grid_refinement_stable_peak(self):
        # halving the angular step must not move the peak by more than a step
        geom, wave = square_setup(n=20, pitch_frac=4.0)
        radius = far_field_radius(geom, wave)
        tx = Terminal((0, 0, radius))
        rx = Terminal(rx_arc_position(radius, 40.0))
        config = design_uacp(ChannelPair.compute(geom, wave, tx, rx))
        coarse = extract_metrics(sweep(geom, wave, tx, config, SweepSpec(step=0.2)))
        fine = extract_metrics(sweep(geom, wave, tx, config, SweepSpec(step=0.1)))
        assert abs(coarse.peak_angle - fine.peak_angle) <= 0.2 + 1e-9


class TestInterference:
    def test_zero_offset_is_bit_identical(self):
        geom, wave = square_setup(n=10)
        radius = far_field_radius(geom, wave)
        tx = Terminal((0, 0, radius))
        rx = Terminal(rx_arc_position(radius, 45.0))
        config = design_uacp(ChannelPair.compute(geom, wave, tx, rx))
        spec = SweepSpec(step=1.0)
        nominal = sweep(geom, wave, tx, config, spec)
        study = interference_study(geom, wave, config, 0.0, spec)
        assert np.array_equal(nominal.power, study.power)

    def test_specular_mirror_law(self):
        # a mirror lit from -15 deg reradiates toward +15 deg
        geom, wave = square_setup(n=24)
        trace = interference_study(
            geom, wave, design_specular(geom), -15.0, SweepSpec(step=0.1)
        )
        assert extract_metrics(trace).peak_angle == pytest.approx(15.0, abs=0.3)

    def test_offset_recorded_in_metadata(self):
        geom, wave = square_setup(n=4)
        trace = interference_study(
            geom, wave, design_specular(geom), -50.0, SweepSpec(step=10.0)
        )
        assert trace.metadata["interferer_theta_inc_deg"] == -50.0


class TestMetrics:
    def test_synthetic_two_lobe_trace(self):
        angles = np.linspace(-90, 90, 181)
        power = np.exp(-((angles - 30) ** 2) / 20) + 0.4 * np.exp(
            -((angles + 50) ** 2) / 10
        )
        m = extract_metrics(PatternTrace(angles=angles, power=power))
        assert m.peak_angle == pytest.approx(30.0)
        assert m.sidelobes[0][0] == pytest.approx(-50.0)
        assert m.sidelobes[0][1] == pytest.approx(0.4, rel=1e-3)

    def test_flat_trace_has_no_sidelobes(self):
        angles = np.linspace(-90, 90, 19)
        m = extract_metrics(PatternTrace(angles=angles, power=np.ones(19)))
        assert m.sidelobes == ()

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError):
            extract_metrics(
                PatternTrace(angles=np.array([0.0, 1.0]), power=np.array([1.0, 2.0]))
            )

    def test_sidelobes_sorted_descending(self):
        angles = np.linspace(-90, 90, 361)
        power = (
            np.exp(-((angles - 10) ** 2) / 4)
            + 0.5 * np.exp(-((angles + 40) ** 2) / 4)
            + 0.2 * np.exp(-((angles - 70) ** 2) / 4)
        )
        m = extract_metrics(PatternTrace(angles=angles, power=power))
        lobes = [p for _, p in m.sidelobes]
        assert lobes == sorted(lobes, reverse=True)

    def test_power_at_interpolates(self):
        trace = PatternTrace(
            angles=np.array([0.0, 1.0, 2.0]), power=np.array([0.0, 2.0, 4.0])
        )
        assert trace.power_at(0.5) == pytest.approx(1.0)

    def test_peak_near_window(self):
        angles = np.linspace(-90, 90, 181)
        power = np.exp(-((angles - 30) ** 2) / 20) + 2.0 * np.exp(
            -((angles + 50) ** 2) / 10
        )
        trace = PatternTrace(angles=angles, power=power)
        angle, _ = trace.peak_near(30.0, window=10.0)
        assert angle == pytest.approx(30.0)
        with pytest.raises(ValueError):
            trace.peak_near(0.45, window=0.1)


class TestBeamMetricsContainer:
    def test_power_at_delegates(self):
        trace = PatternTrace(
            angles=np.array([0.0, 1.0, 2.0]), power=np.array([1.0, 3.0, 1.0])
        )
        m = BeamMetrics(peak_angle=1.0, peak_power=3.0, sidelobes=(), trace=trace)
        assert m.power_at(1.0) == 3.0
