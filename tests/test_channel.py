import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispattern import (
    ChannelPair,
    RisGeometry,
    SweepSpec,
    Terminal,
    Wave,
    achievable_rate,
    CosinePower,
    received_power,
    rx_arc_position,
    sinc,
    sweep,
)
from rispattern import channel
from rispattern.scenario import DEFAULT_ELEMENT_BUDGET

FOUR_PI = 4 * math.pi


def single_element_pair(tx_pos=(0, 0, 10), rx_pos=(0, 0, 10), d=0.05, f=2.3e9):
    geom = RisGeometry(1, 1, d, d)
    wave = Wave(f)
    return ChannelPair.compute(geom, wave, Terminal(tx_pos), Terminal(rx_pos)), wave


def eq2_received_power(geom, wave, tx, rx, gamma, p_tx=1.0):
    """Literal scalar-loop evaluation of the received-power expression,
    independent of the vectorized g/h factorization."""
    k = wave.wavenumber
    total = 0j
    for n in range(1, geom.n_rows + 1):
        for m in range(1, geom.n_cols + 1):
            xn = (n - (geom.n_rows + 1) / 2.0) * geom.pitch_x
            ym = (m - (geom.n_cols + 1) / 2.0) * geom.pitch_y
            r_tx = math.sqrt((tx.x - xn) ** 2 + (tx.y - ym) ** 2 + tx.z**2)
            r_rx = math.sqrt((rx.x - xn) ** 2 + (rx.y - ym) ** 2 + rx.z**2)
            g_tx = float(tx.gain_pattern.gain(tx.z / r_tx))
            g_rx = float(rx.gain_pattern.gain(rx.z / r_rx))
            sx = k * ((rx.x - xn) / r_rx + (tx.x - xn) / r_tx) * geom.pitch_x / 2
            sy = k * ((rx.y - ym) / r_rx + (tx.y - ym) / r_tx) * geom.pitch_y / 2
            term = (
                gamma[n - 1, m - 1]
                * math.sqrt(g_tx)
                * (tx.z / r_tx)
                * np.exp(-1j * k * r_tx)
                / r_tx
                * math.sqrt(g_rx)
                * (rx.z / r_rx)
                * np.exp(-1j * k * r_rx)
                / r_rx
                * geom.pitch_x
                * sinc(sx)
                * geom.pitch_y
                * sinc(sy)
                / (16 * math.pi**2)
            )
            total += term
    return p_tx * abs(total) ** 2


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_matches_sin_over_x(self):
        x = np.linspace(0.01, 10, 500)
        assert sinc(x) == pytest.approx(np.sin(x) / x, rel=1e-14)

    def test_series_branch_accuracy(self):
        # near zero the implementation must agree with 1 - x^2/6 to 1e-12
        for x in (1e-5, 5e-5, 9.9e-5, -7e-5, 1e-8):
            assert abs(sinc(x) - (1 - x * x / 6)) < 1e-12

    @given(st.floats(-1e-4, 1e-4))
    def test_series_branch_property(self, x):
        assert abs(sinc(x) - (1 - x * x / 6)) < 1e-12

    def test_continuity_at_branch(self):
        lo, hi = sinc(1e-4 * (1 - 1e-9)), sinc(1e-4 * (1 + 1e-9))
        assert abs(lo - hi) < 1e-14


class TestComputeG:
    def test_single_element_broadside(self):
        pair, wave = single_element_pair()
        assert abs(pair.g[0, 0]) == pytest.approx(0.05 / (FOUR_PI * 10.0), rel=1e-12)
        expected_phase = np.angle(np.exp(-1j * wave.wavenumber * 10.0))
        assert np.angle(pair.g[0, 0]) == pytest.approx(expected_phase, abs=1e-9)

    def test_offaxis_rx_sinc_argument(self):
        # rx at 45 deg: sinc argument evaluated directly from its definition
        pair, wave = single_element_pair(rx_pos=(10.0, 0, 10.0))
        k, d = wave.wavenumber, 0.05
        r_rx = math.sqrt(200.0)
        arg = k * (10.0 / r_rx + 0.0 / 10.0) * d / 2
        expected = d / (FOUR_PI * 10.0) * sinc(arg)
        assert abs(pair.g[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_cosine_gain_broadside_matches_isotropic(self):
        geom = RisGeometry(1, 1, 0.05, 0.05)
        wave = Wave(2.3e9)
        rx = Terminal((0, 0, 10))
        g_iso = ChannelPair.compute(geom, wave, Terminal((0, 0, 10)), rx).g
        g_cos = ChannelPair.compute(geom, wave, Terminal((0, 0, 10), CosinePower(2.0)), rx).g
        assert g_cos == pytest.approx(g_iso)


class TestComputeH:
    def test_single_element_broadside_magnitude(self):
        pair, _ = single_element_pair(rx_pos=(0, 0, 7.0))
        assert abs(pair.h[0, 0]) == pytest.approx(0.05 / (FOUR_PI * 7.0), rel=1e-12)

    def test_y_sinc_zero_on_axis(self):
        # M=1, y centers at 0, both terminals at y=0: y-sinc argument is 0
        geom = RisGeometry(3, 1, 0.05, 0.05)
        wave = Wave(2.3e9)
        h = ChannelPair.compute(geom, wave, Terminal((0, 0, 10)), Terminal((4, 0, 6))).h
        r_rx = np.sqrt((4 - geom.x_centers) ** 2 + 36.0)
        expected = 6.0 / r_rx**2 * 0.05 / FOUR_PI
        assert np.abs(h[:, 0]) == pytest.approx(expected, rel=1e-12)

    def test_offaxis_obliquity(self):
        pair, wave = single_element_pair(rx_pos=(0, 3, 4))
        arg_y = wave.wavenumber * (3.0 / 5.0) * 0.05 / 2
        expected = 0.8 * 0.05 / (FOUR_PI * 5.0) * sinc(arg_y)
        assert abs(pair.h[0, 0]) == pytest.approx(expected, rel=1e-12)


class TestReceivedPower:
    def test_dark_surface(self):
        pair, _ = single_element_pair()
        assert received_power(pair, np.zeros((1, 1), complex)) == 0.0

    def test_single_element_product(self):
        pair, _ = single_element_pair(rx_pos=(0, 0, 8.0))
        expected = (0.05 / (FOUR_PI * 10.0) * 0.05 / (FOUR_PI * 8.0)) ** 2
        assert received_power(pair, np.ones((1, 1), complex)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_linear_in_transmit_power(self):
        pair, _ = single_element_pair(rx_pos=(2, 1, 8.0))
        gamma = np.ones((1, 1), complex)
        assert received_power(pair, gamma, 4.0) == 4.0 * received_power(pair, gamma, 1.0)

    def test_dimension_mismatch(self):
        pair, _ = single_element_pair()
        with pytest.raises(ValueError):
            received_power(pair, np.ones((2, 2), complex))

    def test_matches_literal_expression(self):
        # dual route: factorized g*h sum vs a literal scalar-loop evaluation
        geom = RisGeometry(4, 3, 0.04, 0.05)
        wave = Wave(3.6e9)
        tx = Terminal((1.0, -2.0, 6.0))
        rx = Terminal((-3.0, 0.5, 4.0))
        rng = np.random.default_rng(11)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 3)))
        pair = ChannelPair.compute(geom, wave, tx, rx)
        assert received_power(pair, gamma) == pytest.approx(
            eq2_received_power(geom, wave, tx, rx, gamma), rel=1e-12
        )

    def test_global_phase_invariance(self):
        geom = RisGeometry(5, 5, 0.03, 0.03)
        wave = Wave(2.3e9)
        pair = ChannelPair.compute(geom, wave, Terminal((0, 0, 20)), Terminal((5, 2, 15)))
        rng = np.random.default_rng(3)
        gamma = 0.9 * np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 5)))
        p0 = received_power(pair, gamma)
        p1 = received_power(pair, gamma * np.exp(1j * 1.2345))
        assert p1 == pytest.approx(p0, rel=1e-12)

    def test_reciprocity_of_magnitude(self):
        # square pitch, isotropic gains: swapping tx and rx leaves the sum magnitude
        geom = RisGeometry(6, 6, 0.04, 0.04)
        wave = Wave(2.3e9)
        a, b = Terminal((2, -1, 9)), Terminal((-4, 3, 6))
        rng = np.random.default_rng(7)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (6, 6)))
        fwd = ChannelPair.compute(geom, wave, a, b)
        rev = ChannelPair.compute(geom, wave, b, a)
        assert received_power(rev, gamma.T) == pytest.approx(
            received_power(fwd, gamma), rel=1e-10
        )

    def test_far_field_r4_convergence(self):
        # at fixed angles, power * R^4 stabilizes once R is deep in the far field
        geom = RisGeometry(8, 8, 0.02, 0.02)
        wave = Wave(10e9)
        aperture = max(geom.aperture_x, geom.aperture_y)
        r0 = 100 * aperture**2 / wave.wavelength
        theta_t, theta_r = math.radians(10), math.radians(35)

        def p_r4(radius):
            tx = Terminal((radius * math.sin(theta_t), 0, radius * math.cos(theta_t)))
            rx = Terminal((radius * math.sin(theta_r), 0, radius * math.cos(theta_r)))
            pair = ChannelPair.compute(geom, wave, tx, rx)
            return received_power(pair, np.ones((8, 8), complex)) * radius**4

        v1, v2 = p_r4(4 * r0), p_r4(8 * r0)
        assert abs(v2 - v1) / v1 < 1e-3

    def test_recompute_bit_identical(self):
        geom = RisGeometry(3, 3, 0.05, 0.05)
        wave = Wave(2.3e9)
        tx, rx = Terminal((1, 2, 10)), Terminal((-2, 1, 8))
        p1 = ChannelPair.compute(geom, wave, tx, rx)
        p2 = ChannelPair.compute(geom, wave, tx, rx)
        assert np.array_equal(p1.g, p2.g)
        assert np.array_equal(p1.h, p2.h)

    def test_coefficients_finite_nonzero(self):
        geom = RisGeometry(10, 10, 0.02, 0.02)
        wave = Wave(33e9)
        pair = ChannelPair.compute(geom, wave, Terminal((0, 0, 3)), Terminal((1, 1, 2)))
        for arr in (pair.g, pair.h):
            assert np.all(np.isfinite(arr))
            assert np.all(np.abs(arr) > 0)


class TestAchievableRate:
    def setup_method(self):
        self.pair, _ = single_element_pair()
        self.gamma = np.ones((1, 1), complex)
        self.p_unit = received_power(self.pair, self.gamma)

    def test_snr_one_gives_one_bit(self):
        assert achievable_rate(self.pair, self.gamma, 1.0, self.p_unit) == pytest.approx(1.0)

    def test_zero_power_gives_zero(self):
        assert achievable_rate(self.pair, np.zeros((1, 1), complex), 1.0, 1e-12) == 0.0

    def test_snr_three_gives_two_bits(self):
        assert achievable_rate(self.pair, self.gamma, 3.0, self.p_unit) == pytest.approx(2.0)

    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            achievable_rate(self.pair, self.gamma, 1.0, 0.0)


class TestFieldKernel:
    """The batched kernel against the scalar reference, off the y = 0 plane,
    on a non-square grid with odd and even sides and cosine-power gains."""

    geom = RisGeometry(5, 4, 0.03, 0.025)
    wave = Wave(5.45e9)
    tx = Terminal((0.7, -0.4, 2.5), CosinePower(2.0))

    def gamma(self):
        rng = np.random.default_rng(21)
        return rng.uniform(0.3, 1.0, (5, 4)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 4)))

    def test_channel_pair_matches_reference(self):
        gamma = self.gamma()
        gain = CosinePower(1.5, normalize_directivity=True)
        rxs = [Terminal(p, gain) for p in ((-1.1, 0.6, 2.0), (0.2, -0.9, 1.4), (1.5, 1.2, 0.8), (0.0, 0.3, 3.0))]
        got = [received_power(ChannelPair.compute(self.geom, self.wave, self.tx, rx), gamma) for rx in rxs]
        want = [eq2_received_power(self.geom, self.wave, self.tx, rx, gamma) for rx in rxs]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * max(want)

    @pytest.mark.parametrize("radius", [3.0, None])
    def test_sweep_matches_reference(self, radius):
        gamma = self.gamma()
        trace = sweep(self.geom, self.wave, self.tx, gamma, SweepSpec(step=3.0, fixed_radius=radius), p_tx=1.7)
        r = trace.metadata["radius_m"]
        want = [
            eq2_received_power(self.geom, self.wave, self.tx, Terminal(rx_arc_position(r, t)), gamma, 1.7)
            for t in trace.angles
        ]
        assert np.max(np.abs(trace.power - want)) <= 1e-12 * trace.power.max()

    def test_batch_off_plane_receivers(self):
        gamma = self.gamma()
        rng = np.random.default_rng(4)
        positions = np.column_stack(
            [rng.uniform(-2, 2, 40), rng.uniform(-2, 2, 40), rng.uniform(0.5, 3, 40)]
        )
        got = channel._received_powers(self.geom, self.wave, self.tx, gamma, positions, 1.0)
        want = [eq2_received_power(self.geom, self.wave, self.tx, Terminal(p), gamma) for p in positions]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(want)


class TestChunking:
    geom = RisGeometry(12, 9, 0.02, 0.02)
    wave = Wave(10e9)
    spec = SweepSpec(step=1.0)

    def trace(self):
        rng = np.random.default_rng(8)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, 9)))
        tx = Terminal((0.3, 0.1, 2.0))
        return sweep(self.geom, self.wave, tx, gamma, self.spec).power

    @pytest.mark.parametrize(
        "angles, grid_rows",
        [(7, 12), (1, 5)],
        ids=["several-angles", "partial-grid"],
    )
    def test_multi_chunk_matches_one_chunk(self, monkeypatch, angles, grid_rows):
        assert channel._chunk_shape(12, 9)[0] >= len(self.spec.angles)
        one_chunk = self.trace()
        budget = channel._WORKERS * channel._BYTES_PER_ELEMENT_ANGLE * 9 * grid_rows * angles
        monkeypatch.setattr(channel, "_CHUNK_BUDGET", budget)
        assert channel._chunk_shape(12, 9) == (angles, grid_rows)
        chunked = self.trace()
        assert np.max(np.abs(chunked - one_chunk)) <= 1e-13 * one_chunk.max()
        assert np.array_equal(self.trace(), chunked)

    def test_chunk_shape_within_budget(self):
        for e in range(1, DEFAULT_ELEMENT_BUDGET + 1):
            n_cols = math.isqrt(e)
            n_rows = -(-e // n_cols)
            angles, grid_rows = channel._chunk_shape(n_rows, n_cols)
            assert angles >= 1 and 1 <= grid_rows <= n_rows
            live = channel._WORKERS * angles * grid_rows * n_cols * channel._BYTES_PER_ELEMENT_ANGLE
            assert live <= channel._CHUNK_BUDGET

    def test_sweep_memory_stays_within_budget(self, monkeypatch):
        # the chunk temporaries, as numpy reports them to tracemalloc, fit the
        # budget; the rest is O(N*M) per-grid state
        geom = RisGeometry(40, 40, 0.02, 0.02)
        budget = 2**20
        monkeypatch.setattr(channel, "_CHUNK_BUDGET", budget)
        gamma = np.ones((40, 40), complex)
        tx = Terminal((0.0, 0.0, 3.0))
        spec = SweepSpec(step=0.5)
        tracemalloc.start()
        try:
            sweep(geom, self.wave, tx, gamma, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_grid = 40 * geom.n_elements * 8
        assert len(spec.angles) * geom.n_elements * channel._BYTES_PER_ELEMENT_ANGLE > 10 * budget
        assert peak <= budget + per_grid
