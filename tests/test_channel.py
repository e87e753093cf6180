import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rispattern import (
    ChannelPair,
    DesignCriterion,
    NearFieldRadiusWarning,
    RisGeometry,
    Scenario,
    SweepSpec,
    Terminal,
    Wave,
    builtin,
    design_scenario,
    far_field_radius,
    interference_study,
    received_power,
    rx_arc_position,
    sweep,
)
from rispattern import channel
from rispattern.scenario import DEFAULT_ELEMENT_BUDGET

FOUR_PI = 4 * math.pi


def sinc(x):
    """sin(x)/x through the kernel's `_sinc_half`, scalar or array."""
    h = np.array(x, dtype=float)
    h *= 0.5
    out = channel._sinc_half(h, np.empty_like(h), np.empty(h.shape, dtype=bool))
    return float(out) if np.ndim(x) == 0 else out


def single_element_pair(tx_pos=(0, 0, 10), rx_pos=(0, 0, 10), d=0.05, f=2.3e9):
    geom = RisGeometry(1, 1, d, d)
    wave = Wave(f)
    return ChannelPair.compute(geom, wave, Terminal(tx_pos), Terminal(rx_pos)), wave


def eq2_received_power(geom, wave, tx, rx, gamma, p_tx=1.0):
    """Literal scalar-loop evaluation of the received-power expression for
    isotropic terminals, independent of the vectorized g/h factorization."""
    k = wave.wavenumber
    tx_x, tx_y, tx_z = tx.position
    rx_x, rx_y, rx_z = rx.position
    total = 0j
    for n in range(1, geom.n_rows + 1):
        for m in range(1, geom.n_cols + 1):
            xn = (n - (geom.n_rows + 1) / 2.0) * geom.pitch_x
            ym = (m - (geom.n_cols + 1) / 2.0) * geom.pitch_y
            r_tx = math.sqrt((tx_x - xn) ** 2 + (tx_y - ym) ** 2 + tx_z**2)
            r_rx = math.sqrt((rx_x - xn) ** 2 + (rx_y - ym) ** 2 + rx_z**2)
            sx = k * ((rx_x - xn) / r_rx + (tx_x - xn) / r_tx) * geom.pitch_x / 2
            sy = k * ((rx_y - ym) / r_rx + (tx_y - ym) / r_tx) * geom.pitch_y / 2
            term = (
                gamma[n - 1, m - 1]
                * (tx_z / r_tx)
                * np.exp(-1j * k * r_tx)
                / r_tx
                * (rx_z / r_rx)
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


class TestFieldKernel:
    """The batched kernel against the scalar reference, off the y = 0 plane,
    on a non-square grid with odd and even sides."""

    geom = RisGeometry(5, 4, 0.03, 0.025)
    wave = Wave(5.45e9)
    tx = Terminal((0.7, -0.4, 2.5))

    def gamma(self):
        rng = np.random.default_rng(21)
        return rng.uniform(0.3, 1.0, (5, 4)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 4)))

    def test_channel_pair_matches_reference(self):
        gamma = self.gamma()
        rxs = [Terminal(p) for p in ((-1.1, 0.6, 2.0), (0.2, -0.9, 1.4), (1.5, 1.2, 0.8), (0.0, 0.3, 3.0))]
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


class TestMirrorFold:
    """With every terminal at y = 0 the kernel runs on the first ceil(M/2)
    columns; off that plane on all M."""

    wave = Wave(10e9)

    def gamma(self, geom):
        rng = np.random.default_rng(17)
        return np.exp(1j * rng.uniform(-np.pi, np.pi, (geom.n_rows, geom.n_cols)))

    @pytest.mark.parametrize("shape", [(24, 24), (25, 25), (9, 14)], ids=["24x24", "25x25", "9x14"])
    @pytest.mark.parametrize("rx_radius, rx_angle", [(None, 35.0), (0.5, -60.0)], ids=["far", "near"])
    def test_channel_pair_is_the_full_grid(self, shape, rx_radius, rx_angle):
        geom = RisGeometry(*shape, 0.012, 0.012)
        radius = far_field_radius(geom, self.wave)
        tx = Terminal(rx_arc_position(radius, -20.0))
        rx = Terminal(rx_arc_position(rx_radius or radius, rx_angle))
        pair = ChannelPair.compute(geom, self.wave, tx, rx)
        ill = channel._illuminate(geom, self.wave, tx, geom.x_centers, geom.y_centers)
        sinc_x, re, im_half = channel._rx_terms(ill, np.array([rx.position]))
        assert np.array_equal(pair.g, (ill.re - 2j * ill.im_half) * sinc_x[0] * (geom.pitch_x / FOUR_PI))
        assert np.array_equal(pair.h, (re[0] - 2j * im_half[0]) * (geom.pitch_y / FOUR_PI))

    @pytest.mark.parametrize(
        "n_cols, angles, kernel",
        [(40, 61, (40, 40)), (41, 61, (41, 40)), (40, 181, (12, 12)), (41, 181, (12, 12))],
        ids=["even-real", "odd-real", "even-nodes", "odd-nodes"],
    )
    def test_sweep_matches_the_unfolded_columns(self, monkeypatch, n_cols, angles, kernel):
        geom = RisGeometry(40, n_cols, 0.02, 0.02)
        tx = Terminal(rx_arc_position(3.0, 15.0))
        positions = rx_arc_position(5.0, np.linspace(-90.0, 90.0, angles))
        gamma = self.gamma(geom)
        meta, unfolded_meta = {}, {}
        power = channel._received_powers(geom, self.wave, tx, gamma, positions, 1.0, meta)
        # unfolded: all M columns, the weights of each column and r node
        # columns; both take the same counts
        monkeypatch.setattr(channel, "_columns", lambda geom, terminal_y: geom.y_centers)
        unfolded = channel._received_powers(geom, self.wave, tx, gamma, positions, 1.0, unfolded_meta)
        for m in (meta, unfolded_meta):
            assert (m["kernel_columns"], m["kernel_rows"]) == kernel
        assert np.max(np.abs(power - unfolded)) <= 1e-13 * unfolded.max()

    @pytest.mark.parametrize("tx_y, rx_y", [(0.1, 0.0), (0.0, 1e-3)], ids=["tx-off-plane", "rx-off-plane"])
    def test_off_the_plane_all_columns(self, monkeypatch, tx_y, rx_y):
        geom = RisGeometry(9, 14, 0.02, 0.02)
        tx = Terminal((0.3, tx_y, 2.0))
        positions = rx_arc_position(1.5, np.linspace(-80.0, 80.0, 17))
        positions[5, 1] = rx_y
        gamma = self.gamma(geom)
        illuminate = channel._illuminate
        columns = []

        def spy(geom, wave, tx, x, y):
            columns.append(len(y))
            return illuminate(geom, wave, tx, x, y)

        monkeypatch.setattr(channel, "_illuminate", spy)
        power = channel._received_powers(geom, self.wave, tx, gamma, positions, 1.0)
        assert columns == [14]
        ChannelPair.compute(geom, self.wave, tx, Terminal(positions[5]))
        assert columns == [14, 14]
        want = [received_power(ChannelPair.compute(geom, self.wave, tx, Terminal(p)), gamma) for p in positions]
        assert np.max(np.abs(power - want)) <= 1e-12 * max(want)


class TestChunking:
    geom = RisGeometry(12, 9, 0.02, 0.02)
    wave = Wave(10e9)
    spec = SweepSpec(step=1.0)

    def trace(self):
        rng = np.random.default_rng(8)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, 9)))
        tx = Terminal((0.3, 0.1, 2.0))
        return sweep(self.geom, self.wave, tx, gamma, self.spec).power

    def row_path(self):
        """The sweep's powers on the row path, on 4 x 4 nodes."""
        rng = np.random.default_rng(8)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, 9)))
        tx = Terminal((0.3, 0.1, 2.0))
        ill = channel._illuminate(self.geom, self.wave, tx, self.geom.x_centers, self.geom.y_centers)
        weight = gamma * (ill.re - 2j * ill.im_half)
        nodes, node_w = channel._node_weights(np.stack([weight.real, weight.imag]), ill.y, 4, 0.0)
        row_nodes, basis = channel._chebyshev_basis(ill.x, 4)
        row_ill = channel._illuminate(self.geom, self.wave, tx, row_nodes, nodes)
        positions = rx_arc_position(2.0, self.spec.angles)
        return channel._powers(row_ill, channel._row_weights(node_w, basis), positions, 1.0, rows=ill.x)

    @pytest.mark.parametrize(
        "angles, grid_rows",
        [(7, 12), (1, 5), (7, None)],
        ids=["several-angles", "partial-grid", "row-path"],
    )
    def test_multi_chunk_matches_one_chunk(self, monkeypatch, angles, grid_rows):
        assert channel._chunk_shape(12, 9)[0] >= len(self.spec.angles)
        if grid_rows is None:
            # the row path, 12 element rows on 4 x 4 nodes: one chunk of 181
            # angles, then chunks of 7 and a last one of 6 (a product of one
            # angle takes numpy's matrix-vector path and may round otherwise)
            one_chunk = self.row_path()
            monkeypatch.setattr(channel, "_CHUNK_BUDGET", 2 * 8 * (4 * 12 + 8 * 16) * angles)
            chunked = self.row_path()
            assert np.array_equal(chunked, one_chunk)
            return
        one_chunk = self.trace()
        budget = channel._BYTES_PER_ELEMENT_ANGLE * 9 * grid_rows * angles
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
            live = angles * grid_rows * n_cols * channel._BYTES_PER_ELEMENT_ANGLE
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
            trace = sweep(geom, self.wave, tx, gamma, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the budget holds on the node path, rows included
        assert trace.metadata["kernel_columns"] < geom.n_cols
        assert trace.metadata["kernel_rows"] < geom.n_rows
        per_grid = 40 * geom.n_elements * 8
        assert len(spec.angles) * geom.n_elements * channel._BYTES_PER_ELEMENT_ANGLE > 10 * budget
        assert peak <= budget + per_grid

    def test_blocks_of_grid_rows_live_one_at_a_time(self, monkeypatch):
        # a real-column sweep whose chunks are one angle over 20 of the 40
        # element rows of the 200 folded columns: a block's kernel arrays
        # must be freed before the next block's are made, or the kernel's
        # peak grows by more than half a block
        geom = RisGeometry(40, 400, 0.02, 0.02)
        block = channel._BYTES_PER_ELEMENT_ANGLE * 20 * 200
        monkeypatch.setattr(channel, "_CHUNK_BUDGET", block)
        monkeypatch.setattr(channel, "_NODE_COUNTS", ())
        assert channel._chunk_shape(geom.n_rows, 200) == (1, 20)
        rows, powers = channel._Illumination.rows, channel._powers
        blocks, peaks, inside, kernel_peaks = [], [], [], []

        def rows_spy(ill, sl):
            blocks.append((sl, len(ill.y)))
            return rows(ill, sl)

        def powers_spy(*args, **kwargs):
            # the peak so far, then the kernel's peak and its own growth over
            # its start
            start, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            out = powers(*args, **kwargs)
            inside.append(tracemalloc.get_traced_memory()[1])
            kernel_peaks.append(inside[-1] - start)
            return out

        monkeypatch.setattr(channel._Illumination, "rows", rows_spy)
        monkeypatch.setattr(channel, "_powers", powers_spy)
        gamma = np.ones((40, 400), complex)
        tx = Terminal((0.0, 0.0, 3.0))
        tracemalloc.start()
        try:
            trace = sweep(geom, self.wave, tx, gamma, SweepSpec(step=30.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trace.metadata["kernel_columns"] == geom.n_cols
        assert blocks == [(slice(0, 20), 200), (slice(20, 40), 200)]
        assert max(peaks) <= block + 7 * 8 * geom.n_elements
        assert kernel_peaks[0] <= 1.5 * block
        # the weight pair's set-up takes no more memory than the sweep
        assert peaks[0] <= inside[0]


def _far(criterion, target, pitch_divisor, frequency, aperture=1.0, **kw):
    return Scenario(
        frequency, criterion, target, pitch_divisor=pitch_divisor, aperture=aperture, sweep_step=0.5, **kw
    )


def _near(name, target):
    alphabet = builtin(name)
    return Scenario(
        alphabet.nominal_frequency,
        DesignCriterion.from_alphabet(alphabet),
        target,
        pitch_divisor=4,
        field_regime="near",
        near_radius=5.0,
        sweep_step=0.5,
    )


# The far-field geometries of the acceptance suite (criteria 03-05, 09 and
# 10) and the five near-arc alphabet designs of the benchmark, on a 0.5 deg
# grid.  Criterion 10's 0.5 m UADP(2) grid is left out: its 15 columns are
# fewer than twice the smallest node count, so it always takes the real
# columns.
NODE_SCENARIOS = {
    "uadp2-2.3GHz-l8-45": _far(DesignCriterion.uadp(2), 45.0, 8, 2.3e9),
    "uadp4-2.3GHz-l8-45": _far(DesignCriterion.uadp(4), 45.0, 8, 2.3e9),
    "uacp-5.45GHz-l8-45": _far(DesignCriterion.uacp(), 45.0, 8, 5.45e9),
    "uacp-5.45GHz-l8-75": _far(DesignCriterion.uacp(), 75.0, 8, 5.45e9),
    "testbed2p3-l8-45": _far(
        DesignCriterion.from_alphabet(builtin("testbed2p3")), 45.0, 8, 2.3e9, interferer_angles=(-15.0, -50.0)
    ),
    "uacp-2.3GHz-l4-75": _far(DesignCriterion.uacp(), 75.0, 4, 2.3e9),
    "uacp-2.3GHz-l8-75": _far(DesignCriterion.uacp(), 75.0, 8, 2.3e9),
    "uacp-2.3GHz-l32-75": _far(DesignCriterion.uacp(), 75.0, 32, 2.3e9),
    # a 1 m near arc: checked only at its first, middle, last and peak
    # angles, its interference sweep passed on 12 columns and was 5.9e-10
    # off at -70 deg
    "omni3p6-uaep-1m-near": Scenario(
        7.680120297e9,
        DesignCriterion.uaep(builtin("omni3p6")),
        34.8655,
        pitch_divisor=2.826800085379557,
        aperture=0.47640540452218194,
        field_regime="near",
        near_radius=1.0063,
        interferer_angles=(34.373,),
        sweep_step=1.0,
    ),
    **{f"{name}-near-{target:g}": _near(name, target) for name, target in [
        ("varactor5g", 30.0), ("varactor5g", 45.0), ("varactor5g", 75.0), ("omni3p6", 45.0), ("omni3p6", 75.0)
    ]},
}


def _node_traces(s):
    """The scenario's nominal and interference traces."""
    d = design_scenario(s, element_budget=None)
    spec = SweepSpec(step=s.sweep_step, fixed_radius=d.rx_radius)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearFieldRadiusWarning)
        traces = [sweep(d.geometry, s.wave, d.tx, d.config, spec)]
        traces += [interference_study(d.geometry, s.wave, d.config, t, spec) for t in s.interferer_angles]
    return traces


class TestNodeKernel:
    """Sweeps on Chebyshev interpolation columns against the real columns."""

    @pytest.mark.parametrize("label", list(NODE_SCENARIOS))
    def test_matches_real_columns(self, monkeypatch, label):
        s = NODE_SCENARIOS[label]
        node = _node_traces(s)
        monkeypatch.setattr(channel, "_NODE_COUNTS", ())
        real = _node_traces(s)
        for a, b in zip(node, real):
            n_rows, n_cols = a.metadata["grid"]
            assert a.metadata["kernel_columns"] < n_cols
            assert a.metadata["kernel_columns"] <= a.metadata["kernel_rows"] < n_rows
            assert 0.0 < a.metadata["kernel_check_err"] <= channel._NODE_TOL
            assert b.metadata["kernel_columns"] == n_cols and b.metadata["kernel_rows"] == n_rows
            assert b.metadata["kernel_check_err"] == 0.0
            # every angle, not only the checked ones
            assert np.max(np.abs(a.power - b.power)) <= 1e-10 * b.power.max()

    @pytest.mark.parametrize(
        "label, grid, most", [("varactor5g-near-45", 72, 12), ("uacp-5.45GHz-l8-45", 145, 6)]
    )
    def test_demodulated_columns_taken(self, label, grid, most):
        # the 5 m near arc took 24 columns and the far grid 8 before the
        # chirp was taken out; with each position's row distance taken out,
        # the rows take as few nodes (test_matches_real_columns checks every
        # angle of these sweeps)
        (trace,) = _node_traces(NODE_SCENARIOS[label])
        assert trace.metadata["grid"] == (grid, grid)
        assert trace.metadata["kernel_columns"] <= most
        assert trace.metadata["kernel_rows"] <= most

    @pytest.mark.parametrize("chirp", [False, True], ids=["no-chirp", "arc-chirp"])
    def test_as_many_nodes_as_columns_match_real_columns(self, chirp):
        # Sum_m w_m K(y_m) = Sum_m (w_m D(y_m)) (K(y_m) / D(y_m)) holds for
        # any D, so with r = M nodes only rounding is left
        geom = RisGeometry(12, 20, 0.012, 0.012)
        wave = Wave(10e9)
        tx = Terminal((0.4, 0.0, 1.5))
        rng = np.random.default_rng(5)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, 20)))
        positions = rx_arc_position(3.0, np.linspace(-90.0, 90.0, 61))
        ill = channel._illuminate(geom, wave, tx, geom.x_centers, geom.y_centers)
        weight = gamma * (ill.re - 2j * ill.im_half)
        w = np.stack([weight.real, weight.imag])
        real = channel._powers(ill, w, positions, 1.0)
        rate = wave.wavenumber / (2 * 3.0) if chirp else 0.0  # the 3 m arc's chirp
        nodes, node_w = channel._node_weights(w, ill.y, geom.n_cols, rate)
        node = channel._powers(channel._illuminate(geom, wave, tx, ill.x, nodes), node_w, positions, 1.0)
        assert np.max(np.abs(node - real)) <= 1e-12 * real.max()

    @pytest.mark.parametrize("basis", ["identity", "chebyshev"])
    def test_as_many_node_rows_as_rows_match_column_nodes(self, basis):
        # Sum_n b_n K(x_n) = Sum_n (b_n E_p(x_n)) (K(x_n) / E_p(x_n)) holds
        # for any phase E_p; with the element rows as nodes (L = I) only
        # rounding is left, and with as many Chebyshev nodes as rows nearly so
        geom = RisGeometry(12, 20, 0.012, 0.012)
        wave = Wave(10e9)
        tx = Terminal((0.4, 0.0, 1.5))
        rng = np.random.default_rng(5)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, 20)))
        positions = rx_arc_position(3.0, np.linspace(-90.0, 90.0, 61))
        ill = channel._illuminate(geom, wave, tx, geom.x_centers, geom.y_centers)
        weight = gamma * (ill.re - 2j * ill.im_half)
        nodes, node_w = channel._node_weights(np.stack([weight.real, weight.imag]), ill.y, 8, wave.wavenumber / 6.0)
        columns = channel._powers(channel._illuminate(geom, wave, tx, ill.x, nodes), node_w, positions, 1.0)
        if basis == "identity":
            row_nodes, row_basis = ill.x, np.eye(12)
        else:
            row_nodes, row_basis = channel._chebyshev_basis(ill.x, 12)
        row_ill = channel._illuminate(geom, wave, tx, row_nodes, nodes)
        rows = channel._powers(row_ill, channel._row_weights(node_w, row_basis), positions, 1.0, rows=ill.x)
        assert np.max(np.abs(rows - columns)) <= 1e-12 * columns.max()

    def test_positions_off_the_arc_plane(self, monkeypatch):
        # the chirp assumes receivers at y = 0, and the row phase is their
        # distance from the row axis; off that plane the checks either hold
        # the node rows to _NODE_TOL or send the sweep to the real columns
        geom = RisGeometry(40, 40, 0.02, 0.02)
        rng = np.random.default_rng(3)
        gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, (40, 40)))
        tx = Terminal((0.3, 0.2, 3.0))
        t = np.radians(np.linspace(-90.0, 90.0, 3 * channel._chunk_shape(40, 40)[0]))
        paths = set()
        for azimuth, y in [(0.0, 0.02), (0.0, 0.1), (2.0, 0.0), (0.0, 0.4), (10.0, 0.0), (30.0, 0.1)]:
            a = np.radians(azimuth)
            positions = np.stack([5 * np.sin(t) * np.cos(a), 5 * np.sin(t) * np.sin(a) + y, 5 * np.cos(t)], axis=-1)
            meta = {}
            power = channel._received_powers(geom, Wave(10e9), tx, gamma, positions, 1.0, meta)
            with monkeypatch.context() as m:
                m.setattr(channel, "_NODE_COUNTS", ())
                real = channel._received_powers(geom, Wave(10e9), tx, gamma, positions, 1.0)
            if meta["kernel_columns"] == 40:
                paths.add("real")
                assert np.array_equal(power, real)
            else:
                paths.add("rows" if meta["kernel_rows"] < 40 else "columns")
                assert np.max(np.abs(power - real)) <= channel._NODE_TOL * real.max()
        assert paths == {"real", "rows"}

    def test_failed_check_falls_back_bit_for_bit(self, monkeypatch):
        s = NODE_SCENARIOS["uadp4-2.3GHz-l8-45"]
        monkeypatch.setattr(channel, "_NODE_TOL", 0.0)
        (fallback,) = _node_traces(s)
        monkeypatch.setattr(channel, "_NODE_COUNTS", ())
        (real,) = _node_traces(s)
        assert fallback.metadata["kernel_columns"] == real.metadata["grid"][1]
        assert fallback.metadata["kernel_check_err"] == 0.0
        assert np.array_equal(fallback.power, real.power)

    def test_failed_row_ladder_runs_the_real_columns(self, monkeypatch):
        # no row count passes a check: the column nodes, which have passed
        # theirs, do not run the sweep; the real columns do
        s = NODE_SCENARIOS["uadp4-2.3GHz-l8-45"]
        powers = channel._powers

        def no_rows(ill, w, pos, p_tx, chunk_elements=None, rows=None):
            if rows is not None:
                return np.full(len(pos), np.nan)
            return powers(ill, w, pos, p_tx, chunk_elements)

        monkeypatch.setattr(channel, "_powers", no_rows)
        (fallback,) = _node_traces(s)
        monkeypatch.setattr(channel, "_NODE_COUNTS", ())
        (real,) = _node_traces(s)
        assert fallback.metadata["kernel_columns"] == real.metadata["grid"][1]
        assert fallback.metadata["kernel_rows"] == real.metadata["grid"][0]
        assert fallback.metadata["kernel_check_err"] == 0.0
        assert np.array_equal(fallback.power, real.power)

    def test_checks_only_where_there_is_power(self, monkeypatch):
        # the first counts pass: the real columns, folded to the first
        # ceil(M/2), are evaluated at the middle before the ladder and at
        # the peak and the two outer-quarter maxima after the sweep, never
        # at the arc's ends (z = 0)
        s = NODE_SCENARIOS["uacp-5.45GHz-l8-45"]
        d = design_scenario(s, element_budget=None)
        powers = channel._powers
        full_grid = []

        def spy(ill, w, pos, p_tx, chunk_elements=None, rows=None):
            if rows is None and len(ill.y) == (d.geometry.n_cols + 1) // 2:
                full_grid.append(pos)
            return powers(ill, w, pos, p_tx, chunk_elements, rows)

        monkeypatch.setattr(channel, "_powers", spy)
        spec = SweepSpec(step=s.sweep_step, fixed_radius=d.rx_radius)
        trace = sweep(d.geometry, s.wave, d.tx, d.config, spec)
        assert (trace.metadata["kernel_columns"], trace.metadata["kernel_rows"]) == (4, 4)
        checked = np.concatenate(full_grid)
        assert [len(p) for p in full_grid] == [1, 3]
        ends = rx_arc_position(d.rx_radius, np.array([-90.0, 90.0]))
        assert not any(np.array_equal(p, e) for p in checked for e in ends)
        assert np.array_equal(checked[0], rx_arc_position(d.rx_radius, 0.0))

    def test_rerun_bit_identical(self):
        s = NODE_SCENARIOS["omni3p6-near-45"]
        (first,) = _node_traces(s)
        (second,) = _node_traces(s)
        assert first.metadata["kernel_columns"] < first.metadata["grid"][1]
        assert first.metadata["kernel_rows"] < first.metadata["grid"][0]
        assert np.array_equal(first.power, second.power)

    def test_sweep_of_two_chunks_uses_real_columns(self):
        # the checks would take about as long as two chunks: no node path
        # up to that
        geom = RisGeometry(40, 40, 0.02, 0.02)
        two_chunks = 2 * channel._chunk_shape(40, 40)[0]
        kernels = []
        for count in (two_chunks, two_chunks + 1):
            spec = SweepSpec(step=180.0 / (count - 1))
            assert len(spec.angles) == count
            trace = sweep(geom, Wave(10e9), Terminal((0.0, 0.0, 3.0)), np.ones((40, 40), complex), spec)
            kernels.append((trace.metadata["kernel_columns"], trace.metadata["kernel_rows"]))
        assert kernels[0] == (40, 40)
        assert kernels[1][0] < 40 and kernels[1][1] < 40

    @pytest.mark.parametrize("r", [8, 9, 24])
    def test_basis_reproduces_polynomials(self, r):
        y = RisGeometry(3, 61, 0.01, 0.013).y_centers
        nodes, basis = channel._chebyshev_basis(y, r)
        assert basis.shape == (61, r)
        assert np.all(nodes >= y[0]) and np.all(nodes <= y[-1])
        u = y / y[-1]
        for degree in range(r):
            assert np.max(np.abs(basis @ (nodes / y[-1]) ** degree - u**degree)) <= 1e-12

    def test_basis_column_on_a_node(self):
        y0 = np.linspace(-0.3, 0.3, 9)
        nodes, _ = channel._chebyshev_basis(y0, 8)
        y = np.sort(np.append(y0, nodes[2]))
        _, basis = channel._chebyshev_basis(y, 8)
        row = basis[np.flatnonzero(y == nodes[2])[0]]
        assert np.all(np.isfinite(basis))
        assert np.array_equal(row, np.eye(8)[2])
