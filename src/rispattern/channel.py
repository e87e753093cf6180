"""Cascaded free-space channel: one exact per-element field kernel.

The received field is a coherent sum over the N x M elements of gamma_nm
times a tx-side factor g_nm and an rx-side factor h_nm.  Each factor
carries one 1/(4*pi), a spherical-spreading term 1/r with obliquity z/r,
the square root of the antenna power gain, the phase exp(-jkr), and one of
the two element-size sinc factors.  The x-direction sinc lives in g and the
y-direction sinc in h; both mix tx and rx direction cosines, so g depends on
the receiver position as well.  Everything is evaluated with per-element
distances, so near-field (spherical wavefront) cases need no special path.

The physics is written once: `_terminal_terms` (distance, obliquity, gain,
phase), `_sinc_half` and `_rx_terms` evaluate it for a batch of A receiver
positions.  `ChannelPair.compute` is the A = 1 case and keeps g and h apart
for the designer.  `_received_powers`, behind the pattern sweeps, folds
gamma, the tx side, both pitches and 1/(4*pi)^2 into one complex weight per
element and keeps the per-angle work real: the amplitude, both sinc factors
and the phase come from real arrays, and two real matrix products against
the (2 x N*M) weight matrix reduce over the elements.  Sines and cosines
come from one tangent each, through sin(2u) = 2 tan(u) / (1 + tan(u)^2) and
cos(2u) = (1 - tan(u)^2) / (1 + tan(u)^2), within about one unit in the
last place.  numpy 2 on x86-64 has a SIMD float64 tan but evaluates float64
sin and cos element by element: about 2 ns against 13-33 ns per element on
an AVX-512 Xeon.

Memory is bounded whatever the grid: a sweep is processed in chunks of
angles (of element rows at one angle, when one angle over the whole grid is
too big) whose live temporaries, summed over the `_WORKERS` chunks in flight,
stay within `_CHUNK_BUDGET` bytes, so a sweep needs that budget plus O(N*M)
for the weights and tx-side terms.  The budget is small enough that a chunk
stays in a core's cache, which is faster than fewer, larger chunks.  A sweep
of more than one chunk runs its chunks on two threads of its own (numpy
releases the GIL inside its ufuncs and BLAS calls).  Each chunk writes only
its own slice of the output, its partial sums over element rows are added in
a fixed order, and the chunking depends only on the grid shape, not on the
CPU count, so reruns are bit for bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ISOTROPIC, RisGeometry, Terminal, Wave

FOUR_PI = 4.0 * np.pi

# sinc(x) switches to its Taylor series below this |x|.
_SINC_SERIES_BELOW = 1e-4

# Live temporaries of one chunk, in bytes per element and angle: five
# float64 arrays (phase tangent, 1/r, amplitude, sinc argument, sinc) and a
# boolean mask.
_BYTES_PER_ELEMENT_ANGLE = 5 * 8 + 1

# Upper bound, in bytes, on the live chunk temporaries of all workers at once.
_CHUNK_BUDGET = 4 * 2**20

# Threads that a sweep of more than one chunk runs its chunks on.  A fixed
# count keeps the chunking, and so the rounding of a sweep, independent of
# the machine's CPU count.  On a 2-vCPU x86-64 box two threads cut the far-sweep benchmark's
# wall time by 28% against one; larger counts were not measured.
_WORKERS = 2


def _sinc_half(h: np.ndarray, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Write sinc(2h) = sin(2h) / (2h) into out and return it; h is overwritten.

    sin(2h) / (2h) = tan(h) / (h (1 + tan(h)^2)); below |2h| < 1e-4 the
    series 1 - x^2/6 (1 - x^2/20) in x = 2h is used instead.
    """
    np.abs(h, out=out)
    np.less(out, _SINC_SERIES_BELOW / 2.0, out=mask)
    small = 2.0 * h[mask] if mask.any() else None
    np.tan(h, out=out)
    with np.errstate(invalid="ignore"):  # 0/0 at h = 0, replaced by the series below
        np.divide(out, h, out=h)
    np.multiply(out, out, out=out)
    out += 1.0
    np.divide(h, out, out=out)
    if small is not None:
        x2 = small * small
        out[mask] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return out


def sinc(x):
    """sin(x)/x with a series branch near zero (numpy's sinc is normalized)."""
    h = np.array(x, dtype=float)
    h *= 0.5
    out = _sinc_half(h, np.empty_like(h), np.empty(h.shape, dtype=bool))
    if np.ndim(x) == 0:
        return float(out)
    return out


def _terminal_terms(x, y, pos: np.ndarray, gain_pattern, half_k: float):
    """Per-element terms of A terminal positions pos (A, 3) over the grid of
    element rows at x (N) and columns at y (M).

    Returns (amp, inv_r, ox, oy, t): amp = sqrt(G(z/r)) (z/r) / r is the
    spreading amplitude with obliquity and antenna gain, inv_r = 1/r, both
    (A, N, M); ox (A, N) and oy (A, M) are the terminal's offsets from the
    element rows and columns; and t = tan(k r / 2), shape (A, N, M), carries
    the phase (see `_apply_phase`).
    """
    ox = pos[:, 0, None] - x
    oy = pos[:, 1, None] - y
    z = pos[:, 2, None, None]
    r = np.add((ox * ox)[:, :, None], (oy * oy)[:, None, :])
    r += z * z
    np.sqrt(r, out=r)
    inv_r = np.divide(1.0, r)
    amp = np.multiply(inv_r, z)
    if gain_pattern != ISOTROPIC:
        gain = gain_pattern.gain(amp)
        np.sqrt(gain, out=gain)
        amp *= gain
    amp *= inv_r
    r *= half_k
    np.tan(r, out=r)
    return amp, inv_r, ox, oy, r


def _apply_phase(amp: np.ndarray, t: np.ndarray, t2: np.ndarray, den: np.ndarray) -> None:
    """Turn amp * exp(-jkr) into two real arrays in place, from t = tan(kr/2).

    amp becomes amp * cos(kr) and t becomes amp * sin(kr) / 2, so the complex
    value is amp - 2j * t.  t2 and den are scratch arrays of the same shape.
    """
    np.multiply(t, t, out=t2)
    np.add(t2, 1.0, out=den)
    np.divide(amp, den, out=amp)
    t *= amp
    np.subtract(1.0, t2, out=t2)
    amp *= t2


@dataclass(frozen=True, eq=False)
class _Illumination:
    """Tx-side terms of one surface under one transmitter, built once."""

    x: np.ndarray  # element row centers (N)
    y: np.ndarray  # element column centers (M)
    half_k: float  # k / 2
    hx: float  # k d_x / 4: half the x-sinc argument per direction cosine
    hy: float  # k d_y / 4
    hx_tx: np.ndarray  # tx part of the half x-sinc argument (N, M)
    hy_tx: np.ndarray  # tx part of the half y-sinc argument (N, M)
    re: np.ndarray  # tx factor amp * exp(-jkr) is re - 2j * im_half (N, M)
    im_half: np.ndarray

    def rows(self, sl: slice) -> _Illumination:
        """The same terms restricted to the element rows sl."""
        return replace(
            self,
            x=self.x[sl],
            hx_tx=self.hx_tx[sl],
            hy_tx=self.hy_tx[sl],
            re=self.re[sl],
            im_half=self.im_half[sl],
        )


def _illuminate(geom: RisGeometry, wave: Wave, tx: Terminal) -> _Illumination:
    x, y = geom.x_centers, geom.y_centers
    k = wave.wavenumber
    hx = k * geom.pitch_x / 4.0
    hy = k * geom.pitch_y / 4.0
    amp, inv_r, ox, oy, t = _terminal_terms(x, y, np.array([tx.position]), tx.gain_pattern, k / 2.0)
    hx_tx = inv_r[0] * (hx * ox[0])[:, None]
    hy_tx = inv_r[0] * (hy * oy[0])[None, :]
    _apply_phase(amp, t, inv_r, np.empty_like(amp))
    return _Illumination(x, y, k / 2.0, hx, hy, hx_tx, hy_tx, amp[0], t[0])


def _rx_terms(ill: _Illumination, pos: np.ndarray, gain_pattern):
    """Receiver-side terms for A positions pos (A, 3) as real (A, N, M) arrays.

    Returns (sinc_x, re, im_half): sinc_x is the x-direction element factor
    and re - 2j * im_half = sqrt(G) (z/r) exp(-jkr) / r * sinc_y.
    """
    amp, inv_r, ox, oy, t = _terminal_terms(ill.x, ill.y, pos, gain_pattern, ill.half_k)
    mask = np.empty(amp.shape, dtype=bool)
    h = np.multiply(inv_r, (ill.hy * oy)[:, None, :])
    h += ill.hy_tx
    s = _sinc_half(h, np.empty_like(h), mask)
    amp *= s
    np.multiply(inv_r, (ill.hx * ox)[:, :, None], out=h)
    h += ill.hx_tx
    _sinc_half(h, s, mask)
    _apply_phase(amp, t, inv_r, h)
    return s, amp, t


def _chunk_shape(n_rows: int, n_cols: int) -> tuple[int, int]:
    """(angles, grid rows) of one chunk of a sweep over an n_rows x n_cols grid.

    Each of the _WORKERS chunks that can be in flight gets an equal share of
    _CHUNK_BUDGET.  A chunk takes whole angles over the full grid while one
    angle fits its share, and otherwise one angle over as many grid rows as
    fit; only a single grid row wider than the share overruns it.
    """
    share = _CHUNK_BUDGET // _WORKERS
    row_bytes = _BYTES_PER_ELEMENT_ANGLE * n_cols
    grid_rows = max(1, min(n_rows, share // row_bytes))
    return max(1, share // (row_bytes * grid_rows)), grid_rows


def _block_sums(block: _Illumination, w_block: np.ndarray, pos: np.ndarray):
    """Products of the (2, E) weights of one block of element rows with the
    real and half-imaginary parts of its isotropic rx factor, (2, A) each.

    The chunk temporaries are freed on return, before the next block's.
    """
    sinc_x, c, s = _rx_terms(block, pos, ISOTROPIC)
    c *= sinc_x
    s *= sinc_x
    return w_block @ c.reshape(len(pos), -1).T, w_block @ s.reshape(len(pos), -1).T


def _received_powers(
    geom: RisGeometry,
    wave: Wave,
    tx: Terminal,
    gamma: np.ndarray,
    rx_positions: np.ndarray,
    p_tx: float,
) -> np.ndarray:
    """Received power p_tx |sum g gamma h|^2 at each of the rx positions
    (A, 3), for an isotropic receiver."""
    ill = _illuminate(geom, wave, tx)
    weight = gamma * (ill.re - 2j * ill.im_half) * (geom.pitch_x * geom.pitch_y / FOUR_PI**2)
    w = np.stack([weight.real, weight.imag])
    n_pos = len(rx_positions)
    out = np.empty(n_pos)
    angles, grid_rows = _chunk_shape(geom.n_rows, geom.n_cols)
    blocks = [
        (ill.rows(sl), w[:, sl].reshape(2, -1))
        for sl in (slice(n, n + grid_rows) for n in range(0, geom.n_rows, grid_rows))
    ]

    def run(start: int) -> None:
        pos = rx_positions[start : start + angles]
        re = np.zeros(len(pos))
        im = np.zeros(len(pos))
        for block, w_block in blocks:
            p, q = _block_sums(block, w_block, pos)
            re += p[0] + 2.0 * q[1]
            im += p[1] - 2.0 * q[0]
        out[start : start + len(pos)] = p_tx * (re * re + im * im)

    starts = range(0, n_pos, angles)
    if len(starts) == 1:
        run(0)
    else:
        # imported here: it adds ~7 ms to importing the package, and many
        # runs never sweep more than one chunk
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(_WORKERS) as pool:
            list(pool.map(run, starts))
    return out


@dataclass(frozen=True, eq=False)
class ChannelPair:
    """The g, h coefficient matrices for one fixed tx/rx placement."""

    g: np.ndarray
    h: np.ndarray
    geometry: RisGeometry
    wave: Wave
    tx: Terminal
    rx: Terminal

    @classmethod
    def compute(cls, geom: RisGeometry, wave: Wave, tx: Terminal, rx: Terminal):
        ill = _illuminate(geom, wave, tx)
        sinc_x, re, im_half = _rx_terms(ill, np.array([rx.position]), rx.gain_pattern)
        return cls(
            g=(ill.re - 2j * ill.im_half) * sinc_x[0] * (geom.pitch_x / FOUR_PI),
            h=(re[0] - 2j * im_half[0]) * (geom.pitch_y / FOUR_PI),
            geometry=geom,
            wave=wave,
            tx=tx,
            rx=rx,
        )

    @property
    def gh(self) -> np.ndarray:
        return self.g * self.h


def field_sum(pair: ChannelPair, config) -> complex:
    """Coherent sum over elements of g_nm * gamma_nm * h_nm.

    Accepts a SurfaceConfig or a bare gamma matrix.  numpy's sum reduces
    pairwise, which keeps rounding bounded for the ~3e5-element grids that a
    lambda/32 pitch produces.
    """
    gamma = np.asarray(getattr(config, "gamma", config))
    if gamma.shape != pair.g.shape:
        raise ValueError(f"gamma shape {gamma.shape} != channel shape {pair.g.shape}")
    return complex(np.sum(pair.g * gamma * pair.h))


def received_power(pair: ChannelPair, config, p_tx: float = 1.0) -> float:
    """Received power p_tx * |sum g gamma h|^2 in watts."""
    return p_tx * abs(field_sum(pair, config)) ** 2


def achievable_rate(pair: ChannelPair, config, p_tx: float, noise_power: float) -> float:
    """Rate per unit bandwidth, log2(1 + SNR), in bits/s/Hz."""
    if noise_power <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power}")
    return float(np.log2(1.0 + received_power(pair, config, p_tx) / noise_power))
