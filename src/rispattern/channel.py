"""Cascaded free-space channel: one per-element field kernel.

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

A sweep does not need the rx factor at every column.  For a fixed element
row n and receiver position, K_n(y) = sinc_x sinc_y amp exp(-jkr) is an
analytic, slowly varying function of the column coordinate y: in the far
field its phase changes by about k (D/2)^2 / (2R) ~ 0.1 rad across the
aperture (Balanis, Antenna Theory, Fresnel-region array factor).  So it is
interpolated on r Chebyshev nodes eta_j spanning the columns,

    F = sum_n sum_m w_nm K_n(y_m) ~ sum_n sum_j K_n(eta_j) b_nj,
    b = w @ L,  L[m, j] = l_j(y_m)  (barycentric Lagrange basis, M x r),

and K at the nodes comes from the same `_illuminate` and `_rx_terms`, run on
an illumination whose columns are the nodes.  The real-column kernel is the
same code with the columns as nodes and b = w.  The per-angle work falls from
O(N*M) to O(N*r).  r is chosen per sweep and checked against the real
columns at run time: the counts of `_NODE_COUNTS` with 2r <= M are tried in
turn, the first whose power matches the real columns within `_NODE_TOL` of
the largest checked power at the sweep's first, middle and last positions
runs the sweep, and the real-column power at the trace peak is checked
after it.  If no count passes, or the peak check fails, the sweep runs on
the real columns.  A sweep of at most `_WORKERS` chunks always does: its
chunks run in one round, about as long as the checks would take.  The node
path, checks included, runs in chunks of half the element-angles of a
real-column chunk, so it needs less memory than the real columns.
Near-field arcs go through the same rule; they need more nodes (24 on the
5 m benchmark arc against 8 or 12 far away).

Memory is bounded whatever the grid: a sweep is processed in chunks of
angles (of element rows at one angle, when one angle over the whole grid is
too big) whose live temporaries, summed over the `_WORKERS` chunks in flight,
stay within `_CHUNK_BUDGET` bytes, so a sweep needs that budget plus O(N*M)
for the weights and tx-side terms.  The budget is small enough that a chunk
stays in a core's cache, which is faster than fewer, larger chunks.  A sweep
of more than one chunk runs its chunks on two threads of its own (numpy
releases the GIL inside its ufuncs and BLAS calls); the checks of the node
path run on them as well.  Each chunk writes only
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

# Chebyshev node counts that a sweep tries, in order, for the rx factor's
# column dependence; a count is tried only while it is at most half the
# column count.
_NODE_COUNTS = (8, 12, 16, 24, 32, 48, 64)

# Largest |node power - real-column power| that a sweep accepts at a checked
# position, as a share of the largest checked power.
_NODE_TOL = 1e-10


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


def _illuminate(geom: RisGeometry, wave: Wave, tx: Terminal, y: np.ndarray) -> _Illumination:
    """Tx-side terms over the element rows of geom and the columns at y."""
    x = geom.x_centers
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


def _powers(
    ill: _Illumination,
    w: np.ndarray,
    rx_positions: np.ndarray,
    p_tx: float,
    pool=None,
    chunk_elements: int | None = None,
) -> np.ndarray:
    """p_tx |sum_nm (w[0] + 1j w[1])_nm K_n(pos, y_m)|^2 at each of the rx
    positions (A, 3), where y_m are the columns of ill and K is its
    isotropic rx factor.  The chunks run on pool if one is given, else one
    after another; chunk_elements, if given, caps the element-angles of a
    chunk."""
    n_rows, n_cols = w.shape[1:]
    n_pos = len(rx_positions)
    out = np.empty(n_pos)
    angles, grid_rows = _chunk_shape(n_rows, n_cols)
    if chunk_elements is not None:
        grid_rows = max(1, min(grid_rows, chunk_elements // n_cols))
        angles = max(1, min(angles, chunk_elements // (grid_rows * n_cols)))
    blocks = [
        (ill.rows(sl), w[:, sl].reshape(2, -1))
        for sl in (slice(n, n + grid_rows) for n in range(0, n_rows, grid_rows))
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
    if pool is None:
        for start in starts:
            run(start)
    else:
        list(pool.map(run, starts))
    return out


def _chebyshev_basis(y: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """r Chebyshev nodes (first kind) spanning the columns y, and the (M, r)
    matrix of their Lagrange basis polynomials at y, in barycentric form."""
    theta = (2.0 * np.arange(r) + 1.0) * (np.pi / (2.0 * r))
    nodes = 0.5 * (y[0] + y[-1]) + 0.5 * (y[-1] - y[0]) * np.cos(theta)
    diff = y[:, None] - nodes
    hit = diff == 0.0
    diff[hit] = 1.0
    basis = np.where(np.arange(r) % 2, -1.0, 1.0) * np.sin(theta) / diff
    basis /= basis.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    basis[on_node] = hit[on_node]
    return nodes, basis


def _check_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |approx - exact| as a share of max(exact)."""
    diff = np.max(np.abs(approx - exact))
    return float(diff / np.max(exact)) if diff else 0.0


def _node_powers(geom, wave, tx, ill, w, rx_positions, p_tx, pool, meta):
    """The powers of `_received_powers` on the first node count that passes
    both checks, or None if none does."""
    counts = [r for r in _NODE_COUNTS if 2 * r <= geom.n_cols]
    if not counts:
        return None
    # the node path, checks included, runs in chunks of half the
    # element-angles of a real-column chunk, so it needs less memory than the
    # real columns; on the benchmark grids its sweeps ran within the noise of
    # whole chunks or faster
    angles, grid_rows = _chunk_shape(geom.n_rows, geom.n_cols)
    chunk_elements = angles * grid_rows * geom.n_cols // 2
    checked = [0, len(rx_positions) // 2, len(rx_positions) - 1]
    exact = _powers(ill, w, rx_positions[checked], p_tx, pool, chunk_elements)
    for r in counts:
        nodes, basis = _chebyshev_basis(ill.y, r)
        node_ill = _illuminate(geom, wave, tx, nodes)
        node_w = w @ basis
        node_checked = _powers(node_ill, node_w, rx_positions[checked], p_tx, pool, chunk_elements)
        if not _check_error(node_checked, exact) <= _NODE_TOL:
            continue
        power = _powers(node_ill, node_w, rx_positions, p_tx, pool, chunk_elements)
        peak = int(np.argmax(power))
        checked.append(peak)
        peak_exact = _powers(ill, w, rx_positions[peak : peak + 1], p_tx, pool, chunk_elements)
        exact = np.append(exact, peak_exact)
        err = _check_error(power[checked], exact)
        if not err <= _NODE_TOL:
            return None
        meta.update(kernel_columns=r, kernel_check_err=err)
        return power
    return None


def _received_powers(
    geom: RisGeometry,
    wave: Wave,
    tx: Terminal,
    gamma: np.ndarray,
    rx_positions: np.ndarray,
    p_tx: float,
    meta: dict | None = None,
) -> np.ndarray:
    """Received power p_tx |sum g gamma h|^2 at each of the rx positions
    (A, 3), for an isotropic receiver.

    A sweep of more than _WORKERS chunks evaluates the rx factor at the
    first count of _NODE_COUNTS Chebyshev nodes in y that matches the real
    columns at its first, middle and last positions and then at its peak,
    and otherwise at the real columns (see the module docstring).  If meta
    is given, it receives kernel_columns, the node count or n_cols for the
    real columns, and kernel_check_err, the worst checked error as a share
    of the largest checked power (0.0 for the real columns).
    """
    meta = {} if meta is None else meta
    meta.update(kernel_columns=geom.n_cols, kernel_check_err=0.0)
    ill = _illuminate(geom, wave, tx, geom.y_centers)
    weight = gamma * (ill.re - 2j * ill.im_half) * (geom.pitch_x * geom.pitch_y / FOUR_PI**2)
    w = np.stack([weight.real, weight.imag])
    del weight  # only the real pair stays alive while the sweep runs
    angles = _chunk_shape(geom.n_rows, geom.n_cols)[0]
    if len(rx_positions) <= angles:
        return _powers(ill, w, rx_positions, p_tx)
    # imported here: it adds ~7 ms to importing the package, and many runs
    # never sweep more than one chunk
    from concurrent.futures import ThreadPoolExecutor

    # the checks run on the sweep's threads as well, so their temporaries
    # reuse the memory of the sweep's chunks
    with ThreadPoolExecutor(_WORKERS) as pool:
        # a sweep of at most _WORKERS chunks takes the real columns: its
        # chunks run in one round, which takes about as long as the checks
        if len(rx_positions) > _WORKERS * angles:
            power = _node_powers(geom, wave, tx, ill, w, rx_positions, p_tx, pool, meta)
            if power is not None:
                return power
        return _powers(ill, w, rx_positions, p_tx, pool)


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
        ill = _illuminate(geom, wave, tx, geom.y_centers)
        sinc_x, re, im_half = _rx_terms(ill, np.array([rx.position]), rx.gain_pattern)
        return cls(
            g=(ill.re - 2j * ill.im_half) * sinc_x[0] * (geom.pitch_x / FOUR_PI),
            h=(re[0] - 2j * im_half[0]) * (geom.pitch_y / FOUR_PI),
            geometry=geom,
            wave=wave,
            tx=tx,
            rx=rx,
        )


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
