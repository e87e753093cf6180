"""Cascaded free-space channel: one per-element field kernel.

The received field is a coherent sum over the N x M elements of gamma_nm
times a tx-side factor g_nm and an rx-side factor h_nm.  Each factor
carries one 1/(4*pi), a spherical-spreading term 1/r with obliquity z/r,
the phase exp(-jkr), and one of the two element-size sinc factors; both
terminals are isotropic.  The x-direction sinc lives in g and the
y-direction sinc in h; both mix tx and rx direction cosines, so g depends on
the receiver position as well.  Everything is evaluated with per-element
distances, so near-field (spherical wavefront) cases need no special path.

The physics is written once: `_terminal_terms` (distance, obliquity,
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
row n and a receiver on an arc of radius R at y = 0, K_n(y) = sinc_x sinc_y
amp exp(-jkr) carries the quadratic phase k y^2 / (2 rho_n) of the
Fresnel-region expansion (Balanis, Antenna Theory), rho_n being the
receiver's distance from the row's column line, and is otherwise an
analytic, slowly varying function of the column coordinate y.  rho_n is
close to R, so the chirp D(y) = exp(-jk y^2 / (2R)) is taken out first and
only K_n / D is interpolated on r Chebyshev nodes eta_j spanning the columns:

    F = sum_n sum_m (w_nm D(y_m)) (K_n(y_m) / D(y_m))
      ~ sum_n sum_j K_n(eta_j) b_nj,
    b = w @ C,  C[m, j] = D(y_m) l_j(y_m) conj(D(eta_j)),

with l_j the barycentric Lagrange basis (M x r).  The first line is exact
for any D; with this one the interpolant carries only
k y^2 (1/(2 rho_n) - 1/(2R)), which is smaller than the chirp by about
|x_n sin(theta)| / R.  C is complex but small, so b comes from four real
products of the real pair of weights with its real and imaginary parts,
and no complex copy of the weights is made.  K at the nodes comes from the
same `_illuminate` and `_rx_terms`, run on an illumination whose columns are
the nodes.  The real-column kernel is the same code with the columns as
nodes and b = w.  The per-angle work falls from O(N*M) to O(N*r_y), r_y
being the column node count.

The rows are interpolated the same way, once each position's own row phase
is taken out.  For a receiver at p let rho_p(x) = |p - (x, 0, 0)|, its
distance from the point at x on the row axis, and E_p(x) = exp(-jk
rho_p(x)).  Then

    F = sum_j sum_n (b_nj E_p(x_n)) (K / E_p)(x_n, eta_j)
      ~ sum_ij K(xi_i, eta_j) conj(E_p(xi_i)) c_ij,
    c = E_p @ B,  B[n, (i, j)] = L_i(x_n) b_nj,

with L_i the Lagrange basis of r_x Chebyshev nodes xi_i spanning the rows
(N x r_x).  The first line is exact for any phase; K / E_p keeps only
k (r - rho_p), about k eta^2 / (2 rho_p) on the arc, which is smooth in x.
c comes from real products of E_p's cosine and sine with the real pair of
B, and K conj(E_p) at the nodes from `_rx_terms` with rho_p(xi_i) taken out
of r before the phase.  A position then costs r_x * r_y kernel points
instead of N * r_y, plus N phases and an N x (r_x r_y) product.  The exact
rho_p is taken out, not its Taylor series: with only
k (x sin(theta) - x^2 cos^2(theta) / (2R)) taken out, the interpolant kept
the term k x^3 sin(theta) cos^2(theta) / (2R^2), largest at theta = 35
degrees, away from every checked angle, and the 5 m benchmark arc's traces
were up to 2.3e-10 of their peak off the real columns at 27-46 degrees
while every checked angle passed.

The counts are chosen per sweep and checked against the real columns at
run time.  The column counts of `_NODE_COUNTS` with 2 r_y <= M are tried in
turn; a count is a candidate once its power matches the real columns within
`_NODE_TOL` of the largest checked power at the sweep's first, middle and
last positions.  Where its sweep would take more than two chunks, the row
counts of `_NODE_COUNTS` from r_y on, with 2 r_x <= N, are then tried the
same way; the first that passes that check runs the sweep, and it is kept
if it also matches at the trace peak and at the strongest position of each
outer quarter, where the error left after demodulation grows (it scales
with sin(theta)).  Otherwise those positions stay checked for every later
candidate.  If no row count is kept, the column count runs the sweep and is
kept on the same second check; if no column count is kept, the sweep runs
on the real columns.  A sweep of at most two chunks always does: it takes
about as long as the checks would.  The node path, checks included, runs in
chunks of half the live bytes of a real-column chunk, so it needs less
memory than the real columns.  The far-field benchmark takes 4 x 4 nodes
on its 245^2 and 145^2 grids and 6 x 6 on its 61^2 grid, and its 5 m near
arc 12 x 12 on 48^2 and 72^2 (the column counts were 8 or 12, and 24, with
the chirp left in).

Memory is bounded whatever the grid: a sweep is processed in chunks of
angles (of element rows at one angle, when one angle over the whole grid is
too big) whose live temporaries, summed over the `_WORKERS` chunks in flight,
stay within `_CHUNK_BUDGET` bytes, so a sweep needs that budget plus O(N*M)
for the weights and tx-side terms.  The budget is small enough that a chunk
stays in a core's cache, which is faster than fewer, larger chunks.  A
kernel call of at least `_THREADED_CHUNKS` chunks runs them on `_WORKERS`
threads of its own (numpy releases the GIL inside its ufuncs and BLAS
calls), a smaller one, such as a check of the node path, in order.  The
row path always runs its chunks in order: on the benchmark grids two
threads did not make it faster.  Each chunk writes only its own slice of
the output, its partial sums over element rows are added in a fixed order,
and the chunking depends only on the grid shape, so reruns are bit for bit
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import RisGeometry, Terminal, Wave

FOUR_PI = 4.0 * np.pi

# sinc(x) switches to its Taylor series below this |x|.
_SINC_SERIES_BELOW = 1e-4

# Live temporaries of one chunk, in bytes per element and angle: five
# float64 arrays (phase tangent, 1/r, amplitude, sinc argument, sinc) and a
# boolean mask.
_BYTES_PER_ELEMENT_ANGLE = 5 * 8 + 1

# Upper bound, in bytes, on the live chunk temporaries of all workers at once.
_CHUNK_BUDGET = 4 * 2**20

# Threads of a kernel call of at least _THREADED_CHUNKS chunks.  A fixed
# count keeps the chunking, and so the rounding of a sweep, independent of
# the machine's CPU count.  On a 2-vCPU x86-64 box two threads cut the
# far-sweep benchmark's wall time by 28% against one; more were not measured.
_WORKERS = 2

# Fewest chunks of a kernel call that run on threads; fewer run in order.
# On the same box, real-column calls on 25^2-145^2 grids ran faster on two
# threads from 8 chunks on, and calls on 4-6 node columns of 61^2-245^2 grids
# from 12-16; the far-field benchmark's node sweeps have 14-51 chunks.
_THREADED_CHUNKS = 8

# Most multiply-adds of one BLAS product of the row path.  OpenBLAS runs a
# product of more than 2^18 on threads of its own; on a 2-vCPU x86-64 box
# those threads now and then stalled the far-field benchmark's node sweeps
# by ~0.4 s, which split products never did, at the same median time.
_SERIAL_PRODUCT = 2**18

# Chebyshev node counts that a sweep tries, in order, for the rx factor's
# column dependence; a count is tried only while it is at most half the
# column count.
_NODE_COUNTS = (4, 6, 8, 12, 16, 24, 32, 48, 64)

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


def _terminal_terms(x, y, pos: np.ndarray, half_k: float, rho: np.ndarray | None = None):
    """Per-element terms of A terminal positions pos (A, 3) over the grid of
    element rows at x (N) and columns at y (M).

    Returns (amp, inv_r, ox, oy, t): amp = (z/r) / r is the spreading
    amplitude with obliquity, inv_r = 1/r, both (A, N, M); ox (A, N) and
    oy (A, M) are the terminal's offsets from the element rows and columns;
    and t = tan(k r / 2), shape (A, N, M), carries the phase (see
    `_apply_phase`), or t = tan(k (r - rho) / 2) if distances rho (A, N) of
    the rows are given.
    """
    ox = pos[:, 0, None] - x
    oy = pos[:, 1, None] - y
    z = pos[:, 2, None, None]
    r = np.add((ox * ox)[:, :, None], (oy * oy)[:, None, :])
    r += z * z
    np.sqrt(r, out=r)
    inv_r = np.divide(1.0, r)
    amp = np.multiply(inv_r, z)
    amp *= inv_r
    if rho is not None:
        r -= rho[:, :, None]
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


def _illuminate(geom: RisGeometry, wave: Wave, tx: Terminal, x: np.ndarray, y: np.ndarray) -> _Illumination:
    """Tx-side terms over the rows at x and the columns at y, with the
    element pitches of geom."""
    k = wave.wavenumber
    hx = k * geom.pitch_x / 4.0
    hy = k * geom.pitch_y / 4.0
    amp, inv_r, ox, oy, t = _terminal_terms(x, y, np.array([tx.position]), k / 2.0)
    hx_tx = inv_r[0] * (hx * ox[0])[:, None]
    hy_tx = inv_r[0] * (hy * oy[0])[None, :]
    _apply_phase(amp, t, inv_r, np.empty_like(amp))
    return _Illumination(x, y, k / 2.0, hx, hy, hx_tx, hy_tx, amp[0], t[0])


def _rx_terms(ill: _Illumination, pos: np.ndarray, rho: np.ndarray | None = None):
    """Receiver-side terms for A positions pos (A, 3) as real (A, N, M) arrays.

    Returns (sinc_x, re, im_half): sinc_x is the x-direction element factor
    and re - 2j * im_half = (z/r) exp(-jkr) / r * sinc_y, or that times
    exp(jk rho) if distances rho (A, N) of the rows are given.
    """
    amp, inv_r, ox, oy, t = _terminal_terms(ill.x, ill.y, pos, ill.half_k, rho)
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


def _chunk_shape(n_rows: int, n_cols: int, chunk_elements: int | None = None) -> tuple[int, int]:
    """(angles, grid rows) of one chunk of a sweep over an n_rows x n_cols grid.

    Each of the _WORKERS chunks that can be in flight gets an equal share of
    _CHUNK_BUDGET.  A chunk takes whole angles over the full grid while one
    angle fits its share, and otherwise one angle over as many grid rows as
    fit; only a single grid row wider than the share overruns it.
    chunk_elements, if given, caps the element-angles of a chunk.
    """
    share = _CHUNK_BUDGET // _WORKERS
    row_bytes = _BYTES_PER_ELEMENT_ANGLE * n_cols
    grid_rows = max(1, min(n_rows, share // row_bytes))
    angles = max(1, share // (row_bytes * grid_rows))
    if chunk_elements is not None:
        grid_rows = max(1, min(grid_rows, chunk_elements // n_cols))
        angles = max(1, min(angles, chunk_elements // (grid_rows * n_cols)))
    return angles, grid_rows


def _block_sums(block: _Illumination, w_block: np.ndarray, pos: np.ndarray):
    """Products of the (2, E) weights of one block of element rows with the
    real and half-imaginary parts of its rx factor, (2, A) each.

    The chunk temporaries are freed on return, before the next block's.
    """
    sinc_x, c, s = _rx_terms(block, pos)
    c *= sinc_x
    s *= sinc_x
    return w_block @ c.reshape(len(pos), -1).T, w_block @ s.reshape(len(pos), -1).T


def _powers(
    ill: _Illumination,
    w: np.ndarray,
    rx_positions: np.ndarray,
    p_tx: float,
    chunk_elements: int | None = None,
) -> np.ndarray:
    """p_tx |sum_nm (w[0] + 1j w[1])_nm K_n(pos, y_m)|^2 at each of the rx
    positions (A, 3), where y_m are the columns of ill and K is its rx
    factor; chunk_elements, if given, caps the element-angles of a chunk.
    A call of at least _THREADED_CHUNKS chunks runs them on threads."""
    n_rows, n_cols = w.shape[1:]
    n_pos = len(rx_positions)
    out = np.empty(n_pos)
    angles, grid_rows = _chunk_shape(n_rows, n_cols, chunk_elements)
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
    if len(starts) < _THREADED_CHUNKS:
        for start in starts:
            run(start)
    else:
        # imported here: it adds ~7 ms to importing the package
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(_WORKERS) as pool:
            list(pool.map(run, starts))
    return out


def _row_distances(pos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distances rho (A, len(x)) from the A positions pos (A, 3) to the
    points (x, 0, 0) of the row axis."""
    rho = np.subtract(pos[:, 0, None], x)
    rho *= rho
    rho += (pos[:, 1] ** 2 + pos[:, 2] ** 2)[:, None]
    return np.sqrt(rho, out=rho)


def _row_powers(ill: _Illumination, b: np.ndarray, x: np.ndarray, rx_positions: np.ndarray, p_tx: float) -> np.ndarray:
    """p_tx |F|^2 of the module docstring's row path at each of the rx
    positions (A, 3): ill holds the tx-side terms at the r_x node rows and
    r_y node columns, and b is the `_row_weights` pair at the N element rows
    x: E_p @ b comes from four real products.

    A chunk's live temporaries take at most 4 float64 values per element
    row (the row phases) and 8 per node point (the kernel and the products
    with b) for each of its angles, and fit half a worker's share of
    _CHUNK_BUDGET, like the chunks of the column nodes.  The chunks run in
    order, and each product with b is split into blocks of angles of at
    most _SERIAL_PRODUCT multiply-adds.
    """
    out = np.empty(len(rx_positions))
    points = len(ill.x) * len(ill.y)
    angles = max(1, _CHUNK_BUDGET // (2 * _WORKERS) // (8 * (4 * len(x) + 8 * points)))
    block = max(1, _SERIAL_PRODUCT // (len(x) * points))

    # a function, so that a chunk's arrays are freed before the next chunk's
    def run(start: int) -> None:
        pos = rx_positions[start : start + angles]
        # E_p = c - 1j s at the element rows: cos and sin of k rho, from
        # tan(k rho / 2)
        s = _row_distances(pos, x)
        s *= ill.half_k
        np.tan(s, out=s)
        c = np.ones_like(s)
        _apply_phase(c, s, np.empty_like(s), np.empty_like(s))
        s *= 2.0
        # e = sum_n E_p(x_n) B[n] = (c B_re + s B_im) + 1j (c B_im - s B_re)
        e_re = np.empty((len(pos), points))
        e_im = np.empty((len(pos), points))
        for i in range(0, len(pos), block):
            sl = slice(i, i + block)
            np.matmul(c[sl], b[0], out=e_re[sl])
            e_re[sl] += s[sl] @ b[1]
            np.matmul(c[sl], b[1], out=e_im[sl])
            e_im[sl] -= s[sl] @ b[0]
        del c, s
        sinc_x, re, im_half = _rx_terms(ill, pos, _row_distances(pos, ill.x))  # K / E_p
        re *= sinc_x
        im_half *= sinc_x
        re = re.reshape(len(pos), points)
        im_half = im_half.reshape(len(pos), points)
        f_re = np.einsum("ap,ap->a", re, e_re) + 2.0 * np.einsum("ap,ap->a", im_half, e_im)
        f_im = np.einsum("ap,ap->a", re, e_im) - 2.0 * np.einsum("ap,ap->a", im_half, e_re)
        out[start : start + len(pos)] = p_tx * (f_re * f_re + f_im * f_im)

    for start in range(0, len(rx_positions), angles):
        run(start)
    return out


def _chebyshev_basis(y: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """r Chebyshev nodes (first kind) spanning the points y, and the (len(y),
    r) matrix of their Lagrange basis polynomials at y, in barycentric form."""
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


def _node_weights(w: np.ndarray, y: np.ndarray, r: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """r Chebyshev nodes spanning the columns y and the node weights
    b = w @ C of the module docstring, for the chirp D(y) = exp(-j rate y^2),
    as a (2, N, r) real pair; w is the (2, N, M) real pair of weights.

    D and conj(D) at the nodes are folded into the (M, r) basis C, so b
    comes from four real products and no complex copy of w is made.
    """
    nodes, basis = _chebyshev_basis(y, r)
    chirp = np.exp(-1j * rate * y * y)[:, None] * basis * np.exp(1j * rate * nodes * nodes)
    re, im = chirp.real, chirp.imag
    return nodes, np.stack([w[0] @ re - w[1] @ im, w[0] @ im + w[1] @ re])


def _row_weights(b: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The row weights B[n, (i, j)] = L_i(x_n) b[n, j] of the module
    docstring, as a (2, N, r_x r_y) real pair, from the (2, N, r_y) real
    pair of node weights b and the (N, r_x) row basis L."""
    return (basis[:, :, None] * b[:, :, None, :]).reshape(2, len(basis), -1)


def _check_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |approx - exact| as a share of max(exact)."""
    diff = np.max(np.abs(approx - exact))
    return float(diff / np.max(exact)) if diff else 0.0


def _node_powers(geom, wave, tx, ill, w, rx_positions, p_tx, meta):
    """The powers of `_received_powers` on the first node count, with the
    first row count if any, that passes both checks, or None if none does.

    The positions checked after a sweep stay checked for the sweeps after
    it."""
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
    exact = _powers(ill, w, rx_positions[checked], p_tx, chunk_elements)

    def passes(kernel) -> bool:
        return _check_error(kernel(rx_positions[checked]), exact) <= _NODE_TOL

    def checked_sweep(kernel):
        """kernel's powers at every position and their error at the checked
        positions, once the peak and the strongest position of each outer
        quarter are checked too: the error left after demodulation grows
        with the receiver's offset from the arc's middle."""
        nonlocal checked, exact
        power = kernel(rx_positions)
        q = max(1, len(power) // 4)
        after = [int(np.argmax(power)), int(np.argmax(power[:q])), len(power) - q + int(np.argmax(power[-q:]))]
        checked = checked + after
        exact = np.append(exact, _powers(ill, w, rx_positions[after], p_tx, chunk_elements))
        return power, _check_error(power[checked], exact)

    # the chirp of the arc's radius, k y^2 / (2R), is the Fresnel phase that
    # every element row's rx factor shares
    rate = wave.wavenumber / (2.0 * np.linalg.norm(rx_positions[0]))
    for r in counts:
        nodes, node_w = _node_weights(w, ill.y, r, rate)
        node_ill = _illuminate(geom, wave, tx, ill.x, nodes)
        columns = partial(_powers, node_ill, node_w, p_tx=p_tx, chunk_elements=chunk_elements)
        if not passes(columns):
            continue
        row_counts = [q for q in _NODE_COUNTS if r <= q and 2 * q <= geom.n_rows]
        # rows only where the column nodes take more than two chunks, the
        # rule that gates the column nodes themselves
        if len(rx_positions) <= 2 * _chunk_shape(geom.n_rows, r, chunk_elements)[0]:
            row_counts = []
        for q in row_counts:
            row_nodes, basis = _chebyshev_basis(ill.x, q)
            row_ill = _illuminate(geom, wave, tx, row_nodes, nodes)
            rows = partial(_row_powers, row_ill, _row_weights(node_w, basis), ill.x, p_tx=p_tx)
            if passes(rows):
                power, err = checked_sweep(rows)
                if err <= _NODE_TOL:
                    meta.update(kernel_columns=r, kernel_rows=q, kernel_check_err=err)
                    return power
        power, err = checked_sweep(columns)
        if err <= _NODE_TOL:
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
    (A, 3).

    A sweep of more than two chunks evaluates the rx factor, with the
    chirp of the arc's radius taken out, at the first count of
    _NODE_COUNTS Chebyshev nodes in y that matches the real columns at its
    first, middle and last positions and then at its peak and the strongest
    position of each outer quarter; where those columns take more than two
    chunks, it first tries the rows too, with each position's row distance
    taken out, at node counts from the column count on.  Otherwise it runs
    on the real columns (see the module docstring).  If meta is given, it
    receives kernel_columns, the node count or n_cols for the real columns,
    kernel_rows, the row node count or n_rows, and kernel_check_err, the
    worst checked error as a share of the largest checked power (0.0 for
    the real columns).
    """
    meta = {} if meta is None else meta
    meta.update(kernel_columns=geom.n_cols, kernel_rows=geom.n_rows, kernel_check_err=0.0)
    ill = _illuminate(geom, wave, tx, geom.x_centers, geom.y_centers)
    weight = gamma * (ill.re - 2j * ill.im_half) * (geom.pitch_x * geom.pitch_y / FOUR_PI**2)
    w = np.stack([weight.real, weight.imag])
    del weight  # only the real pair stays alive while the sweep runs
    if len(rx_positions) > 2 * _chunk_shape(geom.n_rows, geom.n_cols)[0]:
        power = _node_powers(geom, wave, tx, ill, w, rx_positions, p_tx, meta)
        if power is not None:
            return power
    return _powers(ill, w, rx_positions, p_tx)


@dataclass(frozen=True, eq=False)
class ChannelPair:
    """The g, h coefficient matrices for one fixed tx/rx placement."""

    g: np.ndarray
    h: np.ndarray
    geometry: RisGeometry

    @classmethod
    def compute(cls, geom: RisGeometry, wave: Wave, tx: Terminal, rx: Terminal):
        ill = _illuminate(geom, wave, tx, geom.x_centers, geom.y_centers)
        sinc_x, re, im_half = _rx_terms(ill, np.array([rx.position]))
        return cls(
            g=(ill.re - 2j * ill.im_half) * sinc_x[0] * (geom.pitch_x / FOUR_PI),
            h=(re[0] - 2j * im_half[0]) * (geom.pitch_y / FOUR_PI),
            geometry=geom,
        )


def received_power(pair: ChannelPair, config, p_tx: float = 1.0) -> float:
    """Received power p_tx * |sum g gamma h|^2 in watts, for a SurfaceConfig
    or a bare gamma matrix.

    numpy's sum reduces pairwise, which keeps rounding bounded for the
    ~3e5-element grids that a lambda/32 pitch produces.
    """
    gamma = np.asarray(getattr(config, "gamma", config))
    if gamma.shape != pair.g.shape:
        raise ValueError(f"gamma shape {gamma.shape} != channel shape {pair.g.shape}")
    return p_tx * abs(complex(np.sum(pair.g * gamma * pair.h))) ** 2
