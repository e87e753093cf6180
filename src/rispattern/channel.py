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
the real pair of weights reduce over the elements.  Sines and cosines
come from one tangent each, through sin(2u) = 2 tan(u) / (1 + tan(u)^2) and
cos(2u) = (1 - tan(u)^2) / (1 + tan(u)^2), within about one unit in the
last place.  numpy 2 on x86-64 has a SIMD float64 tan but evaluates float64
sin and cos element by element: about 2 ns against 13-33 ns per element on
an AVX-512 Xeon.

When the transmitter and every receiver lie in the xz-plane (y = 0), as
every scenario's terminals and sweep arcs do, the rx factor K(x_n, y_m) is
even in y: the columns are centered, so y_(M-1-m) = -y_m exactly; the
distance, the obliquity and the phase depend on y only through y^2; and
both sinc arguments are odd in y, their sinc even.  So

    sum_m w_m K(y_m) = sum_(m < M/2) (w_m + w_(M-1-m)) K(y_m),

plus the middle column once for an odd M, and `_columns` gives the kernel
only the first ceil(M/2) columns.  The tx factor is even in y too, so the
sweep's weights are `_fold`(gamma) times the tx factor on those columns:
the weights and the tx-side terms take half the memory, and each kernel
point of the real columns stands for two elements.  The Chebyshev nodes
below span the columns symmetrically, so they lie in mirror pairs, and the
chirp D is even: the (M x r) basis C folds the same way to
(ceil(M/2) x r/2), and the node sweeps and their checks run on r/2 node
columns.  `ChannelPair.compute` evaluates g and h on the first ceil(M/2)
columns and mirrors them into the others.  At y and -y the kernel works
on numbers that differ only in sign, through squares and tan(h) / h, so
the full grid's factors there are equal bit for bit, and so are g and h.
A terminal off the plane takes all M columns.

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
turn; a count's column nodes (r_y node columns over all N rows) only gate
it, and must match the real columns within `_NODE_TOL` of the exact power
at the sweep's middle position.  The arc's ends are not checked: at -90
and 90 degrees the receiver lies in the surface's plane (z = R cos 90 deg,
about 6e-17 R) and sees about 1e-32 of the middle's power.  The row counts
of `_NODE_COUNTS` from r_y on, with 2 r_x <= N, are then tried the same
way; the first that passes runs the sweep, and it is kept if it also
matches at the trace peak and at the strongest position of each outer
quarter, where the error left after demodulation grows (it scales with
sin(theta)).  Otherwise those positions stay checked for every later
candidate.  If no count is kept, the sweep runs on the real columns; so do
a sweep of at most two chunks, which takes about as long as the checks
would, and a grid of fewer than 2 r_y rows, which only the API can build
(scenario grids are square).  The node path, checks included, runs in
chunks of half the live bytes of a real-column chunk, so it needs less
memory than the real columns.  The far-field benchmark takes 4 x 4 nodes
on its 245^2 and 145^2 grids and 6 x 6 on its 61^2 grid, and its 5 m near
arc 12 x 12 on 48^2 and 72^2.

Memory is bounded whatever the grid: a sweep is processed in chunks of
angles (of element rows at one angle, when one angle over the whole grid is
too big) whose live temporaries stay within `_CHUNK_BUDGET` bytes, so a
sweep needs that budget plus O(N*ceil(M/2)) for the weights and tx-side
terms (O(N*M) off the xz-plane).  The budget is small enough that a chunk
stays in a core's cache, which is faster than fewer, larger chunks.  The
chunks run in order, each writes only its own slice of the output, its
partial sums over element rows are added in a fixed order, and the
chunking depends only on the grid shape, so reruns are bit for bit
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

# Upper bound, in bytes, on the live temporaries of one chunk.
_CHUNK_BUDGET = 2 * 2**20

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

    A chunk takes whole angles over the full grid while one angle fits
    _CHUNK_BUDGET, and otherwise one angle over as many grid rows as fit;
    only a single grid row wider than the budget overruns it.
    chunk_elements, if given, caps the element-angles of a chunk.
    """
    row_bytes = _BYTES_PER_ELEMENT_ANGLE * n_cols
    grid_rows = max(1, min(n_rows, _CHUNK_BUDGET // row_bytes))
    angles = max(1, _CHUNK_BUDGET // (row_bytes * grid_rows))
    if chunk_elements is not None:
        grid_rows = max(1, min(grid_rows, chunk_elements // n_cols))
        angles = max(1, min(angles, chunk_elements // (grid_rows * n_cols)))
    return angles, grid_rows


def _columns(geom: RisGeometry, terminal_y: np.ndarray) -> np.ndarray:
    """The column centers that the kernel is evaluated on: the first
    ceil(M/2) if every terminal lies at y = 0, where K is even in y (module
    docstring), or else all M."""
    y = geom.y_centers
    return y if np.any(terminal_y) else y[: (len(y) + 1) // 2]


def _row_distances(pos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distances rho (A, len(x)) from the A positions pos (A, 3) to the
    points (x, 0, 0) of the row axis."""
    rho = np.subtract(pos[:, 0, None], x)
    rho *= rho
    rho += (pos[:, 1] ** 2 + pos[:, 2] ** 2)[:, None]
    return np.sqrt(rho, out=rho)


def _powers(
    ill: _Illumination,
    w: np.ndarray,
    rx_positions: np.ndarray,
    p_tx: float,
    chunk_elements: int | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """p_tx |F|^2 at each of the rx positions (A, 3), F being the sum of the
    real pair of weights w times the rx factor K at the points of ill.

    Without rows, F = sum_nm (w[0] + 1j w[1])_nm K(x_n, y_m) over the rows
    and columns of ill, the real columns or the column nodes.  A chunk has
    the shape of `_chunk_shape`, at most chunk_elements element-angles if
    given, and its blocks of grid rows are contracted with the weights by
    BLAS products.

    With rows, the N element row centers, F is the row path's sum of the
    module docstring: ill holds the node rows and node columns and w is the
    `_row_weights` pair B.  Each position's weights E_p @ B come from four
    real products, split into blocks of angles of at most _SERIAL_PRODUCT
    multiply-adds, and K / E_p is contracted with them position by position.
    A chunk's live temporaries take at most 4 float64 values per element
    row (the row phases) and 8 per node point (the kernel and the weights)
    for each of its angles, and fit half of _CHUNK_BUDGET, like the chunks
    of the column nodes' checks.

    The chunks run in order, and a block's kernel arrays are freed before
    the next block's.
    """
    n_pos = len(rx_positions)
    out = np.empty(n_pos)
    if rows is None:
        n_rows, n_cols = w.shape[1:]
        angles, grid_rows = _chunk_shape(n_rows, n_cols, chunk_elements)
        blocks = [
            (ill.rows(sl), w[:, sl].reshape(2, -1))
            for sl in (slice(n, n + grid_rows) for n in range(0, n_rows, grid_rows))
        ]
    else:
        points = len(ill.x) * len(ill.y)
        angles = max(1, _CHUNK_BUDGET // 2 // (8 * (4 * len(rows) + 8 * points)))
        split = max(1, _SERIAL_PRODUCT // (len(rows) * points))
        blocks = [(ill, w)]
    for start in range(0, n_pos, angles):
        pos = rx_positions[start : start + angles]
        re = np.zeros(len(pos))
        im = np.zeros(len(pos))
        for block, weights in blocks:
            if rows is None:
                sinc_x, c, s = _rx_terms(block, pos)
            else:
                # E_p = cos - 1j sin of k rho at the element rows, from
                # tan(k rho / 2)
                sin = _row_distances(pos, rows)
                sin *= block.half_k
                np.tan(sin, out=sin)
                cos = np.ones_like(sin)
                _apply_phase(cos, sin, np.empty_like(sin), np.empty_like(sin))
                sin *= 2.0
                # sum_n E_p(x_n) B[n] = (cos B_re + sin B_im) + 1j (cos B_im - sin B_re)
                weights = np.empty((len(pos), points)), np.empty((len(pos), points))
                for sl in (slice(i, i + split) for i in range(0, len(pos), split)):
                    np.matmul(cos[sl], w[0], out=weights[0][sl])
                    weights[0][sl] += sin[sl] @ w[1]
                    np.matmul(cos[sl], w[1], out=weights[1][sl])
                    weights[1][sl] -= sin[sl] @ w[0]
                del cos, sin
                sinc_x, c, s = _rx_terms(block, pos, _row_distances(pos, block.x))  # K / E_p
            c *= sinc_x
            s *= sinc_x
            c = c.reshape(len(pos), -1)
            s = s.reshape(len(pos), -1)
            if rows is None:
                p, q = weights @ c.T, weights @ s.T
            else:
                p = [np.einsum("ap,ap->a", c, e) for e in weights]
                q = [np.einsum("ap,ap->a", s, e) for e in weights]
            re += p[0] + 2.0 * q[1]
            im += p[1] - 2.0 * q[0]
            del sinc_x, c, s, weights, p, q
        out[start : start + len(pos)] = p_tx * (re * re + im * im)
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


def _fold(a: np.ndarray) -> np.ndarray:
    """The first ceil(M/2) of the M entries of a's last axis, each plus its
    mirror entry M-1-m; the middle entry of an odd M is taken once."""
    m = a.shape[-1]
    half = a[..., : (m + 1) // 2].copy()
    half[..., : m // 2] += a[..., ::-1][..., : m // 2]
    return half


def _node_weights(w: np.ndarray, y: np.ndarray, r: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """r Chebyshev nodes spanning the columns y and the node weights
    b = w @ C of the module docstring, for the chirp D(y) = exp(-j rate y^2),
    as a (2, N, r) real pair; w is the (2, N, M) real pair of weights.

    D and conj(D) at the nodes are folded into the (M, r) basis C, so b
    comes from four real products and no complex copy of w is made.  If w
    holds only the first ceil(M/2) columns, folded by `_fold`, C is folded
    the same way, in its nodes as well (they lie in mirror pairs), and only
    the first ceil(r/2) nodes and their weights are returned.
    """
    nodes, basis = _chebyshev_basis(y, r)
    chirp = np.exp(-1j * rate * y * y)[:, None] * basis * np.exp(1j * rate * nodes * nodes)
    if w.shape[-1] < len(y):
        chirp = _fold(chirp[: w.shape[-1]])
        nodes = nodes[: chirp.shape[1]]
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
    """The powers of `_received_powers` on the first node rows that pass both
    checks, or None if none do.

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
    # not the arc's ends, which see ~1e-32 of its power (module docstring)
    checked = [len(rx_positions) // 2]
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
        nodes, node_w = _node_weights(w, geom.y_centers, r, rate)
        node_ill = _illuminate(geom, wave, tx, ill.x, nodes)
        # the column nodes only gate the count's row ladder
        if not passes(partial(_powers, node_ill, node_w, p_tx=p_tx, chunk_elements=chunk_elements)):
            continue
        for q in [q for q in _NODE_COUNTS if r <= q and 2 * q <= geom.n_rows]:
            row_nodes, basis = _chebyshev_basis(ill.x, q)
            row_ill = _illuminate(geom, wave, tx, row_nodes, nodes)
            kernel = partial(_powers, row_ill, _row_weights(node_w, basis), p_tx=p_tx, rows=ill.x)
            if not passes(kernel):
                continue
            power, err = checked_sweep(kernel)
            if err <= _NODE_TOL:
                meta.update(kernel_columns=r, kernel_rows=q, kernel_check_err=err)
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
    chirp of the arc's radius and each position's row distance taken out,
    on the first Chebyshev node rows and columns of _NODE_COUNTS that match
    the real columns at the sweep's middle position and then at its peak
    and the strongest position of each outer quarter; otherwise it runs on
    the real columns (see the module docstring).  If meta is given, it
    receives kernel_columns, the column node count or n_cols for the real
    columns, kernel_rows, the row node count or n_rows, and
    kernel_check_err, the worst checked error as a share of the largest
    checked power (0.0 for the real columns).  If the transmitter and every
    position lie at y = 0, all of it runs on the first ceil(M/2) columns
    with the weights folded (module docstring); the counts and the
    two-chunk rule are those of the full grid.
    """
    meta = {} if meta is None else meta
    meta.update(kernel_columns=geom.n_cols, kernel_rows=geom.n_rows, kernel_check_err=0.0)
    y = _columns(geom, np.append(rx_positions[:, 1], tx.position[1]))
    ill = _illuminate(geom, wave, tx, geom.x_centers, y)
    gamma_y = _fold(gamma) if len(y) < geom.n_cols else gamma
    # the real pair of gamma (re - 2j im_half) c, built in place: no complex
    # temporary, and one float temporary at a time
    w = np.empty((2, *gamma_y.shape))
    np.multiply(gamma_y.imag, 2.0 * ill.im_half, out=w[1])
    np.add(gamma_y.real * ill.re, w[1], out=w[0])
    np.multiply(gamma_y.real, -2.0 * ill.im_half, out=w[1])
    w[1] += gamma_y.imag * ill.re
    w *= geom.pitch_x * geom.pitch_y / FOUR_PI**2
    del gamma_y  # only the real pair stays alive while the sweep runs
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
        y = _columns(geom, np.array([tx.position[1], rx.position[1]]))
        ill = _illuminate(geom, wave, tx, geom.x_centers, y)
        sinc_x, re, im_half = _rx_terms(ill, np.array([rx.position]))
        g = (ill.re - 2j * ill.im_half) * sinc_x[0] * (geom.pitch_x / FOUR_PI)
        h = (re[0] - 2j * im_half[0]) * (geom.pitch_y / FOUR_PI)
        if len(y) < geom.n_cols:
            # column M-1-m is column m (module docstring)
            g, h = (np.concatenate([a, a[:, : geom.n_cols // 2][:, ::-1]], axis=1) for a in (g, h))
        return cls(g=g, h=h, geometry=geom)


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
