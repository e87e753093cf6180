"""Surface configuration design: closed-form phase matching, baselines, and
the exact optimum over an arbitrary finite reflection alphabet.

The alphabet design is the exact global optimum of |S|, S = sum gh x over
the alphabet's entries x, found by a breakpoint sweep.  Why it is exact:
|S| = max over psi of Re(e^{-j psi} S).  At the optimum's direction psi*,
every element's choice maximizes its own Re(e^{-j psi*} gh_i x_i), or
changing it would raise |S|; and any choices that all do so reach |S| >=
the optimum, so they are optimal too.  Such a choice is a vertex p_k of the
convex hull of the entries, and as psi turns, element i's best vertex
changes from p_k to p_{k+1} only at psi = arg(gh_i) + beta_k, beta_k the
outward normal of the hull's edge k.  The sweep visits these N K
breakpoints in order around the circle, moves a running sum by gh_i
(p_{k+1} - p_k) at each and keeps the first maximum of |S|: it meets every
assignment that is best for some psi, the optimum among them (the support
function of a Minkowski sum of convex polygons).  Its memory is the
elements sorted by arg(gh) plus one sector of the circle at a time: each
edge's breakpoints in a sector are a run of that order, found by
searchsorted, and a sector holds at most _SECTOR of them unless they fall
on one angle.

optimize_alternating certifies the design in one pass: no single-element
substitution may raise the objective by more than 1e-12 of it, or it
raises.  The products gh = g h, the running sum and the certificate use
numpy's array complex multiply, which may fuse multiply-adds on some CPUs,
so an exact tie between assignments is decided the same on every rerun but
may be decided differently on another machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, DesignCriterion, uadp_set
from .channel import ChannelPair
from .core import TWO_PI, RisGeometry, canonical_phase


@dataclass(frozen=True, eq=False)
class SurfaceConfig:
    """Chosen per-element reflection coefficients plus their provenance."""

    gamma: np.ndarray
    criterion: DesignCriterion
    alphabet_indices: np.ndarray | None = None

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=complex)
        object.__setattr__(self, "gamma", gamma)
        if np.any(np.abs(gamma) > 1.0 + 1e-12):
            raise ValueError("surface config contains |gamma| > 1")
        if self.alphabet_indices is not None:
            idx = np.asarray(self.alphabet_indices, dtype=int)
            if idx.shape != gamma.shape:
                raise ValueError("alphabet_indices shape mismatch")
            object.__setattr__(self, "alphabet_indices", idx)


@dataclass
class OptimizerReport:
    """Record of one alphabet optimization, a single certifying pass:
    iterations 1, the objective |sum g gamma h|^2 before and after it,
    updates_per_sweep [0], and converged and coordinatewise_optimal True,
    as the pass found no substitution gaining over 1e-12 of the objective
    (optimize_alternating raises instead)."""

    iterations: int
    objective_trace: list[float]
    converged: bool
    updates_per_sweep: list[int]
    coordinatewise_optimal: bool

    @property
    def element_update_count(self) -> int:
        return sum(self.updates_per_sweep)


# The most breakpoints one sector of the optimum's sweep gathers, unless they
# fall on one angle (at most one per element there).
_SECTOR = 4096


def _target_phase(pair: ChannelPair) -> np.ndarray:
    """Per-element phase that exactly co-phases g*gamma*h: -ang(g) - ang(h)."""
    return canonical_phase(-np.angle(pair.g) - np.angle(pair.h))


def design_uacp(pair: ChannelPair) -> SurfaceConfig:
    """Unit amplitude, continuous phase: every element co-phased exactly."""
    gamma = np.exp(1j * _target_phase(pair))
    return SurfaceConfig(gamma, DesignCriterion.uacp())


def design_quantized(
    pair: ChannelPair, phases: np.ndarray, criterion: DesignCriterion
) -> SurfaceConfig:
    """Pick, per element, the candidate phase closest (circularly) to the
    co-phasing target.  Ties break to the lowest candidate index.

    Every element gets unit amplitude, which covers both the evenly-spaced
    and the experimental-phase criteria.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise ValueError("candidate phase set is empty")
    target = _target_phase(pair)
    # one candidate at a time, keeping the closest so far: O(N*M) memory
    # whatever L; the strict < keeps ties at the lowest index
    best = np.full(target.shape, np.inf)
    idx = np.zeros(target.shape, dtype=np.intp)
    for index, phase in enumerate(phases):
        dist = np.abs(canonical_phase(target - phase))
        closer = dist < best
        best[closer] = dist[closer]
        idx[closer] = index
    gamma = np.exp(1j * phases[idx])
    return SurfaceConfig(gamma, criterion, alphabet_indices=idx)


def design_uadp(pair: ChannelPair, levels: int) -> SurfaceConfig:
    return design_quantized(pair, uadp_set(levels).phases, DesignCriterion.uadp(levels))


def design_uaep(pair: ChannelPair, alphabet: Alphabet) -> SurfaceConfig:
    """Experimental phases, amplitudes forced to one."""
    return design_quantized(pair, alphabet.phases, DesignCriterion.uaep(alphabet))


def design_specular(geom: RisGeometry) -> SurfaceConfig:
    """All reflection coefficients equal to one: a mirror."""
    gamma = np.ones((geom.n_rows, geom.n_cols), dtype=complex)
    return SurfaceConfig(gamma, DesignCriterion.specular())


def design_diffuser(geom: RisGeometry, seed: int = 0) -> SurfaceConfig:
    """Unit amplitude, i.i.d. uniform random phases from a seeded generator."""
    rng = np.random.default_rng(seed)
    # pi - U[0, 2pi) lands exactly in the canonical range (-pi, pi]
    phases = np.pi - rng.uniform(0.0, 2.0 * np.pi, size=(geom.n_rows, geom.n_cols))
    return SurfaceConfig(np.exp(1j * phases), DesignCriterion.diffuser(seed))


def _hull(values: list[complex]) -> list[int]:
    """Indices of the alphabet's convex-hull vertices in counter-clockwise
    order: the lowest index among equal values, no point inside an edge."""
    pts = []
    for i in sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag, i)):
        if not pts or values[i] != values[pts[-1]]:
            pts.append(i)

    def turns_left(o: int, a: int, b: int) -> bool:
        oa, ob = values[a] - values[o], values[b] - values[o]
        return oa.real * ob.imag - oa.imag * ob.real > 0

    chains = []
    for run in (pts, pts[::-1]):
        chain: list[int] = []
        for i in run:
            while len(chain) >= 2 and not turns_left(chain[-2], chain[-1], i):
                chain.pop()
            chain.append(i)
        chains.append(chain[:-1])
    return chains[0] + chains[1] or pts


def _alphabet_optimum(gh: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Alphabet indices that maximize |sum gh x| over x in values, by a
    sweep of the direction psi around the circle (module docstring)."""
    n = gh.size
    hull = _hull(values.tolist())
    if len(hull) == 1:
        return np.full(n, hull[0])
    p = values[hull]
    step = np.roll(p, -1) - p
    # edge k, from vertex k to k + 1, has outward normal beta_k; vertex k is
    # the best for directions between beta_{k-1} and beta_k.  Number the
    # edges from the smallest normal in [0, 2 pi), so beta increases with k
    beta = np.mod(np.angle(step) - 0.5 * math.pi, TWO_PI)
    first = int(np.argmin(beta))
    hull, p, step = np.roll(hull, -first), np.roll(p, -first), np.roll(step, -first)
    beta = np.maximum.accumulate(np.roll(beta, -first))
    k = p.size
    # element i switches from vertex k to k + 1 at u = t_i + beta_k (mod
    # 2 pi), with u = psi + pi and t = arg(gh) + pi.  In the order of t,
    # edge k meets first the elements from r_k on, those with
    # t_i + beta_k >= 2 pi, then the others: the elements of t_ext from r_k
    theta = np.angle(gh)
    order = np.argsort(theta, kind="stable")
    a = gh[order]
    t_ext = np.empty(2 * n)
    np.add(theta[order], math.pi, out=t_ext[:n])
    np.add(t_ext[:n], TWO_PI, out=t_ext[n:])
    del theta
    wrap = TWO_PI - beta
    shift = beta - TWO_PI
    r = np.searchsorted(t_ext[:n], wrap)
    # at u = 0 an element holds the vertex of the first edge it meets, the
    # first k with r_k <= its position
    vertex = k - np.cumsum(np.bincount(r, minlength=n + 1)[:n])
    vertex %= k
    terms = p[vertex]
    terms *= a
    total = np.sum(terms)
    del terms
    best, best_lo, best_run = total.real**2 + total.imag**2, np.zeros(k, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # a sector [s, s + width) of u holds positions lo_k..hi_k - 1 of edge k's
    # breakpoints; its width adapts to hold at most _SECTOR of them
    lo = best_lo
    s, width = 0.0, TWO_PI * _SECTOR / (n * k)
    while s < TWO_PI:
        e = s + width
        hi = np.clip(np.searchsorted(t_ext, e + wrap) - r, lo, n) if e < TWO_PI else np.full(k, n)
        count = hi - lo
        size = int(count.sum())
        if size > _SECTOR and s + 0.5 * width > s:
            width *= 0.5
            continue
        if size:
            # the sector's breakpoints in order of u, ties edge by edge and
            # then in the order of t, so the sweep order is fixed
            edge = np.repeat(np.arange(k), count)
            j = np.arange(size) + np.repeat(r + lo - (np.cumsum(count) - count), count)
            o = np.argsort(t_ext[j] + shift[edge], kind="stable")
            j, edge = j[o], edge[o]
            j[j >= n] -= n
            run = a[j] * step[edge]
            run[0] += total
            np.cumsum(run, out=run)
            size2 = run.real**2 + run.imag**2
            at = int(np.argmax(size2))
            if size2[at] > best:
                best, best_lo, best_run = size2[at], lo, j[: at + 1].copy()
            total = run[-1]
        s, lo = e, hi
        width *= min(2.0, 0.9 * _SECTOR / size) if size else 2.0
    del a, t_ext
    # each element's vertex at the best sum: its start plus the edges passed
    passed = np.zeros(2 * n + 1, dtype=np.intp)
    np.add.at(passed, r, 1)
    np.subtract.at(passed, r + best_lo, 1)
    np.cumsum(passed, out=passed)
    vertex += passed[:n]
    vertex += passed[n:-1]
    np.add.at(vertex, best_run, 1)
    vertex %= k
    idx = np.empty(n, dtype=np.intp)
    idx[order] = hull[vertex]
    return idx


def optimize_alternating(
    pair: ChannelPair, alphabet: Alphabet
) -> tuple[SurfaceConfig, OptimizerReport]:
    """The exact global optimum of |sum g gamma h|^2 over the alphabet, from
    the breakpoint sweep (module docstring), certified by one pass of
    is_coordinatewise_optimal's test (no substitution gains over 1e-12 of
    the objective).  A failed certificate is a bug in the sweep, so it
    raises RuntimeError."""
    values = alphabet.values
    gh = (pair.g * pair.h).ravel()
    idx = _alphabet_optimum(gh, values)
    # gh * gamma, not gh * values[idx]: numpy may compute a product with a
    # large temporary in place with the operands swapped, and its fused
    # complex multiply rounds differently with them swapped
    gamma = values[idx]
    terms = gh * gamma
    if not _coordinatewise_optimal(gh, terms, values):
        raise RuntimeError("the alphabet optimum failed its coordinate-wise certificate")
    objective = abs(np.sum(terms)) ** 2

    shape = pair.g.shape
    config = SurfaceConfig(
        gamma.reshape(shape),
        DesignCriterion.from_alphabet(alphabet),
        alphabet_indices=idx.reshape(shape),
    )
    report = OptimizerReport(
        iterations=1,
        objective_trace=[objective, objective],
        converged=True,
        updates_per_sweep=[0],
        coordinatewise_optimal=True,
    )
    return config, report


def is_coordinatewise_optimal(
    pair: ChannelPair, config: SurfaceConfig, alphabet: Alphabet
) -> bool:
    """True if no single-element substitution from the alphabet increases
    the objective by more than 1e-12 of it."""
    gh = (pair.g * pair.h).ravel()
    return _coordinatewise_optimal(gh, gh * config.gamma.ravel(), alphabet.values)


def _coordinatewise_optimal(gh: np.ndarray, terms: np.ndarray, values: np.ndarray) -> bool:
    """is_coordinatewise_optimal from the terms gh * gamma."""
    total = np.sum(terms)
    current = abs(total) ** 2
    # the objective with each element in turn set to v, all others kept; one
    # entry at a time, so that memory stays O(elements)
    alpha = total - terms
    bound = current * (1.0 + 1e-12)
    return not any(np.any(np.abs(alpha + gh * v) ** 2 > bound) for v in values)


def design_for_criterion(
    pair: ChannelPair, criterion: DesignCriterion
) -> tuple[SurfaceConfig, OptimizerReport | None]:
    """Dispatch a DesignCriterion to the matching design routine."""
    if criterion.kind == "uacp":
        return design_uacp(pair), None
    if criterion.kind == "uadp":
        return design_uadp(pair, criterion.levels), None
    if criterion.kind == "uaep":
        return design_uaep(pair, criterion.alphabet), None
    if criterion.kind == "alphabet":
        return optimize_alternating(pair, criterion.alphabet)
    if criterion.kind == "specular":
        return design_specular(pair.geometry), None
    if criterion.kind == "diffuser":
        return design_diffuser(pair.geometry, criterion.seed or 0), None
    raise ValueError(f"unhandled criterion {criterion.kind!r}")
