"""Surface configuration design: closed-form phase matching, baselines, and
alternating optimization over an arbitrary finite reflection alphabet.

Unless given a start, the alternating optimizer starts at the exact global
optimum of |S|, S = sum gh x over the alphabet's entries x, found by a
breakpoint sweep.  Why it is exact: |S| = max over psi of Re(e^{-j psi} S).
At the optimum's direction psi*, every element's choice maximizes its own
Re(e^{-j psi*} gh_i x_i), or changing it would raise |S|; and any choices
that all do so reach |S| >= the optimum, so they are optimal too.  Such a
choice is a vertex p_k of the convex hull of the entries, and as psi turns,
element i's best vertex changes from p_k to p_{k+1} only at psi =
arg(gh_i) + beta_k, beta_k the outward normal of the hull's edge k.  The
sweep visits these N K breakpoints in order around the circle, moves a
running sum by gh_i (p_{k+1} - p_k) at each and keeps the first maximum of
|S|: it meets every assignment that is best for some psi, the optimum
among them (the support function of a Minkowski sum of convex polygons).
Its memory is the elements sorted by arg(gh) plus one sector of the circle
at a time: each edge's breakpoints in a sector are a run of that order,
found by searchsorted, and a sector holds at most _SECTOR of them unless
they fall on one angle.  The coordinate ascent below then certifies the
start, in one sweep without an update on the benchmark's designs; as the
running sum is rounded, it takes any strict improvement the start missed.
Given a start, the optimizer is plain coordinate ascent from it.

The alternating optimizer sweeps the elements in row-major order and gives
each one the alphabet entry that maximizes the exact quadratic objective
against the field sum of all other elements, changing it only on a strict
improvement, ties to the lowest index.  The field total moves only when an
element changes, and it is recomputed from scratch at the end of each sweep.
The walk of one element at a time that this describes is the reference;
the optimizer makes the same decisions but scores fewer elements.

Most visits change nothing, and the optimizer proves that rather than
deciding them: a certified-skip scan.  Element i, holding entry m, improves
only if its margin (the best alternative's score minus the current score)
is positive.  A round starts at an element with the current total T and
screens the elements from there to the end of its block, the aligned run of
_WINDOW elements that it lies in, against T with one matrix product: the
(L x 3) coefficients of each entry's score times each element's [|gh|^2,
Re q, Im q], q = gh conj(alpha).  An element whose screened margin plus a
rounding allowance is negative is skipped; the others are decided in order.
The round ends at its first update, and the next one starts just after that
element against the moved total; a round without an update ends at its
block's end.  So every element is screened at the exact total that it would
be decided against, and a sweep without an update is one screen per block.

Why the skip is exact.  The allowance is _ROUNDING (64 epsilon) times
S_i = max|v|^2 |gh_i|^2 + 2 |gh_i| max|v| (|T| + |t_i|), which bounds the
terms of element i's scores at total T.  A computed score, however its
three products and the complex product q inside it are ordered or fused,
lies within 5 epsilon S_i of the exact one, so two computations of a score
difference differ by at most 20 epsilon S_i, under a third of the
allowance.  So an element skipped here could not have shown an improvement
to the decision that it skips.  Every element the scan decides is decided
at its exact alpha by one numpy expression, the one the tests' per-element
loop uses, and the total moves by Python complex products, which round like
numpy's scalar ones: both use the four-multiply formula without fused
operations.  numpy's array complex multiply may fuse multiply-adds on some
CPUs, so an exact tie between entries is decided the same on every rerun
but may be decided differently on another machine.
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
    """Convergence record of one alternating-optimization run."""

    iterations: int
    objective_trace: list[float]
    converged: bool
    updates_per_sweep: list[int]
    coordinatewise_optimal: bool

    @property
    def element_update_count(self) -> int:
        return sum(self.updates_per_sweep)


# Coordinate ascent stops after a sweep that changes no element, or after
# _MAX_SWEEPS sweeps.
_MAX_SWEEPS = 100

# The certified-skip scan (module docstring): elements per block and the
# rounding allowance factor.
_WINDOW = 512
_ROUNDING = 64 * np.finfo(float).eps

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


class _Scan:
    """The certified-skip scan of one optimizer run (module docstring): the
    design's constants, the current sweep's terms, and the indices, which
    it updates in place."""

    def __init__(self, gh: np.ndarray, values: np.ndarray, idx: np.ndarray):
        self.gh, self.values, self.idx = gh, values, idx
        self.values_list = values.tolist()
        self.value_abs2 = np.abs(values) ** 2
        self.gh_abs2 = np.abs(gh) ** 2
        # rounding allowance = fixed |gh|^2 + slope (|total| + |term|)
        v_max = float(np.abs(values).max())
        self.fixed = _ROUNDING * v_max**2
        self.slope = (_ROUNDING * 2.0 * v_max) * np.abs(gh)
        # score_l = |v_l|^2 |gh|^2 + 2 Re(v_l q) with q = gh conj(alpha): each
        # entry's coefficients of |gh|^2, Re q and Im q, and a block's rows
        # [|gh|^2, Re q, Im q] for scores() to multiply them with
        self.coef = np.stack([self.value_abs2, 2.0 * values.real, -2.0 * values.imag], axis=1)
        self.x = np.empty((_WINDOW, 3))
        self.rows = np.arange(_WINDOW)

    def ascend(self) -> tuple[list[float], list[int], bool]:
        """Sweep until a sweep changes no element, or for _MAX_SWEEPS
        sweeps: returns the objective trace, the updates per sweep and
        whether the last sweep changed nothing."""
        total = self.new_sweep()
        trace = [abs(total) ** 2]
        updates_per_sweep = []
        for _ in range(_MAX_SWEEPS):
            updates = 0
            now = complex(total)
            start = 0
            while start < self.idx.size:
                start, now, updated = self.round(start, now)
                updates += updated
            updates_per_sweep.append(updates)
            total = self.new_sweep()
            trace.append(abs(total) ** 2)
            if not updates:
                return trace, updates_per_sweep, True
        return trace, updates_per_sweep, False

    def new_sweep(self) -> complex:
        """Recompute every term from the indices, which caps incremental
        rounding drift, and each element's allowance, which stays fixed
        within a sweep as a round only reaches elements not yet visited.
        Returns the total."""
        # gh * gamma, not gh * values[idx]: numpy may compute a product with
        # a large temporary in place with the operands swapped, and its fused
        # complex multiply rounds differently with them swapped
        gamma = self.values[self.idx]
        self.terms = self.gh * gamma
        self.allow = self.fixed * self.gh_abs2 + self.slope * np.abs(self.terms)
        return np.sum(self.terms)

    def scores(self, w: slice, alpha: np.ndarray) -> np.ndarray:
        """Every entry's score for the elements of w at the given alphas,
        (L x elements), from one matrix product."""
        x = self.x[: alpha.size]
        x[:, 0] = self.gh_abs2[w]
        x[:, 1:] = (self.gh[w] * alpha.conj()).view(float).reshape(-1, 2)
        return self.coef @ x.T

    def round(self, start: int, now: complex) -> tuple[int, complex, bool]:
        """One round from element `start` at total `now`: screen the rest of
        start's block and decide, in order, the elements that pass, up to
        the first update.  Returns where the next round starts, the total
        and whether an element changed."""
        stop = min((start // _WINDOW + 1) * _WINDOW, self.idx.size)
        w = slice(start, stop)
        rows = self.rows[: stop - start]
        cur = self.idx[w]
        scores = self.scores(w, now - self.terms[w])
        own = scores[cur, rows]
        scores[cur, rows] = -math.inf
        base = scores.max(0) - own + self.allow[w] + self.slope[w] * abs(now)
        for j in ((base >= 0).nonzero()[0] + start).tolist():
            current = int(self.idx[j])
            alpha = now - complex(self.terms[j])
            best = self.decide(j, alpha, current)
            if best != current:
                self.idx[j] = best
                return j + 1, alpha + complex(self.gh[j]) * self.values_list[best], True
        return stop, now, False

    def decide(self, j: int, alpha: complex, current: int) -> int:
        """Element j's decision at alpha: the first best entry, kept at
        `current` unless that strictly improves on it."""
        exact = self.value_abs2 * self.gh_abs2[j] + 2.0 * (self.values * self.gh[j] * np.conj(alpha)).real
        best = int(exact.argmax())
        return best if exact[best] > exact[current] else current


def optimize_alternating(
    pair: ChannelPair,
    alphabet: Alphabet,
    init: SurfaceConfig | None = None,
) -> tuple[SurfaceConfig, OptimizerReport]:
    """Alternating (coordinate) ascent of |sum g gamma h|^2 over the alphabet.

    Each element update maximizes the exact expanded objective
    |G|^2 |g h|^2 + 2 Re{G g h conj(alpha)} over the L alphabet entries,
    where alpha is the field sum excluding the element being updated; ties
    break to the lowest alphabet index, and an element only changes state on
    a strict improvement.  The outer loop stops after a sweep that changes
    no element (converged=True), or after _MAX_SWEEPS (100) sweeps
    (converged=False, best-so-far returned).
    Without init the ascent starts at the exact global optimum over the
    alphabet (the breakpoint sweep of the module docstring) and certifies
    it.  With init it is plain coordinate ascent from there, a local method:
    the output is coordinate-wise optimal, not necessarily the global
    optimum.  The report's coordinatewise_optimal checks that with
    is_coordinatewise_optimal after the last sweep.
    """
    values = alphabet.values
    gh = (pair.g * pair.h).ravel()
    if init is not None:
        if init.alphabet_indices is None:
            raise ValueError("initial config must carry alphabet indices")
        idx = init.alphabet_indices.ravel().copy()
    else:
        idx = _alphabet_optimum(gh, values)
    scan = _Scan(gh, values, idx)
    trace, updates_per_sweep, converged = scan.ascend()

    shape = pair.g.shape
    config = SurfaceConfig(
        values[idx].reshape(shape),
        DesignCriterion.from_alphabet(alphabet),
        alphabet_indices=idx.reshape(shape),
    )
    report = OptimizerReport(
        iterations=len(trace) - 1,
        objective_trace=trace,
        converged=converged,
        updates_per_sweep=updates_per_sweep,
        coordinatewise_optimal=_coordinatewise_optimal(gh, scan.terms, values),
    )
    return config, report


def is_coordinatewise_optimal(
    pair: ChannelPair, config: SurfaceConfig, alphabet: Alphabet
) -> bool:
    """True if no single-element substitution from the alphabet strictly
    increases the objective."""
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
