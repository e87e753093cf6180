"""Surface configuration design: closed-form phase matching, baselines, and
alternating optimization over an arbitrary finite reflection alphabet.

The alternating optimizer sweeps the elements in row-major order and gives
each one the alphabet entry that maximizes the exact quadratic objective
against the field sum of all other elements, changing it only on a strict
improvement.  Between two such updates the field total does not move, so
every element's scores are a function of that one total.  The optimizer
therefore scores a block of consecutive elements against the fixed total in
one vectorized step, applies the first strict improvement in the block,
moves the total by that element's change alone, and resumes just after it.
That makes the decisions of a one-element-at-a-time loop; what it drops is
re-adding an unchanged element's term to the total, which only rounds.
A block grows while it holds no update and shrinks after one.  The total is
recomputed from scratch at the end of each sweep to cap rounding drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, DesignCriterion, uadp_set
from .channel import ChannelPair
from .core import RisGeometry, canonical_phase


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

    @property
    def shape(self):
        return self.gamma.shape


@dataclass
class OptimizerReport:
    """Convergence record of one alternating-optimization run."""

    iterations: int
    objective_trace: list[float]
    converged: bool
    tolerance_used: float
    element_update_count: int
    updates_per_sweep: list[int]  # sums to element_update_count


# Bounds on the number of elements the optimizer scores in one step.
_BLOCK_MIN = 16
_BLOCK_MAX = 1024


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
    # circular distance from each target to each candidate, shape (N, M, L)
    dist = np.abs(canonical_phase(target[..., None] - phases[None, None, :]))
    idx = np.argmin(dist, axis=-1)
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


def optimize_alternating(
    pair: ChannelPair,
    alphabet: Alphabet,
    init: SurfaceConfig | None = None,
    epsilon: float | None = None,
    max_sweeps: int = 100,
    random_restarts: int = 0,
    restart_seed: int = 0,
) -> tuple[SurfaceConfig, OptimizerReport]:
    """Alternating (coordinate) ascent of |sum g gamma h|^2 over the alphabet.

    Each element update maximizes the exact expanded objective
    |G|^2 |g h|^2 + 2 Re{G g h conj(alpha)} over the L alphabet entries,
    where alpha is the field sum excluding the element being updated; ties
    break to the lowest alphabet index, and an element only changes state on
    a strict improvement.  The outer loop stops once a full sweep moves the
    objective by at most epsilon (default 1e-6 relative to the initial
    value), or after max_sweeps sweeps (converged=False, best-so-far
    returned).

    Coordinate ascent is a local method; random_restarts > 0 reruns it from
    that many seeded random feasible initializations and keeps the best run
    (every run's output is still coordinate-wise optimal).
    """
    if random_restarts > 0:
        best = optimize_alternating(pair, alphabet, init, epsilon, max_sweeps)
        rng = np.random.default_rng(restart_seed)
        shape = pair.g.shape
        values = alphabet.values
        for _ in range(random_restarts):
            idx0 = rng.integers(0, len(values), size=shape)
            start = SurfaceConfig(
                values[idx0],
                DesignCriterion.from_alphabet(alphabet),
                alphabet_indices=idx0,
            )
            run = optimize_alternating(pair, alphabet, start, epsilon, max_sweeps)
            if run[1].objective_trace[-1] > best[1].objective_trace[-1]:
                best = run
        return best
    values = alphabet.values
    value_abs2 = np.abs(values) ** 2
    gh = (pair.g * pair.h).ravel()
    gh_abs2 = np.abs(gh) ** 2
    n_el = gh.size

    if init is not None:
        if init.alphabet_indices is None:
            raise ValueError("initial config must carry alphabet indices")
        idx = init.alphabet_indices.ravel().copy()
    else:
        idx = np.zeros(n_el, dtype=int)
    gamma = values[idx]

    terms = gh * gamma
    total = np.sum(terms)
    f0 = abs(total) ** 2
    if epsilon is None:
        epsilon = 1e-6 * f0
    if epsilon < 0:
        raise ValueError(f"tolerance must be >= 0, got {epsilon}")

    trace = [f0]
    updates_per_sweep = []
    converged = False
    rows = np.arange(_BLOCK_MAX)
    block = _BLOCK_MIN
    for _ in range(max_sweeps):
        updates = 0
        start = 0
        while start < n_el:
            # the total is fixed until the next update, so score the run-up to
            # it in one step: every element against the same total
            stop = min(start + block, n_el)
            alpha = total - terms[start:stop]
            scores = value_abs2 * gh_abs2[start:stop, None] + 2.0 * (
                values * gh[start:stop, None] * alpha.conj()[:, None]
            ).real
            current = scores[rows[: stop - start], idx[start:stop]]
            better = np.flatnonzero(scores.max(1) > current)
            if better.size == 0:
                start = stop
                block = min(2 * block, _BLOCK_MAX)
                continue
            # terms[i] goes stale here, but this sweep does not come back to i
            row = better[0]
            i = start + row
            idx[i] = np.argmax(scores[row])
            gamma[i] = values[idx[i]]
            total = alpha[row] + gh[i] * gamma[i]
            updates += 1
            start = i + 1
            block = max(block // 4, _BLOCK_MIN)
        updates_per_sweep.append(updates)
        # full recompute per sweep caps incremental rounding drift
        terms = gh * gamma
        total = np.sum(terms)
        f_new = abs(total) ** 2
        trace.append(f_new)
        if abs(f_new - trace[-2]) <= epsilon:
            converged = True
            break

    shape = pair.g.shape
    config = SurfaceConfig(
        gamma.reshape(shape),
        DesignCriterion.from_alphabet(alphabet),
        alphabet_indices=idx.reshape(shape),
    )
    report = OptimizerReport(
        iterations=len(trace) - 1,
        objective_trace=trace,
        converged=converged,
        tolerance_used=epsilon,
        element_update_count=sum(updates_per_sweep),
        updates_per_sweep=updates_per_sweep,
    )
    return config, report


def is_coordinatewise_optimal(
    pair: ChannelPair, config: SurfaceConfig, alphabet: Alphabet
) -> bool:
    """True if no single-element substitution from the alphabet strictly
    increases the objective."""
    gh = (pair.g * pair.h).ravel()
    terms = gh * config.gamma.ravel()
    total = np.sum(terms)
    current = abs(total) ** 2
    # the objective with each element in turn set to v, all others kept; one
    # entry at a time, so that memory stays O(elements)
    alpha = total - terms
    bound = current * (1.0 + 1e-12)
    return not any(np.any(np.abs(alpha + gh * v) ** 2 > bound) for v in alphabet.values)


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
