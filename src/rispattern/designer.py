"""Surface configuration design: closed-form phase matching, baselines, and
alternating optimization over an arbitrary finite reflection alphabet.

The alternating optimizer sweeps the elements in row-major order and, for
each one, evaluates the exact quadratic objective contribution of every
alphabet entry against the field sum of all other elements.  That sum is
maintained incrementally (subtract old term, add new) and recomputed from
scratch at the end of each sweep to cap rounding drift.
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
    gh = (pair.g * pair.h).ravel()
    n_el = gh.size

    if init is not None:
        if init.alphabet_indices is None:
            raise ValueError("initial config must carry alphabet indices")
        idx = init.alphabet_indices.ravel().copy()
    else:
        idx = np.zeros(n_el, dtype=int)
    gamma = values[idx]

    total = np.sum(gh * gamma)
    f0 = abs(total) ** 2
    if epsilon is None:
        epsilon = 1e-6 * f0
    if epsilon < 0:
        raise ValueError(f"tolerance must be >= 0, got {epsilon}")

    trace = [f0]
    update_count = 0
    converged = False
    gh_abs2 = np.abs(gh) ** 2
    for _ in range(max_sweeps):
        for i in range(n_el):
            alpha = total - gh[i] * gamma[i]
            scores = np.abs(values) ** 2 * gh_abs2[i] + 2.0 * np.real(
                values * gh[i] * np.conj(alpha)
            )
            best = int(np.argmax(scores))
            if best != idx[i] and scores[best] > scores[idx[i]]:
                idx[i] = best
                gamma[i] = values[best]
                update_count += 1
            total = alpha + gh[i] * gamma[i]
        # full recompute per sweep caps incremental rounding drift
        total = np.sum(gh * gamma)
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
        element_update_count=update_count,
    )
    return config, report


def is_coordinatewise_optimal(
    pair: ChannelPair, config: SurfaceConfig, alphabet: Alphabet
) -> bool:
    """True if no single-element substitution from the alphabet strictly
    increases the objective."""
    values = alphabet.values
    gh = (pair.g * pair.h).ravel()
    gamma = config.gamma.ravel()
    total = np.sum(gh * gamma)
    current = abs(total) ** 2
    for i in range(gh.size):
        alpha = total - gh[i] * gamma[i]
        best = np.max(np.abs(alpha + gh[i] * values) ** 2)
        if best > current * (1.0 + 1e-12):
            return False
    return True


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
