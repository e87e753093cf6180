"""Surface configuration design: closed-form phase matching, baselines, and
alternating optimization over an arbitrary finite reflection alphabet.

The alternating optimizer sweeps the elements in row-major order and gives
each one the alphabet entry that maximizes the exact quadratic objective
against the field sum of all other elements, changing it only on a strict
improvement, ties to the lowest index.  The field total moves only when an
element changes, and it is recomputed from scratch at the end of each sweep.

Most visits change nothing, and the optimizer proves that rather than
scoring them: a certified-skip scan.  Element i, holding entry m, improves
only if its margin (the best alternative's score minus the current score)
is positive.  When the total moves by Delta, that margin moves by at most
c_i |Delta|, with c_i = 2 |g_i h_i| max_l |v_l - v_m|.  A round starts at an
element with total T0 and computes the margins of the next _WINDOW elements
in one vectorized step.  An element whose margin + c_i D + allowance is
negative cannot improve while |T - T0| <= D, the round's drift budget of
_DRIFT_STEPS typical single-update moves, so it is skipped unscored.  The
others are rescored exactly, in order, against the current total.  An
update that takes |T - T0| past D ends the round, and the next one starts
just after that element.  If more than a quarter of a window are
candidates, as in a first sweep, the round rescores all of it and the
budget does not apply.

Why this is exact.  The allowance,
_ROUNDING * (max|v|^2 |gh_i|^2 + 2 |gh_i| max|v| (|T| + |t_i|)), exceeds
twice the rounding error of any computed margin, whatever the evaluation
order, so an element skipped here could not have shown an improvement to a
scan that scored it.  A rescore uses Python floats, while numpy's array
complex multiply may use fused multiply-adds and round differently.  So
when the best two scores lie within the allowance, the decision is taken
again with the block scan's numpy expression, rounded as numpy rounds it.
The total moves by Python complex products, which round like numpy's
scalar ones: both use the four-multiply formula without fused operations.
"""

from __future__ import annotations

import math
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


@dataclass
class OptimizerReport:
    """Convergence record of one alternating-optimization run."""

    iterations: int
    objective_trace: list[float]
    converged: bool
    updates_per_sweep: list[int]

    @property
    def element_update_count(self) -> int:
        return sum(self.updates_per_sweep)


# Coordinate ascent stops after a sweep that changes no element, or after
# _MAX_SWEEPS sweeps.
_MAX_SWEEPS = 100

# The certified-skip scan (module docstring): elements per round, the drift
# budget in typical single-update moves, and the rounding allowance factor.
_WINDOW = 512
_DRIFT_STEPS = 4.0
_ROUNDING = 64 * np.finfo(float).eps
_ROWS = np.arange(_WINDOW)
_NEG = -math.inf


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
    Coordinate ascent is a local method: the output is coordinate-wise
    optimal, not necessarily the global optimum.
    """
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

    # gh * gamma, not gh * values[idx]: numpy may compute a product with a
    # large temporary in place with the operands swapped, and its fused
    # complex multiply rounds differently with them swapped
    gamma = values[idx]
    terms = gh * gamma
    total = np.sum(terms)

    # The skip test's constants.  spread[m] = max_l |v_l - v_m| bounds how
    # fast the score differences of an element holding entry m move with the
    # total; the drift budget is a few typical single-update steps.
    v_max = float(np.abs(values).max())
    spread = np.array([np.abs(values - v).max() for v in values])
    budget = _DRIFT_STEPS * float(np.mean(np.abs(gh))) * float(spread.max())
    # rounding allowance = fixed |gh|^2 + per_total |gh| (|total| + |term|)
    fixed = _ROUNDING * v_max**2
    per_total = _ROUNDING * 2.0 * v_max
    # score_l = |v_l|^2 |gh|^2 + 2 Re(v_l q) with q = gh conj(alpha): each
    # entry's coefficients of |gh|^2, Re q and Im q
    coef = np.stack([value_abs2, 2.0 * values.real, -2.0 * values.imag], axis=1)
    entries = coef.tolist()
    values_list = values.tolist()

    trace = [abs(total) ** 2]
    updates_per_sweep = []
    converged = False
    for _ in range(_MAX_SWEEPS):
        updates = 0
        now = complex(total)
        start = 0
        while start < n_el:
            # one round: margins of a window against the round's total, then
            # exact rescoring, in order, of the elements the drift can reach
            stop = min(start + _WINDOW, n_el)
            w = slice(start, stop)
            rows = _ROWS[: stop - start]
            cur, t, g, g2 = idx[w], terms[w], gh[w], gh_abs2[w]
            g_abs = np.sqrt(g2)
            slope = per_total * g_abs
            q = g * (now - t).conj()
            scores = coef[:, :1] * g2 + coef[:, 1:2] * q.real + coef[:, 2:] * q.imag
            margin = -scores[cur, rows]
            scores[cur, rows] = -np.inf
            margin += scores.max(0)
            allow = fixed * g2 + slope * np.abs(t)
            reach = 2.0 * budget * g_abs * spread[cur] + allow + slope * (abs(now) + budget)
            cand = np.flatnonzero(margin + reach >= 0)
            dense = 4 * cand.size > stop - start
            if dense:
                cand = rows
            origin = now
            size = abs(now)
            for j, current, t_j, gh_j, g2_j, tol, slope_j in zip(
                (cand + start).tolist(),
                cur[cand].tolist(),
                t[cand].tolist(),
                g[cand].tolist(),
                g2[cand].tolist(),
                allow[cand].tolist(),
                slope[cand].tolist(),
            ):
                alpha = now - t_j
                q = gh_j * alpha.conjugate()
                qr, qi = q.real, q.imag
                s = [a * g2_j + (r * qr + i * qi) for a, r, i in entries]
                top = max(s)
                best = s.index(top)
                s[best] = _NEG
                if max(s) >= top - tol - slope_j * size:
                    # a tie to within rounding: decide it with the block
                    # expression, rounded as numpy rounds it
                    exact = value_abs2 * gh_abs2[j] + 2.0 * (values * gh[j] * np.conj(alpha)).real
                    best = int(np.argmax(exact)) if exact.max() > exact[current] else current
                if best == current:
                    continue
                idx[j] = best
                now = alpha + gh_j * values_list[best]
                size = abs(now)
                updates += 1
                if not dense and abs(now - origin) > budget:
                    start = j + 1
                    break
            else:
                start = stop
        updates_per_sweep.append(updates)
        # full recompute per sweep caps incremental rounding drift
        gamma = values[idx]
        terms = gh * gamma
        total = np.sum(terms)
        trace.append(abs(total) ** 2)
        if not updates:
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
