"""Output checks, run outside the timed region.

Each check raises CheckFailed with a one-line reason; the caller counts the
invocation as failed. The pointwise oracle is the package's own per-position
route, `received_power(ChannelPair.compute(...), config, p_tx)`.
"""

from __future__ import annotations

import math

import numpy as np

from rispattern import (
    ChannelPair,
    DesignCriterion,
    SurfaceConfig,
    Terminal,
    far_field_radius,
    is_coordinatewise_optimal,
    optimize_alternating,
    received_power,
    rx_arc_position,
)

# Largest |sweep power - oracle power| allowed, as a share of the trace's
# peak power. It admits an approximate kernel whose error stays below
# -30 dB of the beam peak; the measured worst case is reported on its own
# as pattern.oracle_rel_err, so drift shows long before this gate.
ORACLE_TOL = 1e-3


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def design_pair(s) -> ChannelPair:
    """The channel a scenario is designed against (as run_scenario builds it)."""
    geom, wave = s.geometry(), s.wave
    tx_radius = far_field_radius(geom, wave)
    rx_radius = s.near_radius if s.field_regime == "near" else tx_radius
    tx = Terminal(rx_arc_position(tx_radius, 0.0), role="tx")
    rx = Terminal(rx_arc_position(rx_radius, s.target_angle), role="rx")
    return ChannelPair.compute(geom, wave, tx, rx)


def sweep_radius(s) -> float:
    if s.field_regime == "near":
        return s.near_radius
    return far_field_radius(s.geometry(), s.wave)


def oracle_error(s, gamma, tx_position, radius, angles, power, indices) -> float:
    """Worst |power[i] - oracle(angles[i])| / max(power) over indices."""
    geom, wave = s.geometry(), s.wave
    tx = Terminal(tuple(tx_position), role="tx")
    peak = float(np.max(power))
    require(peak > 0 and math.isfinite(peak), f"trace peak power {peak} is not positive and finite")
    worst = 0.0
    for i in indices:
        rx = Terminal(rx_arc_position(radius, float(angles[i])))
        expected = received_power(ChannelPair.compute(geom, wave, tx, rx), gamma, s.p_tx)
        worst = max(worst, abs(float(power[i]) - expected) / peak)
    require(worst <= ORACLE_TOL, f"sweep differs from the pointwise oracle by {worst:.3g} of peak")
    return worst


def sample_indices(rng, power, k: int) -> list[int]:
    """The trace peak plus k seeded angle indices."""
    n = len(power)
    return sorted({int(np.argmax(power)), *rng.sample(range(n), min(k, n))})


def check_alphabet_design(s, config) -> None:
    """Re-run the optimizer on the design channel: it must reproduce the
    design, stop at a coordinate-wise optimum and never lose objective."""
    alphabet = s.criterion.alphabet
    pair = design_pair(s)
    redo, report = optimize_alternating(pair, alphabet)
    require(
        np.array_equal(redo.alphabet_indices, config.alphabet_indices),
        "alphabet design differs from an in-process re-run",
    )
    check_optimizer_result(pair, config, report, alphabet)


def check_optimizer_result(pair, config, report, alphabet) -> None:
    require(is_coordinatewise_optimal(pair, config, alphabet), "alphabet design is not coordinate-wise optimal")
    trace = report.objective_trace
    require(
        all(b >= a for a, b in zip(trace, trace[1:])),
        "optimizer objective_trace decreases",
    )


def snap_to_alphabet(gamma: np.ndarray, alphabet) -> SurfaceConfig:
    """Rebuild an exact alphabet config from a gamma read back from text."""
    values = alphabet.values
    idx = np.argmin(np.abs(gamma[..., None] - values), axis=-1)
    err = float(np.max(np.abs(values[idx] - gamma)))
    require(err <= 1e-7, f"exported gamma is {err:.3g} away from every alphabet entry")
    return SurfaceConfig(values[idx], DesignCriterion.from_alphabet(alphabet), alphabet_indices=idx)
