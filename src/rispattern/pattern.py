"""Reradiation-pattern sweeps over observation angle and beam metrics.

The receiver is swept along an arc in the xz-plane (azimuth 0): position
(R sin(theta), 0, R cos(theta)) for theta on a uniform grid over [-90, 90]
degrees.  R is either a fixed radius (near-field studies) or the module's
far-field default.  The illumination is held fixed, so sweeping a frozen
configuration under an off-nominal transmitter doubles as the interference
study.

Every sweep point comes from the same per-element kernel that builds
`ChannelPair` (see the channel module).  The arc lies in the xz-plane,
and so does every transmitter that a scenario places.  With the
transmitter there too, the kernel is even in the column coordinate y, so
it runs on the first half of the columns only, each weighted by the sum of
its own and its mirror column's weights; the node counts below are still
those of the full grid.  A sweep of more than two chunks takes the arc's
Fresnel chirp and each position's exact distance from the row axis out of
the phase, and evaluates the rest on a few Chebyshev node rows and columns
instead of on every element.  A column count's node rows
are tried only once its node columns over all rows match the real columns
at the middle angle; the ends of the arc lie in the surface's plane and
see no power, so they are not checked.  The sweep on node rows is then
checked against the real columns at the middle and peak angles and the
strongest angle of each outer quarter, to 1e-10 of the largest checked
power; if no count passes, the sweep runs on the real columns, where each
point equals `received_power` of the pointwise channel up to rounding.
The trace metadata records `kernel_columns` (the column node count, or the
column count), `kernel_rows` (the row node count, or the row count),
`kernel_check_err` (the worst checked error as a share of the checked peak,
a spot check of the trace, not a bound on it) and `step_deg`, the angular
step actually used.  The kernel works through the angles in chunks whose
temporaries stay within a fixed byte budget, so a sweep's peak memory is
that budget plus O(N*M) whatever the grid (per-element weights, half as
many on the xz-plane); reruns repeat bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import _received_powers
from .core import RisGeometry, Terminal, Wave


class NearFieldRadiusWarning(UserWarning):
    """A fixed sweep radius lies inside the Fraunhofer distance."""


def fraunhofer_distance(geom: RisGeometry, wave: Wave) -> float:
    """2 D^2 / lambda with D the aperture diagonal."""
    d2 = geom.aperture_x**2 + geom.aperture_y**2
    return 2.0 * d2 / wave.wavelength


def far_field_radius(geom: RisGeometry, wave: Wave) -> float:
    """Default far-field placement radius, 4x the Fraunhofer distance."""
    return 4.0 * fraunhofer_distance(geom, wave)


def check_sweep_radius(geom: RisGeometry, wave: Wave, radius: float) -> None:
    """Emit a NearFieldRadiusWarning if a fixed sweep radius lies inside the
    Fraunhofer distance (near-field studies do this on purpose)."""
    fraunhofer = fraunhofer_distance(geom, wave)
    if radius < fraunhofer:
        warnings.warn(
            f"radius {radius:g} m is inside the Fraunhofer distance "
            f"{fraunhofer:g} m; spherical-wavefront (near-field) regime",
            NearFieldRadiusWarning,
            stacklevel=2,
        )


# The finest accepted grid, a 1.8e-4 deg step: a sweep's arrays and its trace
# file grow with the angle count.
MAX_SWEEP_ANGLES = 1_000_001


@dataclass(frozen=True)
class SweepSpec:
    """Angular grid over [-90, 90] degrees and radius mode for a pattern sweep."""

    step: float = 0.1
    fixed_radius: float | None = None  # None selects the far-field default

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"sweep_step must be positive and finite, got {self.step}")
        if self.count < 3:
            raise ValueError(f"sweep_step {self.step} deg leaves fewer than 3 angles in [-90, 90]")
        if self.count > MAX_SWEEP_ANGLES:
            raise ValueError(
                f"sweep_step {self.step} deg is too small: it gives more than "
                f"{MAX_SWEEP_ANGLES:,} angles in [-90, 90]"
            )
        radius = self.fixed_radius
        if radius is not None and not (math.isfinite(radius) and radius > 0):
            raise ValueError("fixed radius must be positive and finite")

    @property
    def count(self) -> int:
        # capped, so that a subnormal step (180 / step = inf) counts as too
        # many angles instead of overflowing
        return int(round(min(180.0 / self.step, MAX_SWEEP_ANGLES))) + 1

    @property
    def angles(self) -> np.ndarray:
        return np.linspace(-90.0, 90.0, self.count)


@dataclass(frozen=True, eq=False)
class PatternTrace:
    """Received power versus observation angle, plus a normalized dB view."""

    angles: np.ndarray  # degrees
    power: np.ndarray  # watts
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.angles.shape != self.power.shape:
            raise ValueError("angle and power arrays must have equal length")

    @property
    def power_db_normalized(self) -> np.ndarray:
        peak = self.power.max()
        if peak <= 0:
            return np.full_like(self.power, -np.inf)
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.power / peak)


@dataclass(frozen=True, eq=False)
class BeamMetrics:
    """Global peak and sidelobes (strict local maxima) of one trace."""

    peak_angle: float
    peak_power: float
    sidelobes: tuple[tuple[float, float], ...]  # (angle, power), descending power


def rx_arc_position(radius: float, theta_deg) -> np.ndarray:
    """Receiver position on the xz-plane arc at the given polar angle: a
    (3,) array for one angle, (A, 3) for an array of A angles."""
    t = np.radians(theta_deg)
    return np.stack([radius * np.sin(t), np.zeros_like(t), radius * np.cos(t)], axis=-1)


def sweep(
    geom: RisGeometry,
    wave: Wave,
    tx: Terminal,
    config,
    spec: SweepSpec,
    p_tx: float = 1.0,
) -> PatternTrace:
    """Sweep an isotropic receiver over the angular grid and return the
    power trace."""
    if spec.fixed_radius is not None:
        radius = spec.fixed_radius
        check_sweep_radius(geom, wave, radius)
    else:
        radius = far_field_radius(geom, wave)
    angles = spec.angles
    positions = rx_arc_position(radius, angles)
    gamma = np.asarray(getattr(config, "gamma", config))
    if gamma.shape != (geom.n_rows, geom.n_cols):
        raise ValueError(f"gamma shape {gamma.shape} does not match geometry")
    criterion = getattr(config, "criterion", None)
    meta = {
        "radius_m": radius,
        "p_tx_w": p_tx,
        "frequency_hz": wave.frequency,
        "tx_position": tx.position,
        "criterion": criterion.label() if criterion is not None else "raw",
        "grid": (geom.n_rows, geom.n_cols),
        "step_deg": float(angles[1] - angles[0]) if len(angles) > 1 else 0.0,
    }
    power = _received_powers(geom, wave, tx, gamma, positions, p_tx, meta)
    return PatternTrace(angles=angles, power=power, metadata=meta)


def interference_study(
    geom: RisGeometry,
    wave: Wave,
    config,
    interferer_theta_inc: float,
    spec: SweepSpec,
    p_tx: float = 1.0,
) -> PatternTrace:
    """Pattern of a frozen configuration illuminated from theta_inc.

    The interferer sits at the nominal (far-field default) transmitter
    radius; the configuration is not re-optimized.  theta_inc = 0
    reproduces the nominal-illumination sweep exactly.
    """
    tx = Terminal(rx_arc_position(far_field_radius(geom, wave), interferer_theta_inc), role="tx")
    trace = sweep(geom, wave, tx, config, spec, p_tx=p_tx)
    trace.metadata["interferer_theta_inc_deg"] = interferer_theta_inc
    return trace


def extract_metrics(trace: PatternTrace) -> BeamMetrics:
    """Global peak plus strict 3-point local maxima, sorted by power."""
    p = trace.power
    if len(p) < 3:
        raise ValueError("trace must have at least 3 samples")
    i_peak = int(np.argmax(p))
    interior = np.arange(1, len(p) - 1)
    is_max = (p[interior] > p[interior - 1]) & (p[interior] > p[interior + 1])
    lobes = [
        (float(trace.angles[i]), float(p[i]))
        for i in interior[is_max]
        if i != i_peak
    ]
    lobes.sort(key=lambda ap: ap[1], reverse=True)
    return BeamMetrics(
        peak_angle=float(trace.angles[i_peak]),
        peak_power=float(p[i_peak]),
        sidelobes=tuple(lobes),
    )
