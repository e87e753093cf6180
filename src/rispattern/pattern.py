"""Reradiation-pattern sweeps over observation angle and beam metrics.

The receiver is swept along an arc in the xz-plane (azimuth 0): position
(R sin(theta), 0, R cos(theta)) for theta on a uniform grid.  R is either a
fixed radius (near-field studies) or the module's far-field default.  The
illumination is held fixed, so sweeping a frozen configuration under an
off-nominal transmitter doubles as the interference study.

Every sweep point comes from the same per-element kernel that builds
`ChannelPair` (see the channel module).  A sweep of more than two chunks
evaluates each element row's rx factor on a few Chebyshev interpolation
columns instead of on every column, and checks the result against the real
columns at run time, at its first, middle, last and peak angles, to 1e-10
of the largest checked power; if a check fails the sweep runs on the real
columns, where each point equals `received_power` of the pointwise channel
up to rounding.  The trace metadata
records `kernel_columns` (the node count, or the column count),
`kernel_check_err` (the worst checked error as a share of the checked peak)
and `step_deg`, the angular step actually used.  The kernel works through
the angles in chunks whose temporaries stay within a fixed byte budget, so
a sweep's peak memory is that budget plus O(N*M) whatever the grid; reruns
repeat bit for bit.
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


@dataclass(frozen=True)
class SweepSpec:
    """Angular grid and radius mode for a pattern sweep."""

    theta_min: float = -90.0
    theta_max: float = 90.0
    step: float = 0.1
    fixed_radius: float | None = None  # None selects the far-field default

    def __post_init__(self):
        if self.theta_min >= self.theta_max:
            raise ValueError("theta_min must be < theta_max")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive and finite")
        radius = self.fixed_radius
        if radius is not None and not (math.isfinite(radius) and radius > 0):
            raise ValueError("fixed radius must be positive and finite")

    @property
    def angles(self) -> np.ndarray:
        count = int(round((self.theta_max - self.theta_min) / self.step)) + 1
        return np.linspace(self.theta_min, self.theta_max, count)


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

    def power_at(self, angle_deg: float) -> float:
        """Linear interpolation of the power trace."""
        return float(np.interp(angle_deg, self.angles, self.power))

    def peak_near(self, angle_deg: float, window: float = 5.0) -> tuple[float, float]:
        """(angle, power) of the trace maximum within +/- window degrees."""
        mask = np.abs(self.angles - angle_deg) <= window
        if not mask.any():
            raise ValueError(f"no samples within {window} deg of {angle_deg} deg")
        sub_p = self.power[mask]
        i = int(np.argmax(sub_p))
        return float(self.angles[mask][i]), float(sub_p[i])


@dataclass(frozen=True, eq=False)
class BeamMetrics:
    """Global peak and sidelobes (strict local maxima) of one trace."""

    peak_angle: float
    peak_power: float
    sidelobes: tuple[tuple[float, float], ...]  # (angle, power), descending power
    trace: PatternTrace


def rx_arc_position(radius: float, theta_deg: float) -> tuple[float, float, float]:
    """Receiver position on the xz-plane arc at the given polar angle."""
    t = math.radians(theta_deg)
    return (radius * math.sin(t), 0.0, radius * math.cos(t))


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
    positions = np.array([rx_arc_position(radius, t) for t in angles])
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
        "pitch_m": (geom.pitch_x, geom.pitch_y),
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
        trace=trace,
    )
