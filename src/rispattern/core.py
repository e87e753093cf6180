"""Geometry, wave and terminal primitives shared by every other module.

Coordinate convention: the surface lies in the z=0 plane, centered at the
origin, and both terminals live in the z>0 half-space.  Angles are polar
(elevation from the z axis) and stored in radians; degrees appear only at
I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# SI definition, exact.
SPEED_OF_LIGHT = 299_792_458.0

TWO_PI = 2.0 * math.pi


def canonical_phase(phi):
    """Wrap a phase (scalar or array, radians) into the range (-pi, pi]."""
    if isinstance(phi, (int, float)):
        # Python's float % rounds as np.mod does, at a fraction of the cost
        wrapped = phi % TWO_PI
        return float(wrapped - TWO_PI if wrapped > math.pi else wrapped)
    wrapped = np.mod(phi, TWO_PI)
    wrapped = np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)
    if np.ndim(phi) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class RisGeometry:
    """Uniform N x M element grid with pitches d_x, d_y, centered at the origin."""

    n_rows: int
    n_cols: int
    pitch_x: float
    pitch_y: float

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError(f"grid must have >= 1 row and column, got {self.n_rows}x{self.n_cols}")
        if not all(math.isfinite(p) and p > 0 for p in (self.pitch_x, self.pitch_y)):
            raise ValueError(f"pitches must be positive and finite, got ({self.pitch_x}, {self.pitch_y})")

    @property
    def n_elements(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def aperture_x(self) -> float:
        return self.n_rows * self.pitch_x

    @property
    def aperture_y(self) -> float:
        return self.n_cols * self.pitch_y

    @property
    def x_centers(self) -> np.ndarray:
        """Row-center x coordinates; symmetric about 0 for even and odd N alike."""
        n = np.arange(1, self.n_rows + 1)
        return (n - (self.n_rows + 1) / 2.0) * self.pitch_x

    @property
    def y_centers(self) -> np.ndarray:
        m = np.arange(1, self.n_cols + 1)
        return (m - (self.n_cols + 1) / 2.0) * self.pitch_y


@dataclass(frozen=True)
class Wave:
    """Monochromatic wave; wavelength and wavenumber derive from the frequency."""

    frequency: float

    def __post_init__(self):
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"frequency must be positive and finite, got {self.frequency}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return TWO_PI / self.wavelength


@dataclass(frozen=True)
class Terminal:
    """An isotropic transmitter or receiver at a position in meters."""

    position: tuple[float, float, float]
    role: str = ""

    def __post_init__(self):
        pos = tuple(float(v) for v in self.position)
        object.__setattr__(self, "position", pos)
        if pos[2] <= 0:
            raise ValueError(f"terminal must lie in the z>0 half-space, got z={pos[2]}")
