"""Reflection-coefficient alphabets: built-in measured sets, idealized
evenly-spaced sets, file loading and canonical export.

Amplitude convention: dB entries are field quantities, converted with
10^(dB/20).  Phases are canonicalized to (-180, 180] degrees; entry order
always follows the source table's row order.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import canonical_phase

DEG = math.pi / 180.0


class AlphabetError(ValueError):
    """Invalid alphabet content (bad amplitude, empty table, missing column)."""


@dataclass(frozen=True)
class ComplexCoefficient:
    """A reflection coefficient as (linear amplitude, canonical phase in radians)."""

    amplitude: float
    phase: float

    def __post_init__(self):
        if not (0.0 <= self.amplitude <= 1.0):
            raise AlphabetError(
                f"reflection amplitude must be in [0, 1], got {self.amplitude}"
            )
        object.__setattr__(self, "phase", canonical_phase(self.phase))

    @classmethod
    def from_db_deg(cls, amp_db: float, phase_deg: float) -> "ComplexCoefficient":
        return cls(10.0 ** (amp_db / 20.0), phase_deg * DEG)

    @classmethod
    def from_linear_deg(cls, amp: float, phase_deg: float) -> "ComplexCoefficient":
        return cls(amp, phase_deg * DEG)

    @property
    def value(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))

    @property
    def phase_deg(self) -> float:
        return self.phase / DEG


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of reflection coefficients an element can realize."""

    entries: tuple[ComplexCoefficient, ...]
    source_label: str = ""
    nominal_frequency: float | None = None
    control_values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) < 1:
            raise AlphabetError("alphabet must contain at least one entry")
        if self.control_values is not None:
            object.__setattr__(self, "control_values", tuple(self.control_values))
            if len(self.control_values) != len(self.entries):
                raise AlphabetError(
                    f"{len(self.control_values)} control values for "
                    f"{len(self.entries)} entries"
                )

    @property
    def cardinality(self) -> int:
        return len(self.entries)

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=complex)

    @property
    def phases(self) -> np.ndarray:
        return np.array([e.phase for e in self.entries])


def uadp_set(levels: int) -> Alphabet:
    """Unit-amplitude alphabet with L evenly-spaced phases 2*pi*n/L, n=0..L-1."""
    if levels < 2:
        raise ValueError(f"evenly-spaced phase set needs L >= 2, got {levels}")
    entries = tuple(
        ComplexCoefficient(1.0, 2.0 * math.pi * n / levels) for n in range(levels)
    )
    return Alphabet(entries, source_label=f"uadp({levels})")


# Varactor-tuned surface, one measured state per bias voltage.  The hardware
# is continuously tunable but only these 14 measurements are available, so
# they form the feasible set.  Band 5.15-5.75 GHz; the band center is used
# as the nominal frequency and the cell is roughly a quarter wavelength.
_VARACTOR_ROWS = (
    (0.00, -1.517, 32.798),
    (0.25, -1.807, 40.854),
    (0.50, -3.156, 46.807),
    (0.75, -5.590, 53.543),
    (1.00, -9.576, 70.320),
    (1.25, -20.563, -167.158),
    (1.50, -6.615, -73.171),
    (1.75, -3.029, -49.627),
    (2.00, -1.959, -35.908),
    (2.50, -0.874, -23.263),
    (3.00, -0.749, -16.087),
    (3.50, -0.469, -12.663),
    (4.00, -0.528, -9.925),
    (5.00, -0.439, -6.906),
)


# name: (amplitude unit, (amplitude, phase in degrees) rows, nominal
# frequency in Hz, control values)
_BUILTINS = {
    "mmwave33": ("linear", ((0.8, 150.0), (0.8, 0.0)), 33e9, None),
    "mmwave27": ("linear", ((0.9, 165.0), (0.7, 0.0)), 27e9, None),
    "omni3p6": ("linear", ((0.46, 20.0), (0.55, 215.0)), 3.6e9, None),
    "testbed2p3": (
        "db",
        ((-1.2, -205.5), (-1.2, -383.2), (-0.8, -290.2), (-0.7, -110.3)),
        2.3e9,
        None,
    ),
    "varactor5g": (
        "db",
        tuple((db, deg) for _, db, deg in _VARACTOR_ROWS),
        5.45e9,
        tuple(v for v, _, _ in _VARACTOR_ROWS),
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin(name: str) -> Alphabet:
    """Look up a built-in measured alphabet by name."""
    try:
        unit, rows, frequency, controls = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown alphabet {name!r}; valid names: {', '.join(builtin_names())}"
        ) from None
    make = ComplexCoefficient.from_db_deg if unit == "db" else ComplexCoefficient.from_linear_deg
    return Alphabet(
        tuple(make(amp, deg) for amp, deg in rows),
        source_label=name,
        nominal_frequency=frequency,
        control_values=controls,
    )


def constellation_stats(alphabet: Alphabet) -> tuple[complex, float]:
    """Centroid of the constellation and the smallest circular arc (radians)
    containing every entry phase.

    A centroid away from the origin is the mechanism behind residual specular
    reflection: the mean reflection adds coherently in the mirror direction.
    """
    values = alphabet.values
    centroid = complex(values.mean())
    phases = np.sort(alphabet.phases)
    if len(phases) == 1:
        return centroid, 0.0
    gaps = np.diff(phases)
    wrap_gap = 2.0 * math.pi - (phases[-1] - phases[0])
    coverage = 2.0 * math.pi - max(gaps.max(), wrap_gap)
    return centroid, float(coverage)


def load_alphabet(text: str, source_label: str = "") -> Alphabet:
    """Parse an alphabet from delimited text.

    Expected layout: optional `# amplitude_unit: linear|db` and
    `# phase_unit: deg|rad` declaration lines, other `#` lines ignored, a
    header row `amplitude,phase[,control]`, then one row per entry in file
    order.
    """
    amp_unit = "linear"
    ph_unit = "deg"
    rows = []
    header = None
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("amplitude_unit:"):
                amp_unit = body.split(":", 1)[1].strip().lower() or "linear"
            elif body.lower().startswith("phase_unit:"):
                ph_unit = body.split(":", 1)[1].strip().lower() or "deg"
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = [c.lower() for c in cells]
            if "amplitude" not in header or "phase" not in header:
                raise AlphabetError(
                    f"header must contain 'amplitude' and 'phase' columns, got {header}"
                )
            continue
        rows.append((lineno, cells))

    if amp_unit not in ("linear", "db"):
        raise AlphabetError(f"unknown amplitude unit {amp_unit!r}")
    if ph_unit not in ("deg", "rad"):
        raise AlphabetError(f"unknown phase unit {ph_unit!r}")
    if header is None or not rows:
        raise AlphabetError("alphabet table is empty")

    i_amp = header.index("amplitude")
    i_ph = header.index("phase")
    i_ctrl = header.index("control") if "control" in header else None

    entries = []
    controls = []
    for lineno, cells in rows:
        try:
            amp = float(cells[i_amp])
            ph = float(cells[i_ph])
            if i_ctrl is not None:
                controls.append(float(cells[i_ctrl]))
        except (ValueError, IndexError) as exc:
            raise AlphabetError(f"line {lineno}: cannot parse row {cells}") from exc
        if amp_unit == "db":
            amp = 10.0 ** (amp / 20.0)
        if ph_unit == "deg":
            ph = ph * DEG
        try:
            entries.append(ComplexCoefficient(amp, ph))
        except AlphabetError as exc:
            raise AlphabetError(f"line {lineno}: {exc}") from None

    seen = {}
    for idx, e in enumerate(entries):
        key = (e.amplitude, e.phase)
        if key in seen:
            warnings.warn(
                f"alphabet rows {seen[key]} and {idx} are duplicates "
                f"(amplitude {e.amplitude}, phase {e.phase_deg} deg); keeping both",
                stacklevel=2,
            )
        else:
            seen[key] = idx

    return Alphabet(
        tuple(entries),
        source_label=source_label,
        control_values=tuple(controls) if controls else None,
    )


def dump_alphabet(alphabet: Alphabet) -> str:
    """Canonical text encoding: linear amplitudes at 9 significant digits,
    phases in degrees."""
    lines = ["# amplitude_unit: linear", "# phase_unit: deg"]
    if alphabet.source_label:
        lines.append(f"# source: {alphabet.source_label}")
    has_ctrl = alphabet.control_values is not None
    lines.append("amplitude,phase,control" if has_ctrl else "amplitude,phase")
    for i, e in enumerate(alphabet.entries):
        row = f"{e.amplitude:.9g},{e.phase_deg:.9g}"
        if has_ctrl:
            row += f",{alphabet.control_values[i]:.9g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DesignCriterion:
    """Which rule produced a surface configuration.

    kind is one of: uacp, uadp, uaep, alphabet, specular, diffuser.
    """

    kind: str
    levels: int | None = None
    alphabet: Alphabet | None = None
    seed: int | None = None

    _KINDS = ("uacp", "uadp", "uaep", "alphabet", "specular", "diffuser")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "uadp":
            if self.levels is None or self.levels < 2:
                raise ValueError("uadp criterion needs levels >= 2")
        if self.kind in ("uaep", "alphabet") and self.alphabet is None:
            raise ValueError(f"{self.kind} criterion needs a bound alphabet")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"diffuser seed must be >= 0, got {self.seed}")

    @classmethod
    def uacp(cls):
        return cls("uacp")

    @classmethod
    def uadp(cls, levels: int):
        return cls("uadp", levels=levels)

    @classmethod
    def uaep(cls, alphabet: Alphabet):
        return cls("uaep", alphabet=alphabet)

    @classmethod
    def from_alphabet(cls, alphabet: Alphabet):
        return cls("alphabet", alphabet=alphabet)

    @classmethod
    def specular(cls):
        return cls("specular")

    @classmethod
    def diffuser(cls, seed: int = 0):
        return cls("diffuser", seed=seed)

    def label(self) -> str:
        if self.kind == "uadp":
            return f"UADP(L={self.levels})"
        if self.kind == "uaep":
            return f"UAEP({self.alphabet.source_label})"
        if self.kind == "alphabet":
            return f"Alphabet({self.alphabet.source_label})"
        if self.kind == "diffuser":
            return f"Diffuser(seed={self.seed})"
        return self.kind.upper() if self.kind == "uacp" else self.kind.capitalize()
