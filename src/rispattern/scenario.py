"""Declarative experiment scenarios: alphabet x pitch x target x criterion x
field regime, mirroring the canonical setup of a 1 m square surface under
normal-incidence illumination.

A scenario fixes the wave, the element pitch as a wavelength fraction, the
design criterion and target angle, and whether the receiver is in the far
field or on a near-field arc.  Designing one builds the geometry
(N = M = floor(aperture / d), so the surface never exceeds the stated
aperture) and designs the surface; running one also sweeps the pattern and
extracts metrics.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass

from .alphabet import Alphabet, DesignCriterion, builtin, builtin_names, uadp_set
from .channel import ChannelPair
from .core import RisGeometry, Terminal, Wave
from .designer import OptimizerReport, SurfaceConfig, design_for_criterion
from .pattern import (
    BeamMetrics,
    NearFieldRadiusWarning,
    PatternTrace,
    SweepSpec,
    extract_metrics,
    far_field_radius,
    interference_study,
    rx_arc_position,
    sweep,
)

DEFAULT_ELEMENT_BUDGET = 400_000


class ElementBudgetError(RuntimeError):
    """Scenario would instantiate more elements than the configured budget."""


@dataclass(frozen=True)
class Scenario:
    """One point of the experiment grid."""

    frequency: float
    criterion: DesignCriterion
    target_angle: float = 45.0  # degrees
    pitch_divisor: float = 4.0  # element pitch is lambda / pitch_divisor
    aperture: float = 1.0  # meters, per side
    field_regime: str = "far"  # "far" | "near"
    near_radius: float = 5.0  # meters, rx arc radius in the near regime
    interferer_angles: tuple[float, ...] = ()
    sweep_step: float = 0.1
    p_tx: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not (-90.0 < self.target_angle < 90.0):
            raise ValueError(f"target angle must be in (-90, 90), got {self.target_angle}")
        for angle in self.interferer_angles:
            if not (-90.0 < angle < 90.0):
                raise ValueError(f"interferer angle must be in (-90, 90), got {angle}")
        for name in ("frequency", "pitch_divisor", "aperture", "near_radius", "p_tx"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        SweepSpec(step=self.sweep_step)  # rejects a step that gives no valid angle grid
        if self.field_regime not in ("far", "near"):
            raise ValueError(f"field regime must be 'far' or 'near', got {self.field_regime!r}")

    @property
    def wave(self) -> Wave:
        return Wave(self.frequency)

    @property
    def pitch(self) -> float:
        return self.wave.wavelength / self.pitch_divisor

    @property
    def n_per_side(self) -> int:
        return max(1, int(self.aperture / self.pitch))

    def geometry(self) -> RisGeometry:
        n = self.n_per_side
        return RisGeometry(n, n, self.pitch, self.pitch)


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    config: SurfaceConfig
    trace: PatternTrace
    metrics: BeamMetrics
    report: OptimizerReport | None = None
    interference_traces: tuple[PatternTrace, ...] = ()


@dataclass(frozen=True, eq=False)
class ScenarioDesign:
    """A scenario's designed surface and the placement it was designed for."""

    geometry: RisGeometry
    tx: Terminal
    rx_radius: float  # design receiver radius, also the sweep radius
    config: SurfaceConfig
    report: OptimizerReport | None


def design_scenario(
    s: Scenario,
    element_budget: int | None = DEFAULT_ELEMENT_BUDGET,
) -> ScenarioDesign:
    """Geometry, element budget check, terminals, channel and design."""
    geom = s.geometry()
    if element_budget is not None and geom.n_elements > element_budget:
        raise ElementBudgetError(
            f"scenario needs {geom.n_elements} elements, over the budget of "
            f"{element_budget}; pass a larger budget to allow it"
        )
    wave = s.wave
    tx_radius = far_field_radius(geom, wave)
    tx = Terminal(rx_arc_position(tx_radius, 0.0), role="tx")
    rx_radius = s.near_radius if s.field_regime == "near" else tx_radius
    design_rx = Terminal(rx_arc_position(rx_radius, s.target_angle), role="rx")

    pair = ChannelPair.compute(geom, wave, tx, design_rx)
    config, report = design_for_criterion(pair, s.criterion)
    return ScenarioDesign(geom, tx, rx_radius, config, report)


def run_scenario(
    s: Scenario,
    element_budget: int | None = DEFAULT_ELEMENT_BUDGET,
) -> ScenarioResult:
    """Execute one scenario: design, sweep, metrics."""
    d = design_scenario(s, element_budget)
    geom, wave, config = d.geometry, s.wave, d.config
    spec = SweepSpec(step=s.sweep_step, fixed_radius=d.rx_radius)
    with warnings.catch_warnings():
        # near-field placement inside the Fraunhofer distance is intentional
        warnings.simplefilter("ignore", NearFieldRadiusWarning)
        trace = sweep(geom, wave, d.tx, config, spec, p_tx=s.p_tx)
        interference = tuple(
            interference_study(geom, wave, config, theta, spec, p_tx=s.p_tx)
            for theta in s.interferer_angles
        )
    trace.metadata["target_angle_deg"] = s.target_angle
    trace.metadata["label"] = s.label
    return ScenarioResult(
        scenario=s,
        config=config,
        trace=trace,
        metrics=extract_metrics(trace),
        report=d.report,
        interference_traces=interference,
    )


# ---------------------------------------------------------------------------
# Scenario files: INI-style key-value text with [scenario], [sweep] and
# [interference] sections.  An unknown section or key is an error.
# ---------------------------------------------------------------------------

# Keys that set one Scenario field each, with their conversion; an absent
# key leaves the field's default.
_FIELD_KEYS = {
    "scenario": {
        "target_angle_deg": ("target_angle", float),
        "pitch_divisor": ("pitch_divisor", float),
        "aperture_m": ("aperture", float),
        "field_regime": ("field_regime", lambda v: v.strip().lower()),
        "near_radius_m": ("near_radius", float),
        "p_tx_w": ("p_tx", float),
        "label": ("label", str),
    },
    "sweep": {"step_deg": ("sweep_step", float)},
    "interference": {
        "angles_deg": ("interferer_angles", lambda v: tuple(float(a) for a in v.replace(",", " ").split())),
    },
}
_KNOWN_KEYS = {section: set(keys) for section, keys in _FIELD_KEYS.items()}
# the frequency and the criterion are read by hand
_KNOWN_KEYS["scenario"] |= {"frequency_ghz", "frequency_hz", "alphabet", "criterion", "levels", "seed"}


class ScenarioParseError(ValueError):
    pass


def _get(cp: configparser.ConfigParser, section: str, key: str, convert, default=None):
    """convert([section] key), or default if the key is absent; a value that
    does not convert is a ScenarioParseError naming the key."""
    if not cp.has_option(section, key):
        return default
    try:
        return convert(cp[section][key])
    except ValueError as exc:
        raise ScenarioParseError(f"[{section}] {key}: {exc}") from exc


def resolve_alphabet(name: str) -> Alphabet:
    """The alphabet a name denotes: a built-in name, `uadp:<L>` or
    `file:<path>`.  Any other name, or one that cannot be used, is a
    ScenarioParseError naming it."""
    kind, _, arg = name.partition(":")
    try:
        if kind == "uadp":
            return uadp_set(int(arg))
        if kind == "file":
            # looked up at call time, so that tracing the alphabet module's
            # `load_alphabet` (perfbench/layers.py) sees this call
            from .alphabet import load_alphabet

            with open(arg, encoding="utf-8") as fh:
                return load_alphabet(fh.read(), source_label=arg)
        return builtin(name)
    except KeyError:
        raise ScenarioParseError(
            f"unknown alphabet {name!r}; give one of {', '.join(builtin_names())}, uadp:<L> or file:<path>"
        ) from None
    except OSError as exc:
        raise ScenarioParseError(f"cannot read alphabet file {arg}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ScenarioParseError(f"cannot use alphabet {name!r}: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario definition from INI-style text."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(f"malformed scenario file: {exc}") from exc
    if "scenario" not in cp:
        raise ScenarioParseError("missing [scenario] section")

    for section in cp.sections():
        if section not in _FIELD_KEYS:
            raise ScenarioParseError(f"unknown section [{section}]")
        unknown = set(cp[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ScenarioParseError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    frequency = _get(cp, "scenario", "frequency_hz", float)
    if frequency is None:
        frequency = _get(cp, "scenario", "frequency_ghz", lambda v: float(v) * 1e9)

    alphabet = _get(cp, "scenario", "alphabet", resolve_alphabet)
    if frequency is None and alphabet is not None:
        frequency = alphabet.nominal_frequency
    if frequency is None:
        raise ScenarioParseError(
            "scenario needs frequency_hz/frequency_ghz or an alphabet with a nominal frequency"
        )

    kind = _get(cp, "scenario", "criterion", lambda v: v.strip().lower(), "uacp")
    # each criterion field only for the kind that uses it, so that the
    # result equals the matching DesignCriterion constructor's
    levels = _get(cp, "scenario", "levels", int) if kind == "uadp" else None
    seed = _get(cp, "scenario", "seed", int, 0) if kind == "diffuser" else None
    fields = {
        field: _get(cp, section, key, convert)
        for section, keys in _FIELD_KEYS.items()
        for key, (field, convert) in keys.items()
        if cp.has_option(section, key)
    }
    try:
        criterion = DesignCriterion(
            kind, levels=levels, alphabet=alphabet if kind in ("uaep", "alphabet") else None, seed=seed
        )
        return Scenario(frequency=frequency, criterion=criterion, **fields)
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc
