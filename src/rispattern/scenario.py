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
import warnings
from dataclasses import dataclass

from .alphabet import Alphabet, DesignCriterion, builtin
from .channel import ChannelPair
from .core import RisGeometry, Terminal, Wave
from .designer import OptimizerReport, SurfaceConfig, design_for_criterion
from .pattern import (
    BeamMetrics,
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
    target_angle: float  # degrees
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
        if self.pitch_divisor <= 0 or self.aperture <= 0:
            raise ValueError("pitch divisor and aperture must be positive")
        if self.field_regime not in ("far", "near"):
            raise ValueError(f"field regime must be 'far' or 'near', got {self.field_regime!r}")
        if self.near_radius <= 0:
            raise ValueError("near-field radius must be positive")

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
class BundleEntry:
    scenario: Scenario
    result: ScenarioResult | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True, eq=False)
class TraceBundle:
    entries: tuple[BundleEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


@dataclass(frozen=True, eq=False)
class ScenarioDesign:
    """A scenario's designed surface and the placement it was designed for."""

    geometry: RisGeometry
    tx: Terminal
    tx_radius: float
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

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = ChannelPair.compute(geom, wave, tx, design_rx)
        config, report = design_for_criterion(pair, s.criterion)
    return ScenarioDesign(geom, tx, tx_radius, rx_radius, config, report)


def run_scenario(
    s: Scenario,
    element_budget: int | None = DEFAULT_ELEMENT_BUDGET,
) -> ScenarioResult:
    """Execute one scenario: design, sweep, metrics."""
    d = design_scenario(s, element_budget)
    geom, wave, config = d.geometry, s.wave, d.config
    with warnings.catch_warnings():
        # near-field placement inside the Fraunhofer distance is intentional
        warnings.simplefilter("ignore")
        spec = SweepSpec(step=s.sweep_step, fixed_radius=d.rx_radius if s.field_regime == "near" else None)
        trace = sweep(geom, wave, d.tx, config, spec, p_tx=s.p_tx)
        interference = tuple(
            interference_study(geom, wave, config, theta, spec, p_tx=s.p_tx, tx_radius=d.tx_radius)
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


def run_grid(
    scenarios, element_budget: int | None = DEFAULT_ELEMENT_BUDGET
) -> TraceBundle:
    """Run scenarios in order; individual failures are recorded, not raised."""
    entries = []
    for s in scenarios:
        try:
            entries.append(BundleEntry(s, run_scenario(s, element_budget)))
        except Exception as exc:  # noqa: BLE001 - per-entry status is the contract
            entries.append(BundleEntry(s, None, error=f"{type(exc).__name__}: {exc}"))
    return TraceBundle(tuple(entries))


# ---------------------------------------------------------------------------
# Scenario files: INI-style key-value text with [scenario], [sweep] and
# [interference] sections.  Unknown keys are an error unless lenient.
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "frequency_ghz",
    "frequency_hz",
    "alphabet",
    "criterion",
    "levels",
    "seed",
    "target_angle_deg",
    "pitch_divisor",
    "aperture_m",
    "field_regime",
    "near_radius_m",
    "p_tx_w",
    "label",
}
_SWEEP_KEYS = {"step_deg"}
_INTERFERENCE_KEYS = {"angles_deg"}


class ScenarioParseError(ValueError):
    pass


def _check_keys(section, keys, allowed, lenient):
    unknown = set(keys) - allowed
    if not unknown:
        return
    msg = f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
    if lenient:
        warnings.warn(msg, stacklevel=3)
    else:
        raise ScenarioParseError(msg)


def _resolve_alphabet(name: str) -> Alphabet:
    if name.startswith("file:"):
        from .alphabet import load_alphabet

        with open(name[5:], encoding="utf-8") as fh:
            return load_alphabet(fh.read(), source_label=name[5:])
    return builtin(name)


def parse_scenario(text: str, lenient: bool = False) -> Scenario:
    """Parse a scenario definition from INI-style text."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(f"malformed scenario file: {exc}") from exc
    if "scenario" not in cp:
        raise ScenarioParseError("missing [scenario] section")

    known_sections = {"scenario", "sweep", "interference"}
    for section in cp.sections():
        if section not in known_sections:
            msg = f"unknown section [{section}]"
            if lenient:
                warnings.warn(msg, stacklevel=2)
            else:
                raise ScenarioParseError(msg)

    sc = cp["scenario"]
    _check_keys("scenario", sc.keys(), _SCENARIO_KEYS, lenient)

    if "frequency_hz" in sc:
        frequency = sc.getfloat("frequency_hz")
    elif "frequency_ghz" in sc:
        frequency = sc.getfloat("frequency_ghz") * 1e9
    else:
        frequency = None

    alphabet = None
    if "alphabet" in sc:
        alphabet = _resolve_alphabet(sc["alphabet"])
        if frequency is None:
            frequency = alphabet.nominal_frequency
    if frequency is None:
        raise ScenarioParseError(
            "scenario needs frequency_hz/frequency_ghz or an alphabet with a nominal frequency"
        )

    kind = sc.get("criterion", "uacp").strip().lower()
    if kind == "uacp":
        criterion = DesignCriterion.uacp()
    elif kind == "uadp":
        if "levels" not in sc:
            raise ScenarioParseError("uadp criterion needs 'levels'")
        criterion = DesignCriterion.uadp(sc.getint("levels"))
    elif kind == "uaep":
        if alphabet is None:
            raise ScenarioParseError("uaep criterion needs 'alphabet'")
        criterion = DesignCriterion.uaep(alphabet)
    elif kind == "alphabet":
        if alphabet is None:
            raise ScenarioParseError("alphabet criterion needs 'alphabet'")
        criterion = DesignCriterion.from_alphabet(alphabet)
    elif kind == "specular":
        criterion = DesignCriterion.specular()
    elif kind == "diffuser":
        criterion = DesignCriterion.diffuser(sc.getint("seed", 0))
    else:
        raise ScenarioParseError(f"unknown criterion {kind!r}")

    step = 0.1
    if "sweep" in cp:
        sw = cp["sweep"]
        _check_keys("sweep", sw.keys(), _SWEEP_KEYS, lenient)
        step = sw.getfloat("step_deg", 0.1)

    interferers: tuple[float, ...] = ()
    if "interference" in cp:
        it = cp["interference"]
        _check_keys("interference", it.keys(), _INTERFERENCE_KEYS, lenient)
        if "angles_deg" in it:
            interferers = tuple(
                float(v) for v in it["angles_deg"].replace(",", " ").split()
            )

    try:
        return Scenario(
            frequency=frequency,
            criterion=criterion,
            target_angle=sc.getfloat("target_angle_deg", 45.0),
            pitch_divisor=sc.getfloat("pitch_divisor", 4.0),
            aperture=sc.getfloat("aperture_m", 1.0),
            field_regime=sc.get("field_regime", "far").strip().lower(),
            near_radius=sc.getfloat("near_radius_m", 5.0),
            interferer_angles=interferers,
            sweep_step=step,
            p_tx=sc.getfloat("p_tx_w", 1.0),
            label=sc.get("label", ""),
        )
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc
