import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rispattern import (
    DesignCriterion,
    Scenario,
    builtin_names,
    parse_scenario,
    run_scenario,
)
from rispattern.core import SPEED_OF_LIGHT
from rispattern.scenario import (
    DEFAULT_ELEMENT_BUDGET,
    ElementBudgetError,
    ScenarioParseError,
)


def small_scenario(**overrides):
    base = dict(
        frequency=5.45e9,
        criterion=DesignCriterion.uacp(),
        target_angle=45.0,
        pitch_divisor=2.0,
        aperture=0.3,
        sweep_step=1.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioGeometry:
    def test_element_count_floors(self):
        # 1 m aperture at lambda/4 pitch, 2.3 GHz: 1 / 0.03259 -> 30 per side
        wavelength = SPEED_OF_LIGHT / 2.3e9
        s = Scenario(
            frequency=2.3e9,
            criterion=DesignCriterion.uacp(),
            target_angle=45.0,
            pitch_divisor=4.0,
        )
        assert s.pitch == pytest.approx(wavelength / 4)
        assert s.n_per_side == int(1.0 / (wavelength / 4))
        assert s.n_per_side == 30
        geom = s.geometry()
        assert geom.aperture_x <= 1.0

    def test_never_zero_elements(self):
        s = small_scenario(aperture=0.001)
        assert s.n_per_side == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            small_scenario(target_angle=90.0)
        with pytest.raises(ValueError):
            small_scenario(field_regime="mid")
        with pytest.raises(ValueError):
            small_scenario(pitch_divisor=0.0)
        with pytest.raises(ValueError):
            small_scenario(near_radius=-1.0)

    @pytest.mark.parametrize(
        "field", ["frequency", "pitch_divisor", "aperture", "near_radius", "sweep_step", "p_tx"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_and_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_scenario(**{field: value})


    @pytest.mark.parametrize("step, ok", [(90.0, True), (120.0, True), (121.0, False), (200.0, False)])
    def test_sweep_needs_three_angles(self, step, ok):
        if ok:
            assert small_scenario(sweep_step=step).sweep_step == step
        else:
            with pytest.raises(ValueError, match="fewer than 3 angles"):
                small_scenario(sweep_step=step)


class TestRunScenario:
    def test_deterministic_repeat(self):
        s = small_scenario()
        r1 = run_scenario(s)
        r2 = run_scenario(s)
        assert np.array_equal(r1.trace.power, r2.trace.power)
        assert np.array_equal(r1.config.gamma, r2.config.gamma)

    def test_beam_lands_near_target(self):
        r = run_scenario(small_scenario(sweep_step=0.1))
        assert abs(r.metrics.peak_angle - 45.0) < 3.0

    def test_budget_refusal_names_count(self):
        s = small_scenario(aperture=1.0, pitch_divisor=8.0, frequency=33e9)
        count = s.n_per_side**2
        assert count > 1000
        with pytest.raises(ElementBudgetError, match=str(count)):
            run_scenario(s, element_budget=1000)

    def test_budget_lift(self):
        s = small_scenario()
        needed = s.n_per_side**2
        with pytest.raises(ElementBudgetError):
            run_scenario(s, element_budget=needed - 1)
        run_scenario(s, element_budget=None)

    def test_default_budget_is_generous(self):
        assert DEFAULT_ELEMENT_BUDGET >= 100_000

    def test_near_regime_sets_radius(self):
        r = run_scenario(small_scenario(field_regime="near", near_radius=5.0))
        assert r.trace.metadata["radius_m"] == 5.0

    def test_far_regime_radius_outside_fraunhofer(self):
        s = small_scenario()
        r = run_scenario(s)
        from rispattern import fraunhofer_distance

        assert r.trace.metadata["radius_m"] >= fraunhofer_distance(s.geometry(), s.wave)

    def test_interference_traces_produced(self):
        s = small_scenario(interferer_angles=(-15.0, -50.0))
        r = run_scenario(s)
        assert len(r.interference_traces) == 2
        assert r.interference_traces[0].metadata["interferer_theta_inc_deg"] == -15.0

    def test_optimizer_report_only_for_alphabet_runs(self):
        from rispattern import builtin

        assert run_scenario(small_scenario()).report is None
        s = small_scenario(criterion=DesignCriterion.from_alphabet(builtin("omni3p6")))
        assert run_scenario(s).report is not None

    def test_sweep_warnings_reach_the_caller(self, monkeypatch):
        from rispattern import scenario as scenario_module

        real_sweep = scenario_module.sweep

        def warning_sweep(*args, **kwargs):
            warnings.warn("from inside the sweep", RuntimeWarning)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "sweep", warning_sweep)
        with pytest.warns(RuntimeWarning, match="inside the sweep"):
            run_scenario(small_scenario())

    def test_near_run_hides_only_the_radius_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_scenario(small_scenario(field_regime="near", near_radius=0.5))
        assert r.trace.metadata["radius_m"] == 0.5


VALID_TEXT = """\
[scenario]
frequency_ghz = 5.45
criterion = uadp
levels = 2
target_angle_deg = 45
pitch_divisor = 8
aperture_m = 0.5

[sweep]
step_deg = 0.5

[interference]
angles_deg = -15, -50
"""


class TestParseScenario:
    def test_valid_file(self):
        s = parse_scenario(VALID_TEXT)
        assert s.frequency == pytest.approx(5.45e9)
        assert s.criterion.kind == "uadp"
        assert s.criterion.levels == 2
        assert s.pitch_divisor == 8.0
        assert s.aperture == 0.5
        assert s.interferer_angles == (-15.0, -50.0)
        assert s.sweep_step == 0.5

    def test_frequency_from_alphabet(self):
        text = "[scenario]\nalphabet = testbed2p3\ncriterion = uaep\n"
        s = parse_scenario(text)
        assert s.frequency == pytest.approx(2.3e9)
        assert s.criterion.kind == "uaep"

    def test_explicit_frequency_wins(self):
        text = "[scenario]\nalphabet = testbed2p3\nfrequency_ghz = 3.6\ncriterion = uaep\n"
        assert parse_scenario(text).frequency == pytest.approx(3.6e9)

    def test_missing_frequency(self):
        with pytest.raises(ScenarioParseError, match="frequency"):
            parse_scenario("[scenario]\ncriterion = uacp\n")

    def test_missing_section(self):
        with pytest.raises(ScenarioParseError, match="scenario"):
            parse_scenario("[sweep]\nstep_deg = 1\n")

    def test_unknown_key_strict(self):
        text = "[scenario]\nfrequency_ghz = 2.3\nfrequncy = 5\n"
        with pytest.raises(ScenarioParseError, match="frequncy"):
            parse_scenario(text)

    def test_unknown_section_strict(self):
        text = "[scenario]\nfrequency_ghz = 2.3\n[plotting]\ncolor = red\n"
        with pytest.raises(ScenarioParseError, match="plotting"):
            parse_scenario(text)

    def test_uadp_without_levels(self):
        with pytest.raises(ScenarioParseError, match="levels"):
            parse_scenario("[scenario]\nfrequency_ghz = 2.3\ncriterion = uadp\n")

    def test_alphabet_criterion_without_alphabet(self):
        with pytest.raises(ScenarioParseError, match="alphabet"):
            parse_scenario("[scenario]\nfrequency_ghz = 2.3\ncriterion = alphabet\n")

    def test_unknown_criterion(self):
        with pytest.raises(ScenarioParseError, match="bogus"):
            parse_scenario("[scenario]\nfrequency_ghz = 2.3\ncriterion = bogus\n")

    def test_diffuser_seed(self):
        text = "[scenario]\nfrequency_ghz = 2.3\ncriterion = diffuser\nseed = 9\n"
        s = parse_scenario(text)
        assert s.criterion.kind == "diffuser"
        assert s.criterion.seed == 9

    def test_uadp_alphabet_runs(self):
        text = (
            "[scenario]\nfrequency_ghz = 2.3\nalphabet = uadp:4\ncriterion = alphabet\n"
            "aperture_m = 0.1\n\n[sweep]\nstep_deg = 5\n"
        )
        r = run_scenario(parse_scenario(text))
        assert r.trace.metadata["criterion"] == "Alphabet(uadp(4))"
        assert r.report is not None

    def test_malformed_ini(self):
        with pytest.raises(ScenarioParseError, match="malformed"):
            parse_scenario("frequency_ghz = 2.3\n")

    def test_out_of_range_value_reported_as_parse_error(self):
        text = "[scenario]\nfrequency_ghz = 2.3\ntarget_angle_deg = 95\n"
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)

    def test_parsed_scenario_runs(self):
        s = parse_scenario(VALID_TEXT)
        r = run_scenario(s)
        assert len(r.interference_traces) == 2
        assert abs(r.metrics.peak_angle - 45.0) < 5.0


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


# Each key's valid values as a strategy, and values that are not valid.
# Small apertures and steps of at least 1 deg keep each run to a few ms.
_SCENARIO_KEYS = {
    "scenario": {
        "frequency_ghz": (_number(1.0, 6.0), ()),
        "alphabet": (st.sampled_from([*builtin_names(), "uadp:2", "uadp:8"]), ("bogus", "uadp:1", "uadp:x")),
        "criterion": (st.sampled_from(["uacp", "uadp", "uaep", "alphabet", "specular", "diffuser"]), ()),
        "levels": (st.integers(2, 8).map(str), ("2.5", "1")),
        "seed": (st.integers(0, 999).map(str), ("-1", "1.5")),
        "target_angle_deg": (_number(-89.0, 89.0), ("90",)),
        "pitch_divisor": (_number(2.0, 4.0), ("0",)),
        "aperture_m": (_number(0.02, 0.12), ("-0.1",)),
        "field_regime": (st.sampled_from(["far", "near", "NEAR"]), ("mid",)),
        "near_radius_m": (_number(0.5, 5.0), ("0",)),
        "p_tx_w": (_number(0.1, 2.0), ("0",)),
    },
    "sweep": {"step_deg": (_number(1.0, 30.0), ("0", "1e-9", "200"))},
    "interference": {"angles_deg": (st.lists(_number(-80.0, 80.0), max_size=2).map(", ".join), ("95", "10; 20"))},
}


@st.composite
def scenario_texts(draw):
    """Scenario files with any subset of the keys; half of them give one
    key a value that is not valid."""
    values = {
        (section, key): draw(st.one_of(st.none(), valid))
        for section, keys in _SCENARIO_KEYS.items()
        for key, (valid, _) in keys.items()
    }
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(values))))
    if bad is not None:
        section, key = bad
        values[bad] = draw(st.sampled_from(_SCENARIO_KEYS[section][key][1] + ("abc", "5.x", "", "nan", "-inf")))
    lines = []
    for section in _SCENARIO_KEYS:
        given_keys = [(key, v) for (s, key), v in values.items() if s == section and v is not None]
        if section == "scenario" or given_keys:
            lines += [f"[{section}]", *(f"{key} = {v}" for key, v in given_keys)]
    return "\n".join(lines) + "\n"


class TestRunContract:
    @settings(max_examples=40, deadline=None)
    @example("[scenario]\nfrequency_ghz = 5.x\n")
    @given(scenario_texts())
    def test_rejected_or_runs_on_the_documented_grid(self, text):
        """A scenario file either fails to parse with ScenarioParseError or
        runs to finite, non-negative power on the [-90, 90] grid of its step."""
        try:
            s = parse_scenario(text)
        except ScenarioParseError:
            return
        result = run_scenario(s)
        grid = np.linspace(-90.0, 90.0, round(180.0 / s.sweep_step) + 1)
        assert len(result.interference_traces) == len(s.interferer_angles)
        for trace in (result.trace, *result.interference_traces):
            assert np.array_equal(trace.angles, grid)
            assert np.all(np.isfinite(trace.power)) and np.all(trace.power >= 0)
