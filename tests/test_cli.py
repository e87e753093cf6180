import json
import math

import numpy as np
import pytest

from rispattern import __version__, parse_scenario, run_scenario
from rispattern import scenario as scenario_module
from rispattern.cli import canonical_digest, main, trace_csv


SCENARIO_TEXT = """\
[scenario]
frequency_ghz = 5.45
criterion = uacp
target_angle_deg = 45
pitch_divisor = 2
aperture_m = 0.3

[sweep]
step_deg = 1.0
"""

INTERFERENCE_TEXT = SCENARIO_TEXT + "\n[interference]\nangles_deg = -15\n"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_TEXT)
    return path


class TestRunCommand:
    def test_success_writes_outputs(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        rc = main(["run", str(scenario_file), "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").exists()
        assert (out / "manifest.json").exists()
        first = (out / "trace.csv").read_text().splitlines()[0]
        assert first == "theta_deg,power_w,power_db_norm"

    def test_trace_roundtrips_at_printed_precision(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out)])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        result = run_scenario(parse_scenario(SCENARIO_TEXT))
        assert data[:, 0] == pytest.approx(result.trace.angles, rel=1e-8)
        assert data[:, 1] == pytest.approx(result.trace.power, rel=1e-8)

    def test_manifest_contents(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"] == __version__
        assert manifest["scenario_digest"] == canonical_digest(SCENARIO_TEXT)
        assert manifest["criterion"] == "UACP"
        assert "trace.csv" in manifest["outputs"]
        assert abs(manifest["peak_angle_deg"] - 45.0) < 5.0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nfrequency_ghz = 2.3\nblorp = 1\n")
        rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "blorp" in capsys.readouterr().err

    def test_budget_exit_1_names_count(self, tmp_path, capsys):
        big = tmp_path / "big.ini"
        big.write_text(
            "[scenario]\nfrequency_ghz = 33\ncriterion = uacp\n"
            "target_angle_deg = 45\npitch_divisor = 32\naperture_m = 1.0\n"
        )
        rc = main(["run", str(big), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "elements" in err

    def test_step_override(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out), "--step", "10"])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 19

    def test_interference_outputs(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(INTERFERENCE_TEXT)
        out = tmp_path / "out"
        rc = main(["run", str(path), "--out", str(out)])
        assert rc == 0
        assert (out / "interference_-15deg.csv").exists()

    def test_digest_ignores_line_endings(self):
        crlf = SCENARIO_TEXT.replace("\n", "\r\n")
        assert canonical_digest(crlf) == canonical_digest(SCENARIO_TEXT)
        assert canonical_digest(SCENARIO_TEXT + "\n\n") == canonical_digest(
            SCENARIO_TEXT
        )
        changed = SCENARIO_TEXT.replace("45", "46")
        assert canonical_digest(changed) != canonical_digest(SCENARIO_TEXT)


class TestAlphabetCommand:
    def test_builtin_listing(self, capsys):
        rc = main(["alphabet", "testbed2p3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L=4" in out
        assert "+154.5" in out
        assert "phase coverage" in out

    def test_uadp_syntax(self, capsys):
        rc = main(["alphabet", "uadp:8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L=8" in out
        assert "+45.0000" in out

    def test_control_column_shown(self, capsys):
        main(["alphabet", "varactor5g"])
        out = capsys.readouterr().out
        assert "control" in out
        assert "1.25" in out

    def test_unknown_name_exit_2(self, capsys):
        rc = main(["alphabet", "bogus"])
        assert rc == 2
        assert "testbed2p3" in capsys.readouterr().err

    def test_export_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "a.csv"
        rc = main(["alphabet", "omni3p6", "--export", str(target)])
        assert rc == 0
        text = target.read_text()
        assert "# amplitude_unit: linear" in text
        capsys.readouterr()
        rc = main(["alphabet", str(target)])
        assert rc == 0
        assert "L=2" in capsys.readouterr().out


class TestColormap:
    def test_uacp_gradient_along_x(self, tmp_path):
        # a broadside-lit surface steering to 45 deg carries a linear phase
        # ramp along x (the row axis) and is nearly constant along y
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_TEXT)
        out = tmp_path / "phase.csv"
        rc = main(["colormap", str(path), "--out", str(out)])
        assert rc == 0
        phase = np.array(
            [[float(v) for v in row.split(",")] for row in out.read_text().splitlines()]
        )
        s = parse_scenario(SCENARIO_TEXT)
        assert phase.shape == (s.n_per_side, s.n_per_side)
        # row-to-row increment at the center column: -k * d * sin(45 deg)
        k = 2 * math.pi / s.wave.wavelength
        expected = -math.degrees(k * s.pitch * math.sin(math.radians(45.0)))
        mid = s.n_per_side // 2
        inc = np.diff(phase[:, mid])
        inc = (inc + 180.0) % 360.0 - 180.0
        assert inc == pytest.approx(np.full_like(inc, expected), abs=2.0)
        # along y the design phase varies only weakly
        across = (np.diff(phase[mid, :]) + 180.0) % 360.0 - 180.0
        assert np.max(np.abs(across)) < 5.0

    def test_amplitude_file_written(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_TEXT)
        out = tmp_path / "phase.csv"
        main(["colormap", str(path), "--out", str(out)])
        amp = np.array(
            [
                [float(v) for v in row.split(",")]
                for row in (tmp_path / "phase_amplitude.csv").read_text().splitlines()
            ]
        )
        assert amp == pytest.approx(np.ones_like(amp), rel=1e-9)

    def test_specular_phase_all_zero(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO_TEXT.replace("criterion = uacp", "criterion = specular"))
        out = tmp_path / "phase.csv"
        main(["colormap", str(path), "--out", str(out)])
        phase = np.array(
            [[float(v) for v in row.split(",")] for row in out.read_text().splitlines()]
        )
        assert np.array_equal(phase, np.zeros_like(phase))

    def test_run_with_colormap_flag(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out), "--colormap"])
        assert (out / "gamma_phase_deg.csv").exists()
        assert (out / "gamma_amplitude.csv").exists()

    def test_matches_run_colormap_without_sweeping(self, tmp_path, monkeypatch):
        path = tmp_path / "s.ini"
        path.write_text(INTERFERENCE_TEXT.replace("criterion = uacp", "criterion = uadp\nlevels = 4"))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--colormap"]) == 0

        def no_sweep(*args, **kwargs):
            raise AssertionError("colormap must not sweep")

        monkeypatch.setattr(scenario_module, "sweep", no_sweep)
        monkeypatch.setattr(scenario_module, "interference_study", no_sweep)
        assert main(["colormap", str(path), "--out", str(tmp_path / "phase.csv")]) == 0
        assert (tmp_path / "phase.csv").read_bytes() == (out / "gamma_phase_deg.csv").read_bytes()
        assert (tmp_path / "phase_amplitude.csv").read_bytes() == (out / "gamma_amplitude.csv").read_bytes()

    def test_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "phase.csv")
        assert main(["colormap", str(tmp_path / "nope.ini"), "--out", out]) == 2
        assert "cannot read" in capsys.readouterr().err
        big = tmp_path / "big.ini"
        big.write_text(
            "[scenario]\nfrequency_ghz = 33\ncriterion = uacp\n"
            "target_angle_deg = 45\npitch_divisor = 32\naperture_m = 1.0\n"
        )
        assert main(["colormap", str(big), "--out", out]) == 1
        assert "elements" in capsys.readouterr().err


class TestVersion:
    def test_version_prints(self, capsys):
        rc = main(["version"])
        assert rc == 0
        assert __version__ in capsys.readouterr().out


class TestTraceCsv:
    def test_formatting(self):
        from rispattern import PatternTrace

        trace = PatternTrace(
            angles=np.array([-1.0, 0.0, 1.0]), power=np.array([0.5, 1.0, 0.25])
        )
        text = trace_csv(trace)
        lines = text.splitlines()
        assert lines[0] == "theta_deg,power_w,power_db_norm"
        assert lines[2] == "0,1,0"
        assert float(lines[3].split(",")[2]) == pytest.approx(-6.0206, abs=1e-3)
