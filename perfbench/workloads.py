"""The benchmark's workloads.

Every workload turns a seed into a list of invocations. `run` makes one
invocation (the timed part) and `check` verifies its outputs afterwards and
returns the worst oracle error it saw. Inputs come only from the seed, via
the stdlib `random` module, so they do not depend on the numpy version.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil

import numpy as np

from rispattern import (
    SPEED_OF_LIGHT,
    DesignCriterion,
    Scenario,
    builtin,
    cli,
    far_field_radius,
    parse_scenario,
    run_scenario,
    rx_arc_position,
)

import checks
from checks import require

# Oracle samples per trace, besides the trace peak.
ORACLE_SAMPLES = 6
CLI_ORACLE_SAMPLES = 3


class InProcessWorkload:
    """Scenarios run through `rispattern.run_scenario` in this process."""

    root_span = "scenario.run_scenario"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.items = self.scenarios(rng)
        rng.shuffle(self.items)
        self.check_rng = random.Random(rng.random())

    def scenarios(self, rng) -> list[Scenario]:
        raise NotImplementedError

    def run(self, s: Scenario):
        return run_scenario(s)

    def check(self, s: Scenario, result) -> float:
        traces = (result.trace, *result.interference_traces)
        require(len(traces) == 1 + len(s.interferer_angles), "missing interference trace")
        worst = 0.0
        for trace in traces:
            power = trace.power
            require(bool(np.all(np.isfinite(power)) and np.all(power >= 0)), "power is negative or not finite")
            idx = checks.sample_indices(self.check_rng, power, ORACLE_SAMPLES)
            meta = trace.metadata
            worst = max(
                worst,
                checks.oracle_error(s, result.config, meta["tx_position"], meta["radius_m"], trace.angles, power, idx),
            )
        if result.report is not None:
            checks.check_optimizer_result(checks.design_pair(s), result.config, result.report, s.criterion.alphabet)
        return worst


class FarSweep(InProcessWorkload):
    """Closed-form far-field designs on the acceptance suite's large grids."""

    def scenarios(self, rng):
        uacp = DesignCriterion.uacp()
        return [
            Scenario(5.45e9, uacp, 45.0, pitch_divisor=8, sweep_step=0.1, p_tx=rng.uniform(0.5, 2.0), label="uacp-5.45GHz-l8-45"),
            Scenario(
                2.3e9,
                DesignCriterion.uadp(4),
                45.0,
                pitch_divisor=8,
                interferer_angles=(-15.0, -50.0),
                sweep_step=0.1,
                p_tx=rng.uniform(0.5, 2.0),
                label="uadp4-2.3GHz-l8-45",
            ),
            Scenario(2.3e9, uacp, 75.0, pitch_divisor=32, sweep_step=0.5, p_tx=rng.uniform(0.5, 2.0), label="uacp-2.3GHz-l32-75"),
        ]


class NearAlphabet(InProcessWorkload):
    """Alphabet coordinate ascent against a receiver on the 5 m near arc."""

    def scenarios(self, rng):
        cases = [("varactor5g", t) for t in (30.0, 45.0, 75.0)] + [("omni3p6", t) for t in (45.0, 75.0)]
        out = []
        for name, target in cases:
            alphabet = builtin(name)
            out.append(
                Scenario(
                    alphabet.nominal_frequency,
                    DesignCriterion.from_alphabet(alphabet),
                    target,
                    pitch_divisor=4,
                    field_regime="near",
                    near_radius=5.0,
                    sweep_step=0.5,
                    p_tx=rng.uniform(0.5, 2.0),
                    label=f"{name}-l4-near-{target:g}",
                )
            )
        return out


# --- cli-small -------------------------------------------------------------

CRITERIA = ("uacp", "uadp", "uaep", "alphabet", "specular", "diffuser")
ALPHABETS = ("mmwave33", "mmwave27", "omni3p6", "testbed2p3", "varactor5g", "file")
N_FILES = 50
TRACE_HEADER = "theta_deg,power_w,power_db_norm"


def alphabet_file_text(rng) -> str:
    """A measured-style alphabet in dB and degrees with control values."""
    phases = sorted(rng.sample(range(-170, 180, 10), rng.randint(4, 7)))
    lines = ["# amplitude_unit: db", "# phase_unit: deg", "amplitude,phase,control"]
    for k, phase in enumerate(phases):
        lines.append(f"{rng.uniform(-6.0, -0.2):.4f},{phase + rng.uniform(0.0, 5.0):.4f},{0.5 * k:g}")
    return "\n".join(lines) + "\n"


def scenario_file_text(i: int, rng, alphabet_path: str) -> str:
    """Scenario file number i.

    The file index fixes the criterion, alphabet, field regime, interferer
    count and the elements per side (10-37), so every seed runs the same mix
    and nearly the same amount of work; the seed draws the aperture
    (0.1-0.5 m), the pitch divisor (lambda/2-lambda/4), angles and powers,
    and the frequency follows from them. Alphabet-criterion files stay at
    19 elements per side or fewer: the optimizer's sweep count varies with
    the seed, and on larger grids it would move the pass time with it.
    """
    criterion = CRITERIA[i % len(CRITERIA)]
    n = 10 + 3 * ((i * 7) % (4 if criterion == "alphabet" else 10))
    aperture = rng.uniform(0.1, 0.5)
    pitch_divisor = rng.uniform(2.0, 4.0)
    # pitch = aperture / (n + 1/2) puts aperture / pitch mid-way between n and n + 1
    frequency = SPEED_OF_LIGHT * (n + 0.5) / (aperture * pitch_divisor)
    alphabet = ALPHABETS[(i // len(CRITERIA)) % len(ALPHABETS)]
    near = (i // 2) % 2 == 1
    lines = [
        "[scenario]",
        f"frequency_ghz = {frequency / 1e9:.9f}",
        f"alphabet = {'file:' + alphabet_path if alphabet == 'file' else alphabet}",
        f"criterion = {criterion}",
    ]
    if criterion == "uadp":
        lines.append(f"levels = {rng.choice((2, 3, 4, 8))}")
    if criterion == "diffuser":
        lines.append(f"seed = {rng.randrange(1_000_000)}")
    lines += [
        f"target_angle_deg = {rng.choice((-1, 1)) * rng.uniform(10.0, 70.0):.4f}",
        f"pitch_divisor = {pitch_divisor!r}",
        f"aperture_m = {aperture!r}",
        f"field_regime = {'near' if near else 'far'}",
    ]
    if near:
        lines.append(f"near_radius_m = {rng.uniform(1.0, 5.0):.4f}")
    lines += [f"p_tx_w = {rng.uniform(0.5, 2.0):.4f}", f"label = cli-{i}", "", "[sweep]", "step_deg = 1"]
    n_interferers = (i // len(CRITERIA)) % 3
    if n_interferers:
        angles = ", ".join(f"{rng.uniform(-60.0, 60.0):.3f}" for _ in range(n_interferers))
        lines += ["", "[interference]", f"angles_deg = {angles}"]
    return "\n".join(lines) + "\n"


def read_trace_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a trace CSV, requiring every field to round-trip at the
    printed 9 significant digits and the dB column to match the powers."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    require(lines and lines[0] == TRACE_HEADER, f"{os.path.basename(path)}: bad header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == 3, f"{os.path.basename(path)}: row {line!r} has {len(cells)} fields")
        values = [float(c) for c in cells]
        require(
            all(format(v, ".9g") == c for v, c in zip(values, cells)),
            f"{os.path.basename(path)}: row {line!r} does not round-trip at 9 digits",
        )
        rows.append(values)
    table = np.array(rows)
    angles, power, db = table[:, 0], table[:, 1], table[:, 2]
    require(bool(np.all(np.isfinite(power)) and np.all(power >= 0)), "trace power is negative or not finite")
    peak = power.max()
    require(peak > 0, "trace peak power is not positive")
    positive = power > 0
    expected_db = 10.0 * np.log10(power[positive] / peak)
    require(bool(np.all(np.abs(db[positive] - expected_db) <= 1e-6)), "dB column disagrees with the powers")
    return angles, power


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_matrix_csv(path: str) -> tuple[str, np.ndarray]:
    text = read_text(path)
    return text, np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])


class CliInvocation:
    __slots__ = ("kind", "index", "argv")

    def __init__(self, kind: str, index: int, argv: list[str]):
        self.kind, self.index, self.argv = kind, index, argv


class CliSmall:
    """In-process `rispattern run --colormap` and `rispattern colormap` calls
    on small seeded scenario files."""

    root_span = "cli.main"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        alphabet_path = os.path.join(workdir, "alphabet.csv")
        with open(alphabet_path, "w", encoding="utf-8") as fh:
            fh.write(alphabet_file_text(rng))
        self.texts = []
        for i in range(N_FILES):
            os.mkdir(os.path.join(workdir, f"s{i:02d}"))
            text = scenario_file_text(i, rng, alphabet_path)
            with open(self._path(i, "scenario.ini"), "w", encoding="utf-8") as fh:
                fh.write(text)
            self.texts.append(text)
        order = list(range(N_FILES))
        rng.shuffle(order)
        self.items = []
        for i in order:
            scenario_path = self._path(i, "scenario.ini")
            self.items.append(CliInvocation("run", i, ["run", scenario_path, "--out", self._path(i, "run"), "--colormap"]))
            self.items.append(CliInvocation("colormap", i, ["colormap", scenario_path, "--out", self._path(i, "phase.csv")]))
        self.check_rng = random.Random(rng.random())
        self._scenarios: dict[int, Scenario] = {}
        self._exported: dict[int, tuple[str, str]] = {}

    def _path(self, i: int, name: str) -> str:
        return os.path.join(self.workdir, f"s{i:02d}", name)

    def run(self, call: CliInvocation):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code
        return code, captured.getvalue()

    def check(self, call: CliInvocation, output) -> float:
        code, text = output
        require(code == 0, f"{call.kind} exited with {code}: {text.strip()[-200:]}")
        i = call.index
        s = self._scenarios.get(i)
        if s is None:
            s = self._scenarios[i] = parse_scenario(self.texts[i])
        if call.kind == "colormap":
            phase_path = self._path(i, "phase.csv")
            amp_path = self._path(i, "phase_amplitude.csv")
            exported = (read_text(phase_path), read_text(amp_path))
            os.unlink(phase_path)
            os.unlink(amp_path)
            require(exported == self._exported.pop(i, None), "colormap output differs from run --colormap")
            return 0.0
        out = self._path(i, "run")
        try:
            return self._check_run(s, out, i)
        finally:
            shutil.rmtree(out)

    def _check_run(self, s: Scenario, out: str, i: int) -> float:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for key in ("grid", "criterion", "peak_angle_deg"):
            require(key in manifest, f"manifest lacks {key!r}")
        n = s.n_per_side
        require(manifest["grid"] == [n, n], f"manifest grid {manifest['grid']} != [{n}, {n}]")
        require(sorted(manifest["outputs"]) == sorted(f for f in os.listdir(out) if f != "manifest.json"), "manifest outputs list is wrong")

        angles, power = read_trace_csv(os.path.join(out, "trace.csv"))
        count = int(round(180.0 / s.sweep_step)) + 1
        require(len(angles) == count, f"trace has {len(angles)} angles, expected {count}")
        require(bool(np.all(np.abs(angles - (-90.0 + s.sweep_step * np.arange(count))) <= 1e-6)), "trace angle grid is wrong")
        peak_rows = np.flatnonzero(power == power.max())
        require(
            any(math.isclose(manifest["peak_angle_deg"], angles[r], abs_tol=1e-6) for r in peak_rows),
            "manifest peak_angle_deg is not the trace peak",
        )

        phase_text, phase = read_matrix_csv(os.path.join(out, "gamma_phase_deg.csv"))
        amp_text, amp = read_matrix_csv(os.path.join(out, "gamma_amplitude.csv"))
        require(phase.shape == (n, n) and amp.shape == (n, n), "gamma matrix shape is wrong")
        require(bool(np.all(amp <= 1.0 + 1e-9)), "exported |gamma| > 1")
        gamma = amp * np.exp(1j * np.radians(phase))
        self._exported[i] = (phase_text, amp_text)

        radius = checks.sweep_radius(s)
        tx_radius = far_field_radius(s.geometry(), s.wave)
        traces = [(0.0, angles, power)]
        for theta in s.interferer_angles:
            traces.append((theta, *read_trace_csv(os.path.join(out, f"interference_{theta:+g}deg.csv"))))
        worst = 0.0
        for theta, t_angles, t_power in traces:
            idx = checks.sample_indices(self.check_rng, t_power, CLI_ORACLE_SAMPLES)
            tx_position = rx_arc_position(tx_radius, theta)
            worst = max(worst, checks.oracle_error(s, gamma, tx_position, radius, t_angles, t_power, idx))
        if s.criterion.kind == "alphabet":
            checks.check_alphabet_design(s, checks.snap_to_alphabet(gamma, s.criterion.alphabet))
        return worst


WORKLOADS = {"far-sweep": FarSweep, "near-alphabet": NearAlphabet, "cli-small": CliSmall}
