"""Command-line front end: scenario runs, alphabet inspection, color-map
export and reproducibility manifests.

A run takes every setting from its scenario file; the flags choose only
output paths, the element budget and the gamma export. Alphabets are named
as in scenario files: a built-in name, `uadp:<L>` or `file:<path>`.

Exit codes, decided only in `main`: 0 success; 1 a scenario that fails to
design or run; 2 input rejected at the boundary, an unreadable input or an
unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .alphabet import builtin_names, constellation_stats, dump_alphabet
from .scenario import (
    DEFAULT_ELEMENT_BUDGET,
    ElementBudgetError,
    design_scenario,
    parse_scenario,
    resolve_alphabet,
    run_scenario,
)


# The sweep kernel's record of each trace, copied into manifest.json.
_KERNEL_KEYS = ("kernel_columns", "kernel_rows", "kernel_check_err")


class ScenarioFailure(Exception):
    """A scenario that passed the boundary checks and failed to design or run."""


@contextlib.contextmanager
def _os_errors(action: str):
    """Re-raise an OSError inside the block as `<action>: <reason>`."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{action}: {exc.strerror or exc}") from exc


def _read_text(path: str, what: str) -> str:
    with _os_errors(f"cannot read {what} {path}"), open(path, encoding="utf-8") as fh:
        return fh.read()


def _atomic_write(path: str, text: str) -> None:
    with _os_errors(f"cannot write {path}"):
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def canonical_digest(text: str) -> str:
    """Content hash of a scenario file, stable across platforms: normalized
    line endings, trailing whitespace stripped per line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    canonical = "\n".join(line.rstrip() for line in lines).strip() + "\n"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Values print with 9 significant digits.  Python floats from `tolist()` and
# one %-template per row print the same bytes as an f"{v:.9g}" per value, at
# a fraction of the cost of formatting numpy scalars one at a time.
def trace_csv(trace) -> str:
    rows = zip(trace.angles.tolist(), trace.power.tolist(), trace.power_db_normalized.tolist())
    return "theta_deg,power_w,power_db_norm\n" + "".join("%.9g,%.9g,%.9g\n" % row for row in rows)


def matrix_csv(matrix: np.ndarray) -> str:
    template = ",".join(["%.9g"] * matrix.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in matrix.tolist())


def _write_colormap(gamma: np.ndarray, phase_path: str, amp_path: str) -> list[str]:
    """Write the gamma phase (degrees) and amplitude matrices; return the paths."""
    _atomic_write(phase_path, matrix_csv(np.degrees(np.angle(gamma))))
    _atomic_write(amp_path, matrix_csv(np.abs(gamma)))
    return [phase_path, amp_path]


def _design_or_run(stage, scenario, allow_large: bool):
    """`stage(scenario)` under the element budget unless allow_large; any
    failure becomes a ScenarioFailure."""
    try:
        return stage(scenario, element_budget=None if allow_large else DEFAULT_ELEMENT_BUDGET)
    except ElementBudgetError as exc:
        raise ScenarioFailure(str(exc)) from exc
    except Exception as exc:  # noqa: BLE001
        raise ScenarioFailure(f"scenario failed: {type(exc).__name__}: {exc}") from exc


def cmd_run(args) -> int:
    text = _read_text(args.scenario, "scenario file")
    scenario = parse_scenario(text)
    names = [f"interference_{theta:+g}deg.csv" for theta in scenario.interferer_angles]
    if len(set(names)) < len(names):
        raise ValueError(f"interferer angles {list(scenario.interferer_angles)} share output file names {names}")
    t0 = time.perf_counter()
    result = _design_or_run(run_scenario, scenario, args.allow_large)
    runtime = time.perf_counter() - t0
    # only a run that succeeded makes the output directory
    with _os_errors(f"cannot write {args.out}"):
        os.makedirs(args.out, exist_ok=True)

    outputs = []
    for name, trace in zip(["trace.csv", *names], [result.trace, *result.interference_traces]):
        path = os.path.join(args.out, name)
        _atomic_write(path, trace_csv(trace))
        outputs.append(path)
    if args.colormap:
        outputs += _write_colormap(
            result.config.gamma,
            os.path.join(args.out, "gamma_phase_deg.csv"),
            os.path.join(args.out, "gamma_amplitude.csv"),
        )

    meta = result.trace.metadata
    manifest = {
        "tool_version": __version__,
        "scenario_digest": canonical_digest(text),
        "runtime_s": round(runtime, 6),
        "outputs": [os.path.basename(p) for p in outputs],
        "grid": list(meta["grid"]),
        "criterion": meta["criterion"],
        "peak_angle_deg": result.metrics.peak_angle,
        "step_deg": meta["step_deg"],
        **{key: meta[key] for key in _KERNEL_KEYS},
        "interference_kernels": {
            name: {key: trace.metadata[key] for key in _KERNEL_KEYS}
            for name, trace in zip(names, result.interference_traces)
        },
    }
    if result.report is not None:
        report = result.report
        manifest["optimizer"] = {
            "iterations": report.iterations,
            "converged": report.converged,
            "updates_per_sweep": report.updates_per_sweep,
            "coordinatewise_optimal": report.coordinatewise_optimal,
        }
    _atomic_write(
        os.path.join(args.out, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {len(outputs)} trace file(s) to {args.out}")
    return 0


def cmd_alphabet(args) -> int:
    alph = resolve_alphabet(args.name)
    print(f"alphabet: {alph.source_label or args.name}  (L={alph.cardinality})")
    has_ctrl = alph.control_values is not None
    header = "  idx  amplitude    phase_deg"
    if has_ctrl:
        header += "    control"
    print(header)
    for i, e in enumerate(alph.entries):
        row = f"  {i:3d}  {e.amplitude:9.6f}  {e.phase_deg:+10.4f}"
        if has_ctrl:
            row += f"  {alph.control_values[i]:9.4g}"
        print(row)
    centroid, coverage = constellation_stats(alph)
    print(f"centroid: {centroid.real:+.6f}{centroid.imag:+.6f}j  |centroid|={abs(centroid):.6f}")
    print(f"phase coverage: {math.degrees(coverage):.2f} deg")
    if args.export:
        _atomic_write(args.export, dump_alphabet(alph))
        print(f"exported to {args.export}")
    return 0


def cmd_colormap(args) -> int:
    """Design the scenario's surface and export gamma, without sweeping."""
    scenario = parse_scenario(_read_text(args.scenario, "scenario file"))
    design = _design_or_run(design_scenario, scenario, args.allow_large)
    base, ext = os.path.splitext(args.out)
    phase_path, amp_path = _write_colormap(design.config.gamma, args.out, f"{base}_amplitude{ext or '.csv'}")
    print(f"wrote {phase_path} and {amp_path}")
    return 0


@functools.cache  # one parser per process: building it costs ~10x parsing
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispattern",
        description="Reradiation-pattern simulator for reconfigurable intelligent surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and export traces")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--allow-large", action="store_true", help="lift the element budget")
    p_run.add_argument("--colormap", action="store_true", help="also export gamma phase/amplitude matrices")
    p_run.set_defaults(func=cmd_run)

    p_alpha = sub.add_parser("alphabet", help="inspect a built-in, uadp:<L> or file:<path> alphabet")
    p_alpha.add_argument("name", help=f"one of {', '.join(builtin_names())}, uadp:<L> or file:<path>")
    p_alpha.add_argument("--export", default=None, help="write the canonical alphabet file here")
    p_alpha.set_defaults(func=cmd_alphabet)

    p_cmap = sub.add_parser("colormap", help="export the designed gamma matrix of a scenario")
    p_cmap.add_argument("scenario", help="path to a scenario file")
    p_cmap.add_argument("--out", default="gamma_phase_deg.csv", help="phase matrix output path")
    p_cmap.add_argument("--allow-large", action="store_true")
    p_cmap.set_defaults(func=cmd_colormap)

    p_ver = sub.add_parser("version", help="print the tool version")
    p_ver.set_defaults(func=lambda args: (print(f"rispattern {__version__}"), 0)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFailure as exc:
        code, msg = 1, str(exc)
    except (OSError, ValueError) as exc:
        code, msg = 2, str(exc)
    print(f"error: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
