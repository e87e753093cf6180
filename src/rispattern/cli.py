"""Command-line front end: scenario runs, alphabet inspection, color-map
export and reproducibility manifests.

Exit codes: 0 full success, 1 scenario failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .alphabet import DesignCriterion, builtin, builtin_names, constellation_stats, dump_alphabet, load_alphabet, uadp_set
from .scenario import (
    DEFAULT_ELEMENT_BUDGET,
    ElementBudgetError,
    design_scenario,
    parse_scenario,
    run_scenario,
)


def _atomic_write(path: str, text: str) -> None:
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


def trace_csv(trace) -> str:
    lines = ["theta_deg,power_w,power_db_norm"]
    db = trace.power_db_normalized
    for theta, p, d in zip(trace.angles, trace.power, db):
        lines.append(f"{theta:.9g},{p:.9g},{d:.9g}")
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: np.ndarray) -> str:
    return "\n".join(",".join(f"{v:.9g}" for v in row) for row in matrix) + "\n"


def _load_scenario_file(path: str, lenient: bool):
    """(text, scenario) of a scenario file, or None after reporting why it
    cannot be used (exit code 2)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return text, parse_scenario(text, lenient=lenient)
    except OSError as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _write_colormap(gamma: np.ndarray, phase_path: str, amp_path: str) -> list[str]:
    """Write the gamma phase (degrees) and amplitude matrices; return the paths."""
    _atomic_write(phase_path, matrix_csv(np.degrees(np.angle(gamma))))
    _atomic_write(amp_path, matrix_csv(np.abs(gamma)))
    return [phase_path, amp_path]


def cmd_run(args) -> int:
    loaded = _load_scenario_file(args.scenario, args.lenient)
    if loaded is None:
        return 2
    text, scenario = loaded

    os.makedirs(args.out, exist_ok=True)
    budget = None if args.allow_large else DEFAULT_ELEMENT_BUDGET
    if args.step is not None:
        scenario = replace(scenario, sweep_step=args.step)
    if args.seed is not None and scenario.criterion.kind == "diffuser":
        scenario = replace(scenario, criterion=DesignCriterion.diffuser(args.seed))

    t0 = time.perf_counter()
    try:
        result = run_scenario(scenario, element_budget=budget)
    except ElementBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"error: scenario failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    runtime = time.perf_counter() - t0

    outputs = []
    trace_path = os.path.join(args.out, "trace.csv")
    _atomic_write(trace_path, trace_csv(result.trace))
    outputs.append(trace_path)
    for i, itrace in enumerate(result.interference_traces):
        theta = result.scenario.interferer_angles[i]
        path = os.path.join(args.out, f"interference_{theta:+g}deg.csv")
        _atomic_write(path, trace_csv(itrace))
        outputs.append(path)
    if args.colormap:
        outputs += _write_colormap(
            result.config.gamma,
            os.path.join(args.out, "gamma_phase_deg.csv"),
            os.path.join(args.out, "gamma_amplitude.csv"),
        )

    manifest = {
        "tool_version": __version__,
        "scenario_digest": canonical_digest(text),
        "seed": args.seed,
        "runtime_s": round(runtime, 6),
        "outputs": [os.path.basename(p) for p in outputs],
        "grid": list(result.trace.metadata["grid"]),
        "criterion": result.trace.metadata["criterion"],
        "peak_angle_deg": result.metrics.peak_angle,
    }
    _atomic_write(
        os.path.join(args.out, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {len(outputs)} trace file(s) to {args.out}")
    return 0


def _resolve_alphabet_arg(name: str):
    if name.startswith("uadp:"):
        return uadp_set(int(name.split(":", 1)[1]))
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return load_alphabet(fh.read(), source_label=name)
    return builtin(name)


def cmd_alphabet(args) -> int:
    try:
        alph = _resolve_alphabet_arg(args.name)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    loaded = _load_scenario_file(args.scenario, args.lenient)
    if loaded is None:
        return 2
    _, scenario = loaded
    budget = None if args.allow_large else DEFAULT_ELEMENT_BUDGET
    try:
        design = design_scenario(scenario, element_budget=budget)
    except Exception as exc:  # noqa: BLE001
        print(f"error: scenario failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    base, ext = os.path.splitext(args.out)
    phase_path, amp_path = _write_colormap(design.config.gamma, args.out, f"{base}_amplitude{ext or '.csv'}")
    print(f"wrote {phase_path} and {amp_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispattern",
        description="Reradiation-pattern simulator for reconfigurable intelligent surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and export traces")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--step", type=float, default=None, help="override sweep step (deg)")
    p_run.add_argument("--seed", type=int, default=None, help="override diffuser seed")
    p_run.add_argument("--allow-large", action="store_true", help="lift the element budget")
    p_run.add_argument("--lenient", action="store_true", help="warn instead of failing on unknown scenario keys")
    p_run.add_argument("--colormap", action="store_true", help="also export gamma phase/amplitude matrices")
    p_run.set_defaults(func=cmd_run)

    p_alpha = sub.add_parser("alphabet", help="inspect a built-in, uadp:<L>, or file alphabet")
    p_alpha.add_argument("name", help=f"one of {', '.join(builtin_names())}, uadp:<L>, or a file path")
    p_alpha.add_argument("--export", default=None, help="write the canonical alphabet file here")
    p_alpha.set_defaults(func=cmd_alphabet)

    p_cmap = sub.add_parser("colormap", help="export the designed gamma matrix of a scenario")
    p_cmap.add_argument("scenario", help="path to a scenario file")
    p_cmap.add_argument("--out", default="gamma_phase_deg.csv", help="phase matrix output path")
    p_cmap.add_argument("--allow-large", action="store_true")
    p_cmap.add_argument("--lenient", action="store_true")
    p_cmap.set_defaults(func=cmd_colormap)

    p_ver = sub.add_parser("version", help="print the tool version")
    p_ver.set_defaults(func=lambda args: (print(f"rispattern {__version__}"), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
