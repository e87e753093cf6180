"""Layer boundaries for the traced run and the per-layer metrics built from them.

The wrapped names are the ones the package's layers call each other
through: the CLI calls the scenario layer via `cli.parse_scenario` and
`cli.run_scenario` and writes files via `cli._atomic_write`; the scenario
layer calls `ChannelPair.compute` (channel), `design_for_criterion`
(designer), `sweep`, `interference_study` and `extract_metrics` (pattern),
and resolves alphabets via `builtin` or `load_alphabet` (alphabet).
Work counts come from the public results those calls return.
"""

from __future__ import annotations

import statistics

from rispattern import alphabet, cli, scenario

from spans import Tracer


def _count_trace(counts, trace, args, seconds):
    rows, cols = trace.metadata["grid"]
    counts["pattern.el_ang"] += rows * cols * len(trace.angles)


def _count_design(counts, result, args, seconds):
    config, report = result
    if report is not None:
        counts["designer.sweeps"] += report.iterations
        counts["designer.visits"] += report.iterations * config.gamma.size
        counts["designer.updates"] += report.element_update_count
        counts["designer.optimizer_s"] += seconds


def _count_channel(counts, pair, args, seconds):
    counts["channel.elements"] += pair.g.size


def _count_write(counts, result, args, seconds):
    counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


PATCHES = (
    (cli, "parse_scenario", "cli.parse_scenario", None),
    (cli, "run_scenario", "cli.run_scenario", None),
    (cli, "_atomic_write", "cli._atomic_write", _count_write),
    (scenario.ChannelPair, "compute", "scenario.ChannelPair.compute", _count_channel),
    (scenario, "design_for_criterion", "scenario.design_for_criterion", _count_design),
    (scenario, "sweep", "scenario.sweep", _count_trace),
    (scenario, "interference_study", "scenario.interference_study", _count_trace),
    (scenario, "extract_metrics", "scenario.extract_metrics", None),
    (scenario, "builtin", "alphabet.builtin", None),
    (alphabet, "load_alphabet", "alphabet.load_alphabet", None),
)


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self seconds and exact counts."""
    st = tracer.self_times()
    c = tracer.counts
    sweep_s = st["scenario.sweep"]
    interference_s = st["scenario.interference_study"]
    el_ang = c["pattern.el_ang"]
    visits = c["designer.visits"]
    return {
        "pattern.sweep_s": sweep_s,
        "pattern.interference_s": interference_s,
        "pattern.ns_per_el_ang": (sweep_s + interference_s) / el_ang * 1e9 if el_ang else 0.0,
        "pattern.el_ang": el_ang,
        "pattern.metrics_s": st["scenario.extract_metrics"],
        "designer.design_s": st["scenario.design_for_criterion"],
        "designer.sweeps": c["designer.sweeps"],
        "designer.visits": visits,
        "designer.updates": c["designer.updates"],
        "designer.us_per_visit": c["designer.optimizer_s"] / visits * 1e6 if visits else 0.0,
        "designer.useful_visit_ratio": c["designer.updates"] / visits if visits else 0.0,
        "channel.compute_s": st["scenario.ChannelPair.compute"],
        "channel.elements": c["channel.elements"],
        "scenario.parse_s": st["cli.parse_scenario"],
        "alphabet.load_s": st["alphabet.builtin"] + st["alphabet.load_alphabet"],
        "scenario.self_s": st["scenario.run_scenario"] + st["cli.run_scenario"],
        "cli.self_s": st["cli.main"],
        "cli.write_s": st["cli._atomic_write"],
        "cli.bytes_written": c["cli.bytes_written"],
    }


UNITS = {
    "pattern.ns_per_el_ang": "ns",
    "pattern.el_ang": "count",
    "pattern.oracle_rel_err": "ratio",
    "designer.sweeps": "count",
    "designer.visits": "count",
    "designer.updates": "count",
    "designer.us_per_visit": "us",
    "designer.useful_visit_ratio": "ratio",
    "channel.elements": "count",
    "cli.bytes_written": "bytes",
}


def summarize(traced, untraced, oracle_worst) -> dict[str, tuple[float, str]]:
    """Median of each per-pass metric over the traced passes (counts are
    identical in every pass), plus the oracle error and tracing overhead."""
    per_pass = [m for _, m in traced]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["pattern.oracle_rel_err"] = oracle_worst
    out["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(untraced)
    units = {name: UNITS.get(name, "s") for name in out}
    return {name: (round(v) if units[name] in ("count", "bytes") else v, units[name]) for name, v in out.items()}
