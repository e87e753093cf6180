"""rispattern benchmark runner.

    python3 perfbench/run.py --workload far-sweep --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) from a seed in this
process against the package under ../src. Passes over the workload repeat
until --seconds of timed work is done, to the nearest whole pass; every invocation's outputs are
checked outside the timed region. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from spans recorded around the package's public names in
alternating traced and untraced passes.

A fuller record (environment, per-pass times, sample counts) is written to
.perfbench_out/ and spans of traced passes to .perfbench_out/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("far-sweep", "near-alphabet", "cli-small")
SETUP_PROBES = 5

# The benchmark is one process; keep BLAS from starting more threads than
# there are cores available to it. Must be set before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="time import and input build only, print seconds")
    return p.parse_args(argv)


def import_package():
    """Import rispattern from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import rispattern

    if os.path.dirname(os.path.dirname(os.path.abspath(rispattern.__file__))) != SRC:
        raise SystemExit(f"error: imported rispattern from {rispattern.__file__}, not {SRC}")
    return rispattern


def setup_probe(args) -> int:
    """Child process: time the import of rispattern plus the workload's input build."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir)
    print(repr(elapsed))
    return 0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment(args) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {"name": "unknown"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle_worst = 0.0
        self.failures: list[str] = []


def run_pass(workload, tally, pass_no, tracer=None, patches=()):
    """One pass over the workload; returns the timed seconds per invocation."""
    latencies = []
    for k, item in enumerate(workload.items):
        tally.attempted += 1
        error = output = None
        with ExitStack() as stack:
            if tracer is not None:
                tracer.scenario_id = f"{pass_no}:{k}"
                stack.enter_context(tracer.installed(patches))
                stack.enter_context(tracer.span(workload.root_span))
            t0 = time.perf_counter()
            try:
                output = workload.run(item)
            except Exception:  # noqa: BLE001 - a failed invocation is counted, not fatal
                error = traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                tally.oracle_worst = max(tally.oracle_worst, workload.check(item, output))
            except Exception as exc:  # noqa: BLE001 - includes checks.CheckFailed
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            tally.failed += 1
            tally.failures.append(f"pass {pass_no} item {k}: {error}")
    return latencies


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(setup_samples, passes):
    """Medians over untraced passes of each pass's wall time and latency
    percentiles, so one slow pass moves no metric."""
    return {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "scenario_s.p50": (statistics.median(quantile(p, 0.5) for p in passes), "s"),
        "scenario_s.p90": (statistics.median(quantile(p, 0.9) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "rispattern", "__init__.py")):
        print(f"error: no rispattern package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import_package()
    setup_samples = measure_setup(args)
    import checks
    import layers
    import workloads
    from spans import Tracer

    env = environment(args)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tally = Tally()
    untraced, traced, spans = [], [], []
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        timed = wall = 0.0
        pass_no = 0
        # Passes repeat until --seconds of timed work, to the nearest whole
        # pass. --trace 1 alternates untraced and traced passes so their
        # difference is the tracing overhead; --trace 0 installs no wrapper.
        while timed + wall / 2 < args.seconds or (args.trace and not traced):
            tracer = Tracer() if args.trace and pass_no % 2 == 1 else None
            latencies = run_pass(workload, tally, pass_no, tracer, layers.PATCHES)
            wall = sum(latencies)
            timed += wall
            if tracer is None:
                untraced.append(latencies)
            else:
                traced.append((wall, layers.pass_metrics(tracer)))
                spans.extend(tracer.spans)
            pass_no += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layers.summarize(traced, [sum(p) for p in untraced], tally.oracle_worst)
    else:
        metrics = end_to_end(setup_samples, untraced)

    for line in tally.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    record = {
        "environment": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "oracle_tolerance": checks.ORACLE_TOL,
        "oracle_worst": tally.oracle_worst,
        "setup_samples_s": setup_samples,
        "untraced_pass_s": [sum(p) for p in untraced],
        "untraced_latencies_s": untraced,
        "traced_pass_s": [w for w, _ in traced],
        "invocations_per_pass": len(workload.items),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(os.path.join(OUT_DIR, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scenario_id"], "spans": spans}, fh)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(
        f"samples: {len(untraced)} untraced + {len(traced)} traced passes of {len(workload.items)} invocations; "
        f"latency percentiles per pass over {len(workload.items)} invocations, median over {len(untraced)} passes; error_rate {record['error_rate']:.4g} "
        f"({tally.failed}/{tally.attempted}); worst oracle error {tally.oracle_worst:.3g} of peak"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
