"""Measuring passes of the benchmark: set-up, timed loop, memory pass, traced pass.

Imported after ``run.py`` has put the checkout's ``src/`` first on the path.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from convfourier import cli, harness

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIB = 2.0**20

ALL = workloads.WORKLOADS
VERIFY = ("verify-small", "verify-large")
CLI_FILES = ("cli-files",)
CLI_COMMANDS = ("conv_linear", "conv_periodic", "dft", "series", "ft")

# Every metric the benchmark computes: name -> (unit, workloads that report
# it).  All are above 0 on correct code, except error_rate, which is 0.
END_TO_END = {
    "setup_s": ("s", ALL),
    "ops_per_s": ("1/s", ALL),
    "latency_p50_s": ("s", ALL),
    "latency_p90_s": ("s", ("verify-small", "cli-files")),
    "peak_mib": ("MiB", ALL),
    "error_rate": ("ratio", ALL),
    **{f"{c}_p50_s": ("s", CLI_FILES) for c in CLI_COMMANDS},
}


def _self_times(groups, where):
    return {f"{group}.self_s": ("s", where) for group in groups}


# Traced-run metrics: name -> (unit, workloads whose run must measure it above
# 0; the run fails otherwise).  A metric of a layer the run never reaches is
# left out of its record.  Self times, calls, work counts and bytes are means
# per traced operation; rates divide a count by the inclusive time of the
# layer's outermost spans; ``cli.ops`` is the number of traced operations.
LAYERS = {
    **_self_times(("convolution", "convolution.periodic_convolve_discrete",
                   "convolution.discrete_convolve", "convolution.exp_factor"), ALL),
    **_self_times(("convolution.periodic_convolve_analog", "convolution.approx_analog_convolve",
                   "convolution.mixed_convolve"), VERIFY),
    "convolution.nominal_macs": ("count", ALL),
    "convolution.macs_per_s": ("1/s", ALL),
    "convolution.peak_mib": ("MiB", ALL),
    **_self_times(("fourier", "fourier.dft", "fourier.fourier_coefficients",
                   "fourier.fourier_transform"), ALL),
    **_self_times(("fourier.inverse_fourier_transform", "fourier.eigencheck"), VERIFY),
    # no CLI command and no harness check calls series_synthesize
    **_self_times(("fourier.series_synthesize",), ()),
    "fourier.nominal_terms": ("count", ALL),
    "fourier.terms_per_s": ("1/s", ALL),
    "fourier.peak_mib": ("MiB", ALL),
    **_self_times(("io", "io.read", "io.write"), CLI_FILES),
    "io.read_rows_per_s": ("1/s", CLI_FILES),
    "io.write_rows_per_s": ("1/s", CLI_FILES),
    "io.bytes_read": ("B", CLI_FILES),
    "io.bytes_written": ("B", CLI_FILES),
    **_self_times(("cli",), ALL),
    "cli.ops": ("count", ALL),
    **_self_times(("harness",), VERIFY),
    "harness.checks": ("count", VERIFY),
    # reported with the harness; 0 when the grid runs every check
    "harness.skipped": ("count", ()),
    "harness.worst_margin": ("ratio", VERIFY),
    **{f"harness.check.{check_id}.wall_s": ("s", VERIFY) for check_id in harness.registry_ids()},
    **_self_times(("signals", "signals.construct"), ALL),
    "signals.construct.calls": ("count", ALL),
    **_self_times(("generators",), VERIFY),
    "trace.overhead_ratio": ("ratio", ALL),
    "trace.coverage": ("ratio", ALL),
}

# An untraced run's timed loop pauses SEGMENTS - 1 times, evenly in busy
# time; at its start, at each pause and at its end, fresh set-ups are timed
# back to back until SETUP_PAUSE_S of wall time has passed (one cli-files
# set-up takes about 1 s, one verify set-up 0.2 s).
SEGMENTS = 6
SETUP_PAUSE_S = 0.5
# ops_per_s is the median throughput of this many stretches of whole units
STRETCHES = 16


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


class Runner:
    """Issues CLI calls, times them, and judges each with its check outside the timing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op) -> float:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)  # looked up per call, so a traced run sees the wrapper
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation; the loop goes on
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if isinstance(code, str):
            error = f"{op.argv[0]} raised:\n{code}"
        else:
            try:
                error = op.check(code)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"{op.argv[0]}: output unreadable: {exc!r}"
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)
        return elapsed

    def unit(self, workload, index) -> list:
        """(command, latency) of each call in one unit of the workload."""
        return [(op.command, self.run(op)) for op in workload.unit(index)]

    def memory_pass(self, ops, meter) -> float:
        """Largest tracemalloc peak of one call above the memory held when it started."""
        peak = 0
        tracemalloc.start()
        try:
            for op in ops:
                meter.enter()
                self.run(op)
                peak = max(peak, meter.exit())
        finally:
            tracemalloc.stop()
        return peak / MIB


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# Run in a fresh interpreter with the input files as arguments; prints the
# seconds from before ``import convfourier.cli`` to the last file read, and
# the imported module's path.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import convfourier.cli
from convfourier import io
for path in sys.argv[1:]:
    io.read_signal(path)
sys.stdout.write(f"{time.perf_counter() - start!r} {convfourier.cli.__file__}")
"""


def time_setup(workload) -> float:
    """One fresh set-up: ``import convfourier.cli`` in a new interpreter, which
    every CLI call pays, plus the library reading each of the workload's input
    files.  The inputs were written before, outside any timing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, *map(str, workload.inputs)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    elapsed, module = done.stdout.split(" ", 1)
    if not Path(module).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"fresh interpreter imported {module}, not the checkout's src/")
    return float(elapsed)


def end_to_end(args, workdir):
    """End-to-end metrics of one untraced run.

    Fresh set-ups are timed at the start, at pauses in the timed loop and at
    its end, and ``ops_per_s`` is the median throughput of consecutive
    stretches of the loop, so that neither rests on one stretch of the
    host's speed.
    """
    runner = Runner()
    workload = workloads.build(args.workload, args.seed, workdir, args.quick)
    workload.prepare()
    # the memory pass runs first and doubles as the warm-up of the timed loop
    peak = runner.memory_pass(workload.memory, spans.PeakMeter())
    segments, pause = (1, 0.0) if args.quick else (SEGMENTS, SETUP_PAUSE_S)

    def set_up_for(seconds):
        start = time.perf_counter()
        setups.append(time_setup(workload))
        while time.perf_counter() - start < seconds:
            setups.append(time_setup(workload))

    setups, units = [], []
    busy, next_pause = 0.0, 0.0
    while busy < args.seconds:
        if busy >= next_pause:
            set_up_for(pause)
            next_pause += args.seconds / segments
        units.append(runner.unit(workload, len(units)))
        busy += sum(t for _, t in units[-1])
    set_up_for(pause)

    commands, latencies = zip(*(call for unit in units for call in unit))
    k = min(STRETCHES, len(units))
    stretches = [units[i * len(units) // k:(i + 1) * len(units) // k] for i in range(k)]
    throughputs = [sum(map(len, stretch)) / sum(t for unit in stretch for _, t in unit)
                   for stretch in stretches]

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(throughputs),
        "latency_p50_s": statistics.median(latencies),
        "peak_mib": peak,
        "error_rate": runner.failed / runner.attempted,
    }
    if args.workload in END_TO_END["latency_p90_s"][1]:
        metrics["latency_p90_s"] = _p90(latencies)
    if args.workload in CLI_FILES:
        for command in CLI_COMMANDS:
            metrics[f"{command}_p50_s"] = statistics.median(
                [t for t, c in zip(latencies, commands) if c == command]
            )
    metric_units = {name: END_TO_END[name][0] for name in metrics}
    samples = {"ops": len(latencies), "units": len(units), "setups_s": setups,
               "stretch_ops_per_s": throughputs, "memory_ops": len(workload.memory),
               "latencies_s": latencies}
    return runner, metrics, metric_units, samples, None


def traced(args, workdir):
    """Per-layer metrics: each call runs untraced and then traced, back to back,
    so that the two timings share the host's speed of the moment."""
    runner = Runner()
    workload = workloads.build(args.workload, args.seed, workdir, args.quick)
    workload.prepare()
    meter = spans.PeakMeter()
    restore = spans.bind(meter.wrapper)
    try:
        runner.memory_pass(workload.memory, meter)
    finally:
        restore()

    tracer = spans.Tracer()
    untraced, op_wall = [], []
    done = 0
    while sum(untraced) + sum(op_wall) < args.seconds:
        for op in workload.unit(done):
            untraced.append(runner.run(op))
            tracer.op = len(op_wall)
            restore = spans.bind(tracer.wrapper)
            try:
                op_wall.append(runner.run(op))
            finally:
                restore()
        done += 1

    summary = tracer.summary(op_wall)
    n_ops = len(op_wall)
    self_s, outer_s, calls = summary["self_s"], summary["outer_s"], summary["calls"]
    metrics = {}
    for group, value in self_s.items():
        metrics[f"{group}.self_s"] = value
        module = group.split(".", 1)[0]
        if module != group:
            metrics[f"{module}.self_s"] = metrics.get(f"{module}.self_s", 0.0) + value
    for group, busy in outer_s.items():
        if group.startswith("harness.check."):
            metrics[f"{group}.wall_s"] = busy / n_ops

    def per_op(key):
        if key in tracer.counts:
            metrics[key] = tracer.counts[key] / n_ops

    def rate(name, count_key, groups):
        busy = sum(outer_s.get(g, 0.0) for g in groups)
        if count_key in tracer.counts and busy:
            metrics[name] = tracer.counts[count_key] / busy

    def peak(layer):
        if layer in meter.layer_peaks:
            metrics[f"{layer}.peak_mib"] = meter.layer_peaks[layer] / MIB

    for key in ("convolution.nominal_macs", "fourier.nominal_terms", "io.bytes_read", "io.bytes_written"):
        per_op(key)
    rate("convolution.macs_per_s", "convolution.nominal_macs", spans.MACS)
    rate("fourier.terms_per_s", "fourier.nominal_terms", {spans.group_of(n) for n in spans.TERMS})
    rate("io.read_rows_per_s", "io.rows_read", ["io.read"])
    rate("io.write_rows_per_s", "io.rows_written", ["io.write"])
    peak("convolution")
    peak("fourier")
    if "harness.run_all" in calls:
        metrics["harness.checks"] = tracer.counts.get("harness.checks", 0) / n_ops
        metrics["harness.skipped"] = tracer.counts.get("harness.skipped", 0) / n_ops
        metrics["harness.worst_margin"] = tracer.worst_margin
    if "signals.construct" in calls:
        metrics["signals.construct.calls"] = calls["signals.construct"]
    metrics["cli.ops"] = calls.get("cli", 0.0) * n_ops
    metrics["trace.overhead_ratio"] = sum(op_wall) / sum(untraced)
    metrics["trace.coverage"] = summary["coverage"]

    missing = [name for name, (_, where) in LAYERS.items()
               if args.workload in where and not metrics.get(name, 0.0) > 0.0]
    if missing:
        raise BenchmarkError(f"the trace measured nothing for {', '.join(missing)}")
    # self times of spans outside the catalogue, such as private helpers, are kept too
    units = {name: LAYERS[name][0] if name in LAYERS else "s" for name in metrics}
    samples = {"ops": n_ops, "units": done, "spans": summary["n_spans"],
               "memory_ops": len(workload.memory)}
    return runner, metrics, units, samples, tracer.spans
