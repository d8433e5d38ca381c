#!/usr/bin/env python3
"""Benchmark of the convfourier library, driven the way its users drive it.

One client issues in-process ``convfourier.cli.main(argv)`` calls in a
closed loop: the next call starts when the previous one has returned.
Every output is checked against a reference the benchmark computes itself.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: a tracemalloc pass
for peak memory (which also warms the process up), then calls for
``--seconds`` seconds of busy time with tracemalloc off, with fresh
set-ups timed before, at pauses in, and after them.  ``--trace 1`` runs the memory pass with per-layer
peaks, then the same calls untraced and traced, wrapping each library
module's public functions from outside (``spans.py``), and reports
per-layer figures.  ``--quick`` shrinks every input so the script itself
can be tested.

The last line of standard output is the result as JSON; the line before it
holds the full record (every metric, sample counts, environment).  The
record and, for traced runs, the spans are also written to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before NumPy loads: idle OpenBLAS workers spin on the
# other core after every small matrix product, which makes timings noisier.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="busy time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for testing the benchmark")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convfourier" / "__init__.py").is_file():
        print(f"error: no convfourier sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import convfourier

    if not Path(convfourier.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported convfourier from {convfourier.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import envinfo
    import measure

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        run_pass = measure.traced if args.trace else measure.end_to_end
        runner, metrics, units, samples, span_list = run_pass(args, workdir)
    except measure.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "environment": envinfo.fingerprint(args.seed),
        "samples": samples,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if span_list is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for op, parent, name, start, end in span_list:
                fh.write(f'[{op},{parent},"{name}",{start!r},{end!r}]\n')
    for error in runner.errors:
        print(f"FAILED: {error}", file=sys.stderr)

    result = {}
    for name, unit in _declared("per_layer" if args.trace else "end_to_end"):
        if units.get(name) != unit:
            print(f"error: BENCHMARK.json declares {name} in {unit}, measured in {units.get(name)}",
                  file=sys.stderr)
            return 1
        result[name] = {"value": metrics[name], "unit": unit}
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
