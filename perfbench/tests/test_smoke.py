"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Checks the result line against BENCHMARK.json, that every metric the
benchmark's catalogue (``measure.END_TO_END`` and ``measure.LAYERS``) lists
for the workload is in the record with a value above 0, and that no
operation failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(record_line.removeprefix("record "))


# verify-large is not in BENCHMARK.json (one call takes about 10 s) but stays runnable
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_its_metrics(workload, trace):
    result, record = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    catalogue = measure.LAYERS if trace else measure.END_TO_END
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"] == catalogue[m["name"]][0]
        assert emitted["value"] > 0, m["name"]

    metrics = record["metrics"]
    for name, (unit, where) in catalogue.items():
        if workload not in where:
            continue
        assert metrics[name]["unit"] == unit
        if name == "error_rate":
            assert metrics[name]["value"] == 0
        else:
            assert metrics[name]["value"] > 0, name
    if trace:
        assert 0 < metrics["trace.coverage"]["value"] <= 1
    for key in ("python", "numpy", "blas", "blas_threads", "platform", "nproc",
                "cpu_model", "l3_cache", "seed"):
        assert key in record["environment"]


def test_declared_metrics_are_in_the_catalogue():
    for kind, catalogue in (("end_to_end", measure.END_TO_END), ("per_layer", measure.LAYERS)):
        for m in SPEC[kind]:
            unit, where = catalogue[m["name"]]
            assert m["unit"] == unit
            for w in SPEC["workloads"]:
                assert w["name"] in where, (m["name"], w["name"])
