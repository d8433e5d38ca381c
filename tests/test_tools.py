"""The measurement tools under tools/, run in-process on small inputs."""

import importlib.util
import pathlib
import time

from convfourier.harness import REGISTRY, GridParams

TOOLS = pathlib.Path(__file__).parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_times_times_every_check_once_per_repeat():
    check_times = _load("check_times").check_times
    start = time.perf_counter()
    times = check_times(GridParams(n=16, ts=1 / 16, n_max=2), repeats=1)
    elapsed = time.perf_counter() - start
    assert list(times) == [spec.id for spec in REGISTRY] and len(times) == 31
    assert all(t > 0 for t in times.values()), times
    assert elapsed < 2.0, elapsed
