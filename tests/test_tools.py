"""The measurement tools under tools/, run in-process on small inputs."""

import hashlib
import importlib.util
import json
import pathlib
import platform
import time
import tracemalloc

import numpy as np

import convfourier
from convfourier.harness import REGISTRY, GridParams, run_all

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


def test_check_peaks_traces_every_check_and_stops_tracing():
    check_peaks = _load("check_times").check_peaks
    peaks = check_peaks(GridParams(n=16, ts=1 / 16, n_max=2))
    assert list(peaks) == [spec.id for spec in REGISTRY] and len(peaks) == 31
    assert all(p > 0 for p in peaks.values()), peaks
    assert not tracemalloc.is_tracing()


def test_cli_digest_commands_exit_as_named(tmp_path):
    cli_digest = _load("cli_digest")
    for name, text in cli_digest.FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    codes = {name: cli_digest.run(tmp_path, argv)[0] for name, argv in cli_digest.COMMANDS.items()}
    # "exit N <what>" names the code of a rejected command; the others succeed
    want = {name: int(name.split()[1]) if name.startswith("exit ") else 0 for name in codes}
    assert codes == want and len(codes) == 47


def test_report_digest_prints_the_report_sha256_then_the_total(monkeypatch, capsys):
    report_digest = _load("report_digest")
    monkeypatch.setattr(report_digest, "GRIDS", {"default": {}})
    monkeypatch.setattr(report_digest, "SEEDS", (1,))
    report_digest.main()
    text = json.dumps(run_all(GridParams(), 1).to_dict(), indent=2)
    digest = hashlib.sha256(text.encode()).hexdigest()
    total = hashlib.sha256(digest.encode()).hexdigest()
    build = (
        f"build python={platform.python_version()} numpy={np.__version__} "
        f"platform={platform.platform()} library={convfourier.__file__}"
    )
    assert capsys.readouterr().out == f"{build}\ndefault seed=1 {digest}\ntotal {total}\n"
    # both digest tools name the build alike, so their outputs diff alike
    assert _load("cli_digest").build_line() == build
