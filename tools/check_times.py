"""Print the best-of-5 wall time of each identity check, ``harness._check``,
on three fixed grids at seed 42, then its peak traced memory: one check id
per line, one ``<grid>_ms`` column per grid in milliseconds, then one
``<grid>_kib`` column per grid in KiB.

Each call draws from the check's own stream, ``harness._stream``, as
``run_all`` at that seed draws it, so a check does the same work here as in
``verify``.  Run it against two checkouts, alternating between them, and
compare the columns:

    PYTHONPATH=<checkout>/src python tools/check_times.py > times.txt

Wall times swing with the host's clock; a difference means something only
beside the spread of the same checkout run against itself.  A peak is the
``tracemalloc`` peak of one call after a warm-up call, so it leaves out
first-use caches such as NumPy's FFT plans, and it is measured in a pass of
its own, so tracing never slows a timed call.
"""

import time
import tracemalloc

from convfourier import harness

GRIDS = {
    "default": {},
    "n1024_nmax100": {"n": 1024, "ts": 1 / 1024, "n_max": 100},
    "n4096_nmax100": {"n": 4096, "ts": 1 / 4096, "n_max": 100},
}
SEED = 42
REPEATS = 5


def check_times(grid, repeats=REPEATS):
    """{check id: the best wall time in seconds of ``repeats`` calls of
    ``harness._check``}, in registry order."""
    times = {}
    for spec in harness.REGISTRY:
        best = float("inf")
        for _ in range(repeats):
            rng = harness._stream(SEED, spec)
            start = time.perf_counter()
            harness._check(spec, grid, rng)
            best = min(best, time.perf_counter() - start)
        times[spec.id] = best
    return times


def check_peaks(grid):
    """{check id: the tracemalloc peak in bytes of one ``harness._check`` call,
    after a warm-up call}, in registry order."""
    peaks = {}
    for spec in harness.REGISTRY:
        harness._check(spec, grid, harness._stream(SEED, spec))
        rng = harness._stream(SEED, spec)
        tracemalloc.start()
        try:
            harness._check(spec, grid, rng)
            peaks[spec.id] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def main():
    grids = [harness.GridParams(**params) for params in GRIDS.values()]
    times = [check_times(grid) for grid in grids]
    peaks = [check_peaks(grid) for grid in grids]
    print("id", *(f"{name}_ms" for name in GRIDS), *(f"{name}_kib" for name in GRIDS))
    for check_id in times[0]:
        print(
            check_id,
            *(f"{column[check_id] * 1e3:.3f}" for column in times),
            *(f"{column[check_id] / 1024:.1f}" for column in peaks),
        )


if __name__ == "__main__":
    main()
