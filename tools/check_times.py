"""Print the best-of-5 wall time of each identity check, ``harness._check``,
on three fixed grids at seed 42: one check id per line, one column per grid,
in milliseconds.

Each call draws from the check's own stream, ``harness._stream``, as
``run_all`` at that seed draws it, so a check does the same work here as in
``verify``.  Run it against two checkouts, alternating between them, and
compare the columns:

    PYTHONPATH=<checkout>/src python tools/check_times.py > times.txt

Wall times swing with the host's clock; a difference means something only
beside the spread of the same checkout run against itself.
"""

import time

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


def main():
    columns = [check_times(harness.GridParams(**params)) for params in GRIDS.values()]
    print("id", *(f"{name}_ms" for name in GRIDS))
    for check_id in columns[0]:
        print(check_id, *(f"{column[check_id] * 1e3:.3f}" for column in columns))


if __name__ == "__main__":
    main()
