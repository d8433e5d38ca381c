"""Print the SHA-256 of the ``verify`` report JSON on a fixed set of grids and seeds.

The first line names the build: Python, NumPy, platform and the path of the
``convfourier`` package imported, so a diff of two outputs shows a build
mismatch, or a PYTHONPATH that reaches the wrong checkout, before any digest.
Each other line is one grid and seed; the last line digests every report
together.
Run it against two checkouts and compare the outputs:

    PYTHONPATH=<checkout>/src python tools/report_digest.py > digests.txt

Reports hold float residuals, so digests compare only between runs on one
host and one NumPy build.
"""

import hashlib
import json
import platform

import numpy as np

import convfourier
from convfourier.harness import GridParams, run_all

GRIDS = {
    "default": {},
    "n16_nmax2": {"n": 16, "n_max": 2},
    "n256_nmax32": {"n": 256, "ts": 1 / 256, "n_max": 32},
    "n16_nmax0": {"n": 16, "n_max": 0},
    "n7_nmax3": {"n": 7, "n_max": 3},
    "n1_ts1_nmax0": {"n": 1, "ts": 1.0, "n_max": 0},
    "n1024_nmax100": {"n": 1024, "ts": 1 / 1024, "n_max": 100},
    "ts0.3": {"ts": 0.3},
    "ts60": {"ts": 60.0},
    "ts1000": {"ts": 1000.0},
    "ts5e-324": {"ts": 5e-324},
}
SEEDS = (1, 2, 3, 42)


def build_line() -> str:
    return (
        f"build python={platform.python_version()} numpy={np.__version__} "
        f"platform={platform.platform()} library={convfourier.__file__}"
    )


def main():
    print(build_line())
    total = hashlib.sha256()
    for name, params in GRIDS.items():
        for seed in SEEDS:
            text = json.dumps(run_all(GridParams(**params), seed).to_dict(), indent=2)
            digest = hashlib.sha256(text.encode()).hexdigest()
            total.update(digest.encode())
            print(f"{name} seed={seed} {digest}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
