"""Best-of-k timings of the χ samplers of ``lsrmt.haar``, per sample and per call.

Times, in-process and single-threaded:

* ``_verblunsky_batch`` + ``_szego_batch`` at 2 points, with χ′ and (where
  the checkout has the χ-only recursion) without it;
* ``_tilted_char_batch`` (the ``ratio`` draw) at 4 points, tilt (1, 1, -1, -1);

first in chunks of 4096 samples at N = 3 / 10 / 20 / 50 / 100, then at the
(estimator, N, M) requests of the benchmark's ``mc_charpoly`` workload, whose
point counts they keep.  Each figure is the fastest of a fixed number of
calls, so a slow spell of the host drops out.  Run it on a checkout:

    PYTHONPATH=src python tests/kernel_timing.py
    PYTHONPATH=/path/to/other/checkout/src python tests/kernel_timing.py

An older checkout whose ``_szego_batch`` always carries χ′ prints "-" in the
χ-only column.  Not collected by pytest (the name does not start with
``test_``); the whole run takes a few seconds.
"""

from __future__ import annotations

import inspect
import time

import numpy as np

from lsrmt.haar import CHUNK, _szego_batch, _tilted_char_batch, _verblunsky_batch

CHUNK_SIZES = (3, 10, 20, 50, 100)
CHUNK_REPEAT = 5
REQUEST_REPEAT = 300
SZEGO_POINTS = (0.4 + 0.3j, 0.5 - 0.2j)
TILTED_POINTS, TILT = (0.7 + 0.1j, 0.8 - 0.1j, 0.3, 0.2j), (1, 1, -1, -1)
# mc_charpoly's requests: (label, kernel, N, M, points)
REQUESTS = (
    ("abs_char_sq", "szego", 3, 1000, 1),
    ("abs_char_sq", "szego", 10, 300, 1),
    ("ratio", "tilted", 10, 300, 4),
    ("logder_pair", "szego", 20, 200, 2),
    ("logder_pair", "szego", 50, 100, 2),
)
HAS_CHI_ONLY = len(inspect.signature(_szego_batch).parameters) == 3


def best_of(repeat: int, call) -> float:
    """Fastest wall time of `repeat` calls, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def szego_seconds(count: int, big_n: int, npoints: int, repeat: int):
    """(with chi', chi only) seconds per draw-and-recursion call; None where absent."""
    rng, points = np.random.default_rng(1), SZEGO_POINTS[:npoints]
    if not HAS_CHI_ONLY:
        return best_of(repeat, lambda: _szego_batch(
            _verblunsky_batch(rng, count, big_n), points)), None
    return tuple(
        best_of(repeat, lambda: _szego_batch(
            _verblunsky_batch(rng, count, big_n), points, derivative))
        for derivative in (True, False)
    )


def tilted_seconds(count: int, big_n: int, npoints: int, repeat: int) -> float:
    """Seconds per tilted draw at the first `npoints` points."""
    rng = np.random.default_rng(2)
    points, tilt = TILTED_POINTS[:npoints], TILT[:npoints]
    return best_of(repeat, lambda: _tilted_char_batch(rng, count, big_n, points, tilt))


def show(seconds, scale: float) -> str:
    return "-" if seconds is None else f"{seconds * scale:.3g}"


def main() -> None:
    per_sample = 1e6 / CHUNK
    print(f"chunks of {CHUNK} samples, best of {CHUNK_REPEAT}, microseconds per sample")
    print("N     szego+chi'  szego chi-only  tilted (4 points)")
    for big_n in CHUNK_SIZES:
        with_dchi, chi_only = szego_seconds(CHUNK, big_n, 2, CHUNK_REPEAT)
        tilted = tilted_seconds(CHUNK, big_n, 4, CHUNK_REPEAT)
        print(f"{big_n:<5} {show(with_dchi, per_sample):<11} {show(chi_only, per_sample):<15} "
              f"{show(tilted, per_sample)}")
    print(f"\nmc_charpoly requests, best of {REQUEST_REPEAT}, microseconds per call")
    print("request                     szego+chi'/tilted  szego chi-only")
    for label, kernel, big_n, samples, npoints in REQUESTS:
        if kernel == "tilted":
            first, chi_only = tilted_seconds(samples, big_n, npoints, REQUEST_REPEAT), None
        else:
            first, chi_only = szego_seconds(samples, big_n, npoints, REQUEST_REPEAT)
        name = f"{label} N={big_n} M={samples}"
        print(f"{name:<27} {show(first, 1e6):<18} {show(chi_only, 1e6)}")


if __name__ == "__main__":
    main()
