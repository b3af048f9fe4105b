"""Scan a benchmark workload's request stream in-process: result hashes and oracle failures.

Runs perfbench's ``generate`` / ``execute`` / ``check`` for every pass in a
range, as a benchmark worker would (the warm-up request first, then the
passes in order, each checked against the results of its own pass), without
timing anything.  It prints, per seed, the sha256 of all results and a
draws-only sha256 of the same results with every Monte Carlo result's
``prediction`` removed, so a change that moves predictions alone can show its
draws bit for bit unchanged; then every request whose oracle fails; then,
over all seeds, the largest Monte Carlo z-score |mean - prediction| / stderr
per (estimator, N) with the request that reached it.  Run it on two checkouts
and compare the hashes:

    PYTHONPATH=src python tests/bench_scan.py --workload mc_charpoly --seeds 1-3 --passes 0:200
    PYTHONPATH=/path/to/other/checkout/src python tests/bench_scan.py ...

A pass range past what a timed run reaches finds the oracle failures a faster
program would meet.  Not collected by pytest (the name does not start with
``test_``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    """'1-10' or '1,2,5' as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def pass_range(text: str) -> range:
    """'START:STOP', half-open."""
    start, stop = text.split(":")
    return range(int(start), int(stop))


def z_score(req, value) -> float | None:
    """The oracle's z-score of an ``mc`` request, or None for any other request."""
    args = req["args"]
    if req["op"] != "mc" or value is None or value["prediction"] is None:
        return None
    diff = abs(workloads.uncx(value["mean"]) - workloads.uncx(value["prediction"]))
    stderr = max(value["stderr"], workloads._exact_stderr(args) or 0.0)
    return diff / stderr if stderr > 0 else None


def without_prediction(req, value):
    """value with a Monte Carlo result's prediction removed: what its draws decide."""
    if req["op"] in ("mc", "mc_explicit") and value is not None:
        return {key: v for key, v in value.items() if key != "prediction"}
    return value


def scan(workload: str, seed: int, passes: range, zmax: dict) -> tuple[str, str, int, list]:
    """(sha256 of the results, draws-only sha256, requests run, failures) for one seed."""
    digest, draws = hashlib.sha256(), hashlib.sha256()
    failures, count = [], 0
    stream = itertools.chain([[workloads.warmup(workload, seed)]],
                             (workloads.generate(workload, seed, i) for i in passes))
    for requests in stream:
        done, results, drawn = {}, [], []
        for req in requests:
            try:
                value = workloads.execute(req)
                error = workloads.check(req, value, done)
            except Exception as exc:
                value, error = None, f"raised {type(exc).__name__}: {exc}"
            done[req["id"]] = value
            results.append(value)
            drawn.append(without_prediction(req, value))
            count += 1
            if error is not None:
                failures.append((seed, req["id"], req["op"], error))
            z = z_score(req, value)
            if z is not None:
                key = (req["args"]["estimator"], req["args"]["N"])
                if z > zmax.get(key, (-1.0,))[0]:
                    zmax[key] = (z, seed, req["id"])
        digest.update(json.dumps(results, sort_keys=True).encode())
        draws.update(json.dumps(drawn, sort_keys=True).encode())
    return digest.hexdigest(), draws.hexdigest(), count, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=seed_list, help="1-10 or 1,2,5")
    parser.add_argument("--passes", required=True, type=pass_range, help="START:STOP")
    args = parser.parse_args(argv)
    zmax, failures = {}, []
    for seed in args.seeds:
        digest, draws, count, failed = scan(args.workload, seed, args.passes, zmax)
        failures += failed
        print(f"seed {seed} passes {args.passes.start}:{args.passes.stop} requests {count} "
              f"failed {len(failed)} sha256 {digest} draws_sha256 {draws}", flush=True)
    for seed, req_id, op, reason in failures:
        print(f"FAIL seed {seed} request {req_id} {op}: {reason}")
    for (name, big_n), (z, seed, req_id) in sorted(zmax.items()):
        print(f"zmax {name} N={big_n} {z:.3f} seed {seed} request {req_id}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
