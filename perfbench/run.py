"""lsrmt benchmark: one workload, one seed, one fresh interpreter per measurement.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_charpoly --seed 1 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics.  Set-up time is sampled in
SETUP_PROBES fresh interpreters plus the measuring one, and the median is
reported; the measuring interpreter then runs passes of the workload's
closed loop for ``--seconds``.  Each position of the pass's request list
contributes its fastest latency over the passes: ``wall_s`` is their sum
(the closed-loop time of one list), ``req_p50_s`` and ``req_p90_s`` their
percentiles.  The ``info`` line states the sample counts.

``--trace 1`` reports the per-layer metrics.  An untraced interpreter runs
passes for half of ``--seconds``; a traced one then runs the first of those
passes again (at most TRACE_PASSES_MAX) with the same seed.  Both must
return identical request results.  Layer metrics are per pass, and
``trace_overhead_frac`` compares the two runs.

Besides the last stdout line (the result), the run prints one ``info`` JSON
line: the environment stamp, sample counts, reuse share and failed requests
by id.  The workload mix and sizes are in workloads.py; workloads.json
records why each workload exists and which end-to-end metric each layer
metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_charpoly", "mc_schur", "closed_form", "cli_identities")
SETUP_PROBES = 4
# Single-threaded BLAS: mc_average runs with workers=1 and the benchmark
# measures one client, so every layer runs on one core.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}
WORKER_GRACE_S = 150.0
# Traced passes are capped: cli_identities records ~4e5 spans per pass.
TRACE_PASSES_MAX = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_s": "s", "req_p90_s": "s",
                    "peak_rss_mib": "MiB"}


class WorkerError(RuntimeError):
    """A worker interpreter exited abnormally or printed no report."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload, seed, mode, seconds=0.0, passes=0):
    """Start a worker; returns (set-up seconds, report or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds), "--passes", str(passes)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.communicate(timeout=seconds + WORKER_GRACE_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{mode} worker timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no report")
    return setup_s, json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_latencies(passes):
    """Per position of the request list, the fastest latency over the passes.

    Every pass has the same operations and sizes at each position, so the
    minimum filters out the slow spells of a shared host, which last from
    milliseconds to tens of seconds and dominate medians of raw latencies.
    """
    return [min(column) for column in zip(*passes)]


def environment_stamp(report) -> dict:
    src = ROOT / "src" / "lsrmt"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads": THREAD_ENV,
        **report["environment"],
    }


def measure(workload, seed, seconds):
    """End-to-end metrics (tracing off)."""
    setups = [spawn(workload, seed, "setup")[0] for _ in range(SETUP_PROBES)]
    setup_s, report = spawn(workload, seed, "run", seconds=seconds)
    setups.append(setup_s)
    passes = report["passes"]
    best = best_latencies(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "req_p50_s": percentile(best, 50),
        "req_p90_s": percentile(best, 90),
        "peak_rss_mib": report["maxrss_kib"] / 1024.0,
    }
    beyond = sum(t > metrics["req_p90_s"] for t in best)
    info = {"setup_samples": len(setups), "passes": len(passes), "positions": len(best),
            "latency_samples": len(best) * len(passes),
            "samples_beyond_p90": beyond * len(passes)}
    return metrics, report, info, []


def measure_traced(workload, seed, seconds):
    """Per-layer metrics from a traced run checked against an untraced one."""
    _, plain = spawn(workload, seed, "run", seconds=seconds / 2.0)
    passes = min(len(plain["passes"]), TRACE_PASSES_MAX)
    _, traced = spawn(workload, seed, "trace", seconds=seconds, passes=passes)
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = (sum(best_latencies(traced["passes"]))
                                      / sum(best_latencies(plain["passes"][:passes])) - 1.0)
    mismatched = [f"pass {i}" for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"]))
                  if a != b]
    info = {"passes": passes, "traced_spans_file": f"perfbench/out/spans-{workload}-{seed}.spans"}
    problems = [{"id": p, "reason": "traced results differ from untraced results"}
                for p in mismatched]
    report = dict(traced)
    report["failures"] = plain["failures"] + traced["failures"]
    report["attempted"] = plain["attempted"] + traced["attempted"]
    return metrics, report, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lsrmt" / "__init__.py").is_file():
        print(f"perfbench: no lsrmt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure_traced if args.trace else measure
        metrics, report, info, problems = run(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = report["failures"]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "reuse_share": report["reuse_share"],
        "failures": failures + problems,
        "environment": environment_stamp(report),
    })
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
