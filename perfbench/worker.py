"""One fresh interpreter of a benchmark run; started by ``run.py``, not by hand.

Imports lsrmt from ``src/`` of the checkout, generates the first pass, runs the
untimed warm-up request, prints ``ready`` and then, unless ``--mode setup``,
runs passes of the closed loop.  The last stdout line is a JSON report.

Modes: ``setup`` stops after ``ready``; ``run`` executes passes until
``--seconds`` have been spent in passes (at least one pass); ``trace``
installs the tracer and executes exactly ``--passes`` passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def import_lsrmt():
    """Import lsrmt from this checkout's ``src``; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "lsrmt" / "__init__.py").is_file():
        raise SystemExit(f"no lsrmt sources under {src}")
    sys.path.insert(0, str(src))
    import lsrmt
    import lsrmt.cli  # noqa: F401  (the package does not import its CLI)

    if Path(lsrmt.__file__).resolve().parent != src / "lsrmt":
        raise SystemExit(f"lsrmt imported from {lsrmt.__file__}, not from {src}")


def run_pass(requests, hook, tracer, failures, results):
    """Execute one pass; returns per-request latencies in seconds."""
    import workloads

    latencies = []
    done = {}
    for number, req in enumerate(requests):
        if tracer is not None:
            tracer.request = float(number)
            tracer.recording = True
        start = time.perf_counter()
        try:
            value = workloads.execute(req, hook)
            error = None
        except Exception as exc:  # a failed request is counted, never fatal
            value, error = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.recording = False
        if error is None:
            try:
                error = workloads.check(req, value, done)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        done[req["id"]] = value
        results.append(value)
        if error is not None:
            failures.append({"id": req["id"], "op": req["op"], "reason": error})
    return latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    args = parser.parse_args(argv)

    import_lsrmt()
    import workloads

    first = workloads.generate(args.workload, args.seed, 0)
    failures = []
    # The warm-up is checked like any request; a failure is reported, not fatal.
    run_pass([workloads.warmup(args.workload, args.seed)], None, None, failures, [])
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer, hook = None, None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.recording = False
        tracer.install()
        cache_before = tracer.originals[("lsrmt.symfunc", "lr_coeff")].cache_info()

        def hook(functional, op):
            rows = "haar.weyl_points" if op == "weyl" else None
            return tracer.timed_functional(functional, rows)

    passes, digests, shares = [], [], []
    attempted = 1  # the warm-up
    budget_start = time.perf_counter()
    pass_index = 0
    while True:
        requests = first if pass_index == 0 else workloads.generate(
            args.workload, args.seed, pass_index)
        results = []
        passes.append(run_pass(requests, hook, tracer, failures, results))
        attempted += len(requests)
        shares.append(workloads.reuse_share(requests))
        digests.append(hashlib.sha256(
            json.dumps(results, sort_keys=True).encode()).hexdigest())
        pass_index += 1
        if args.mode == "trace":
            if pass_index >= args.passes:
                break
        elif time.perf_counter() - budget_start >= args.seconds:
            break

    report = {
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "digests": digests,
        "reuse_share": sum(shares) / len(shares),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": library_stamp(),
    }
    if tracer is not None:
        tracer.uninstall()
        cache_after = tracer.originals[("lsrmt.symfunc", "lr_coeff")].cache_info()
        report["layers"] = layer_metrics(tracer, len(passes), cache_before, cache_after)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(str(OUT_DIR / f"spans-{args.workload}-{args.seed}"))
    print(json.dumps(report), flush=True)
    return 0


def library_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


SELF_TIMED = {
    "haar.qr_s": "haar.qr",
    "haar.eigvals_s": "haar.eigvals",
    "haar.other_s": "haar.mc",
    "haar.estimator_s": "haar.estimator",
    "haar.make_estimator_s": "haar.make_estimator",
    "haar.weyl_s": "haar.weyl",
    "symfunc.schur_in_monomials_s": "symfunc.schur_in_monomials",
    "partitions.enum_s": "partitions.enum",
    "verify.run_suite_s": "verify.run_suite",
    "cli.self_s": "cli.main",
}
CALL_COUNTED = {
    "haar.mc_calls": "haar.mc",
    "haar.estimator_calls": "haar.estimator",
    "haar.weyl_calls": "haar.weyl",
    "partitions.mn_index_calls": "partitions.mn_index",
    "verify.run_suite_calls": "verify.run_suite",
    "cli.main_calls": "cli.main",
}
CALLS_AND_SELF = [
    "symfunc.monomial_eval", "symfunc.schur_det", "symfunc.schur_comb", "symfunc.ls_det",
    "symfunc.ls_comb", "symfunc.lr_coeff", "symfunc.basis_eval",
    "partitions.canonical", "partitions.overlap", "partitions.ribbons",
    "schur_algebra.mn_derive", "schur_algebra.mn_multiply", "schur_algebra.hall_inner",
    "schur_algebra.mn_negative",
    "rmt.logders_main", "rmt.completed_logders_main", "rmt.recipe_main",
    "rmt.explicit_formula_rhs", "rmt.ratio_avg", "rmt.product_avg", "rmt.moment_unitary",
    "overlap_identities.first_rhs", "overlap_identities.second_rhs",
]
COUNTERS = ["haar.samples", "haar.rejected", "haar.weyl_points", "partitions.enum_items",
            "verify.instances", "verify.failures", "cli.exit_nonzero"]


def layer_metrics(tracer, passes, cache_before, cache_after) -> dict:
    """Per-layer metrics, per pass: counts, self times and two ratios."""
    out = {}
    for metric, name in SELF_TIMED.items():
        out[metric] = tracer.stat(name)[1] / passes
    for metric, name in CALL_COUNTED.items():
        out[metric] = tracer.stat(name)[0] / passes
    for name in CALLS_AND_SELF:
        calls, self_s, _ = tracer.stat(name)
        out[f"{name}_calls"] = calls / passes
        out[f"{name}_s"] = self_s / passes
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0) / passes
    mc_total = tracer.stat("haar.mc")[2]
    out["haar.mc_s"] = mc_total / passes
    samples = tracer.counters.get("haar.samples", 0)
    out["haar.samples_per_s"] = samples / mc_total if mc_total else 0.0
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    out["symfunc.lr_coeff_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
