"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METADATA = json.loads((HERE / "workloads.json").read_text())
DEFAULT_SEED = 0


def test_workload_names_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == METADATA["benchmark_workloads"]
    assert set(names) <= set(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(METADATA["workloads"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_request_list_is_a_function_of_the_seed(name):
    def dump(seed, pass_index):
        return json.dumps(workloads.generate(name, seed, pass_index), sort_keys=True).encode()

    assert dump(11, 0) == dump(11, 0)
    assert dump(11, 2) == dump(11, 2)
    assert dump(11, 0) != dump(12, 0)
    assert dump(11, 0) != dump(11, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_stated_reuse_share_matches_generated_lists(name):
    stated = METADATA["workloads"][name]["reuse_share"]
    for seed in (0, 5):
        assert workloads.reuse_share(workloads.generate(name, seed, 0)) == pytest.approx(
            stated, abs=1e-4)


def _first_requests(count=6):
    reqs = []
    for name in workloads.WORKLOADS:
        reqs += [r for r in workloads.generate(name, 3, 0) if _cheap(r)][:count]
    return reqs


def _cheap(req):
    args = req["args"]
    if req["op"] == "mc":
        return args["N"] <= 8
    if req["op"] == "moment":
        return args["N"] <= 100
    if req["op"] == "cli":
        return args["argv"][0] == "compute"
    return req["op"] != "recipe"


def test_tracing_is_transparent_and_wraps_every_alias():
    reqs = _first_requests()
    plain = [workloads.execute(r) for r in reqs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in tracer.originals.items():
            for mod in tracing.lsrmt_modules():
                for key, value in vars(mod).items():
                    assert value is not original, f"{mod.__name__}.{key} escapes the trace"
            assert getattr(sys.modules[module_name], attr).__wrapped__ is original
        haar = sys.modules["lsrmt.haar"]
        assert haar.np.linalg.qr.__wrapped__ is __import__("numpy").linalg.qr
        assert haar.np.linalg.eigvals.__wrapped__ is __import__("numpy").linalg.eigvals

        def hook(functional, op):
            return tracer.timed_functional(functional, "haar.weyl_points" if op == "weyl" else None)

        traced = [workloads.execute(r, hook) for r in reqs]
    finally:
        tracer.uninstall()
    for (module_name, attr), original in tracer.originals.items():
        assert getattr(sys.modules[module_name], attr) is original
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert sum(tracer.calls) > 0
    assert tracer.counters.get("partitions.enum_items", 0) > 0


def test_recursion_collapses_into_the_outermost_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        partitions = sys.modules["lsrmt.partitions"]
        items = list(partitions.partitions_up_to(5))
    finally:
        tracer.uninstall()
    calls, self_s, total_s = tracer.stat("partitions.enum")
    assert tracer.counters["partitions.enum_items"] == len(items) == 19
    # one span per resumption of the outer generator, none for the inner ones
    assert calls == len(items) + 1
    assert self_s <= total_s


def _perturbed(req, value):
    value = copy.deepcopy(value)
    if req["op"] in ("mc", "mc_explicit"):
        # 20 standard errors, on the scale the oracle uses
        stderr = max(value["stderr"], workloads._exact_stderr(req["args"]) or 0.0, 1e-3)
        value["mean"][0] += 20 * stderr
    elif req["op"] == "weyl":
        value["value"][0] += 1e-3
    elif req["op"] == "moment":
        value[0] = str(int(value[0]) + 1)
    elif req["op"] == "cli":
        value["code"] = 1
    else:
        value[0] += 1e-3 * max(1.0, abs(value[0]))
    return value


def test_oracles_accept_answers_and_reject_wrong_ones():
    done = {}
    for req in _first_requests():
        value = workloads.execute(req)
        assert workloads.check(req, value, done) is None, req
        assert workloads.check(req, _perturbed(req, value), done) is not None, req
        done[req["id"]] = value


def test_schur_pair_oracle_uses_the_exact_variance():
    # s_21^2 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    assert workloads._schur_pair_second_moment((2, 1), (2, 1), 4) == 10
    assert workloads._schur_pair_second_moment((2, 1), (2, 1), 3) == 8
    # the warm-up of seed 32 has a sample stderr far below the exact one
    warm = workloads.warmup("mc_schur", 32)
    value = workloads.execute(warm)
    assert value["stderr"] < workloads._exact_stderr(warm["args"])
    assert workloads.check(warm, value, {}) is None


def test_a_failing_request_is_reported_not_fatal():
    import worker

    failures, results = [], []
    bad = {"id": "0-0", "op": "no_such_op", "args": {}}
    latencies = worker.run_pass([bad, workloads.warmup("closed_form", 0)], None, None,
                                failures, results)
    assert len(latencies) == 2 and results[0] is None and results[1] is not None
    assert [f["id"] for f in failures] == ["0-0"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_run_reports_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("commit", "nproc", "python", "numpy", "blas_threads"):
        assert key in info["environment"]


def test_quick_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "mc_schur", "--seed", str(DEFAULT_SEED), "--seconds", "2",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["haar.estimator_s"] + layers["haar.weyl_s"] > 0
    assert layers["haar.samples"] > 0 and layers["haar.weyl_points"] > 0


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
