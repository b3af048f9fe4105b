import csv
import json
import subprocess
import sys

import pytest

from lsrmt import cli
from lsrmt.cli import main
from lsrmt.haar import make_estimator


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


def test_compute_moment(capsys):
    code, payload = run_json(["compute", "moment", "--k", "2", "--N", "2"], capsys)
    assert code == 0
    assert payload["schema"] == "ls-rmt/1"
    assert payload["result"] == {"numerator": 20, "denominator": 1}


def test_compute_overlap_worked_example(capsys):
    code, payload = run_json(
        ["compute", "overlap", "--mu", "9,6,1", "--nu", "4,3,3,2", "--m", "3", "--n", "5"],
        capsys,
    )
    assert code == 0
    assert payload["result"] == {"result": [4, 2, 2, 2, 2, 1], "sign": -1}


def test_compute_overlap_infinite(capsys):
    code, payload = run_json(
        ["compute", "overlap", "--mu", "10,8,1", "--nu", "4,2,2", "--m", "3", "--n", "6"],
        capsys,
    )
    assert code == 0
    assert payload["result"] == {"result": "infinite", "sign": 1}


def test_compute_index_worked_example(capsys):
    code, payload = run_json(
        ["compute", "index", "--lambda", "7,4,2,2", "--m", "6", "--n", "3"], capsys
    )
    assert code == 0
    assert payload["result"] == 2


def test_compute_schur(capsys):
    code, payload = run_json(
        ["compute", "schur", "--lambda", "2", "--x", "1,1", "--method", "comb"], capsys
    )
    assert code == 0
    assert payload["result"]["re"] == pytest.approx(3)


def test_compute_lrcoeff(capsys):
    code, payload = run_json(
        ["compute", "lrcoeff", "--lambda", "2,1", "--mu", "2", "--nu", "1"], capsys
    )
    assert code == 0
    assert payload["result"] == 1


def test_compute_logders_main(capsys):
    code, payload = run_json(
        ["compute", "logders-main", "--e", "0.3", "--f", "0.3"], capsys
    )
    assert code == 0
    assert payload["result"]["re"] == pytest.approx(1 / (1 - 0.09) ** 2)
    assert payload["truncation"]["P"] == 60


def test_compute_explicit_rhs(capsys):
    code, payload = run_json(
        [
            "compute", "explicit-rhs", "--h", "one", "--f-key", "one",
            "--n", "1", "--r", "0.6", "--N", "5", "--grid", "16",
        ],
        capsys,
    )
    assert code == 0
    assert payload["result"]["re"] == pytest.approx(5)


def test_bad_partition_exits_2(capsys):
    code, out = run_cli(["compute", "schur", "--lambda", "2,x", "--x", "1"], capsys)
    assert code == 2
    assert "error" in json.loads(out)


def test_nondecreasing_partition_exits_2(capsys):
    code, out = run_cli(["compute", "index", "--lambda", "1,3", "--m", "1", "--n", "1"], capsys)
    assert code == 2


def test_unknown_estimator_exits_2(capsys):
    code, out = run_cli(["mc", "--estimator", "nope", "--N", "2", "--M", "100"], capsys)
    assert code == 2


def test_mc_refuses_parameters_the_estimator_does_not_read(capsys):
    args = ["mc", "--estimator", "abs_char_sq", "--N", "4", "--M", "1000"]
    code, payload = run_json([*args, "--eps", "0.4", "--a", "0.3"], capsys)
    assert code == 2
    assert set(payload) == {"schema", "error"}
    assert payload["error"].endswith("does not read a, eps")
    code, payload = run_json([*args, "--z", "0.6+0.8j"], capsys)
    assert code == 0
    assert payload["config"]["params"] == {"z": {"re": 0.6, "im": 0.8}}


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_mc_nonpositive_workers_exit_2(workers, capsys):
    code, payload = run_json(
        ["mc", "--estimator", "trace", "--N", "2", "--M", "100", "--workers", workers], capsys
    )
    assert code == 2
    assert set(payload) == {"schema", "error"}
    assert "workers" in payload["error"]


@pytest.mark.parametrize("estimator", ["ratio", "logder_pair", "trace"])
def test_mc_negative_n_exits_2(estimator, capsys):
    code, payload = run_json(["mc", "--estimator", estimator, "--N", "-1", "--M", "100"], capsys)
    assert code == 2
    assert payload["error"] == "N must be non-negative, got -1"


def _predict_off_by_one(monkeypatch):
    """Make cmd_mc's estimators predict their exact mean plus 1."""
    def make(name, big_n, **params):
        est = make_estimator(name, big_n, **params)
        est.prediction += 1
        return est

    monkeypatch.setattr(cli, "make_estimator", make)


@pytest.mark.parametrize("estimator, z_score", [
    ("logder_pair", 0.0), ("completed_logder_pair", 0.0), ("abs_char_sq", 0.0),
    ("logder_pair", None),
])
def test_mc_zero_stderr_z_score(estimator, z_score, capsys, monkeypatch):
    # at N = 0 every sample is the same value, the exact mean: a hit has z 0,
    # and a prediction moved off it has no finite z
    if z_score is None:
        _predict_off_by_one(monkeypatch)
    code, payload = run_json(["mc", "--estimator", estimator, "--N", "0", "--M", "100"], capsys)
    assert code == 0 and payload["estimate"]["stderr"] == 0
    assert payload["z_score"] == z_score
    assert (payload["prediction"]["re"] == payload["estimate"]["mean_re"]) == (z_score == 0)


@pytest.mark.parametrize("eps, phi", [("0.8", "0.8"), ("1.5", "0.3")])
@pytest.mark.parametrize("estimator", ["logder_pair", "completed_logder_pair"])
def test_mc_logder_prediction_inside_and_outside_the_disc(estimator, eps, phi, capsys):
    # |eps phi| = 0.64 is past the main term's tail bound at its default part
    # cap, but the exact mean needs no truncation; off the disc there is none
    args = ["mc", "--estimator", estimator, "--N", "20", "--M", "1000", "--seed", "2",
            "--eps", eps, "--phi", phi]
    code, payload = run_json(args, capsys)
    assert code == 0
    if float(eps) < 1:
        assert payload["z_score"] < 4
    else:
        assert "prediction" not in payload and "z_score" not in payload


def test_verify_suite_pass(capsys):
    code, payload = run_json(
        ["verify", "overlap-1", "--seed", "7", "--instances", "10"], capsys
    )
    assert code == 0
    assert payload["report"]["pass"] is True


def test_verify_unknown_suite(capsys):
    code, out = run_cli(["verify", "bogus"], capsys)
    assert code == 2


@pytest.mark.parametrize("suite, flag, value, error", [
    ("overlap-1", "--instances", "-5", "instances must be at least 1, got -5"),
    ("cauchy", "--instances", "-5", "instances must be at least 1, got -5"),
    ("ls-properties", "--instances", "0", "instances must be at least 1, got 0"),
    ("ls-properties", "--tolerance", "nan", "tolerance must be a finite number >= 0, got nan"),
    ("overlap-2", "--tolerance", "inf", "tolerance must be a finite number >= 0, got inf"),
    ("mn-all", "--tolerance", "-1", "tolerance must be a finite number >= 0, got -1.0"),
])
def test_verify_refuses_empty_runs_and_unusable_tolerances(suite, flag, value, error, capsys):
    # a run of no instances checks nothing, and no error exceeds a NaN tolerance
    code, payload = run_json(["verify", suite, "--seed", "1", flag, value], capsys)
    assert code == 2
    assert payload == {"schema": "ls-rmt/1", "error": error}


@pytest.mark.parametrize("args", [
    ["completed-main", "--e", "0.3", "--f", "0.3", "--N", "-4"],
    ["explicit-rhs", "--n", "1", "--h", "rational:2", "--N", "-4"],
])
def test_compute_negative_n_exits_2(args, capsys):
    code, payload = run_json(["compute", *args], capsys)
    assert code == 2
    assert payload["error"] == "N must be non-negative, got -4"


@pytest.mark.parametrize("instances", ["50", "1"])
def test_recipe_consistency_refuses_other_instance_counts(instances, capsys):
    # the suite has exactly 3 checks; its report must not claim more or fewer
    code, payload = run_json(
        ["verify", "recipe-consistency", "--seed", "3", "--instances", instances], capsys
    )
    assert code == 2
    assert set(payload) == {"schema", "error"}


def test_verify_subpartition_passes_at_defaults(capsys):
    code, payload = run_json(["verify", "subpartition"], capsys)
    assert code == 0
    report = payload["report"]
    assert report["pass"] is True and report["failures"] == []
    assert report["identity"] == "subpartition-form"
    assert report["instances"] > 0


def test_verify_subpartition_fails_at_impossible_tolerance(capsys):
    code, payload = run_json(["verify", "subpartition", "--tolerance", "1e-30"], capsys)
    assert code == 1
    assert payload["report"]["pass"] is False
    assert payload["report"]["failures"]


@pytest.mark.parametrize(
    "suite,instances,keys",
    [
        ("ls-properties", "2", {"property", "lam", "err"}),
        ("overlap-1", "3", {"lam", "mu", "nu", "l", "err"}),
        ("overlap-2", "3", {"lam", "l", "m", "n", "err"}),
        ("subpartition", "1", {"kappa", "m", "n", "l", "err"}),
        ("mn-all", "5", {"check", "mu", "k", "err"}),
        ("cauchy", "1", {"check", "err"}),
        ("recipe-consistency", "3", {"check", "err"}),
    ],
)
def test_verify_failure_reports(suite, instances, keys, capsys):
    args = ["verify", suite, "--seed", "2", "--instances", instances]
    code, payload = run_json(args, capsys)
    assert code == 0
    passing = payload["report"]
    code, payload = run_json([*args, "--tolerance", "1e-30"], capsys)
    assert code == 1
    report = payload["report"]
    assert report["pass"] is False
    assert 1 <= len(report["failures"]) <= 5
    assert [set(f) for f in report["failures"]] == [keys] * len(report["failures"])
    # the tolerance decides what fails, never what is measured
    assert (report["max_rel_err"], report["instances"]) == (
        passing["max_rel_err"], passing["instances"]
    )


def test_verify_subpartition_instances_draw_more_points(capsys):
    checks = []
    for instances in ("1", "2"):
        code, payload = run_json(
            ["verify", "subpartition", "--seed", "5", "--instances", instances], capsys
        )
        assert code == 0
        checks.append(payload["report"]["instances"])
    assert checks[1] > checks[0]


def test_mc_with_prediction(capsys):
    code, payload = run_json(
        ["mc", "--estimator", "abs_char_sq", "--N", "3", "--M", "2000", "--seed", "42"],
        capsys,
    )
    assert code == 0
    assert payload["prediction"]["re"] == pytest.approx(4)
    assert payload["z_score"] < 5


def test_byte_identical_reruns():
    cmd = [
        sys.executable, "-m", "lsrmt.cli",
        "mc", "--estimator", "trace", "--N", "3", "--M", "500", "--seed", "9",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b
    c = subprocess.run(
        [
            sys.executable, "-m", "lsrmt.cli",
            "verify", "cauchy", "--seed", "3", "--instances", "4",
        ],
        capture_output=True, check=True,
    ).stdout
    d = subprocess.run(
        [
            sys.executable, "-m", "lsrmt.cli",
            "verify", "cauchy", "--seed", "3", "--instances", "4",
        ],
        capture_output=True, check=True,
    ).stdout
    assert c == d


def test_csv_and_text_outputs(capsys):
    code, out = run_cli(
        ["--output", "csv", "compute", "moment", "--k", "1", "--N", "2"], capsys
    )
    assert code == 0
    header, row = out.split("\n")
    assert "result.numerator" in header
    code, out = run_cli(
        ["--output", "text", "compute", "moment", "--k", "1", "--N", "2"], capsys
    )
    assert code == 0
    assert "result" in out


def test_csv_renders_null_as_empty_field(capsys, monkeypatch):
    # at N = 0 the standard error is 0 and the mean misses the moved prediction: z is null
    _predict_off_by_one(monkeypatch)
    args = ["mc", "--estimator", "logder_pair", "--N", "0", "--M", "100"]
    code, payload = run_json(args, capsys)
    assert code == 0 and payload["z_score"] is None
    code, out = run_cli(["--output", "csv", *args], capsys)
    assert code == 0
    header, row = out.split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["z_score"] == ""
    assert "None" not in row


def test_csv_quotes_list_values_as_json(capsys):
    # lists (the partition, the variables) hold commas: one quoted JSON cell each
    args = ["compute", "schur", "--lambda", "3,2,1", "--x", "0.5,0.7", "--method", "comb"]
    code, payload = run_json(args, capsys)
    assert code == 0
    code, out = run_cli(["--output", "csv", *args], capsys)
    assert code == 0
    header, row = csv.reader(out.split("\n"))
    assert len(row) == len(header) == 8
    fields = dict(zip(header, row))
    assert json.loads(fields["config.lambda"]) == payload["config"]["lambda"] == [3, 2, 1]
    assert json.loads(fields["config.x"]) == payload["config"]["x"]
    assert fields["config.lambda"] == "[3,2,1]"
    assert (fields["result.re"], fields["schema"]) == ("0.0", "ls-rmt/1")


def test_stray_key_error_is_not_a_usage_error(monkeypatch, capsys):
    # no program path raises KeyError on purpose: one from a bug fails loudly
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "run_suite", broken)
    with pytest.raises(KeyError):
        main(["verify", "cauchy"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "logders-main", "--e", "0.999", "--f", "0.999"],
        [
            "compute", "explicit-rhs", "--h", "rational:1.0001", "--n", "1",
            "--N", "8", "--r", "0.9999", "--grid", "4",
        ],
        [
            "compute", "explicit-rhs", "--h", "rational:2", "--f-key", "sum",
            "--n", "3", "--r", "0.6", "--N", "8", "--grid", "16",
        ],
        ["compute", "logders-main", "--e", "0.3", "--f", "0.3", "--part-cap", "-1"],
        ["compute", "completed-main", "--e", "0.3", "--f", "0.3", "--part-cap", "-1"],
        ["compute", "logders-main", "--e", "0", "--f", "0.3", "--part-cap", "0"],
    ],
    ids=[
        "truncation", "quadrature", "quadrature-mesh-cap",
        "negative-part-cap-logders", "negative-part-cap-completed", "zero-part-cap-at-rho-0",
    ],
)
def test_numeric_failure_exits_2_with_json_error(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"schema", "error"}
    assert captured.err == ""


REUSE_INVOCATIONS = [
    ["verify", "overlap-1", "--seed", "4", "--instances", "12"],
    ["verify", "overlap-2", "--seed", "4", "--instances", "12"],
    ["verify", "ls-properties", "--seed", "4", "--instances", "6"],
    ["verify", "cauchy", "--seed", "4", "--instances", "2"],
    ["verify", "mn-all", "--seed", "4", "--instances", "2"],
    ["compute", "schur", "--lambda", "3,1", "--x", "0.3+0.1j,1.1,-0.7j", "--method", "comb"],
    ["compute", "ls", "--lambda", "2,2,1", "--x", "0.3+0.1j,1.1", "--y=-0.7j,0.5",
     "--method", "comb"],
    ["compute", "no-such-target"],
    ["--output", "text", "compute", "lrcoeff", "--lambda", "3,2,1", "--mu", "2,1",
     "--nu", "2,1"],
]


def test_in_process_reuse_matches_fresh_processes(capsys):
    # the parser and the shape-keyed plans outlive a main() call; a run must
    # print what a fresh interpreter prints, whatever ran before it
    fresh = []
    for args in REUSE_INVOCATIONS:
        proc = subprocess.run(
            [sys.executable, "-m", "lsrmt.cli", *args], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [0] * 7 + [2, 0]
    for order in (range(len(fresh)), reversed(range(len(fresh)))):
        for i in order:
            code = main(REUSE_INVOCATIONS[i])
            assert (code, capsys.readouterr().out) == fresh[i], REUSE_INVOCATIONS[i]
