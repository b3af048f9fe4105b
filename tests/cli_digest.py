"""Byte-identity check for CLI output: one sha256 per invocation.

Runs a fixed list of 95 invocations in-process through ``lsrmt.cli.main`` and
prints, per invocation, the sha256 of its exit code, stdout and stderr,
followed by the arguments.  An uncaught exception counts as exit code 1 with
its type and message on stderr.  Run it on two checkouts and compare the lines:

    PYTHONPATH=src python tests/cli_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_digest.py > before.txt
    diff before.txt after.txt

Not collected by pytest (the name does not start with ``test_``); the whole
list takes under a minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from lsrmt.cli import main

SUITES = ("ls-properties", "overlap-1", "overlap-2", "mn-all", "cauchy", "recipe-consistency")
# the benchmark's cli_identities instance counts (perfbench/workloads.py)
BENCH_INSTANCES = {"overlap-1": 250, "overlap-2": 200, "ls-properties": 100, "cauchy": 4,
                   "mn-all": 5}
MC_SMALL = ["--N", "4", "--M", "2000", "--seed", "5"]
MC_LOGDER = ["--N", "20", "--M", "1000", "--seed", "2", "--eps", "0.4", "--phi", "0.2+0.1j"]
MC_WIDE = ["--N", "20", "--M", "1000", "--seed", "2"]

INVOCATIONS = (
    [["verify", suite, "--seed", "0"] for suite in SUITES]
    + [["verify", "recipe-consistency", "--seed", "3"]]
    + [["verify", "subpartition", "--seed", "0"],
       ["verify", "subpartition", "--seed", "1", "--instances", "2"]]
    + [["verify", suite, "--seed", str(seed), "--instances", str(count)]
       for seed in (1, 2) for suite, count in BENCH_INSTANCES.items()]
    + [["mc", "--estimator", est, *MC_SMALL] for est in (
        "one", "trace", "abs_trace_sq", "abs_char_sq", "logder_pair", "completed_logder_pair",
        "explicit_sum", "schur_pair")]
    + [["mc", "--estimator", "ratio", *MC_SMALL,
        "--a", "0.7", "--b", "0.8", "--c", "0.3", "--d", "0.2"]]
    + [["mc", "--estimator", est, *MC_LOGDER] for est in ("logder_pair", "completed_logder_pair")]
    + [["compute", "logders-main", "--e", e, "--f", f] for e, f in (
        ("0.3", "0.4"), ("0.3,0.2+0.1j", "0.4,0.1"), ("0.3,0.2,0.1j", "0.2,0.25,-0.1"))]
    + [["compute", "completed-main", "--N", "8", "--e", e, "--f", f] for e, f in (
        ("0.3", "0.4"), ("0.3,0.2+0.1j", "0.4,0.1"), ("0.3,0.2", "0.4"))]
    + [["compute", "ratio-main", "--N", "6", "--a", "0.7,1.1j", "--b", "0.8",
        "--c", "0.3", "--d", "0.2,0.1j"]]
    + [["compute", "schur", f"--lambda={lam}", "--x=0.5,1.2j,-0.7+0.3j,0.9-0.4j",
        "--method", method] for lam in ("3,2,1", "4,1") for method in ("comb", "det")]
    + [["compute", "ls", "--lambda=3,2,1", "--x=0.5,1.2j", "--y=-0.7+0.3j,0.9-0.4j",
        "--method", method] for method in ("comb", "det")]
    # the combinatorial route at coincident variables and at a zero variable
    + [["compute", "ls", "--lambda=3,2,1", "--x=0.5,0.5", "--y=0,0.7", "--method", "comb"],
       ["compute", "ls", "--lambda=4,2,1", "--x=0.5,0.5,1.1j", "--y=0.7,0.7", "--method", "comb"]]
    + [["compute", "explicit-rhs", "--N", "8", *args] for args in (
        ["--n", "1", "--h", "rational:2"],
        ["--n", "2", "--h", "one", "--f-key", "sum", "--grid", "16"],
        ["--n", "2", "--h", "identity", "--f-key", "prod", "--r", "0.4", "--grid", "16"],
        ["--n", "3", "--h", "one", "--f-key", "sum", "--grid", "8"],
        ["--n", "3", "--h", "identity", "--f-key", "sum", "--grid", "8", "--r", "0.4"])]
    + [["compute", "moment", "--k", k, "--N", "5"] for k in ("1", "2", "3")]
    + [["compute", "overlap", "--mu", mu, "--nu", nu, "--m", m, "--n", n]
       for mu, nu, m, n in (("3,1", "2", "2", "1"), ("1", "1", "1", "1"), ("2,1", "1", "1", "1"))]
    + [["compute", "index", "--lambda", lam, "--m", "1", "--n", "1"] for lam in ("3,1", "3,3,1")]
    + [["compute", "lrcoeff", "--lambda", "3,2,1", "--mu", "2,1", "--nu", nu]
       for nu in ("2,1", "3")]
    + [["mc", "--estimator", "explicit_sum", *MC_SMALL, "--h", "rational:2"],
       ["mc", "--estimator", "logder_pair", *MC_SMALL, "--workers", "2"]]
    # the exit-2 paths: a truncation tail bound, an unread parameter, an unknown suite,
    # a negative part cap, a part cap of 0 at rho = 0, the combinatorial size cap
    + [["compute", "logders-main", "--e", "0.9", "--f", "0.9", "--part-cap", "5"],
       ["mc", "--estimator", "abs_char_sq", *MC_SMALL, "--eps", "0.4"],
       ["verify", "nosuch"]]
    + [["compute", target, "--e", "0.3", "--f", "0.3", "--part-cap", "-1"]
       for target in ("logders-main", "completed-main")]
    + [["compute", "logders-main", "--e", "0", "--f", "0.3", "--part-cap", "0"],
       ["compute", "ls", "--lambda", "21", "--x", "0.5", "--y", "0.7", "--method", "comb"]]
    # zero standard error on the prediction (z 0); a negative N (exit 2)
    + [["mc", "--estimator", est, "--N", "0", "--M", "100"]
       for est in ("logder_pair", "completed_logder_pair")]
    + [["mc", "--estimator", est, "--N", "-1", "--M", "100"] for est in ("ratio", "logder_pair")]
)
# the csv and text renderings of one compute, one mc and one verify payload
INVOCATIONS += [
    ["--output", output, *argv]
    for output in ("csv", "text")
    for argv in (["compute", "moment", "--k", "2", "--N", "5"],
                 ["mc", "--estimator", "abs_char_sq", *MC_SMALL],
                 ["verify", "cauchy", "--seed", "0"])
]
# an mc payload at zero stderr in csv; lists in csv (quoted JSON cells); the failure
# reports of mn-all and of the three one-stack suites, each failure with its error (exit 1)
INVOCATIONS += [
    ["--output", "csv", "mc", "--estimator", "logder_pair", "--N", "0", "--M", "100"],
    ["--output", "csv", "compute", "schur", "--lambda", "3,2,1", "--x", "0.5,0.7",
     "--method", "comb"],
    ["verify", "mn-all", "--seed", "2", "--instances", "5", "--tolerance", "1e-30"],
]
INVOCATIONS += [["verify", suite, "--seed", "1", "--tolerance", "1e-30"]
                for suite in ("overlap-1", "overlap-2", "ls-properties")]
# exit 2: a run of no instances, a NaN tolerance, a negative matrix size
INVOCATIONS += [
    ["verify", "overlap-1", "--instances", "-5"],
    ["verify", "cauchy", "--instances", "-5"],
    ["verify", "ls-properties", "--tolerance", "nan"],
    ["compute", "completed-main", "--e", "0.3", "--f", "0.3", "--N", "-4"],
    ["compute", "explicit-rhs", "--n", "1", "--h", "rational:2", "--N", "-8"],
]
# the log-derivative predictions past the main term's tail bound (|eps phi| = 0.64)
# and off the unit disc (no prediction, no z); abs_char_sq's N + 1 at a point of the circle
INVOCATIONS += [
    ["mc", "--estimator", est, *MC_WIDE, "--eps", eps, "--phi", phi]
    for eps, phi in (("0.8", "0.8"), ("1.5", "0.3"))
    for est in ("logder_pair", "completed_logder_pair")
]
INVOCATIONS += [["mc", "--estimator", "abs_char_sq", "--N", "10", "--M", "1000", "--seed", "2",
                 "--z", "1j"]]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:
            # an uncaught exception: the interpreter would exit 1 with a traceback
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    payload = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(payload.encode()).hexdigest()


if __name__ == "__main__":
    for argv in INVOCATIONS:
        print(digest(argv), " ".join(argv))
