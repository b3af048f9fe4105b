"""Seeded request lists, their execution against lsrmt, and per-request oracles.

A workload run is a closed loop with one client: it executes one pass (a list
of requests generated from ``(seed, workload, pass index)``) after another,
each request issued when the previous one has returned.  Every pass of a
workload has the same mix of operations and sizes; the seed draws the points,
the partitions and the per-request Monte Carlo seeds.

Requests are plain JSON data ``{"id", "op", "args"}``; complex numbers are
stored as ``[re, im]``.  ``execute`` calls lsrmt's public functions through
module attributes looked up at call time, so a tracer that rebinds them sees
every call.  ``check`` compares a result with a second route, using the fixed
thresholds below.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from lsrmt import cli, haar, partitions, rmt, symfunc

WORKLOADS = ("mc_charpoly", "mc_schur", "closed_form", "cli_identities")

# Oracle thresholds: part of the benchmark, identical on every commit.
Z_MAX = 7.0  # Monte Carlo |mean - prediction| / stderr
WEYL_TOL = 1e-6  # Weyl quadrature against the exact Schur orthogonality
EXACT_TOL = 1e-9  # closed forms against an analytic second route
ROUTE_TOL = 1e-7  # two numerical routes (det/comb, schur/split, recipe)

MC_SEED_RANGE = 2 ** 31
WARMUP_STREAM = 2 ** 31 - 1  # seed-sequence key of the warm-up; passes count from 0
RECIPE_CAP = 16  # recipe_main part and size caps: small, yet converged at these points


def cx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def uncx(v) -> complex:
    return complex(v[0], v[1])


def _vars(values) -> tuple[complex, ...]:
    return tuple(uncx(v) for v in values)


def _point(rng, rmin, rmax) -> complex:
    radius = rng.uniform(rmin, rmax)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _points(rng, count, rmin, rmax, avoid=(), min_sep=0.1) -> list[list[float]]:
    """Points in an annulus, pairwise at least ``min_sep`` apart (and from avoid)."""
    out: list[complex] = []
    taken = [uncx(v) for v in avoid]
    while len(out) < count:
        z = _point(rng, rmin, rmax)
        if all(abs(z - w) >= min_sep for w in taken):
            out.append(z)
            taken.append(z)
    return [cx(z) for z in out]


def _partition_of(rng, size) -> tuple[int, ...]:
    pool = list(partitions.partitions_of(size))
    return pool[int(rng.integers(len(pool)))]


def _partition_up_to(rng, size, max_len=None) -> tuple[int, ...]:
    pool = list(partitions.partitions_up_to(size, max_len=max_len))
    return pool[int(rng.integers(len(pool)))]


def _seed(rng) -> int:
    return int(rng.integers(MC_SEED_RANGE))


# |mu| = |nu| = 4: two unequal pairs (prediction 0) and one equal pair (prediction 1)
SCHUR_PAIRS = (((4,), (1, 1, 1, 1)), ((3, 1), (2, 1, 1)), ((2, 2), (2, 2)))


# -- generators ------------------------------------------------------------------

def _mc(rng, estimator, big_n, samples, **params):
    return {"op": "mc", "args": {"estimator": estimator, "N": big_n, "M": samples,
                                 "seed": _seed(rng), "params": params}}


def gen_mc_charpoly(rng):
    """20 requests; N = 50 is the top fifth, so p90 falls inside one cost class."""
    reqs = []
    for _ in range(4):
        reqs.append(_mc(rng, "abs_char_sq", 3, 1000, z=cx(_point(rng, 1.0, 1.0))))
    for _ in range(4):
        reqs.append(_mc(rng, "abs_char_sq", 10, 300, z=cx(_point(rng, 1.0, 1.0))))
    for _ in range(4):
        a, b = _points(rng, 2, 0.5, 0.9)
        c, d = _points(rng, 2, 0.1, 0.5)
        reqs.append(_mc(rng, "ratio", 10, 300, a=[a], b=[b], c=[c], d=[d]))
    # Short requests: the per-position minimum over many passes then filters
    # out the host's intermittent slow spells (see run.best_latencies).
    for big_n, samples in ((20, 200), (50, 100)):
        for estimator in ("logder_pair", "completed_logder_pair") * 2:
            eps, phi = _points(rng, 2, 0.1, 0.6, min_sep=0.0)
            reqs.append(_mc(rng, estimator, big_n, samples, eps=eps, phi=phi))
    return reqs


def gen_mc_schur(rng):
    """29 requests: N = 9 and 10 are the slowest seventh, N = 7 the middle fifth."""
    reqs = []
    # The shapes are fixed so that every pass costs the same: evaluation cost
    # depends on the shapes (the distinct permutations of each monomial), so
    # the seed only orders each unequal pair and draws the Monte Carlo seeds.
    for big_n in (4, 5, 6, 7, 7, 8, 9):
        for pair in SCHUR_PAIRS:
            mu, nu = pair if rng.integers(2) else pair[::-1]
            reqs.append(_mc(rng, "schur_pair", big_n, 200, mu=list(mu), nu=list(nu)))
    nu = [1] if rng.integers(2) else []
    reqs.append(_mc(rng, "schur_pair", 10, 100, mu=[1], nu=nu))
    for big_n in (3, 5):
        reqs.append(_mc(rng, "trace", big_n, 1000))
        reqs.append(_mc(rng, "abs_trace_sq", big_n, 1000))
    # the pole c must lie outside the contour circle of radius 1/r
    c = 2.2 + float(rng.uniform(0.0, 1.0))
    reqs.append({"op": "mc_explicit", "args": {"N": 8, "M": 1000, "seed": _seed(rng),
                                               "c": c, "r": 0.6}})
    for big_n in (2, 3):
        pool = list(partitions.partitions_of(big_n, max_len=big_n))
        mu, nu = (pool[int(i)] for i in rng.integers(len(pool), size=2))
        reqs.append({"op": "weyl", "args": {"N": big_n, "mu": list(mu), "nu": list(nu)}})
    return reqs


def gen_closed_form(rng):
    """Parameter sweeps over N at points drawn once per sweep."""
    reqs = []

    def add(op, **args):
        reqs.append({"op": op, "args": args})

    e1, f1 = _points(rng, 2, 0.1, 0.6, min_sep=0.0)
    for big_n in (4, 8, 16, 32):
        add("completed", E=[e1], F=[f1], N=big_n, part_cap=60)
    e2 = _points(rng, 2, 0.1, 0.3)
    f2 = _points(rng, 2, 0.1, 0.3)
    for big_n in (4, 8, 16, 32):
        add("completed", E=e2, F=f2, N=big_n, part_cap=20)
    add("logders", E=[e1], F=[f1], part_cap=60)
    add("logders", E=e2, F=f2, part_cap=30)
    add("logders", E=_points(rng, 3, 0.1, 0.25), F=_points(rng, 3, 0.1, 0.25), part_cap=18)
    r = float(rng.uniform(0.5, 0.7))
    c = 2.2 + float(rng.uniform(0.0, 1.0))
    for big_n in (4, 8, 16, 32):
        add("explicit", h=f"rational:{c!r}", n=1, r=r, N=big_n)
    for big_n in (4, 8):
        add("explicit", h="one", n=2, r=r, N=big_n)
    for k in (1, 2, 3):
        for big_n in (25, 100, 400):
            add("moment", k=k, N=big_n)
    add("moment", k=int(rng.integers(1, 4)), N=1600)
    a, b = _points(rng, 2, 0.8, 1.2)
    c_, d = _points(rng, 2, 0.1, 0.3)
    for big_n in (4, 8, 16):
        add("ratio", a=[a], b=[b], c=[c_], d=[d], N=big_n)
    for big_n in (4, 8, 16):
        add("recipe", a=[a], b=[b], c=[c_], d=[d], e=[], f=[], N=big_n,
            part_cap=RECIPE_CAP, size_cap=RECIPE_CAP)
    for big_n in (8, 10, 12, 14, 16):
        add("recipe", a=[], b=[], c=[], d=[], e=[e2[0]], f=[f2[0]], N=big_n,
            part_cap=RECIPE_CAP, size_cap=RECIPE_CAP)
    pa = _points(rng, 2, 0.5, 1.5)
    pb = _points(rng, 2, 0.5, 1.5, avoid=pa)
    for big_n in (4, 8):
        for form in ("schur", "split_sum"):
            add("product", A=pa, B=pb, N=big_n, form=form)
    return reqs


def _cli(argv, agree_with_previous=False):
    """A CLI request; the comb half of a det/comb pair must agree with the det half."""
    args = {"argv": argv}
    if agree_with_previous:
        args["agree_with_previous"] = True
    return {"op": "cli", "args": args}


def _arg_list(values) -> str:
    return ",".join(repr(uncx(v)).strip("()") for v in values)


def _arg_part(lam) -> str:
    return ",".join(str(p) for p in lam)


# Instance counts that give the five suites similar run times, so that the
# five verify runs (the top quarter of the mix) put p90 inside one cost class.
VERIFY_INSTANCES = {"overlap-1": 250, "overlap-2": 200, "ls-properties": 100, "cauchy": 4,
                    "mn-all": 5}


def gen_cli_identities(rng):
    """20 CLI invocations; the five verify runs are the slow quarter.

    The pass is short (under a second) so that each position runs many times
    in a run: the per-position minimum (run.best_latencies) then more often
    includes a moment when the shared host is not contended.
    """
    reqs = []
    for suite, instances in VERIFY_INSTANCES.items():
        reqs.append(_cli(["verify", suite, "--seed", str(_seed(rng)),
                          "--instances", str(instances)]))
    for _ in range(2):
        lam = _partition_up_to(rng, 6, max_len=4)
        xs = _points(rng, 4, 0.3, 1.5)
        for method in ("det", "comb"):
            reqs.append(_cli(["compute", "schur", f"--lambda={_arg_part(lam)}",
                              f"--x={_arg_list(xs)}", "--method", method],
                             agree_with_previous=method == "comb"))
    for _ in range(2):
        lam = _partition_up_to(rng, 6)
        xs = _points(rng, 2, 0.3, 1.5)
        ys = _points(rng, 2, 0.3, 1.5, avoid=xs)
        # README convention: det evaluates LS(-X; Y), so comb gets -X
        neg_xs = [cx(-uncx(v)) for v in xs]
        reqs.append(_cli(["compute", "ls", f"--lambda={_arg_part(lam)}", f"--x={_arg_list(xs)}",
                          f"--y={_arg_list(ys)}", "--method", "det"]))
        reqs.append(_cli(["compute", "ls", f"--lambda={_arg_part(lam)}",
                          f"--x={_arg_list(neg_xs)}", f"--y={_arg_list(ys)}", "--method", "comb"],
                         agree_with_previous=True))
    for _ in range(2):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        mu = _partition_up_to(rng, 8, max_len=m)
        nu = _partition_up_to(rng, 8, max_len=n)
        reqs.append(_cli(["compute", "overlap", f"--mu={_arg_part(mu)}", f"--nu={_arg_part(nu)}",
                          "--m", str(m), "--n", str(n)]))
    for _ in range(2):
        lam = _partition_up_to(rng, 12)
        m, n = (str(int(v)) for v in rng.integers(1, 7, size=2))
        reqs.append(_cli(["compute", "index", f"--lambda={_arg_part(lam)}", "--m", m, "--n", n]))
    for _ in range(3):
        lam = _partition_of(rng, int(rng.integers(4, 9)))
        size = sum(lam)
        mu = _partition_up_to(rng, size)
        nu = _partition_of(rng, size - sum(mu))
        reqs.append(_cli(["compute", "lrcoeff", f"--lambda={_arg_part(lam)}",
                          f"--mu={_arg_part(mu)}", f"--nu={_arg_part(nu)}"]))
    return reqs


GENERATORS = {
    "mc_charpoly": gen_mc_charpoly,
    "mc_schur": gen_mc_schur,
    "closed_form": gen_closed_form,
    "cli_identities": gen_cli_identities,
}

# The untimed request each set-up ends with: the cheapest kind in the mix.
WARMUPS = {
    "mc_charpoly": lambda rng: _mc(rng, "abs_char_sq", 3, 1000, z=cx(1.0)),
    "mc_schur": lambda rng: _mc(rng, "schur_pair", 4, 200, mu=[2, 1], nu=[2, 1]),
    "closed_form": lambda rng: {"op": "logders", "args": {"E": [cx(0.3)], "F": [cx(0.3)],
                                                          "part_cap": 60}},
    "cli_identities": lambda rng: _cli(["compute", "index", "--lambda=3,1", "--m", "2",
                                        "--n", "2"]),
}


def _rng(seed: int, workload: str, pass_index: int):
    ss = np.random.SeedSequence((seed, WORKLOADS.index(workload), pass_index))
    return np.random.default_rng(ss)


def generate(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The request list of one pass; ids are ``<pass>-<position>``."""
    reqs = GENERATORS[workload](_rng(seed, workload, pass_index))
    for i, req in enumerate(reqs):
        req["id"] = f"{pass_index}-{i}"
    return reqs


def warmup(workload: str, seed: int) -> dict:
    req = WARMUPS[workload](_rng(seed, workload, WARMUP_STREAM))
    req["id"] = "warmup"
    return req


def point_key(req):
    """The floating-point inputs of a request (ints, seeds and strings excluded)."""
    out = []

    def walk(v):
        if isinstance(v, float):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)
        elif isinstance(v, dict):
            for k in sorted(v):
                walk(v[k])
        elif isinstance(v, str) and req["op"] == "cli" and _is_point_token(v):
            out.append(v)

    args = dict(req["args"])
    args.pop("seed", None)
    walk(args)
    return tuple(out)


def reuse_share(reqs) -> float:
    """Share of requests whose points an earlier request of the same op used."""
    seen, reused = set(), 0
    for req in reqs:
        pts = point_key(req)
        if not pts:
            continue
        key = (req["op"], _op_detail(req), pts)
        reused += key in seen
        seen.add(key)
    return reused / len(reqs)


def _op_detail(req):
    """For CLI requests, the invocation with its point arguments left out."""
    if req["op"] == "cli":
        return tuple(t for t in req["args"]["argv"] if not _is_point_token(t))
    return None


def _is_point_token(token: str) -> bool:
    return any(ch in token for ch in ".j")


# -- execution ----------------------------------------------------------------------

def execute(req, functional_hook=None):
    """Run one request; returns JSON-able data that the oracle checks.

    ``functional_hook(estimator, op)`` may replace the estimator handed to
    ``mc_average`` or ``weyl_quadrature`` by a callable that returns the same
    values; the traced run uses it to time estimator evaluation.
    """
    op, a = req["op"], req["args"]
    hook = functional_hook or (lambda functional, op: functional)
    if op == "mc":
        params = {}
        for key, val in a["params"].items():
            if key in ("mu", "nu"):
                params[key] = tuple(val)
            elif key in ("a", "b", "c", "d"):
                params[key] = _vars(val)
            else:
                params[key] = uncx(val)
        est = haar.make_estimator(a["estimator"], a["N"], **params)
        out = haar.mc_average(hook(est, op), a["N"], a["M"], a["seed"], workers=1)
        return _mc_value(out, est.prediction)
    if op == "mc_explicit":
        h = f"rational:{a['c']!r}"
        est = haar.make_estimator("explicit_sum", a["N"], h=h)
        out = haar.mc_average(hook(est, op), a["N"], a["M"], a["seed"], workers=1)
        pred = rmt.explicit_formula_rhs(rmt.catalog_function(h), rmt.catalog_symmetric("one", 1),
                                        1, a["r"], a["N"])
        return _mc_value(out, pred)
    if op == "weyl":
        est = haar.make_estimator("schur_pair", a["N"], mu=tuple(a["mu"]), nu=tuple(a["nu"]))
        value = haar.weyl_quadrature(hook(est, op), a["N"])
        return {"value": cx(value), "prediction": cx(est.prediction)}
    if op == "completed":
        return cx(rmt.completed_logders_main(_vars(a["E"]), _vars(a["F"]), a["N"],
                                             part_cap=a["part_cap"]))
    if op == "logders":
        return cx(rmt.logders_main(_vars(a["E"]), _vars(a["F"]), part_cap=a["part_cap"]))
    if op == "explicit":
        value = rmt.explicit_formula_rhs(rmt.catalog_function(a["h"]),
                                         rmt.catalog_symmetric("one", a["n"]),
                                         a["n"], a["r"], a["N"])
        return cx(value)
    if op == "moment":
        value = rmt.moment_unitary(a["k"], a["N"])
        return [str(value.numerator), str(value.denominator)]
    if op == "ratio":
        return cx(rmt.ratio_avg(_vars(a["a"]), _vars(a["b"]), _vars(a["c"]), _vars(a["d"]), a["N"]))
    if op == "recipe":
        inp = rmt.RecipeInput(*(_vars(a[k]) for k in "abcdef"), a["N"])
        return cx(rmt.recipe_main(inp, part_cap=a["part_cap"], size_cap=a["size_cap"]))
    if op == "product":
        return cx(rmt.product_avg(_vars(a["A"]), _vars(a["B"]), a["N"], form=a["form"]))
    if op == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(a["argv"]))
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    raise ValueError(f"unknown op {op!r}")


def _mc_value(out, prediction):
    return {"mean": cx(out.mean), "stderr": out.stderr, "samples": out.samples,
            "rejected": out.rejected,
            "prediction": None if prediction is None else cx(prediction)}


# -- oracles ------------------------------------------------------------------------

def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _g(x):
    """sum_{a >= 1} a x^a."""
    return x / (1 - x) ** 2


def _matchings(e_vars, f_vars, weight):
    """sum over partial matchings of size k of prod weight(e_i f_j), by k."""
    ne, nf = len(e_vars), len(f_vars)
    out = [0j] * (min(ne, nf) + 1)
    for k in range(len(out)):
        for rows in itertools.combinations(range(ne), k):
            for cols in itertools.permutations(range(nf), k):
                term = 1.0 + 0j
                for i, j in zip(rows, cols):
                    term *= weight(e_vars[i] * f_vars[j])
                out[k] += term
    return out


def _moment(k, big_n) -> Fraction:
    """E|chi(1)|^{2k} over U(N) as prod_{i,j <= k} (N + i + j - 1) / (i + j - 1)."""
    out = Fraction(1)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            out *= Fraction(big_n + i + j - 1, i + j - 1)
    return out


# The uncached Littlewood-Richardson count: the oracle's calls then leave
# lr_coeff's cache statistics, a per-layer metric, untouched.
_LR_COUNT = symfunc.lr_coeff.__wrapped__
_SCHUR_SECOND_MOMENTS: dict = {}


def _schur_pair_second_moment(mu, nu, big_n) -> int:
    """E|s_mu conj(s_nu)|^2 over U(N): sum of c^lam_{mu nu}^2 over lam with <= N rows."""
    key = (tuple(mu), tuple(nu), big_n)
    if key not in _SCHUR_SECOND_MOMENTS:
        lams = partitions.partitions_of(sum(mu) + sum(nu), max_len=big_n)
        _SCHUR_SECOND_MOMENTS[key] = sum(_LR_COUNT(lam, key[0], key[1]) ** 2 for lam in lams)
    return _SCHUR_SECOND_MOMENTS[key]


def _exact_stderr(args) -> float | None:
    """Standard error of the mean from the exact variance, where it is known."""
    name, big_n, samples = args.get("estimator"), args["N"], args["M"]
    if name == "abs_char_sq":
        # E|chi|^4 - (E|chi|^2)^2
        return math.sqrt(float(_moment(2, big_n) - _moment(1, big_n) ** 2) / samples)
    if name == "schur_pair":
        mu, nu = args["params"]["mu"], args["params"]["nu"]
        mean_sq = 1.0 if list(mu) == list(nu) and len(mu) <= big_n else 0.0
        return math.sqrt((_schur_pair_second_moment(mu, nu, big_n) - mean_sq) / samples)
    return None


def check(req, value, done) -> str | None:
    """None when ``value`` passes the request's oracle, else the reason.

    ``done`` maps earlier request ids of the same pass to their values.
    """
    op, a = req["op"], req["args"]
    if op in ("mc", "mc_explicit"):
        if value["prediction"] is None:
            return "no closed-form prediction"
        if value["samples"] + value["rejected"] != a["M"]:
            return f"drew {value['samples'] + value['rejected']} samples, asked {a['M']}"
        diff = abs(uncx(value["mean"]) - uncx(value["prediction"]))
        stderr = value["stderr"]
        exact = _exact_stderr(a)
        if exact is not None:
            # |chi|^2 and |s_mu|^2 are heavy-tailed: a sample that misses the
            # tail underestimates the stderr (one request in ~1500 exceeded
            # Z_MAX at N = 10, M = 300 for abs_char_sq, and the schur_pair
            # warm-up in about one seed of 150), so take the larger of the
            # sample stderr and the exact one.
            stderr = max(stderr, exact)
        if stderr <= 0:
            return None if diff <= 1e-12 else "zero stderr and a nonzero error"
        z = diff / stderr
        return None if z <= Z_MAX else f"z-score {z:.2f} > {Z_MAX}"
    if op == "weyl":
        err = abs(uncx(value["value"]) - uncx(value["prediction"]))
        return None if err <= WEYL_TOL else f"quadrature error {err:.2e}"
    got = uncx(value) if op not in ("moment", "cli") else None
    if op == "completed":
        e_vars, f_vars = _vars(a["E"]), _vars(a["F"])
        half = -a["N"] / 2.0
        by_k = _matchings(e_vars, f_vars, _g)
        want = sum(half ** (len(e_vars) + len(f_vars) - 2 * k) * v for k, v in enumerate(by_k))
        return _within(got, want, EXACT_TOL)
    if op == "logders":
        # the main term is the permanent of [1 / (1 - e_i f_j)^2]
        want = _matchings(_vars(a["E"]), _vars(a["F"]), lambda x: 1 / (1 - x) ** 2)[-1]
        return _within(got, want, EXACT_TOL)
    if op == "explicit":
        base = a["N"] if a["h"] == "one" else a["N"] / float(a["h"].split(":", 1)[1])
        return _within(got, base ** a["n"], ROUTE_TOL)
    if op == "moment":
        got_q = Fraction(int(value[0]), int(value[1]))
        return None if got_q == _moment(a["k"], a["N"]) else "moment differs from prod formula"
    if op == "ratio":
        inp = rmt.RecipeInput(*(_vars(a[k]) for k in "abcd"), (), (), a["N"])
        return _within(got, rmt.recipe_main(inp, part_cap=RECIPE_CAP, size_cap=RECIPE_CAP),
                       ROUTE_TOL)
    if op == "recipe":
        if a["e"]:
            want = rmt.logders_main(_vars(a["e"]), _vars(a["f"]))
        else:
            want = rmt.ratio_avg(*(_vars(a[k]) for k in "abcd"), a["N"])
        return _within(got, want, ROUTE_TOL)
    if op == "product":
        other = "split_sum" if a["form"] == "schur" else "schur"
        want = rmt.product_avg(_vars(a["A"]), _vars(a["B"]), a["N"], form=other)
        return _within(got, want, ROUTE_TOL)
    if op == "cli":
        return _check_cli(req, value, done)
    return f"no oracle for op {op!r}"


def _within(got, want, tol) -> str | None:
    err = _rel(got, want)
    return None if err <= tol else f"relative error {err:.2e} > {tol:g}"


def _check_cli(req, value, done) -> str | None:
    if value["code"] != 0:
        return f"exit code {value['code']}: {value['stdout'][:200]}{value['stderr'][:200]}"
    payload = json.loads(value["stdout"])
    argv = req["args"]["argv"]
    if argv[0] == "verify":
        return None if payload["report"]["pass"] else "verify report did not pass"
    if "result" not in payload:
        return "no result"
    if req["args"].get("agree_with_previous"):
        pass_index, pos = req["id"].split("-")
        other = json.loads(done[f"{pass_index}-{int(pos) - 1}"]["stdout"])["result"]
        mine = payload["result"]
        return _within(complex(mine["re"], mine["im"]), complex(other["re"], other["im"]),
                       ROUTE_TOL)
    return None
