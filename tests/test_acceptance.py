"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 6's asymptotic-limit check (2% at N = 200 for k <= 3) compares the
normalized moment with f_k (1 + k^3/N), the limit together with its exact
first-order term: by the product formula the normalized moment approaches f_k
like 1 + c_k/N with c_k = k^3, so the bare limit alone would be 4.06% and
14.32% off at N = 200 for k = 2 and 3.  Convergence to the bare limit at larger
N is checked in test_rmt.py.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import numpy as np

from lsrmt import haar
from lsrmt.haar import make_estimator, mc_average, weyl_quadrature
from lsrmt.partitions import (
    conjugate,
    mn_index,
    overlap,
    overlap_fiber,
    partitions_up_to,
)
from lsrmt.rmt import (
    catalog_function,
    catalog_symmetric,
    completed_logders_main,
    explicit_formula_rhs,
    moment_unitary,
    ratio_avg,
)
from lsrmt.symfunc import (
    delta2,
    e_prod,
    inv,
    ls_comb,
    ls_det,
    neg,
    ordered_splits,
    schur_comb,
    schur_det,
)
from lsrmt.verify import (
    run_suite,
)
from util import moment_leading, random_points, rel_err


def conclude(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_c1_schur_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    lams = list(partitions_up_to(8))
    for _ in range(50):
        nvars = int(rng.integers(1, 5))
        xs = random_points(rng, nvars)
        for lam in lams:
            worst = max(worst, rel_err(schur_comb(lam, xs), schur_det(lam, xs)))
    elapsed = time.time() - start
    conclude(
        "C1 schur-oracle-equivalence",
        worst < 1e-9 and elapsed < 60,
        f"max_rel_err={worst:.2e} runtime={elapsed:.1f}s",
    )


def test_c2_ls_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    negative_checked = 0
    lams = list(partitions_up_to(8))
    shapes = [(3, 3), (3, 2), (2, 3), (1, 3), (2, 2), (0, 2), (2, 0), (1, 1)]
    for n, m in shapes:
        pts = random_points(rng, n + m)
        xs, ys = pts[:n], pts[n:]
        for lam in lams:
            got = ls_det(lam, xs, ys)
            want = ls_comb(lam, neg(xs), ys)
            if mn_index(lam, m, n) < 0:
                negative_checked += 1
                assert got == 0
                worst = max(worst, abs(want))
            else:
                worst = max(worst, rel_err(got, want))
    # Remark-3 counterexample: the naive split misses exactly y1 y2 y3
    pts = random_points(rng, 5)
    (x1, x2), ys = pts[:2], pts[2:]
    lhs = ls_det((1, 1, 1), (x1, x2), ys)
    split = sum(
        ls_det((2,), s, ys) * ls_det((1, 1), t, ys) / delta2(t, s)
        for s, t in ordered_splits((x1, x2), 1)
    )
    worst = max(worst, rel_err(lhs - split, e_prod(ys)))
    elapsed = time.time() - start
    conclude(
        "C2 ls-oracle-equivalence",
        worst < 1e-8 and negative_checked > 0 and elapsed < 120,
        f"max_rel_err={worst:.2e} negative_cases={negative_checked} runtime={elapsed:.1f}s",
    )


def test_c3_five_properties():
    report = run_suite("ls-properties", seed=103, instances=100, tol=1e-7)
    conclude(
        "C3 five-properties",
        report["pass"],
        f"max_rel_err={report['max_rel_err']:.2e}",
    )


def test_c4_overlap_suites():
    rep1 = run_suite("overlap-1", seed=104, instances=200, tol=1e-7)
    rep2 = run_suite("overlap-2", seed=105, instances=200, tol=1e-7)

    # fiber cardinality, exhaustively for m + n <= 7
    rng = np.random.default_rng(106)
    card_ok = True
    for total in range(0, 8):
        for m in range(total + 1):
            n = total - m
            for _ in range(3):
                pool = list(partitions_up_to(6, max_len=max(total, 1)))
                lam = pool[int(rng.integers(len(pool)))] if total else ()
                fiber = overlap_fiber(lam, m, n)
                card_ok &= len(fiber) == comb(m + n, m)
                for mu, nu, sign in fiber:
                    out = overlap(mu, nu, m, n)
                    card_ok &= out.finite and out.result == lam and out.sign == sign

    # dual Cauchy from the lambda = () second-overlap specialization
    worst = 0.0
    for _ in range(5):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        xs = random_points(rng, n)
        ys = random_points(rng, m, avoid=xs)
        product = 1.0 + 0j
        for x in xs:
            for y in ys:
                product *= 1 + x * y
        fiber_total = sum(
            sign * schur_det(mu, inv(xs)) * schur_det(nu, neg(ys))
            for mu, nu, sign in overlap_fiber((), n, m)
        )
        finite_sum = sum(
            schur_det(lam, xs) * schur_det(conjugate(lam), ys)
            for lam in partitions_up_to(m * n, max_part=m, max_len=n)
        )
        worst = max(worst, rel_err(e_prod(xs) ** m * fiber_total, product))
        worst = max(worst, rel_err(finite_sum, product))
    conclude(
        "C4 overlap-identities",
        rep1["pass"] and rep2["pass"] and card_ok and worst < 1e-10,
        f"first={rep1['max_rel_err']:.2e} second={rep2['max_rel_err']:.2e} dual_cauchy={worst:.2e}",
    )


def test_c5_murnaghan_nakayama_suite():
    report = run_suite("mn-all", seed=107, instances=100)
    conclude(
        "C5 murnaghan-nakayama",
        report["pass"],
        f"max_rel_err={report['max_rel_err']:.2e}",
    )


def test_c6_moments_exact():
    ok = all(moment_unitary(1, n) == n + 1 for n in range(11))
    for k in (1, 2, 3):
        for big_n in (1, 2, 3, 4):
            ssyt = schur_comb((big_n,) * k, (1.0,) * (2 * k), cap=big_n * k)
            ok &= moment_unitary(k, big_n) == round(ssyt.real)
    ok &= moment_unitary(2, 2) == 20
    conclude("C6 moments-exact", ok)


def test_c6_moment_limit_pinned_tolerance():
    # pinned check: moment_unitary(k, N)/N^{k^2} within 2% of
    # f_k (1 + k^3/N) at N = 200 for k <= 3.  The product formula
    # E|Z_N|^{2k} = prod_{i,j=1}^{k} (N+i+j-1)/(i+j-1) (Keating & Snaith,
    # Commun. Math. Phys. 214, 2000) gives ratio/f_k = prod_{i,j}
    # (1 + (i+j-1)/N) = 1 + k^3/N + O(k^6/N^2), since the (i+j-1) sum to k^3.
    big_n = 200
    devs, residuals = {}, {}
    for k in (1, 2, 3):
        ratio = moment_unitary(k, big_n) / big_n ** (k * k)
        reference = moment_leading(k) * (1 + Fraction(k**3, big_n))
        devs[k] = abs(float(ratio / moment_leading(k)) - 1)
        residuals[k] = abs(float(ratio / reference) - 1)
    ok = all(r < 0.02 for r in residuals.values())
    detail = " ".join(
        f"k={k}:{residuals[k]:.3%} (raw {devs[k]:.2%})" for k in residuals
    )
    conclude("C6 moment-limit-2pct-at-N200", ok, detail)


def test_c7_monte_carlo_reproduction():
    start = time.time()
    details = []
    ok = True

    # (a) second moment of |chi(1)| at N = 3
    out = mc_average(make_estimator("abs_char_sq", 3), big_n=3, samples=100_000, seed=701)
    z = abs(out.mean - 4.0) / out.stderr
    ok &= z < 4
    details.append(f"a:z={z:.2f}")

    # (b) ratio average at N = 10, one variable per set
    a, b, c, d = (1.1 + 0.2j,), (0.8 - 0.3j,), (0.3 + 0.1j,), (0.4 - 0.2j,)
    est = make_estimator("ratio", 10, a=a, b=b, c=c, d=d)
    out = mc_average(est, big_n=10, samples=100_000, seed=702)
    pred = ratio_avg(a, b, c, d, 10)
    z = abs(out.mean - pred) / out.stderr
    ok &= z < 4
    details.append(f"b:z={z:.2f}")

    # (c) paired logarithmic derivatives at N = 20
    eps = phi = 0.3
    est = make_estimator("logder_pair", 20, eps=eps, phi=phi)
    out = mc_average(est, big_n=20, samples=100_000, seed=703)
    pred = eps * phi / (1 - eps * phi) ** 2
    z = abs(out.mean - pred) / out.stderr
    ok &= z < 4
    ok &= abs(est.prediction - pred) < 1e-10
    details.append(f"c:z={z:.2f}")

    # (d) completed pair at N = 12
    est = make_estimator("completed_logder_pair", 12, eps=eps, phi=phi)
    out = mc_average(est, big_n=12, samples=100_000, seed=704)
    pred = 12 ** 2 / 4 + eps * phi / (1 - eps * phi) ** 2
    z = abs(out.mean - pred) / out.stderr
    ok &= z < 4
    ok &= abs(complex(completed_logders_main((eps,), (phi,), 12)) - pred) < 1e-10
    details.append(f"d:z={z:.2f}")

    elapsed = time.time() - start
    ok &= elapsed < 600
    conclude("C7 monte-carlo", ok, " ".join(details) + f" runtime={elapsed:.0f}s")


def test_c8_explicit_formula():
    h1 = catalog_function("one")
    f1 = catalog_symmetric("one", 1)
    exact_n = explicit_formula_rhs(h1, f1, 1, 0.6, 8, grid=16)
    hz = catalog_function("identity")
    exact_zero = explicit_formula_rhs(hz, f1, 1, 0.6, 8, grid=16)

    h = catalog_function("rational:2")
    rhs = explicit_formula_rhs(h, f1, 1, 0.6, 8, grid=32)
    est = make_estimator("explicit_sum", 8, h="rational:2")
    out = mc_average(est, big_n=8, samples=100_000, seed=801)
    z = abs(out.mean - rhs) / out.stderr
    ok = rel_err(exact_n, 8.0) < 1e-10 and abs(exact_zero) < 1e-8 and z < 4
    conclude(
        "C8 explicit-formula",
        ok,
        f"const={exact_n:.12g} ident={abs(exact_zero):.1e} z={z:.2f}",
    )


def test_c9_weyl_schur_orthogonality(monkeypatch):
    monkeypatch.setattr(haar, "WEYL_GRID", 24)
    monkeypatch.setattr(haar, "WEYL_TOL", 1e-9)
    worst = 0.0
    for big_n in (1, 2, 3):
        lams = list(partitions_up_to(3))
        for mu, nu in itertools.product(lams, repeat=2):
            est = make_estimator("schur_pair", big_n, mu=mu, nu=nu)
            val = weyl_quadrature(est, big_n)
            want = 1.0 if (mu == nu and len(mu) <= big_n) else 0.0
            worst = max(worst, abs(val - want))
    conclude("C9 weyl-orthogonality", worst < 1e-6, f"max_abs_err={worst:.2e}")


def test_c10_cli_determinism():
    def run(cmd):
        return subprocess.run(cmd, capture_output=True, check=True).stdout

    mc_cmd = [
        sys.executable, "-m", "lsrmt.cli",
        "mc", "--estimator", "abs_char_sq", "--N", "3", "--M", "2000", "--seed", "42",
    ]
    verify_cmd = [
        sys.executable, "-m", "lsrmt.cli",
        "verify", "overlap-1", "--seed", "7", "--instances", "20",
    ]
    compute_cmd = [
        sys.executable, "-m", "lsrmt.cli",
        "compute", "overlap", "--mu", "9,6,1", "--nu", "4,3,3,2", "--m", "3", "--n", "5",
    ]
    ok = True
    for cmd in (mc_cmd, verify_cmd, compute_cmd):
        ok &= run(cmd) == run(cmd)
    payload = json.loads(run(compute_cmd))
    ok &= payload["result"] == {"result": [4, 2, 2, 2, 2, 1], "sign": -1}
    conclude("C10 cli-determinism", ok)
