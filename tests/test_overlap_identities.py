from itertools import combinations

import numpy as np

from lsrmt.overlap_identities import first_overlap_rhs, second_overlap_rhs
from lsrmt.partitions import (
    canonical,
    complement,
    conjugate,
    mn_index,
    overlap,
    overlap_fiber,
    part,
    partitions_up_to,
)
from lsrmt.symfunc import (
    delta2,
    e_prod,
    inv,
    ls_det,
    neg,
    ordered_splits,
    schur_det,
)
from lsrmt.verify import (
    verify_first_overlap,
    verify_second_overlap,
    verify_subpartition_form,
)
from util import random_points, random_partition, rel_err


def test_ordered_splits():
    got = list(ordered_splits((1, 2, 3), 1))
    assert got == [((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2))]


def test_first_overlap_bump_gamburd_case():
    # identity-sorting instance: lam = (3,3,1), l = 1
    rng = np.random.default_rng(0)
    lam = (3, 3, 1)
    n, m = 2, 1
    xs = random_points(rng, n)
    ys = random_points(rng, m, avoid=xs)
    k = mn_index(lam, m, n)
    head = canonical(lam[: n - k])
    tail = canonical(lam[n - k:])
    fiber = overlap_fiber(head, 1, n - k - 1)
    # pick the identity-sorted pair (sign +1)
    mu, nu, sign = next(f for f in fiber if f[2] == 1)
    rhs = first_overlap_rhs(mu, nu, 1, tail, xs, ys)
    assert rel_err(rhs, ls_det(lam, xs, ys)) < 1e-8


def test_first_overlap_trivial_l0():
    rng = np.random.default_rng(1)
    lam = (2, 1)
    xs = random_points(rng, 2)
    ys = random_points(rng, 1, avoid=xs)
    k = mn_index(lam, 1, 2)
    tail = canonical(lam[2 - k:])
    head = canonical(lam[: 2 - k])
    rhs = first_overlap_rhs((), head, 0, tail, xs, ys)
    assert rel_err(rhs, ls_det(lam, xs, ys)) < 1e-9


def test_first_overlap_schur_specialization():
    # Y empty: s_{mu * nu}(X) as a split sum (Dehaye's lemma)
    rng = np.random.default_rng(2)
    for _ in range(10):
        m_len = int(rng.integers(0, 3))
        n_len = int(rng.integers(0, 3))
        mu = random_partition(rng, 4, max_len=m_len)
        nu = random_partition(rng, 4, max_len=n_len)
        out = overlap(mu, nu, m_len, n_len)
        if not out.finite:
            continue
        xs = random_points(rng, m_len + n_len)
        lhs = schur_det(out.result, xs)
        total = 0j
        for s, t in ordered_splits(xs, m_len):
            total += out.sign * schur_det(mu, s) * schur_det(nu, t) / delta2(s, t)
        assert rel_err(lhs, total) < 1e-8


def test_first_overlap_infinite_reports_zero():
    rng = np.random.default_rng(3)
    xs = random_points(rng, 3)
    ys = ()
    mu, nu = (2,), (1,)
    out = overlap(mu, nu, 1, 2)
    assert not out.finite
    assert first_overlap_rhs(mu, nu, 1, (), xs, ys) == 0
    # the raw split sum vanishes too (identical columns in the expansion)
    raw = sum(
        ls_det(mu, s, ys) * ls_det(nu, t, ys) / delta2(t, s)
        for s, t in ordered_splits(xs, 1)
    )
    assert abs(raw) < 1e-9


def test_first_overlap_matches_assembled_lambda():
    report = verify_first_overlap(seed=7, instances=40)
    assert report["pass"], report


def test_second_overlap_schur_specialization():
    # Y empty: s_lam(S cup T) = sum over the overlap fiber
    rng = np.random.default_rng(5)
    lam = (2, 1)
    pts = random_points(rng, 4)
    s_vars, t_vars = pts[:2], pts[2:]
    lhs = schur_det(lam, pts) * (-1) ** 3  # ls_det computes LS(-X; Y)
    rhs = second_overlap_rhs(lam, s_vars, t_vars, ())
    assert rel_err(lhs, rhs) < 1e-8


def test_second_overlap_suite():
    report = verify_second_overlap(seed=11, instances=40)
    assert report["pass"], report


def test_second_overlap_negative_index():
    rng = np.random.default_rng(6)
    pts = random_points(rng, 2)
    ys = random_points(rng, 1, avoid=pts)
    lam = (3, 3, 2)
    assert mn_index(lam, 1, 2) < 0
    assert second_overlap_rhs(lam, pts[:1], pts[1:], ys) == 0
    assert ls_det(lam, pts, ys) == 0


def test_labeled_walk_form_matches_fiber_term_by_term():
    rng = np.random.default_rng(7)
    lam = (2, 2, 1)
    m, n = 2, 2
    pts = random_points(rng, 4)
    s_vars, t_vars = pts[:m], pts[m:]
    lam_pad = lam + (0,) * (m + n - len(lam))
    walk_terms = []
    # each walk across the n x m rectangle as its step string (V south, H west);
    # mu(pi)_i counts the west steps after the i-th south step, nu(pi)'_j the
    # south steps after the j-th west step
    for south in combinations(range(m + n), m):
        steps = "".join("V" if i in south else "H" for i in range(m + n))
        v = [i + 1 for i, s in enumerate(steps) if s == "V"]
        h = [i + 1 for i, s in enumerate(steps) if s == "H"]
        upper = [steps[i:].count("H") for i, s in enumerate(steps) if s == "V"]
        lower_conj = [steps[i:].count("V") for i, s in enumerate(steps) if s == "H"]
        mu = tuple(a + lam_pad[t - 1] for a, t in zip(upper, v))
        nu = tuple(b + lam_pad[t - 1] for b, t in zip(lower_conj, h))
        sign = (-1) ** (m * n - sum(upper))
        walk_terms.append((canonical(mu), canonical(nu), sign))
    assert walk_terms == overlap_fiber(lam, m, n)
    # and the summed labeled-walk form reproduces s_lam(S cup T)
    total = sum(
        sign * schur_det(mu, s_vars) * schur_det(nu, t_vars)
        for mu, nu, sign in walk_terms
    ) / delta2(s_vars, t_vars)
    assert rel_err(total, schur_det(lam, pts)) < 1e-9


def test_dual_cauchy_from_empty_overlap():
    # lambda = () specialization assembles the dual Cauchy identity
    rng = np.random.default_rng(8)
    n, m = 2, 2
    xs = random_points(rng, n)
    ys = random_points(rng, m, avoid=xs)
    finite_sum = sum(
        schur_det(lam, xs) * schur_det(conjugate(lam), ys)
        for lam in partitions_up_to(m * n, max_part=m, max_len=n)
    )
    product = 1.0 + 0j
    for x in xs:
        for y in ys:
            product *= 1 + x * y
    fiber_sum = sum(
        sign * schur_det(mu, inv(xs)) * schur_det(nu, neg(ys))
        for mu, nu, sign in overlap_fiber((), n, m)
    )
    assert rel_err(finite_sum, product) < 1e-10
    assert rel_err(e_prod(xs) ** m * fiber_sum, product) < 1e-10


def test_complement_schur_check_cases():
    rng = np.random.default_rng(9)
    xs = random_points(rng, 2)
    n, m = len(xs), 3
    for lam in [(), (3,) * 2, (2, 1)]:
        # s_{complement(lam)}(X) = s_lam(X^{-1}) e(X)^m
        lhs = schur_det(complement(lam, m, n), xs)
        rhs = schur_det(lam, inv(xs)) * e_prod(xs) ** m
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs)), lam


def test_subpartition_indexed_form():
    report = verify_subpartition_form(2024)
    assert report["pass"], report


def _first_overlap_split_by_split(mu, nu, l, tail, xs, ys):
    """first_overlap_rhs with two ls_det calls per split, as before stacking."""
    n, m = len(xs), len(ys)
    nu_full = canonical(nu) + canonical(tail)
    k = mn_index(nu_full, m, n - l)
    if k < 0:
        return 0j
    b = n - l - k
    ov = overlap(mu, canonical(nu_full[:b]), l, b)
    if not ov.finite:
        return 0j
    shifted_mu = canonical(tuple(part(mu, j) + k for j in range(1, l + 1)))
    total = 0j
    for s, t in ordered_splits(xs, l):
        total += ov.sign * ls_det(shifted_mu, s, ys) * ls_det(nu_full, t, ys) / delta2(t, s)
    return total


def _second_overlap_split_by_split(lam, s_vars, t_vars, ys):
    """second_overlap_rhs with shapes and ls_det calls per split, as before stacking."""
    l, m = len(s_vars), len(ys)
    n = l + len(t_vars)
    k = mn_index(lam, m, n)
    if k < 0:
        return 0j
    head, tail = canonical(lam[: n - k]), canonical(lam[n - k:])
    total = 0j
    for p in range(0, min(l, m) + 1):
        fiber = overlap_fiber(head, l - p, n - k - l + p)
        for u_vars, v_vars in ordered_splits(ys, p):
            prefactor = (
                delta2(v_vars, s_vars)
                * delta2(t_vars, u_vars)
                / (delta2(v_vars, u_vars) * delta2(t_vars, s_vars))
            )
            for mu, nu, sign in fiber:
                shifted = canonical(tuple(part(mu, j) - (m - k) for j in range(1, l - p + 1)))
                total += (
                    prefactor
                    * sign
                    * ls_det(shifted, s_vars, u_vars)
                    * ls_det(canonical(nu) + tail, t_vars, v_vars)
                )
    return total


def test_stacked_overlap_sums_match_split_by_split():
    rng = np.random.default_rng(12)
    first = second = 0
    while first < 150 or second < 150:
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        lam = random_partition(rng, 10, max_len=n + m)
        k = mn_index(lam, m, n)
        if k < 0:
            continue
        l = int(rng.integers(0, n - k + 1))
        pts = random_points(rng, n + m)
        xs, ys = pts[:n], pts[n:]
        for mu, nu, _ in overlap_fiber(canonical(lam[: n - k]), l, n - k - l):
            tail = canonical(lam[n - k:])
            want = _first_overlap_split_by_split(mu, nu, l, tail, xs, ys)
            assert first_overlap_rhs(mu, nu, l, tail, xs, ys) == want, (lam, mu, nu, l)
            first += 1
        want = _second_overlap_split_by_split(lam, xs[:l], xs[l:], ys)
        assert second_overlap_rhs(lam, xs[:l], xs[l:], ys) == want, (lam, l, m)
        second += 1
