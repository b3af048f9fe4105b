from fractions import Fraction

import numpy as np
import pytest

from lsrmt.partitions import partitions_up_to
from lsrmt.schur_algebra import (
    SchurExpansion,
    hall_inner,
    mn_derive,
    mn_multiply,
    mn_negative,
)
from lsrmt.symfunc import basis_eval, inv, ls_comb, schur_comb
from util import random_points, random_partition, rel_err


def random_expansion(rng, max_size=6, terms=3):
    out = SchurExpansion()
    for _ in range(int(rng.integers(1, terms + 1))):
        lam = random_partition(rng, max_size)
        num = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 5))
        if num:
            out.add_term(lam, Fraction(num, den))
    return out


def schur(lam):
    return SchurExpansion({lam: 1})


def test_expansion_basics():
    f = SchurExpansion({(2, 1): 1, (1,): Fraction(1, 2), (3,): 0})
    f.add_term((1,), Fraction(-1, 2))
    assert f.terms == {(2, 1): 1}
    assert f[(1,)] == 0 and f[(2, 1, 0)] == 1
    assert SchurExpansion().terms == {}


def test_mn_multiply_single_box():
    assert mn_multiply(1, schur(())).terms == {(1,): 1}


def test_mn_multiply_p2_on_s1():
    assert mn_multiply(2, schur((1,))).terms == {(3,): 1, (1, 1, 1): -1}


def test_mn_multiply_numeric_oracle():
    rng = np.random.default_rng(0)
    xs = random_points(rng, 3)
    for _ in range(10):
        mu = random_partition(rng, 6)
        k = int(rng.integers(1, 5))
        lhs = basis_eval((k,), xs) * schur_comb(mu, xs)
        rhs = mn_multiply(k, schur(mu)).evaluate(xs)
        assert rel_err(lhs, rhs) < 1e-10


def test_mn_derive_examples():
    assert mn_derive(2, schur((3,))).terms == {(1,): 1}
    assert mn_derive(1, schur(())).terms == {}


def test_adjointness_exact():
    rng = np.random.default_rng(1)
    for _ in range(30):
        f = random_expansion(rng)
        g = random_expansion(rng)
        k = int(rng.integers(1, 5))
        assert hall_inner(mn_derive(k, f), g) == hall_inner(f, mn_multiply(k, g))


def test_hall_inner_orthonormal():
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            want = 1 if lam == mu else 0
            assert hall_inner(schur(lam), schur(mu)) == want
    assert hall_inner(SchurExpansion(), schur((1,))) == 0


def test_mn_negative_simple():
    rng = np.random.default_rng(5)
    xs = random_points(rng, 2)
    lhs, rhs = mn_negative((2, 2), 1, xs)
    assert rel_err(lhs, rhs) < 1e-9
    want = schur_comb((2, 2), xs) * basis_eval((1,), inv(xs))
    assert rel_err(lhs, want) < 1e-9


def test_mn_negative_rectangle():
    rng = np.random.default_rng(6)
    xs = random_points(rng, 2)
    lhs, rhs = mn_negative((3, 3), 2, xs)
    assert rel_err(lhs, rhs) < 1e-9


def test_mn_negative_precondition():
    with pytest.raises(ValueError):
        mn_negative((2, 2), 3, (0.5, 1.5))
    with pytest.raises(ValueError):
        mn_negative((2,), 1, (0.5, 1.5))


def test_mn_negative_composite_operator_route():
    # iterated dual MN evaluated at X equals s_mu(X) p_{-lambda}(X)
    rng = np.random.default_rng(7)
    xs = random_points(rng, 2)
    mu = (5, 5)
    lam = (2, 1)
    op = schur(mu)
    for p_ in lam:
        op = mn_derive(p_, op)  # mn_derive is already k d/dp_k
    lhs = op.evaluate(xs)
    rhs = schur_comb(mu, xs) * basis_eval(lam, inv(xs))
    assert rel_err(lhs, rhs) < 1e-9


def test_mn_for_ls_numeric():
    # LS_mu(X;Y) [p_k(X) + (-1)^{k-1} p_k(Y)] = sum of signed LS over ribbons
    rng = np.random.default_rng(8)
    xs = random_points(rng, 2)
    ys = random_points(rng, 2, avoid=xs)
    for _ in range(8):
        mu = random_partition(rng, 5)
        k = int(rng.integers(1, 5))
        factor = basis_eval((k,), xs) + (-1) ** (k - 1) * basis_eval((k,), ys)
        lhs = ls_comb(mu, xs, ys) * factor
        from lsrmt.partitions import ribbons_added

        rhs = sum(
            (-1) ** s.height * ls_comb(s.end, xs, ys)
            for s in ribbons_added(mu, k)
        )
        assert rel_err(lhs, rhs) < 1e-9
