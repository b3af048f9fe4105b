from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsrmt.partitions import (
    c_seq,
    canonical,
    complement,
    conjugate,
    contains,
    mn_index,
    overlap,
    overlap_fiber,
    partitions_of,
    partitions_up_to,
    ribbons_added,
    ribbons_removed,
    size,
    sub_partition,
)
from util import (
    add,
    brute_force_ribbons_added,
    random_partition,
    ribbon_height,
    unpruned_partitions_of,
    z_stat,
)

partition_st = st.lists(st.integers(0, 8), max_size=6).map(
    lambda xs: canonical(sorted(xs, reverse=True))
)


def test_conjugate_worked_example():
    assert conjugate((5, 5, 2)) == (3, 3, 2, 2, 2)


def test_conjugate_empty():
    assert conjugate(()) == ()


def test_conjugate_derived():
    # brute-force transpose of the diagram of (3, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


@given(partition_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert size(conjugate(lam)) == size(lam)


@given(partition_st, partition_st)
def test_union_conjugate_duality(mu, nu):
    assert conjugate(tuple(sorted(mu + nu, reverse=True))) == add(conjugate(mu), conjugate(nu))


def test_z_stat():
    assert z_stat(()) == 1
    assert z_stat((1, 1)) == 2
    assert z_stat((2, 1)) == 2
    assert z_stat((2, 2, 1, 1, 1)) == (2 * 2 * 2) * (1 * 6)


def test_complement_worked_example():
    # (5,5,2) and (4,1,1) cut a 6 x 3 rectangle
    assert complement((5, 5, 2), 6, 3) == (4, 1, 1)


def test_complement_trivial_and_derived():
    assert complement((), 4, 2) == (4,) * 2
    assert complement((2, 1), 2, 2) == (1,)


def test_complement_rejects_overflow():
    with pytest.raises(ValueError):
        complement((3,), 2, 2)
    with pytest.raises(ValueError):
        complement((1, 1, 1), 2, 2)


def test_canonical_refuses_non_integer_parts():
    # a part is an integer, not a float that truncates to one
    assert canonical((3, 2, 0, 0)) == (3, 2)
    for parts in ((2.5,), (2.5, 1.9), (2.0,), (3, 1.0)):
        with pytest.raises(ValueError, match="non-integer part"):
            canonical(parts)


@given(partition_st)
def test_complement_involution(lam):
    m = (lam[0] if lam else 0) + 2
    n = len(lam) + 1
    assert complement(complement(lam, m, n), m, n) == lam


def test_mn_index_worked_examples():
    assert mn_index((7, 4, 2, 2), 6, 3) == 2
    assert mn_index((7, 4, 2, 2), 2, 1) == -1


@given(partition_st, st.integers(0, 5), st.integers(0, 5))
def test_mn_index_empty_and_conjugation(lam, m, n):
    assert mn_index((), m, n) == min(m, n)
    assert mn_index(lam, m, n) == mn_index(conjugate(lam), n, m)


def test_partitions_of_matches_the_unpruned_enumerator():
    bounds = (None, 0, 1, 2, 3, 5, 20)
    for s in range(17):
        for max_part in bounds:
            for max_len in bounds:
                got = list(partitions_of(s, max_part=max_part, max_len=max_len))
                want = list(unpruned_partitions_of(s, max_part=max_part, max_len=max_len))
                assert got == want, (s, max_part, max_len)


def test_ribbon_height_examples():
    assert ribbon_height((2, 2), (1,)) == 1
    assert ribbon_height((2, 2), ()) is None  # the full 2x2 block
    assert ribbon_height((3,), (1,)) == 0
    with pytest.raises(ValueError):
        ribbon_height((2,), (3,))


def test_ribbon_height_disconnected():
    assert ribbon_height((3, 1, 1), (2, 1)) is None


def test_ribbons_added_examples():
    steps = ribbons_added((1,), 2)
    assert {(s.end, s.height) for s in steps} == {((3,), 0), ((1, 1, 1), 1)}
    steps = ribbons_added((), 1)
    assert [(s.end, s.height) for s in steps] == [((1,), 0)]


def test_ribbons_added_matches_brute_force_exhaustive():
    # every mu with |mu| <= 10 and every ribbon size k <= 6
    for mu in partitions_up_to(10):
        for k in range(1, 7):
            got = sorted((s.end, s.height) for s in ribbons_added(mu, k))
            assert got == brute_force_ribbons_added(mu, k), (mu, k)


def test_ribbons_added_respects_rectangle_bound():
    # inside <m^n> at most min(m, n) additions stay in the rectangle
    m, n, k = 4, 3, 3
    for mu in partitions_up_to(6, max_part=m, max_len=n):
        inside = [
            s
            for s in ribbons_added(mu, k)
            if contains((m,) * n, s.end)
        ]
        assert len(inside) <= min(m, n)


def test_ribbons_added_height_conjugation():
    # height(lam'/mu') = k - 1 - height(lam/mu)
    for mu in partitions_up_to(6):
        for k in (2, 3, 4):
            heights = {s.end: s.height for s in ribbons_added(mu, k)}
            conj = {s.end: s.height for s in ribbons_added(conjugate(mu), k)}
            for lam, h in heights.items():
                assert conj[conjugate(lam)] == k - 1 - h


def test_ribbons_removed_inverts_added():
    for mu in partitions_up_to(7):
        for k in (1, 2, 3):
            for s in ribbons_added(mu, k):
                back = [(t.start, t.height) for t in ribbons_removed(s.end, k)]
                assert (mu, s.height) in back


def test_overlap_worked_example():
    out = overlap((9, 6, 1), (4, 3, 3, 2), 3, 5)
    assert out.finite
    assert out.result == (4, 2, 2, 2, 2, 1)
    assert out.sign == -1


def test_overlap_infinite_worked_example():
    out = overlap((10, 8, 1), (4, 2, 2), 3, 6)
    assert not out.finite


def test_overlap_identity_sort():
    mu = (5, 3)
    out = overlap(mu, (), 2, 0)
    assert out.finite and out.result == mu and out.sign == 1


def test_overlap_length_precondition():
    with pytest.raises(ValueError):
        overlap((1, 1, 1), (), 2, 0)


def test_walk_worked_example():
    # the walk with south-step times V = (2,3,7) in a 6 x 3 rectangle has west-step
    # times H = (1,4,5,6,8,9), mu(pi) = (5,5,2) and nu(pi) = (4,1,1); with lam = ()
    # it is the fiber's entry 31, the index of V among the 3-subsets of 1..9
    fiber = overlap_fiber((), 3, 6)
    assert len(fiber) == comb(9, 3)
    assert fiber[31] == ((5, 5, 2), conjugate((4, 1, 1)), 1)


def test_overlap_fiber_worked_example():
    fiber = overlap_fiber((7, 4, 3, 3, 3, 1), 3, 6)
    assert any(mu == (9, 8, 2) and nu == (10, 4, 4, 2) for mu, nu, _ in fiber)


def test_overlap_fiber_small():
    # in lexicographic order of the south-step times: V = (1,), then V = (2,)
    assert overlap_fiber((), 1, 1) == [((1,), (), 1), ((), (1,), -1)]


def test_overlap_fiber_returns_a_fresh_list():
    fiber = overlap_fiber((3, 1), 2, 2)
    want = list(fiber)
    fiber.pop()
    fiber.append(((9,), (9,), 1))
    assert overlap_fiber((3, 1), 2, 2) == want


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 4)])
def test_overlap_fiber_roundtrip(m, n):
    rng = np.random.default_rng(7 * m + n)
    for _ in range(5):
        lam = random_partition(rng, 8, max_len=m + n)
        fiber = overlap_fiber(lam, m, n)
        assert len(fiber) == comb(m + n, m)
        for mu, nu, sign in fiber:
            out = overlap(mu, nu, m, n)
            assert out.finite and out.result == lam and out.sign == sign


def test_overlap_complement_skew_commutativity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lam = random_partition(rng, 6, max_len=m + n)
        ell = (lam[0] if lam else 0) + int(rng.integers(0, 3))
        out = overlap_fiber(lam, m, n)
        lam_c = complement(lam, ell, m + n)
        for mu, nu, sign in out:
            mu_c = complement(mu, n + ell, m)
            nu_c = complement(nu, m + ell, n)
            res = overlap(mu_c, nu_c, m, n)
            assert res.finite and res.result == lam_c
            assert res.sign == (-1) ** (m * n) * sign


def test_sub_partition_worked_example():
    sub = sub_partition((4, 4, 2, 2, 1, 1, 1), 7, (1, 4, 5, 7))
    assert sub is not None
    assert conjugate(sub) == (4, 3, 2, 1, 1, 1, 1)


def test_sub_partition_identity_and_single_removal():
    lam = (5, 3, 2)
    n = 4
    assert sub_partition(lam, n, tuple(range(1, n + 1))) == lam
    for j in range(1, n + 1):
        expected = add(
            tuple(p for i, p in enumerate((5, 3, 2, 0), 1) if i != j),
            (1,) * (j - 1),
        )
        assert sub_partition(lam, n, tuple(i for i in range(1, n + 1) if i != j)) == expected


def test_sub_partition_always_valid_under_preconditions():
    # the defining shift is weakly decreasing and non-negative whenever
    # K is a subsequence of [n] and l(lam) <= n
    rng = np.random.default_rng(11)
    from itertools import combinations

    for _ in range(30):
        n = int(rng.integers(1, 6))
        lam = random_partition(rng, 8, max_len=n)
        for k in range(n + 1):
            for K in combinations(range(1, n + 1), k):
                assert sub_partition(lam, n, K) is not None


def test_c_seq():
    assert c_seq(6, (1, 2, 4, 5)) == (1, 4)
    assert c_seq(4, (1, 2, 3, 4)) == ()
    assert c_seq(3, ()) == (1, 2, 3)


def test_subpartition_overlap_correspondence():
    # bijection between fibers of kappa' and marked pairs (lambda, K),
    # exhaustively for m, n, l <= 3
    from itertools import combinations, product

    for m, n, ell in product((1, 2, 3), repeat=3):
        images = {}
        for lam in partitions_up_to(m * (n + ell), max_part=m, max_len=n + ell):
            for K in combinations(range(1, n + ell + 1), ell):
                kappa = sub_partition(lam, n + ell, K)
                assert kappa is not None
                ck = c_seq(n + ell, K)
                second = sub_partition(complement(lam, m, n + ell), n + ell, ck)
                assert second is not None
                images.setdefault(kappa, set()).add((conjugate(lam), second))
        for kappa in partitions_up_to((m + n) * ell, max_part=m + n, max_len=ell):
            fiber = {
                (mu, nu) for mu, nu, _ in overlap_fiber(conjugate(kappa), m, n)
            }
            assert images.get(kappa, set()) == fiber, (m, n, ell, kappa)
