
import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from lsrmt.partitions import (
    conjugate,
    mn_index,
    part,
    partitions_of,
    partition_pool,
    partitions_up_to,
    size,
)
from lsrmt.symfunc import (
    _horizontal_strip_predecessors,
    _ls_det_many,
    _ls_det_plan,
    _schur_det_many,
    CoincidentVariablesError,
    SizeCapError,
    _distinct,
    _vertical_strip_predecessors,
    basis_eval,
    delta2,
    e_prod,
    inv,
    lr_coeff,
    ls_comb,
    ls_det,
    ls_det_sign,
    monomial_eval,
    monomial_on_arrays,
    neg,
    powersum_r,
    schur_comb,
    schur_det,
    schur_in_monomials,
)
from util import (
    complete_r,
    delta,
    dict_monomial,
    elementary_r,
    is_horizontal_strip,
    ls_by_lr_sum,
    random_points,
    rel_err,
)


def test_delta_trivial():
    assert delta((2.0,)) == 1
    assert delta(()) == 1
    assert delta2((2,), (1, 3)) == pytest.approx(-1)
    assert e_prod(()) == 1


def test_delta_is_vandermonde_det():
    rng = np.random.default_rng(0)
    xs = random_points(rng, 4)
    mat = np.array([[x ** (3 - j) for j in range(4)] for x in xs])
    assert rel_err(complex(np.linalg.det(mat)), delta(xs)) < 1e-10


def test_monomial_examples():
    x, y = 0.7 + 0.2j, -0.3 + 1.1j
    assert monomial_eval((2, 1), (x, y)) == pytest.approx(x * x * y + x * y * y)
    assert monomial_eval((1, 1, 1), (x, y)) == 0
    assert basis_eval((2,), (1, 1j)) == pytest.approx(0)


def test_elementary_is_monomial_of_column():
    rng = np.random.default_rng(1)
    xs = random_points(rng, 4)
    for r in range(1, 5):
        assert rel_err(
            elementary_r(r, xs), monomial_eval((1,) * r, xs)
        ) < 1e-10


def test_monomial_at_fourteen_variables():
    # n! terms at n = 14: only a polynomial-time kernel finishes
    rng = np.random.default_rng(16)
    xs = random_points(rng, 14)
    for r in range(1, 5):
        assert rel_err(monomial_eval((1,) * r, xs), elementary_r(r, xs)) < 1e-10
        assert rel_err(monomial_eval((r,), xs), powersum_r(r, xs)) < 1e-10


def test_kostka_expansion_matches_schur_det_at_twelve_variables():
    rng = np.random.default_rng(17)
    xs = random_points(rng, 12)
    for lam in [(2, 1), (3, 1, 1), (2, 2)]:
        val = sum(
            k * monomial_eval(mu, xs)
            for mu, k in schur_in_monomials(lam, 12).items()
        )
        assert rel_err(val, schur_det(lam, xs)) < 1e-9, lam


def _bits(value):
    value = np.asarray(value, dtype=complex)
    return value.real.tobytes() + value.imag.tobytes()


def test_planned_monomial_equals_dict_program_bitwise():
    # every lambda with |lambda| <= 9 in 0..5 variables, so lambda = () and
    # l(lambda) > n are among them; == on the bits of both parts
    rng = np.random.default_rng(19)
    for lam in partitions_up_to(9):
        for nvars in range(6):
            xs = tuple(complex(*v) for v in rng.standard_normal((nvars, 2)))
            assert _bits(monomial_eval(lam, xs)) == _bits(dict_monomial(lam, xs, 0j)), lam
            arrays = list(rng.standard_normal((nvars, 5)) + 1j * rng.standard_normal((nvars, 5)))
            got = monomial_on_arrays(lam, arrays, 5)
            assert got.shape == (5,)
            assert _bits(got) == _bits(dict_monomial(lam, arrays, np.zeros(5, dtype=complex))), lam


def test_monomial_on_arrays_matches_monomial_eval():
    rng = np.random.default_rng(18)
    npoints, nvars = 16, 5
    points = [random_points(rng, nvars) for _ in range(npoints)]
    arrays = [np.array([p[j] for p in points]) for j in range(nvars)]
    for lam in partitions_up_to(6):
        got = monomial_on_arrays(lam, arrays, npoints)
        assert got.shape == (npoints,)
        for value, xs in zip(got, points):
            assert rel_err(value, monomial_eval(lam, xs)) < 1e-12, lam


def test_no_module_enumerates_permutations():
    # cost must grow polynomially in the number of variables, never as n!
    package = Path(__file__).resolve().parents[1] / "src" / "lsrmt"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if "permutations" in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
        )
    ]
    assert offenders == []


def test_powersum_neg():
    xs = (2.0, 0.5j)
    want = (1 / 2) ** 2 + (1 / (0.5j)) ** 2
    assert basis_eval((2,), inv(xs)) == pytest.approx(want)
    with pytest.raises(ValueError):
        basis_eval((1,), inv((0.0,)))


def test_newton_identity_spot_check():
    # e_2 = (p_1^2 - p_2) / 2 on random points
    rng = np.random.default_rng(2)
    xs = random_points(rng, 3)
    lhs = elementary_r(2, xs)
    p1 = basis_eval((1,), xs)
    p2 = basis_eval((2,), xs)
    assert rel_err(lhs, (p1 * p1 - p2) / 2) < 1e-10


def test_schur_det_elementary_rows():
    rng = np.random.default_rng(3)
    xs = random_points(rng, 4)
    for r in (1, 2, 3):
        assert rel_err(schur_det((1,) * r, xs), elementary_r(r, xs)) < 1e-9


def test_schur_det_complete_row():
    rng = np.random.default_rng(4)
    xs = random_points(rng, 3)
    for r in (1, 2, 3):
        assert rel_err(schur_det((r,), xs), complete_r(r, xs)) < 1e-9


def test_schur_det_rectangle_factorization():
    rng = np.random.default_rng(5)
    xs = random_points(rng, 3)
    lam = (2, 1)
    m = 2
    lhs = schur_det(tuple(p + m for p in (2, 1, 0)), xs)
    assert rel_err(lhs, e_prod(xs) ** m * schur_det(lam, xs)) < 1e-9


def test_schur_det_coincident_raises():
    with pytest.raises(CoincidentVariablesError):
        schur_det((1,), (1.0, 1.0 + 1e-9))


def test_shapes_with_non_integer_parts_raise():
    # (2.5,) is refused, not evaluated as (2,)
    xs, ys = (0.3, 0.7), (0.5,)
    for evaluate in (lambda: schur_det((2.5,), xs), lambda: schur_comb((2.5,), xs),
                     lambda: ls_comb((2.5,), xs, ys)):
        with pytest.raises(ValueError, match="non-integer part"):
            evaluate()


def test_schur_comb_handles_repeats_and_restriction():
    assert schur_comb((2,), (1.0, 1.0)) == pytest.approx(3)
    rng = np.random.default_rng(6)
    xs = random_points(rng, 3)
    for lam in [(2, 1), (3,), (2, 2)]:
        assert rel_err(schur_comb(lam, xs + (0,)), schur_comb(lam, xs)) < 1e-12


def test_schur_comb_ssyt_example():
    # s_(2)(x1, x2) = x1^2 + x1 x2 + x2^2 from tableaux {11, 12, 22}
    x1, x2 = 0.4 + 0.1j, -1.2 + 0.5j
    want = x1 * x1 + x1 * x2 + x2 * x2
    assert schur_comb((2,), (x1, x2)) == pytest.approx(want)


def test_schur_comb_rectangle_count():
    # s_(2,2)(1,1,1,1) counts SSYT of shape (2,2) with entries <= 4
    assert schur_comb((2, 2), (1, 1, 1, 1)) == pytest.approx(20)


def test_schur_cap():
    with pytest.raises(SizeCapError):
        schur_comb((21,), (1.0,))


def test_schur_oracle_equivalence_small():
    rng = np.random.default_rng(7)
    for _ in range(5):
        nvars = int(rng.integers(1, 5))
        xs = random_points(rng, nvars)
        for lam in partitions_up_to(6):
            assert rel_err(schur_comb(lam, xs), schur_det(lam, xs)) < 1e-9


def test_lr_coeff_identity_axioms():
    for lam in partitions_up_to(6):
        assert lr_coeff(lam, lam, ()) == 1
        assert lr_coeff(lam, (), lam) == 1
        for mu in partitions_up_to(4):
            if mu != lam:
                assert lr_coeff(lam, mu, ()) == 0


def test_lr_coeff_first_products():
    assert lr_coeff((2,), (1,), (1,)) == 1
    assert lr_coeff((1, 1), (1,), (1,)) == 1
    assert lr_coeff((2, 1), (2, 1), ()) == 1


def test_lr_coeff_pieri():
    for kappa in partitions_up_to(5):
        for r in (1, 2, 3):
            for lam in partitions_of(size(kappa) + r):
                want = 1 if is_horizontal_strip(lam, kappa) else 0
                assert lr_coeff(lam, kappa, (r,)) == want


def test_lr_coeff_matches_schur_product():
    # sum_lam c^lam_{mu nu} s_lam = s_mu s_nu numerically
    rng = np.random.default_rng(8)
    xs = random_points(rng, 4)
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            lhs = schur_comb(mu, xs) * schur_comb(nu, xs)
            rhs = sum(
                lr_coeff(lam, mu, nu) * schur_comb(lam, xs)
                for lam in partitions_of(size(mu) + size(nu))
            )
            assert rel_err(lhs, rhs) < 1e-9


def test_lr_symmetry():
    for lam in partitions_up_to(6):
        for nu in partitions_up_to(4):
            rest = size(lam) - size(nu)
            if rest < 0:
                continue
            for mu in partitions_of(rest):
                assert lr_coeff(lam, mu, nu) == lr_coeff(lam, nu, mu)
                assert lr_coeff(lam, mu, nu) == lr_coeff(
                    conjugate(lam), conjugate(mu), conjugate(nu)
                )


def test_ls_comb_specializations():
    rng = np.random.default_rng(9)
    xs = random_points(rng, 3)
    ys = random_points(rng, 2, avoid=xs)
    for lam in partitions_up_to(5):
        assert rel_err(ls_comb(lam, xs, ()), schur_comb(lam, xs)) < 1e-10
        assert rel_err(ls_comb(lam, (), ys), schur_comb(conjugate(lam), ys)) < 1e-10


def test_ls_comb_conjugation_symmetry():
    rng = np.random.default_rng(10)
    xs = random_points(rng, 2)
    ys = random_points(rng, 2, avoid=xs)
    for lam in partitions_up_to(5):
        assert rel_err(
            ls_comb(lam, xs, ys), ls_comb(conjugate(lam), ys, xs)
        ) < 1e-10


def test_ls_comb_vanishing_box():
    # LS vanishes when lambda contains the box (m+1, n+1)
    xs = (0.5, 1.2)  # n = 2
    ys = (0.7,)  # m = 1
    lam = (3, 3, 3)  # contains the box (2, 3)
    assert ls_comb(lam, xs, ys) == 0


def test_ls_det_matches_ls_comb():
    rng = np.random.default_rng(11)
    for _ in range(4):
        n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        pts = random_points(rng, n + m)
        xs, ys = pts[:n], pts[n:]
        for lam in partitions_up_to(6):
            got = ls_det(lam, xs, ys)
            want = ls_comb(lam, neg(xs), ys)
            assert rel_err(got, want) < 1e-8, (lam, xs, ys)


def test_ls_det_negative_index_vanishes():
    xs = (0.5, 1.1)
    ys = (0.9,)
    lam = (3, 3, 2)  # (1,3)-index is negative
    assert mn_index(lam, len(ys), len(xs)) < 0
    assert ls_det(lam, xs, ys) == 0
    assert abs(ls_comb(lam, neg(xs), ys)) < 1e-12


def test_ls_det_littlewood_square():
    # LS_<(m+l)^n>(-X; Y) = e(-X)^l Delta(Y; X)
    rng = np.random.default_rng(12)
    for ell in (0, 1, 2):
        n, m = 2, 2
        pts = random_points(rng, n + m)
        xs, ys = pts[:n], pts[n:]
        got = ls_det((m + ell,) * n, xs, ys)
        want = e_prod(neg(xs)) ** ell * delta2(ys, xs)
        assert rel_err(got, want) < 1e-9


def test_ls_det_index_zero_factorization():
    # index 0 and l(lam) <= n: LS_lam(-X; Y) = Delta(Y;X) s_{lam - <m^n>}(-X)
    rng = np.random.default_rng(13)
    n, m = 2, 2
    pts = random_points(rng, n + m)
    xs, ys = pts[:n], pts[n:]
    for alpha in partitions_up_to(4, max_len=n):
        lam = tuple(a + m for a in (alpha + (0,) * (n - len(alpha))))
        assert mn_index(lam, m, n) == 0
        got = ls_det(lam, xs, ys)
        want = delta2(ys, xs) * schur_det(alpha, neg(xs))
        assert rel_err(got, want) < 1e-9


def test_ls_det_coincident_raises():
    with pytest.raises(CoincidentVariablesError):
        ls_det((1,), (0.5,), (0.5,))


def test_vanderjeugt_counterexample_surplus():
    # splitting LS_(1,1,1) over two variables misses exactly y1 y2 y3
    rng = np.random.default_rng(14)
    pts = random_points(rng, 5)
    x1, x2 = pts[:2]
    ys = pts[2:]
    lam = (1, 1, 1)
    lhs = ls_det(lam, (x1, x2), ys)
    split = 0j
    for s, t in (((x1,), (x2,)), ((x2,), (x1,))):
        split += (
            ls_det((2,), s, ys)
            * ls_det((1, 1), t, ys)
            / delta2(t, s)
        )
    surplus = lhs - split
    assert rel_err(surplus, e_prod(ys)) < 1e-8


def test_pairwise_distinct_predicate():
    assert _distinct((0j, 1 + 0j, 2 + 0j))
    assert not _distinct((0j, 1e-9 + 0j))


def test_schur_in_monomials():
    # s_(2,1) = m_(2,1) + 2 m_(1,1,1)
    out = schur_in_monomials((2, 1), 3)
    assert out == {(2, 1): 1, (1, 1, 1): 2}
    rng = np.random.default_rng(15)
    xs = random_points(rng, 3)
    val = sum(k * monomial_eval(mu, xs) for mu, k in out.items())
    assert rel_err(val, schur_det((2, 1), xs)) < 1e-9


def _lsrmt_cache_stats():
    """(currsize, misses) of every functools cache bound in an lsrmt module."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "lsrmt" and not name.startswith("lsrmt."):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                info = value.cache_info()
                out[f"{name}.{attr}"] = (info.currsize, info.misses)
    return out


def test_fresh_points_grow_no_cache():
    # caches may hold shape data only: a second point set adds no entries
    rng = np.random.default_rng(21)

    def evaluate_every_shape():
        xs = random_points(rng, 3)
        ys = random_points(rng, 2, avoid=xs)
        for lam in partitions_up_to(5):
            schur_comb(lam, xs)
            ls_comb(lam, xs, ys)
            ls_det(lam, xs, ys)

    evaluate_every_shape()
    before = _lsrmt_cache_stats()
    evaluate_every_shape()
    assert _lsrmt_cache_stats() == before


def test_comb_plans_and_memos_do_not_leak_between_calls():
    rng = np.random.default_rng(22)
    for _ in range(200):
        xs = random_points(rng, int(rng.integers(1, 5)))
        for lam in partitions_up_to(4):
            assert rel_err(schur_comb(lam, xs), schur_det(lam, xs)) < 1e-9
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
        point_sets = []
        for _ in range(2):
            pts = random_points(rng, n + m)
            point_sets.append((pts[:n], pts[n:]))
        for lam in partitions_up_to(6):
            for xs, ys in point_sets:
                got = ls_comb(lam, xs, ys)
                assert rel_err(got, ls_det(lam, neg(xs), ys)) < 1e-8, (lam, xs, ys)
    # coincident X values: the memo is keyed on prefix lengths, not on values
    a, b = 0.6 + 0.2j, -0.4 + 0.9j
    xs, ys = (a, a, b), (0.8 - 0.3j, 0.5j)
    for lam in partitions_up_to(5):
        base = ls_comb(lam, xs, ys)
        assert rel_err(ls_comb(lam, xs + (0j,), ys), base) < 1e-12
        assert rel_err(ls_comb(lam, xs, ys + (0j,)), base) < 1e-12


def test_ls_det_on_empty_variable_sets():
    # LS_lam(-X; ()) = s_lam(-X) and LS_lam(-(); Y) = s_lam'(Y)
    rng = np.random.default_rng(23)
    assert ls_det((), (), ()) == 1
    for lam in partitions_up_to(5):
        if lam:
            assert ls_det(lam, (), ()) == 0
        for count in range(1, 4):
            pts = random_points(rng, count)
            got = ls_det(lam, pts, ())
            assert rel_err(got, ls_comb(lam, neg(pts), ())) < 1e-9, (lam, pts)
            assert rel_err(got, schur_comb(lam, neg(pts))) < 1e-9, (lam, pts)
            got = ls_det(lam, (), pts)
            assert rel_err(got, ls_comb(lam, (), pts)) < 1e-9, (lam, pts)
            assert rel_err(got, schur_comb(conjugate(lam), pts)) < 1e-9, (lam, pts)


def _ls_det_by_elements(lam, xs, ys):
    """ls_det as first written: the block matrix filled one entry at a time."""
    n, m = len(xs), len(ys)
    k = mn_index(lam, m, n)
    if k < 0:
        return 0j
    lamc = conjugate(lam)
    dim = n + (m - k)
    mat = np.zeros((dim, dim), dtype=complex)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            mat[i, j] = 1 / (x - y)
        for j in range(1, n - k + 1):
            mat[i, m + j - 1] = x ** (part(lam, j) + n - m - j)
    for i in range(1, m - k + 1):
        for j, y in enumerate(ys):
            mat[n + i - 1, j] = y ** (part(lamc, i) + m - n - i)
    det = complex(np.linalg.det(mat))
    sign = ls_det_sign(lam, m, n)
    return sign * delta2(ys, xs) / (delta(xs) * delta(ys)) * det


def _schur_recursive(lam, xs, k, memo):
    """s_lam(x_1..x_k) by the branching rule as a memoized recursion."""
    if not lam:
        return 1.0 + 0j
    if len(lam) > k:
        return 0j
    if (lam, k) not in memo:
        total = 0j
        for mu, strip in _horizontal_strip_predecessors(lam):
            total += xs[k - 1] ** strip * _schur_recursive(mu, xs, k - 1, memo)
        memo[lam, k] = total
    return memo[lam, k]


def _hook_recursive(lam, xs, ys, memo):
    """LS_lam(X; y_1..y_m) by hook-tableau branching as a memoized recursion.

    Peels vertical strips for y_m down to no Y variable, then horizontal
    strips for the X variables.
    """
    m = len(ys)
    if not m:
        return _schur_recursive(lam, xs, len(xs), memo)
    if not lam:
        return 1.0 + 0j
    if part(lam, len(xs) + 1) > m:
        return 0j
    if (lam, len(xs) + m) not in memo:
        total = 0j
        for rho, strip in _vertical_strip_predecessors(lam):
            total += ys[m - 1] ** strip * _hook_recursive(rho, xs, ys[:m - 1], memo)
        memo[lam, len(xs) + m] = total
    return memo[lam, len(xs) + m]


def test_ls_det_plan_matches_elementwise_fill():
    rng = np.random.default_rng(24)
    for n in range(5):
        for m in range(5):
            pts = random_points(rng, n + m)
            xs, ys = pts[:n], pts[n:]
            for lam in partitions_up_to(8):
                assert ls_det(lam, xs, ys) == _ls_det_by_elements(lam, xs, ys), (lam, xs, ys)


def _branching_cases():
    rng = np.random.default_rng(25)
    a, b = 0.6 + 0.2j, -0.4 + 0.9j
    cases = []
    for n in range(5):
        for m in range(5):
            pts = random_points(rng, n + m)
            cases.append((pts[:n], pts[n:]))
    # a zero variable and coincident X values
    cases += [((a, a, b), (0.8 - 0.3j, 0j)), ((0j, a, a), (b,)), ((a, a, a, a), (0j, b))]
    return cases


def test_branching_plans_match_recursive_rule():
    for xs, ys in _branching_cases():
        for lam in partitions_up_to(8):
            assert schur_comb(lam, xs) == _schur_recursive(lam, xs, len(xs), {}), (lam, xs)
            assert ls_comb(lam, xs, ys) == _hook_recursive(lam, xs, ys, {}), (lam, xs, ys)


def test_ls_comb_matches_lr_sum_definition():
    for xs, ys in _branching_cases():
        for lam in partitions_up_to(8):
            got, want = ls_comb(lam, xs, ys), ls_by_lr_sum(lam, xs, ys)
            assert rel_err(got, want) <= 1e-12, (lam, xs, ys)


def test_vertical_strip_predecessors_brute_force():
    for lam in partitions_up_to(8):
        got = _vertical_strip_predecessors(lam)
        want = {
            (rho, size(lam) - size(rho))
            for rho in partitions_up_to(size(lam))
            if is_horizontal_strip(conjugate(lam), conjugate(rho))
        }
        assert len(got) == len(want) and set(got) == want, lam


def _schur_det_one_matrix(lam, xs):
    """schur_det as one determinant call per shape, as it was before stacking."""
    n = len(xs)
    if len(lam) > n:
        return 0j
    if n == 0:
        return 1.0 + 0j
    mat = np.array(
        [[x ** (part(lam, j) + n - j) for j in range(1, n + 1)] for x in xs],
        dtype=complex,
    )
    return complex(np.linalg.det(mat) / delta(xs))


def test_ls_det_stack_matches_one_matrix_at_a_time():
    # one mixed stack: negative-index shapes, dim-0 items, dims 1..6
    rng = np.random.default_rng(26)
    items, want = [], []
    for n in range(5):
        for m in range(5):
            pts = random_points(rng, n + m)
            xs, ys = pts[:n], pts[n:]
            for lam in partitions_up_to(8):
                items.append((lam, xs, ys))
                want.append(_ls_det_by_elements(lam, xs, ys))
    plans = [_ls_det_plan(lam, len(xs), len(ys)) for lam, xs, ys in items]
    assert None in plans
    assert {plan[0] for plan in plans if plan} == set(range(7))
    assert _ls_det_many(items) == want


def test_ls_det_stack_plans_the_canonical_shape():
    # trailing zeros and lists give the canonical tuple's value, bit for bit
    rng = np.random.default_rng(29)
    pts = random_points(rng, 5)
    for n in range(4):
        xs, ys = pts[:n], pts[n:]
        for lam in partitions_up_to(6):
            items = [(lam, xs, ys), (lam + (0, 0), xs, ys), (list(lam) + [0], xs, ys)]
            base, padded, listed = _ls_det_many(items)
            assert padded == base and listed == base, (lam, n)
            assert ls_det(list(lam) + [0], xs, ys) == base, (lam, n)


def test_schur_det_stack_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(27)
    pool = partition_pool(8)
    for n in range(7):
        xs = random_points(rng, n)
        want = [_schur_det_one_matrix(lam, xs) for lam in pool]
        assert _schur_det_many(pool, xs) == want, n
        assert [schur_det(lam, xs) for lam in pool] == want, n


def test_one_coincident_item_fails_the_whole_stack():
    rng = np.random.default_rng(28)
    pts = random_points(rng, 5)
    xs, ys = pts[:3], pts[3:]
    good = [(lam, xs, ys) for lam in partitions_up_to(4)]
    twin = ((xs[0], xs[0] + 1e-9, xs[2]), ys)
    with pytest.raises(CoincidentVariablesError):
        _ls_det_many(good[:4] + [((2, 1), *twin)] + good[4:])
    with pytest.raises(CoincidentVariablesError):
        _schur_det_many([(5,), (1,), ()], twin[0])


def test_negative_index_item_is_zero_without_distinctness_check():
    rng = np.random.default_rng(28)
    pts = random_points(rng, 5)
    xs, ys = pts[:3], pts[3:]
    twin = ((xs[0], xs[0] + 1e-9, xs[2]), ys)
    # (3, 3, 3, 3) has (2, 3)-index -1, also with a trailing zero
    assert mn_index((3, 3, 3, 3), 2, 3) < 0
    good = [(lam, xs, ys) for lam in partitions_up_to(4)]
    got = _ls_det_many(good + [((3, 3, 3, 3), *twin), ((3, 3, 3, 3, 0), *twin)])
    assert got[-2:] == [0, 0]
    assert got[:-2] == _ls_det_many(good)
