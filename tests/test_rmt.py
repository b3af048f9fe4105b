from fractions import Fraction

import numpy as np
import pytest

from lsrmt.haar import make_estimator, weyl_quadrature
from lsrmt.partitions import canonical
from lsrmt.rmt import (
    RecipeInput,
    TruncationError,
    _exact_length,
    catalog_function,
    catalog_symmetric,
    completed_logders_main,
    explicit_formula_rhs,
    logders_main,
    moment_unitary,
    poly_geom_tail,
    product_avg,
    ratio_avg,
    recipe_main,
)
from lsrmt.symfunc import schur_comb
from util import moment_leading, random_points, rel_err, unpruned_partitions_of, z_stat


def test_moment_unitary_values():
    assert moment_unitary(0, 5) == 1
    assert moment_unitary(1, 2) == 3
    assert moment_unitary(2, 2) == 20
    for big_n in range(11):
        assert moment_unitary(1, big_n) == big_n + 1


def test_moment_matches_rectangular_schur():
    for k in (1, 2, 3):
        for big_n in (1, 2, 3, 4):
            want = schur_comb((big_n,) * k, (1.0,) * (2 * k), cap=big_n * k)
            assert moment_unitary(k, big_n) == round(want.real)


def test_moment_leading_values():
    assert moment_leading(1) == 1
    assert moment_leading(2) == Fraction(1, 12)


def _limit_deviation(k, big_n):
    ratio = moment_unitary(k, big_n) / Fraction(big_n) ** (k * k)
    return abs(float(ratio) / float(moment_leading(k)) - 1)


def test_moment_limit_converges_at_rate_one_over_n():
    # the normalized moment approaches f_k like 1 + c_k / N with c_k = k^3;
    # the deviation roughly halves when N doubles, and 2% relative needs
    # N >~ 50 k^3 (about 400 for k = 2 and 1350 for k = 3)
    assert _limit_deviation(1, 200) < 0.02
    assert _limit_deviation(2, 800) < 0.02
    assert _limit_deviation(3, 1600) < 0.02
    for k in (2, 3):
        d1, d2 = _limit_deviation(k, 100), _limit_deviation(k, 200)
        assert 0.4 < d2 / d1 < 0.6


def test_product_avg_moments_special_case():
    for k in (1, 2):
        for big_n in (1, 2, 3):
            got = product_avg((1.0,) * k, (1.0,) * k, big_n, form="schur")
            assert rel_err(got, complex(moment_unitary(k, big_n))) < 1e-9


def test_product_avg_empty_b():
    got = product_avg((1.3 + 0.2j,), (), 4, form="schur")
    assert got == pytest.approx(1)


def test_product_avg_forms_agree():
    rng = np.random.default_rng(0)
    for big_n in (1, 3, 6):
        a = random_points(rng, 2)
        b = random_points(rng, 2, avoid=a)
        got1 = product_avg(a, b, big_n, form="schur")
        got2 = product_avg(a, b, big_n, form="split_sum")
        assert rel_err(got1, got2) < 1e-8


@pytest.mark.parametrize("call", [
    lambda: product_avg((0.5,), (), -1, form="schur"),
    lambda: product_avg((0.5,), (), -1, form="split_sum"),
    lambda: completed_logders_main((0.3,), (0.3,), -1),
    lambda: completed_logders_main((), (), -1),
    lambda: explicit_formula_rhs(catalog_function("rational:2"), catalog_symmetric("one", 1),
                                 1, 0.6, -1),
], ids=["product-schur", "product-split-sum", "completed", "completed-empty", "explicit-rhs"])
def test_negative_matrix_size_is_refused(call):
    # every closed form over U(N) refuses N < 0, as mc_average does
    with pytest.raises(ValueError, match=r"^N must be non-negative, got -1$"):
        call()


def test_ratio_avg_reduces_to_product():
    rng = np.random.default_rng(1)
    a = random_points(rng, 2)
    b = random_points(rng, 1, avoid=a)
    for big_n in (2, 4):
        got = ratio_avg(a, b, (), (), big_n)
        want = product_avg(a, b, big_n, form="schur")
        assert rel_err(got, want) < 1e-9


def test_ratio_avg_pure_cd():
    gamma, delta_ = 0.4 + 0.1j, -0.3 + 0.2j
    got = ratio_avg((), (), (gamma,), (delta_,), 5)
    assert rel_err(got, 1 / (1 - gamma * delta_)) < 1e-12


def test_ratio_avg_preconditions():
    with pytest.raises(ValueError):
        ratio_avg((), (), (1.2,), (), 3)
    with pytest.raises(ValueError):
        ratio_avg((), (), (0.5, 0.5), (), 1)
    with pytest.raises(ValueError):
        ratio_avg((), (), (), (0.5, 0.4), 1)


def test_poly_geom_tail_bounds_true_tail():
    rho, degree, cutoff = 0.4, 3, 10
    exact = sum(s ** degree * rho ** s for s in range(cutoff + 1, 400))
    bound = poly_geom_tail(cutoff, degree, rho)
    assert exact <= bound <= exact * 50 + 1e-12


def test_poly_geom_tail_refuses_negative_cutoff():
    # s would start at 0, where the ratio test divides by s
    with pytest.raises(ValueError):
        poly_geom_tail(-1, 3, 0.4)
    with pytest.raises(ValueError):
        logders_main((0.0,), (0.3,), part_cap=-1)


def test_logders_main_zero_cap_at_rho_0_refuses():
    # rho = 0 leaves only lam = <1^L>, of weight rho^0: cap 0 drops it, cap 1 keeps it
    with pytest.raises(TruncationError):
        logders_main((0.0,), (0.3,), part_cap=0)
    assert logders_main((0.0,), (0.3,), part_cap=1) == 1
    assert completed_logders_main((0.0,), (0.3,), 4, part_cap=0) == 4


def test_logders_main_cases():
    assert logders_main((), ()) == 1
    assert logders_main((0.3,), ()) == 0
    eps, phi = 0.25 + 0.1j, 0.2 - 0.15j
    got = logders_main((eps,), (phi,))
    want = 1 / (1 - eps * phi) ** 2
    assert rel_err(got, want) < 1e-10


def test_logders_main_pair_sum_oracle():
    # two-variable case against a direct double series
    e_vars = (0.3, 0.2)
    f_vars = (0.25, 0.35)
    got = logders_main(e_vars, f_vars)
    # direct sum over partitions with exactly 2 parts via brute force
    from lsrmt.symfunc import monomial_eval

    want = 0j
    for a in range(1, 45):
        for b in range(1, a + 1):
            lam = (a, b)
            shifted = tuple(p - 1 for p in lam)
            from lsrmt.partitions import canonical

            want += (
                float(z_stat(lam))
                * monomial_eval(canonical(shifted), e_vars)
                * monomial_eval(canonical(shifted), f_vars)
            )
    assert rel_err(got, want) < 1e-9


def test_exact_length_matches_filter_then_shift():
    for nparts in range(5):
        for max_part in (None, 1, 2, 5):
            want = [
                (lam, canonical(tuple(p - 1 for p in lam)))
                for total in range(15)
                for lam in unpruned_partitions_of(total, max_part=max_part, max_len=nparts)
                if len(lam) == nparts
            ]
            got = list(_exact_length(nparts, range(15), max_part))
            assert got == want, (nparts, max_part)


def test_completed_logders_main_cases():
    assert completed_logders_main((), (), 7) == 1
    eps, phi = 0.3, 0.3
    big_n = 12
    got = completed_logders_main((eps,), (phi,), big_n)
    want = big_n ** 2 / 4 + eps * phi / (1 - eps * phi) ** 2
    assert rel_err(got, want) < 1e-10


def test_logder_closed_forms_are_large_n_main_terms():
    # exact U(N) means by Weyl quadrature: 0.0989011, 0.1078022, 0.1086033 at
    # N = 1, 2, 3 against the main term 0.1086825 for every N; the gap is
    # (eps phi)^N times the main term, for the plain and the completed pair
    # alike, and the mc predictions are the exact means
    eps = phi = 0.3
    main = eps * phi * logders_main((eps,), (phi,))
    assert rel_err(main, eps * phi / (1 - eps * phi) ** 2) < 1e-12
    for big_n in (1, 2, 3):
        gap = (eps * phi) ** big_n * main
        plain = make_estimator("logder_pair", big_n, eps=eps, phi=phi)
        completed = make_estimator("completed_logder_pair", big_n, eps=eps, phi=phi)
        plain_mean = weyl_quadrature(plain, big_n)
        completed_mean = weyl_quadrature(completed, big_n)
        completed_main = completed_logders_main((eps,), (phi,), big_n)
        assert abs(main - plain_mean - gap) < 1e-12, big_n
        assert abs(completed_main - completed_mean - gap) < 1e-12, big_n
        assert abs(gap) > 7e-5
        assert abs(plain.prediction - plain_mean) < 1e-12, big_n
        assert abs(completed.prediction - completed_mean) < 1e-12, big_n


def test_completed_logders_binomial_consistency():
    # completed = sum over subsets of (-N/2)^{...} times plain log-ders
    eps, phi = 0.28, -0.22
    big_n = 9
    lhs = completed_logders_main((eps,), (phi,), big_n)
    rhs = (
        (-big_n / 2) ** 2
        + (-big_n / 2) * 0  # l(E') != l(F') terms vanish
        + (-big_n / 2) * 0
        + eps * phi * logders_main((eps,), (phi,))
    )
    assert rel_err(lhs, rhs) < 1e-10


def test_recipe_reduces_to_ratio_avg():
    rng = np.random.default_rng(2)
    a = random_points(rng, 1, rmin=0.8, rmax=1.2)
    b = random_points(rng, 1, rmin=0.8, rmax=1.2, avoid=a)
    c = (0.4 + 0.05j,)
    d = (0.35 - 0.1j,)
    big_n = 10
    inp = RecipeInput(a, b, c, d, (), (), big_n)
    got = recipe_main(inp, part_cap=30, size_cap=30)
    want = ratio_avg(a, b, c, d, big_n)
    assert rel_err(got, want) < 1e-6


def test_recipe_reduces_to_logders_main():
    eps, phi = 0.3, 0.25
    big_n = 14
    inp = RecipeInput((), (), (), (), (eps,), (phi,), big_n)
    got = recipe_main(inp, part_cap=40, size_cap=20)
    want = logders_main((eps,), (phi,))
    assert rel_err(got, want) < 1e-8


def test_recipe_reduces_to_logders_ratio_main():
    # F empty, single epsilon, with B and C present
    eps = 0.3
    b = (0.5,)
    c = (0.4,)
    big_n = 30
    inp = RecipeInput((), b, c, (), (eps,), (), big_n)
    got = recipe_main(inp, part_cap=40, size_cap=20)
    want = _logders_ratio_main(b, c, (eps,), (), part_cap=60)
    assert rel_err(got, want) < 1e-7


def _logders_ratio_main(b_vars, c_vars, e_vars, f_vars, part_cap=60):
    """Main term of the ratio-and-log-derivative theorem, summed directly."""
    from itertools import combinations

    from lsrmt.partitions import canonical, multiplicities, partitions_of
    from lsrmt.symfunc import monomial_eval, neg, powersum_r

    def subset_splits(values):
        values = tuple(values)
        idx = range(len(values))
        for r_ in range(len(values) + 1):
            for chosen in combinations(idx, r_):
                rest = tuple(i for i in idx if i not in chosen)
                yield (
                    tuple(values[i] for i in chosen),
                    tuple(values[i] for i in rest),
                )

    def exact_length(nparts, cap):
        if nparts == 0:
            yield ()
            return
        for total in range(nparts, nparts * cap + 1):
            for lam in partitions_of(total, max_part=cap, max_len=nparts):
                if len(lam) == nparts:
                    yield lam

    total = 0j
    for e_p, e_pp in subset_splits(e_vars):
        chi_sum = 0j
        for chi in exact_length(len(e_pp), part_cap):
            term = monomial_eval(canonical(tuple(p - 1 for p in chi)), neg(e_pp))
            for p in chi:
                term *= powersum_r(p, neg(b_vars))
            chi_sum += term
        psi_total = 0j
        for psi in exact_length(len(e_p), part_cap):
            w = monomial_eval(canonical(tuple(p - 1 for p in psi)), e_p)
            if w == 0:
                continue
            m_psi = multiplicities(psi)
            omega_total = 0j
            for omega in _sub_multisets(psi, len(f_vars)):
                m_om = multiplicities(omega)
                factor = monomial_eval(
                    canonical(tuple(p - 1 for p in omega)), f_vars
                )
                rest = []
                for k, v in m_psi.items():
                    rest.extend([k] * (v - m_om.get(k, 0)))
                for k, v in m_om.items():
                    factor *= float(k) ** v
                from math import factorial

                for k in m_psi:
                    factor *= factorial(m_psi[k]) / factorial(
                        m_psi[k] - m_om.get(k, 0)
                    )
                for p in rest:
                    factor *= powersum_r(p, c_vars)
                omega_total += factor
            psi_total += w * omega_total
        total += chi_sum * psi_total
    return (-1) ** (len(e_vars) + len(f_vars)) * total


def _sub_multisets(psi, nparts):
    """Sub-multisets of psi with exactly nparts parts."""
    from itertools import combinations

    seen = set()
    for chosen in combinations(range(len(psi)), nparts):
        cand = tuple(sorted((psi[i] for i in chosen), reverse=True))
        if cand not in seen:
            seen.add(cand)
            yield cand


def test_recipe_symmetry_under_permutation():
    rng = np.random.default_rng(3)
    a = random_points(rng, 2, rmin=0.8, rmax=1.2)
    c = (0.3, 0.2 + 0.1j)
    inp1 = RecipeInput(a, (), c, (), (), (), 6)
    inp2 = RecipeInput((a[1], a[0]), (), (c[1], c[0]), (), (), (), 6)
    v1 = recipe_main(inp1, part_cap=20, size_cap=20)
    v2 = recipe_main(inp2, part_cap=20, size_cap=20)
    assert rel_err(v1, v2) < 1e-10


def test_recipe_rejects_bad_input():
    with pytest.raises(ValueError):
        RecipeInput((), (), (), (0.5,), (), (), 4)  # l(D) > l(A)
    with pytest.raises(ValueError):
        RecipeInput((), (), (1.1,), (), (), (), 4)


def test_explicit_formula_constant():
    h = catalog_function("one")
    f = catalog_symmetric("one", 1)
    for big_n in (1, 5, 8):
        got = explicit_formula_rhs(h, f, 1, 0.6, big_n, grid=16)
        assert rel_err(got, complex(big_n)) < 1e-10


def test_explicit_formula_identity_h():
    h = catalog_function("identity")
    f = catalog_symmetric("one", 1)
    got = explicit_formula_rhs(h, f, 1, 0.6, 8, grid=16)
    assert abs(got) < 1e-10


def test_explicit_formula_rational_h():
    # E[sum_j 1/(2 - rho_j)] = N/2 for N >= 1 (power sums average to zero)
    h = catalog_function("rational:2")
    f = catalog_symmetric("one", 1)
    got = explicit_formula_rhs(h, f, 1, 0.6, 8, grid=32)
    assert rel_err(got, 4.0) < 1e-8


def test_explicit_formula_two_point_constant():
    # n = 2, h = 1, f = 1: all lam = (s) integrals vanish, value is N^2
    h = catalog_function("one")
    f = catalog_symmetric("one", 2)
    big_n = 5
    got = explicit_formula_rhs(h, f, 2, 0.6, big_n, grid=16)
    assert rel_err(got, complex(big_n ** 2)) < 1e-8


def test_explicit_formula_two_point_mixed_frequencies():
    # h(z) = z + 1/z pairs the two circles: only lam = (1) at k = 1 survives
    # and the value is 2, matching E[(tr g + conj tr g)^2] = 2 E|tr g|^2
    h = lambda z: np.asarray(z, dtype=complex) + 1.0 / np.asarray(z, dtype=complex)
    f = catalog_symmetric("one", 2)
    for big_n in (2, 5):
        got = explicit_formula_rhs(h, f, 2, 0.6, big_n, grid=16)
        assert rel_err(got, 2.0 + 0j) < 1e-8


def test_catalogs():
    with pytest.raises(ValueError):
        catalog_function("nope")
    with pytest.raises(ValueError):
        catalog_symmetric("nope", 1)
    fn = catalog_function("rational:1+1j")
    assert fn(np.array([0.0 + 0j]))[0] == pytest.approx(1 / (1 + 1j))


def test_logders_tail_certificate_below_tolerance():
    # the certified bound at the default cutoff must sit under 1e-10
    from lsrmt.rmt import PART_CAP, _certify_pair_tail

    bound = _certify_pair_tail((0.3,), (0.3,), 1, PART_CAP, 1.0)
    assert 0 < bound < 1e-10
