"""Closed-form main terms for unitary-group averages.

Moments, products, ratios, logarithmic derivatives (plain and completed),
the general mixed-ratio recipe main term, and the explicit-formula right-hand
side.  Infinite partition sums are truncated at a configurable part cap with
certified geometric tail bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .partitions import multiplicities, partition_pool, partitions_of, partitions_up_to
from .symfunc import (
    _delta2,
    _distinct,
    _monomial_plan,
    _monomial_values,
    as_varset,
    e_prod,
    inv,
    monomial_eval,
    monomial_on_arrays,
    neg,
    ordered_splits,
    powersum_r,
    schur_comb,
    schur_det,
)

PART_CAP = 60
RECIPE_SIZE_CAP = 24
MAX_GRID_POINTS = 1 << 20
# certified tail bound the log-derivative main terms must meet
TAIL_TOL = 1e-10
# explicit formula: grid-doubling agreement, doublings allowed, partition part cap
EXPLICIT_TOL = 1e-8
EXPLICIT_MAX_REFINE = 7
EXPLICIT_PART_CAP = 40


@lru_cache(maxsize=1 << 16)
def _z_float(lam) -> float:
    """Float z-statistic prod_i i^{m_i} m_i!, exploiting the sorted parts."""
    out = 1.0
    current, run = 0, 0
    for p in lam + (0,):
        if p == current:
            run += 1
        else:
            if current:
                out *= float(current) ** run * factorial(run)
            current, run = p, 1
    return out


class TruncationError(RuntimeError):
    """Raised when a certified tail bound exceeds the requested tolerance."""


class QuadratureError(RuntimeError):
    """Raised when grid refinement fails to converge."""


def _refine_grid(estimate, grid: int, dim: int, tol: float, max_refine: int) -> complex:
    """Double the grid, up to max_refine estimates, until two successive agree.

    estimate maps a grid size to a value on a mesh of grid ** dim points;
    agreement is relative to max(1, |value|).  A mesh above MAX_GRID_POINTS
    raises before it is built.
    """
    last = None
    g = grid
    for _ in range(max_refine):
        if g ** dim > MAX_GRID_POINTS:
            raise QuadratureError(f"mesh of {g}**{dim} points exceeds {MAX_GRID_POINTS}")
        value = estimate(g)
        if last is not None and abs(value - last) <= tol * max(1.0, abs(value)):
            return value
        last = value
        g *= 2
    raise QuadratureError(
        f"grid refinement did not converge below {tol} at {g // 2} points"
    )


def moment_unitary(k: int, big_n: int) -> Fraction:
    """2k-th absolute moment of the characteristic polynomial at 1 over U(N)."""
    if k < 0 or big_n < 0:
        raise ValueError("k and N must be non-negative")
    out = Fraction(1)
    for j in range(big_n):
        out *= Fraction(factorial(j) * factorial(j + 2 * k), factorial(j + k) ** 2)
    return out


def product_avg(a_vars, b_vars, big_n: int, form: str = "schur") -> complex:
    """Average of products of characteristic polynomials over U(N).

    schur form: prod over beta of beta^N times the rectangular Schur function
    s_<N^m>(A cup B^{-1}) with m = l(B); split_sum form: the equivalent sum
    over splits of A cup B^{-1}, which is ratio_avg with C = D = {}.
    """
    if big_n < 0:
        raise ValueError(f"N must be non-negative, got {big_n}")
    a_vars, b_vars = as_varset(a_vars), as_varset(b_vars)
    if any(v == 0 for v in a_vars + b_vars):
        raise ValueError("variables must be non-zero")
    if form == "split_sum":
        return ratio_avg(a_vars, b_vars, (), (), big_n)
    if form != "schur":
        raise ValueError(f"unknown form {form!r}")
    m = len(b_vars)
    ab = a_vars + inv(b_vars)
    prefactor = e_prod(b_vars) ** big_n
    lam = (big_n,) * m
    if _distinct(ab):
        return prefactor * schur_det(lam, ab)
    return prefactor * schur_comb(lam, ab, cap=max(20, big_n * m))


def ratio_avg(a_vars, b_vars, c_vars, d_vars, big_n: int) -> complex:
    """Main formula for averages of ratios of characteristic polynomials."""
    a_vars, b_vars = as_varset(a_vars), as_varset(b_vars)
    c_vars, d_vars = as_varset(c_vars), as_varset(d_vars)
    if any(abs(v) >= 1 for v in c_vars + d_vars):
        raise ValueError("C and D must lie strictly inside the unit circle")
    if any(v == 0 for v in a_vars + b_vars + c_vars + d_vars):
        raise ValueError("variables must be non-zero")
    if len(d_vars) > big_n + len(a_vars):
        raise ValueError("need l(D) <= N + l(A)")
    if len(c_vars) > big_n:
        raise ValueError("need l(C) <= N")
    if not _distinct(a_vars + inv(b_vars)):
        raise ValueError("A cup B^{-1} must be pairwise distinct")
    cd = 1.0 + 0j
    for gamma in c_vars:
        for delta_ in d_vars:
            cd /= 1 - gamma * delta_
    prefactor = e_prod(neg(b_vars)) ** big_n
    total = 0j
    for _, t, term in _split_weights(a_vars, b_vars, d_vars, big_n):
        for tt in t:
            for gamma in c_vars:
                term *= 1 - tt * gamma
        total += term
    return prefactor * cd * total


def _split_weights(a_vars, b_vars, d_vars, big_n: int):
    """(S, T, weight) over the splits of A cup B^{-1} with l(S) = l(B).

    weight = (-S)^{N + l(A) - l(D)} Delta(D; S) / Delta(T; S), the factor that
    ratio_avg and recipe_main share.
    """
    for s, t in ordered_splits(a_vars + inv(b_vars), len(b_vars)):
        yield s, t, (
            e_prod(neg(s)) ** (big_n + len(a_vars) - len(d_vars))
            * _delta2(d_vars, s)
            / _delta2(t, s)
        )


# -- truncated partition sums with tail certificates --------------------------

def poly_geom_tail(cutoff: int, degree: int, rho: float) -> float:
    """Certified upper bound for sum_{s > cutoff} s^degree rho^s, rho < 1."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    if not 0 <= rho < 1:
        raise ValueError("rho must be in [0, 1)")
    if rho == 0:
        return 0.0
    total, s = 0.0, cutoff + 1
    while True:
        term = s ** degree * rho ** s
        ratio = rho * ((s + 1) / s) ** degree
        if ratio < 1:
            # remaining tail dominated by a geometric series
            return total + term + term * ratio / (1 - ratio)
        total += term
        s += 1


def _certify_pair_tail(e_vars, f_vars, nparts: int, part_cap: int, scale: float) -> float:
    """The certified tail bound of a pair sum over E and F cut at part_cap.

    The sum runs over partitions with nparts parts, weighted by rho^size with
    rho = max|E| max|F|, which must be below 1; the bound is scale *
    nparts!^3 / rho times the polynomial-geometric tail, and one above
    TAIL_TOL raises TruncationError.
    """
    rho = max(abs(v) for v in e_vars) * max(abs(v) for v in f_vars)
    if rho >= 1:
        raise ValueError("need max|E| max|F| < 1")
    # checks the cutoff even when rho = 0 leaves no tail
    tail = poly_geom_tail(part_cap, 2 * nparts - 1, rho)
    if rho > 0:
        tail *= scale * factorial(nparts) ** 3 / rho
    if tail > TAIL_TOL:
        raise TruncationError(f"tail bound {tail:.3e} exceeds {TAIL_TOL}")
    return tail


def logders_main(e_vars, f_vars, part_cap: int = PART_CAP) -> complex:
    """Main term for averages of products of logarithmic derivatives.

    Sum over partitions with exactly l(E) parts of
    z_lam m_{lam - <1^l>}(E) m_{lam - <1^l>}(F); zero unless l(E) = l(F).
    """
    e_vars, f_vars = as_varset(e_vars), as_varset(f_vars)
    if len(e_vars) != len(f_vars):
        return 0j
    nparts = len(e_vars)
    if nparts == 0:
        return 1.0 + 0j
    _certify_pair_tail(e_vars, f_vars, nparts, part_cap, 1.0)
    if part_cap == 0:
        # rho = 0 zeroes the bound, but lam = <1^L> has weight rho^0 and needs part cap 1
        raise TruncationError("part cap 0 leaves out lambda = <1^L>, of weight rho^0")
    total = 0j
    for z, plan in _logders_terms(nparts, part_cap):
        total += z * _monomial_values(plan, e_vars, 0j) * _monomial_values(plan, f_vars, 0j)
    return total


@lru_cache(maxsize=64)
def _logders_terms(nparts: int, part_cap: int):
    """logders_main's (z_lam, m plan of lam - <1^nparts>) terms, in summation order."""
    return tuple(
        (_z_float(lam), _monomial_plan(shifted, nparts))
        for lam, shifted in _exact_length(
            nparts, range(nparts, nparts * part_cap + 1), part_cap
        )
    )


def _exact_length(nparts: int, sizes, max_part: int | None):
    """(lam, lam - <1^nparts>) for lam with exactly nparts parts, each at most max_part.

    Sizes come in the given order, each lex-decreasing: mu = lam - <1^nparts>
    runs over the partitions of size - nparts with at most nparts parts, each
    below max_part, and adding 1 to every part keeps the order.
    """
    cap = None if max_part is None else max_part - 1
    for total in sizes:
        for mu in partitions_of(total - nparts, max_part=cap, max_len=nparts):
            yield tuple(p + 1 for p in mu) + (1,) * (nparts - len(mu)), mu


def completed_logders_main(
    e_vars,
    f_vars,
    big_n: int,
    part_cap: int = PART_CAP,
) -> complex:
    """Main term for completed logarithmic derivatives.

    Sum over all partitions of (-N/2)^{l(E)+l(F)-2 l(lam)} z_lam m_lam(E)
    m_lam(F).
    """
    if big_n < 0:
        raise ValueError(f"N must be non-negative, got {big_n}")
    e_vars, f_vars = as_varset(e_vars), as_varset(f_vars)
    ne, nf = len(e_vars), len(f_vars)
    maxlen = min(ne, nf)
    if maxlen > 0:
        amp = max((big_n / 2.0) ** (ne + nf - 2 * j) for j in range(1, maxlen + 1))
        _certify_pair_tail(e_vars, f_vars, maxlen, part_cap, max(amp, 1.0))
    total = 0j
    for length, z, e_plan, f_plan in _completed_terms(maxlen, part_cap, ne, nf):
        total += (
            (-big_n / 2.0) ** (ne + nf - 2 * length)
            * z
            * _monomial_values(e_plan, e_vars, 0j)
            * _monomial_values(f_plan, f_vars, 0j)
        )
    return total


@lru_cache(maxsize=64)
def _completed_terms(maxlen: int, part_cap: int, ne: int, nf: int):
    """completed_logders_main's (l(lam), z_lam, m plan in ne vars, in nf vars) terms.

    lam runs over the partitions with at most maxlen parts, each at most
    part_cap, in summation order.
    """
    return tuple(
        (len(lam), _z_float(lam), _monomial_plan(lam, ne), _monomial_plan(lam, nf))
        for lam in partitions_up_to(maxlen * part_cap, max_part=part_cap, max_len=maxlen)
    )


# -- the mixed-ratio recipe main term -----------------------------------------

@dataclass(frozen=True)
class RecipeInput:
    """Variable sets and matrix size for the mixed-ratio main term."""

    a_vars: tuple = ()
    b_vars: tuple = ()
    c_vars: tuple = ()
    d_vars: tuple = ()
    e_vars: tuple = ()
    f_vars: tuple = ()
    big_n: int = 1

    def __post_init__(self):
        for name in ("a_vars", "b_vars", "c_vars", "d_vars", "e_vars", "f_vars"):
            object.__setattr__(self, name, as_varset(getattr(self, name)))
        if any(
            v == 0
            for v in self.a_vars + self.b_vars + self.c_vars
            + self.d_vars + self.e_vars + self.f_vars
        ):
            raise ValueError("variables must be non-zero")
        for name in ("c_vars", "d_vars", "e_vars", "f_vars"):
            if any(abs(v) >= 1 for v in getattr(self, name)):
                raise ValueError(f"{name} must lie strictly inside the unit circle")
        if len(self.d_vars) > len(self.a_vars):
            raise ValueError("recipe main term needs l(D) <= l(A)")


def _mult_to_partition(mult: dict[int, int]):
    parts = []
    for k in sorted(mult, reverse=True):
        parts.extend([k] * mult[k])
    return tuple(parts)


def recipe_main(
    inp: RecipeInput,
    part_cap: int = RECIPE_SIZE_CAP,
    size_cap: int = RECIPE_SIZE_CAP,
) -> complex:
    """Main term of the mixed-ratio recipe.

    Outer sum over splits of A cup B^{-1}, then over splits of E and bounded
    (q, n) pairs, with inner sums over partitions chi, psi, omega and the
    multiset-matched pair (lam, xi).  The psi and lam sums are infinite and
    truncated at the given caps; callers pick values for which the geometric
    decay makes the truncation negligible.
    """
    a, b, c, d = inp.a_vars, inp.b_vars, inp.c_vars, inp.d_vars
    e, f = inp.e_vars, inp.f_vars
    big_n = inp.big_n
    budget = big_n - len(c)
    if budget < 0:
        raise ValueError("need l(C) <= N")
    pk_c = [0j] + [powersum_r(k, c) for k in range(1, size_cap + part_cap + 1)]
    prefactor = e_prod(neg(b)) ** big_n
    total = 0j
    for s_vars, t_vars, weight in _split_weights(a, b, d, big_n):
        # p_k of the union specialization rho^beta_{-T} cup rho^alpha_D
        pk_rho = [0j] + [
            (-1) ** (k - 1) * powersum_r(k, neg(t_vars)) + powersum_r(k, d)
            for k in range(1, size_cap + 1)
        ]
        neg_s = neg(s_vars)
        esum = 0j
        for e_prime, e_second in _subset_splits(e):
            chi_of_q = _chi_sums(e_second, neg_s, budget)
            psi_terms = _psi_terms(e_prime, part_cap)
            for q, chi_val in enumerate(chi_of_q):
                if chi_val == 0:
                    continue
                for n_ in range(0, budget - q + 1):
                    omega_terms = [
                        (om, monomial_eval(shifted, f))
                        for om, shifted in _exact_length(len(f), (n_,), None)
                    ]
                    if not omega_terms:
                        continue
                    for psi, psi_w in psi_terms:
                        if psi_w == 0:
                            continue
                        for om, om_w in omega_terms:
                            if om_w == 0:
                                continue
                            match = _matching_sum(
                                psi, om, pk_rho, pk_c, size_cap, part_cap
                            )
                            esum += chi_val * psi_w * om_w * match
        total += weight * esum
    sign = (-1) ** (len(e) + len(f))
    return prefactor * sign * total


def _subset_splits(values):
    """All ordered (subset, complement) pairs of a tuple."""
    values = tuple(values)
    for r in range(len(values) + 1):
        yield from ordered_splits(values, r)


def _chi_sums(e_second, neg_s, budget: int) -> list[complex]:
    """For each q <= budget, the chi-sum over l(chi) = l(E''), |chi| = q."""
    nparts = len(e_second)
    out = [0j] * (budget + 1)
    if nparts == 0:
        out[0] = 1.0 + 0j
        return out
    neg_e2 = neg(e_second)
    inv_neg_s = inv(neg_s) if neg_s else ()
    for q in range(nparts, budget + 1):
        acc = 0j
        for chi, shifted in _exact_length(nparts, (q,), None):
            term = monomial_eval(shifted, neg_e2)
            for p in chi:
                term *= powersum_r(p, inv_neg_s)
            acc += term
        out[q] = acc
    return out


def _psi_terms(e_prime, part_cap: int):
    nparts = len(e_prime)
    if nparts == 0:
        return [((), 1.0 + 0j)]
    return [
        (psi, monomial_eval(shifted, e_prime))
        for psi, shifted in _exact_length(nparts, range(nparts, nparts * part_cap + 1), part_cap)
    ]


def _matching_sum(psi, omega, pk_rho, pk_c, size_cap: int, part_cap: int) -> complex:
    """Sum over (lam, xi) with omega cup xi = psi cup lam as multisets.

    lam contains base, the parts omega needs beyond psi, so xi always exists
    and every part of lam is at most size_cap, inside pk_rho.
    """
    m_psi = multiplicities(psi)
    m_om = multiplicities(omega)
    req = {}
    for k, v in m_om.items():
        extra_needed = v - m_psi.get(k, 0)
        if extra_needed > 0:
            req[k] = extra_needed
    req_size = sum(k * v for k, v in req.items())
    if req_size > size_cap:
        return 0j
    base = _mult_to_partition(req)
    total = 0j
    max_part = min(part_cap, len(pk_rho) - 1)
    for extra in partition_pool(size_cap - req_size, max_part=max_part):
        lam = tuple(sorted(base + extra, reverse=True))
        term = 1 / _z_float(lam)
        for p in lam:
            term *= pk_rho[p]
        if term == 0:
            continue
        m_lam = multiplicities(lam)
        m_union = {
            k: m_psi.get(k, 0) + m_lam.get(k, 0)
            for k in set(m_psi) | set(m_lam)
        }
        m_xi = {k: v - m_om.get(k, 0) for k, v in m_union.items() if v > m_om.get(k, 0)}
        factor = 1.0
        for k in set(m_om) | set(m_union):
            factor *= float(k) ** m_om.get(k, 0)
            factor *= factorial(m_union.get(k, 0)) / factorial(m_xi.get(k, 0))
        for p, mult in m_xi.items():
            term *= pk_c[p] ** mult
        total += term * factor
    return total


# -- explicit formula ----------------------------------------------------------

def explicit_formula_rhs(
    h,
    f,
    n: int,
    r: float,
    big_n: int,
    grid: int = 32,
) -> complex:
    """Main term of the explicit formula for eigenvalue linear statistics.

    h is a callable on complex arrays; f takes a list of n complex arrays and
    returns an array.  Integrates over the two circles of radii r and 1/r by
    composite trapezoid with grid doubling until successive estimates agree.
    """
    if big_n < 0:
        raise ValueError(f"N must be non-negative, got {big_n}")
    if not 0 < r < 1:
        raise ValueError("need 0 < r < 1")
    if n < 1 or n > 3:
        raise ValueError("n must be between 1 and 3")
    return _refine_grid(
        lambda g: _explicit_rhs_on_grid(h, f, n, r, big_n, g),
        grid, n, EXPLICIT_TOL, EXPLICIT_MAX_REFINE,
    )


def _explicit_rhs_on_grid(h, f, n, r, big_n, grid) -> complex:
    theta = 2.0 * np.pi * np.arange(grid) / grid
    inner_circle = r * np.exp(-1j * theta)
    outer_circle = np.exp(1j * theta) / r
    total = 0j
    for k in range(n + 1):
        axes = [inner_circle] * k + [outer_circle] * (n - k)
        mesh = np.meshgrid(*axes, indexing="ij") if n > 1 else [axes[0]]
        zs = [m.ravel() for m in mesh]
        base = np.asarray(f(zs), dtype=complex)
        for z in zs:
            base = base * h(z)
        inner_vals = zs[:k]
        outer_inv = [1.0 / z for z in zs[k:]]
        lam_len_cap = min(k, n - k)
        for lam in partitions_up_to(
            lam_len_cap * EXPLICIT_PART_CAP, max_part=EXPLICIT_PART_CAP, max_len=lam_len_cap
        ):
            m1 = monomial_on_arrays(lam, inner_vals, grid ** n)
            m2 = monomial_on_arrays(lam, outer_inv, grid ** n)
            weight = (big_n / 2.0) ** (n - 2 * len(lam)) * _z_float(lam)
            total += weight * comb(n, k) * np.mean(base * m1 * m2)
    return complex(total)


FUNCTION_CATALOG = {
    "one": lambda z: np.ones_like(np.asarray(z, dtype=complex)),
    "identity": lambda z: np.asarray(z, dtype=complex),
}


def catalog_function(key: str):
    """Resolve a named test function; rational:c gives z -> 1/(c - z)."""
    if key in FUNCTION_CATALOG:
        return FUNCTION_CATALOG[key]
    if key.startswith("rational:"):
        c = complex(key.split(":", 1)[1])
        return lambda z: 1.0 / (c - np.asarray(z, dtype=complex))
    raise ValueError(f"unknown function key {key!r}")


def catalog_symmetric(key: str, n: int):
    """Named symmetric test functions of n variables."""
    if key == "one":
        return lambda zs: np.ones_like(np.asarray(zs[0], dtype=complex))
    if key == "sum":
        return lambda zs: sum(np.asarray(z, dtype=complex) for z in zs)
    if key == "prod":
        def _prod(zs):
            out = np.ones_like(np.asarray(zs[0], dtype=complex))
            for z in zs:
                out = out * z
            return out
        return _prod
    raise ValueError(f"unknown symmetric function key {key!r}")
