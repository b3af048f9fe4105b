"""Exact operator algebra on the Schur and power-sum bases.

Expansions are finite maps from partitions to rationals; all arithmetic is
exact.  The product operator p_k and the derivation operator d/dp_k act on
the Schur basis through ribbon addition and removal (Murnaghan-Nakayama and
its dual); basis conversion goes through the adjointness of the two.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import (
    Partition,
    canonical,
    multiplicities,
    partitions_of,
    ribbons_added,
    ribbons_removed,
    z_stat,
)
from .symfunc import as_varset, schur_det


class Expansion:
    """Finite linear combination over a partition-indexed basis."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Partition, Fraction] = {}
        if terms:
            for lam, c in dict(terms).items():
                self[canonical(lam)] = Fraction(c)

    def __getitem__(self, lam) -> Fraction:
        return self.terms.get(canonical(lam), Fraction(0))

    def __setitem__(self, lam, coeff):
        coeff = Fraction(coeff)
        lam = canonical(lam)
        if coeff == 0:
            self.terms.pop(lam, None)
        else:
            self.terms[lam] = coeff

    def add_term(self, lam, coeff):
        self[lam] = self[lam] + Fraction(coeff)

    def __add__(self, other):
        out = type(self)(self.terms)
        for lam, c in other.terms.items():
            out.add_term(lam, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return type(self)({lam: c * v for lam, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        names = ", ".join(f"{lam}: {c}" for lam, c in sorted(self.terms.items()))
        return f"{type(self).__name__}({{{names}}})"

    def to_json(self):
        return [
            {
                "partition": list(lam),
                "numerator": c.numerator,
                "denominator": c.denominator,
            }
            for lam, c in sorted(self.terms.items())
        ]


class SchurExpansion(Expansion):
    """Linear combination of Schur functions with exact coefficients."""

    def evaluate(self, xs, schur=schur_det) -> complex:
        xs = as_varset(xs)
        return sum(
            (complex(c) * schur(lam, xs) for lam, c in self.terms.items()), 0j
        )


class PowerSumExpansion(Expansion):
    """Linear combination of power-sum monomials p_lambda."""

    def evaluate(self, xs) -> complex:
        from .symfunc import basis_eval

        xs = as_varset(xs)
        return sum(
            (complex(c) * basis_eval("powersum", lam, xs) for lam, c in self.terms.items()),
            0j,
        )


def schur(lam) -> SchurExpansion:
    return SchurExpansion({canonical(lam): 1})


def mn_multiply(k: int, f: SchurExpansion) -> SchurExpansion:
    """Product operator p_k on the Schur basis: add k-ribbons with signs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = SchurExpansion()
    for mu, c in f.terms.items():
        for step in ribbons_added(mu, k):
            out.add_term(step.end, c * (-1) ** step.height)
    return out


def mn_derive(k: int, f: SchurExpansion) -> SchurExpansion:
    """Operator k d/dp_k on the Schur basis: remove k-ribbons with signs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = SchurExpansion()
    for lam, c in f.terms.items():
        for step in ribbons_removed(lam, k):
            out.add_term(step.start, c * (-1) ** step.height)
    return out


def hall_inner(f: Expansion, g: Expansion) -> Fraction:
    """Hall inner product; orthonormal on Schur, <p_lam, p_mu> = z_lam delta."""
    if isinstance(f, PowerSumExpansion) != isinstance(g, PowerSumExpansion):
        raise TypeError("both expansions must live in the same basis")
    if isinstance(f, PowerSumExpansion):
        return sum(
            (c * g[lam] * z_stat(lam) for lam, c in f.terms.items()), Fraction(0)
        )
    return sum((c * g[lam] for lam, c in f.terms.items()), Fraction(0))


def p_multiply(k: int, g: PowerSumExpansion) -> PowerSumExpansion:
    """p_k as a product operator on the power-sum basis."""
    out = PowerSumExpansion()
    for mu, c in g.terms.items():
        out.add_term(canonical(sorted(mu + (k,), reverse=True)), c)
    return out


def p_derive(k: int, g: PowerSumExpansion) -> PowerSumExpansion:
    """d/dp_k on the power-sum basis."""
    out = PowerSumExpansion()
    for mu, c in g.terms.items():
        m = sum(1 for p in mu if p == k)
        if m:
            rest = list(mu)
            rest.remove(k)
            out.add_term(canonical(rest), c * m)
    return out


def powersum_reduce(mu, nu) -> tuple[Fraction, Partition | None]:
    """d/dp_mu applied to p_nu: coefficient and remainder partition.

    Returns (0, None) unless mu is a sub-multiset of nu; otherwise the
    coefficient is prod_i m_i(nu)! / m_i(nu minus mu)!.
    """
    mu, nu = canonical(mu), canonical(nu)
    mult_nu = multiplicities(nu)
    mult_mu = multiplicities(mu)
    if any(mult_mu[i] > mult_nu.get(i, 0) for i in mult_mu):
        return Fraction(0), None
    coeff = Fraction(1)
    remainder = []
    for i, m in mult_nu.items():
        taken = mult_mu.get(i, 0)
        for j in range(m - taken + 1, m + 1):
            coeff *= j
        remainder.extend([i] * (m - taken))
    return coeff, canonical(sorted(remainder, reverse=True))


def schur_to_powersum(f: SchurExpansion) -> PowerSumExpansion:
    """Exact expansion in the power-sum basis via iterated mn_derive.

    The coefficient of p_mu is <f, p_mu> / z_mu, and <f, p_mu> is the
    coefficient of the empty Schur function after applying the chain of
    almost-adjoint operators mu_i d/dp_{mu_i}.
    """
    out = PowerSumExpansion()
    degrees = {sum(lam) for lam in f.terms}
    for d in sorted(degrees):
        graded = SchurExpansion(
            {lam: c for lam, c in f.terms.items() if sum(lam) == d}
        )
        for mu in partitions_of(d):
            g = graded
            for p in mu:
                g = mn_derive(p, g)
                if not g:
                    break
            coeff = g[()] / z_stat(mu)
            if coeff:
                out.add_term(mu, coeff)
    return out


def powersum_to_schur(g: PowerSumExpansion) -> SchurExpansion:
    """Exact expansion in the Schur basis by multiplying ribbons onto s_()."""
    out = SchurExpansion()
    for mu, c in g.terms.items():
        acc = SchurExpansion({(): c})
        for p in mu:
            acc = mn_multiply(p, acc)
        out = out + acc
    return out


def mn_negative(mu, k: int, xs, tol: float = 1e-9) -> complex:
    """Negative-power Murnaghan-Nakayama identity, evaluated and checked.

    Both sides of s_mu(X) p_{-k}(X) = sum over k-ribbon removals of
    (-1)^height s_lam(X) are computed independently; they must agree within
    tol (relative, scaled by max(1, |lhs|, |rhs|)) and the common value is
    returned.
    """
    from .symfunc import basis_eval

    mu = canonical(mu)
    xs = as_varset(xs)
    n = len(xs)
    if len(mu) != n:
        raise ValueError("mu must have length equal to the number of variables")
    if not 1 <= k <= mu[-1]:
        raise ValueError(f"need 1 <= k <= {mu[-1]}")
    if any(x == 0 for x in xs):
        raise ValueError("variables must be non-zero")
    lhs = schur_det(mu, xs) * basis_eval("powersum_neg", (k,), xs)
    rhs = sum(
        ((-1) ** step.height * schur_det(step.start, xs) for step in ribbons_removed(mu, k)),
        0j,
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) > tol * scale:
        raise AssertionError(
            f"negative MN identity violated: lhs={lhs}, rhs={rhs}"
        )
    return lhs
