"""Exact operator algebra on the Schur basis.

Expansions are finite maps from partitions to rationals; all arithmetic is
exact.  The product operator p_k and the derivation operator k d/dp_k act on
the Schur basis through ribbon addition and removal (Murnaghan-Nakayama and
its dual), and the Hall inner product makes them adjoint.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition, canonical, ribbons_added, ribbons_removed
from .symfunc import as_varset, basis_eval, inv, schur_comb, schur_det


class SchurExpansion:
    """Linear combination of Schur functions with exact coefficients."""

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

    def evaluate(self, xs) -> complex:
        """The expansion's value at xs, each Schur function by the tableau route."""
        xs = as_varset(xs)
        return sum(
            (complex(c) * schur_comb(lam, xs) for lam, c in self.terms.items()), 0j
        )


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


def hall_inner(f: SchurExpansion, g: SchurExpansion) -> Fraction:
    """Hall inner product, for which the Schur functions are orthonormal."""
    return sum((c * g[lam] for lam, c in f.terms.items()), Fraction(0))


def mn_negative(mu, k: int, xs) -> tuple[complex, complex]:
    """Both sides of the negative-power Murnaghan-Nakayama identity.

    Returns (lhs, rhs) for s_mu(X) p_{-k}(X) = sum over k-ribbon removals of
    (-1)^height s_lam(X), each side computed independently; the caller
    compares them.
    """
    mu = canonical(mu)
    xs = as_varset(xs)
    n = len(xs)
    if len(mu) != n:
        raise ValueError("mu must have length equal to the number of variables")
    if not 1 <= k <= mu[-1]:
        raise ValueError(f"need 1 <= k <= {mu[-1]}")
    if any(x == 0 for x in xs):
        raise ValueError("variables must be non-zero")
    lhs = schur_det(mu, xs) * basis_eval((k,), inv(xs))
    rhs = sum(
        ((-1) ** step.height * schur_det(step.start, xs) for step in ribbons_removed(mu, k)),
        0j,
    )
    return lhs, rhs
