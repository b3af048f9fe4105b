"""First and second overlap identities, verified as numerical identities.

Both identities expand a (Littlewood-)Schur function over splits of its
variable set, indexed by overlap data.  The right-hand sides here are
evaluated through the determinantal route.  Each is built as a list of
(coeff, left item, right item, divisor) terms, whose ``_ls_det_many`` items
``_items`` lays out and whose values ``_fold`` sums, so that the seeded suites
in ``verify`` can evaluate the right-hand and direct sides of all their random
instances in one determinant stack.
"""

from __future__ import annotations

from .partitions import (
    canonical,
    mn_index,
    overlap,
    overlap_fiber,
    part,
)
from .symfunc import (
    _delta,
    _delta2,
    _ls_det_many,
    as_varset,
    ordered_splits,
)


def _items(terms) -> list:
    """The ``_ls_det_many`` items of terms: each term's left item, then its right."""
    return [item for _, left, right, _ in terms for item in (left, right)]


def _fold(terms, values) -> complex:
    """Sum of coeff * left * right / divisor over terms, reading values in ``_items`` order."""
    values = iter(values)
    total = 0j
    for coeff, _, _, divisor in terms:
        total += coeff * next(values) * next(values) / divisor
    return total


def first_overlap_rhs(mu, nu, l: int, lam_tail, xs, ys) -> complex:
    """Split-sum side of the first overlap identity.

    The assembled partition is (mu *_{l, n-k-l} nu) followed by lam_tail,
    where k is the (m, n-l)-index of nu-with-tail; the sum runs over ordered
    splits of X into l and n-l variables.  Returns 0 when the overlap is
    infinite (both sides of the identity vanish) or the index is negative.
    """
    terms = _first_overlap_terms(
        canonical(mu), canonical(nu), l, canonical(lam_tail), as_varset(xs), as_varset(ys)
    )
    return _fold(terms, _ls_det_many(_items(terms)))


def _first_overlap_terms(mu, nu, l: int, lam_tail, xs, ys) -> list:
    """first_overlap_rhs on canonical shapes and VarSets as its terms.

    One (overlap sign, (mu + <k^l>, S, Y), (nu_full, T, Y), Delta(T; S))
    term per split (S, T) of X; none when the identity's sides vanish.
    """
    n, m = len(xs), len(ys)
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}")
    if len(mu) > l:
        raise ValueError(f"l({mu}) > {l}")
    nu_full = _concat_partition(nu, lam_tail)
    k = mn_index(nu_full, m, n - l)
    if k < 0:
        return []
    b = n - l - k
    if b < 0:
        raise ValueError("l exceeds n - k; identity does not apply")
    if l > 0 and part(mu, l) + k < m:
        raise ValueError("mu + <k^l> must have (m, l)-index zero")
    ov = overlap(mu, nu_full[:b], l, b)
    if not ov.finite:
        return []
    shifted_mu = tuple(part(mu, j) + k for j in range(1, l + 1))
    return [
        (ov.sign, (shifted_mu, s, ys), (nu_full, t, ys), _delta2(t, s))
        for s, t in ordered_splits(xs, l)
    ]


def _concat_partition(nu, tail):
    """nu followed by tail, both canonical, if that is a partition."""
    if tail and nu and nu[-1] < tail[0]:
        raise ValueError(f"{nu} followed by {tail} is not a partition")
    return nu + tail


def second_overlap_rhs(lam, s_vars, t_vars, ys) -> complex:
    """Triple sum of the second overlap identity.

    Expands LS_lambda(-(S cup T); Y) over splits of Y and the overlap fiber
    of the head of lambda.  Requires Delta(Y) and Delta(S; T) nonzero.
    """
    terms = _second_overlap_terms(
        canonical(lam), as_varset(s_vars), as_varset(t_vars), as_varset(ys)
    )
    return _fold(terms, _ls_det_many(_items(terms)))


def _second_overlap_terms(lam, s_vars, t_vars, ys) -> list:
    """second_overlap_rhs on a canonical shape and VarSets as its terms.

    One (prefactor * sign, (mu - <(m-k)^(l-p)>, S, U), (nu + tail, T, V), 1)
    term per split (U, V) of Y, with p = l(U), and per entry of the overlap
    fiber of the head of lambda for that split size.
    """
    l, m = len(s_vars), len(ys)
    n = l + len(t_vars)
    if _delta(ys) == 0 or _delta2(s_vars, t_vars) == 0:
        raise ValueError("Delta(Y) and Delta(S;T) must be nonzero")
    k = mn_index(lam, m, n)
    if k < 0:
        return []
    if l > n - k:
        raise ValueError("need l <= n - k")
    head, tail = lam[: n - k], lam[n - k:]
    terms = []
    for p in range(0, min(l, m) + 1):
        # the fiber's (left shape, right shape, sign) depend on the split size only
        entries = [
            (
                tuple(part(mu, j) - (m - k) for j in range(1, l - p + 1)),
                _concat_partition(nu, tail),
                sign,
            )
            for mu, nu, sign in overlap_fiber(head, l - p, n - k - l + p)
        ]
        for u_vars, v_vars in ordered_splits(ys, p):
            prefactor = (
                _delta2(v_vars, s_vars)
                * _delta2(t_vars, u_vars)
                / (_delta2(v_vars, u_vars) * _delta2(t_vars, s_vars))
            )
            terms += [
                (prefactor * sign, (left, s_vars, u_vars), (right, t_vars, v_vars), 1)
                for left, right, sign in entries
            ]
    return terms
