"""First and second overlap identities, verified as numerical identities.

Both identities expand a (Littlewood-)Schur function over splits of its
variable set, indexed by overlap data.  The right-hand sides here are
evaluated through the determinantal route.  Each is built as its terms, the
``_ls_det_many`` items of every factor, and a fold of their values, so that
the seeded suites in ``verify`` can evaluate the right-hand and direct sides
of all their random instances in one determinant stack.
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
    _ls_det_plan,
    as_varset,
    ordered_splits,
)


def first_overlap_rhs(mu, nu, l: int, lam_tail, xs, ys) -> complex:
    """Split-sum side of the first overlap identity.

    The assembled partition is (mu *_{l, n-k-l} nu) followed by lam_tail,
    where k is the (m, n-l)-index of nu-with-tail; the sum runs over ordered
    splits of X into l and n-l variables.  Returns 0 when the overlap is
    infinite (both sides of the identity vanish) or the index is negative.
    """
    items, combine = _first_overlap_terms(
        canonical(mu), canonical(nu), l, canonical(lam_tail), as_varset(xs), as_varset(ys)
    )
    return combine(iter(_ls_det_many(items)))


def _first_overlap_terms(mu, nu, l: int, lam_tail, xs, ys):
    """first_overlap_rhs on canonical shapes and VarSets as (items, combine).

    items: the ``_ls_det_many`` items of both factors of every split; combine
    folds an iterator over their values, taking one per item, into the sum.
    """
    n, m = len(xs), len(ys)
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= {n}")
    if len(mu) > l:
        raise ValueError(f"l({mu}) > {l}")
    nu_full = _concat_partition(nu, lam_tail)
    k = mn_index(nu_full, m, n - l)
    if k < 0:
        return [], lambda vals: 0j
    b = n - l - k
    if b < 0:
        raise ValueError("l exceeds n - k; identity does not apply")
    if l > 0 and part(mu, l) + k < m:
        raise ValueError("mu + <k^l> must have (m, l)-index zero")
    ov = overlap(mu, nu_full[:b], l, b)
    if not ov.finite:
        return [], lambda vals: 0j
    shifted_mu = canonical(tuple(part(mu, j) + k for j in range(1, l + 1)))
    left, right = _ls_det_plan(shifted_mu, l, m), _ls_det_plan(nu_full, n - l, m)
    splits = list(ordered_splits(xs, l))
    items = [item for s, t in splits for item in ((left, s, ys), (right, t, ys))]

    def combine(vals):
        total = 0j
        for s, t in splits:
            total += ov.sign * next(vals) * next(vals) / _delta2(t, s)
        return total

    return items, combine


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
    items, combine = _second_overlap_terms(
        canonical(lam), as_varset(s_vars), as_varset(t_vars), as_varset(ys)
    )
    return combine(iter(_ls_det_many(items)))


def _second_overlap_terms(lam, s_vars, t_vars, ys):
    """second_overlap_rhs on a canonical shape and VarSets as (items, combine).

    items: the ``_ls_det_many`` items of both factors of every fiber entry of
    every split of Y; combine folds their values as _first_overlap_terms does.
    """
    l, m = len(s_vars), len(ys)
    n = l + len(t_vars)
    if _delta(ys) == 0 or _delta2(s_vars, t_vars) == 0:
        raise ValueError("Delta(Y) and Delta(S;T) must be nonzero")
    k = mn_index(lam, m, n)
    if k < 0:
        return [], lambda vals: 0j
    if l > n - k:
        raise ValueError("need l <= n - k")
    head, tail = lam[: n - k], lam[n - k:]
    # per split of Y: its prefactor and the (left plan, right plan, sign) of
    # every fiber entry, whose shapes depend on the split size only
    terms = []
    for p in range(0, min(l, m) + 1):
        entries = []
        for mu, nu, sign in overlap_fiber(head, l - p, n - k - l + p):
            shifted = canonical(tuple(part(mu, j) - (m - k) for j in range(1, l - p + 1)))
            entries.append((
                _ls_det_plan(shifted, l, p),
                _ls_det_plan(_concat_partition(nu, tail), n - l, m - p),
                sign,
            ))
        for u_vars, v_vars in ordered_splits(ys, p):
            prefactor = (
                _delta2(v_vars, s_vars)
                * _delta2(t_vars, u_vars)
                / (_delta2(v_vars, u_vars) * _delta2(t_vars, s_vars))
            )
            terms.append((prefactor, u_vars, v_vars, entries))
    items = [
        item
        for _, u_vars, v_vars, entries in terms
        for left, right, _ in entries
        for item in ((left, s_vars, u_vars), (right, t_vars, v_vars))
    ]

    def combine(vals):
        total = 0j
        for prefactor, _, _, entries in terms:
            for _, _, sign in entries:
                total += prefactor * sign * next(vals) * next(vals)
        return total

    return items, combine
