"""Numeric evaluation of symmetric and doubly symmetric polynomials.

Variable sets are ordered tuples of complex numbers; all values are computed
in complex double precision.  Two independent routes are provided for Schur
and Littlewood-Schur functions: a combinatorial one (the hook-tableau sum,
branching one variable at a time: horizontal strips for each X variable, then
vertical strips for each Y variable; stable for repeated variables) and a
determinantal one (generalized Vandermonde ratios, requiring pairwise distinct
points).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .partitions import (
    Partition,
    canonical,
    conjugate,
    contains,
    mn_index,
    part,
    partitions_of,
    size,
)

DISTINCT_EPS = 1e-6
SIZE_CAP = 20
# matrix entries _ls_det_many builds per dimension before moving them into an array
STACK_CHUNK = 1024

VarSet = tuple[complex, ...]


class CoincidentVariablesError(ValueError):
    """Raised when a determinantal formula is evaluated at coincident points."""


class SizeCapError(ValueError):
    """Raised when a combinatorial enumeration exceeds the size cap."""


def as_varset(values) -> VarSet:
    return tuple(map(complex, values))


def delta2(xs, ys) -> complex:
    """Pairwise difference product prod_{x in X, y in Y} (x - y)."""
    return _delta2(as_varset(xs), as_varset(ys))


# The three kernels below take variable sets that are already VarSets, so
# callers that normalized their inputs once do not pay for it per product.

def _distinct(vals: VarSet) -> bool:
    return all(
        abs(a - b) >= DISTINCT_EPS for a, b in itertools.combinations(vals, 2)
    )


def _delta(xs: VarSet) -> complex:
    out = 1.0 + 0j
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[i] - xs[j]
    return out


def _delta2(xs: VarSet, ys: VarSet) -> complex:
    out = 1.0 + 0j
    for x in xs:
        for y in ys:
            out *= x - y
    return out


def e_prod(xs) -> complex:
    """Plain product of the variables."""
    out = 1.0 + 0j
    for x in as_varset(xs):
        out *= x
    return out


def neg(xs) -> VarSet:
    return tuple(-x for x in as_varset(xs))


def inv(xs) -> VarSet:
    xs = as_varset(xs)
    if any(x == 0 for x in xs):
        raise ValueError("zero variable cannot be inverted")
    return tuple(1 / x for x in xs)


def ordered_splits(values, left_size):
    """All (S, T) with S of the given size, both preserving the input order."""
    values = tuple(values)
    idx = range(len(values))
    for chosen in itertools.combinations(idx, left_size):
        rest = tuple(i for i in idx if i not in chosen)
        yield tuple(values[i] for i in chosen), tuple(values[i] for i in rest)


# -- classical bases ---------------------------------------------------------

def _monomial(lam, values, zero):
    """m_lambda(values): the ``_monomial_plan`` of lambda evaluated at values."""
    plan = _monomial_plan(canonical(lam), len(values))
    return zero if plan is None else _monomial_values(plan, values, zero)


@lru_cache(maxsize=1 << 12)
def _monomial_plan(lam: Partition, nvars: int):
    """The moves of the m_lambda dynamic program over nvars variables, or None.

    The state is the partition of the parts of lambda not yet given to a
    variable.  Each variable takes one distinct remaining part, or exponent 0
    while enough variables remain for the rest: O(n * prod(m_i + 1) *
    #distinct parts) moves for part multiplicities m_i.  The plan has one
    (state count, sources) entry per variable; sources[i] lists the
    (next state, part or None for exponent 0) moves of state i, exponent 0
    first.  States are numbered in order of first arrival, and state 0 of
    the first variable is lambda.  None when l(lambda) > nvars (m_lambda = 0).
    The plan holds shape data only.
    """
    if len(lam) > nvars:
        return None
    plan = []
    states = [lam]
    for left in range(nvars - 1, -1, -1):
        index, sources = {}, []
        for rest in states:
            moves = []
            if len(rest) <= left:
                moves.append((index.setdefault(rest, len(index)), None))
            for j, p in enumerate(rest):
                if j and rest[j - 1] == p:
                    continue
                key = rest[:j] + rest[j + 1:]
                moves.append((index.setdefault(key, len(index)), p))
            sources.append(tuple(moves))
        plan.append((len(index), tuple(sources)))
        states = list(index)
    return tuple(plan)


def _monomial_values(plan, values, zero):
    """A ``_monomial_plan`` evaluated at values, one variable per plan entry.

    Each state sums val * x**p over its incoming moves (val itself for
    exponent 0), in plan order.  Only ``*``, ``**`` and ``+`` touch the
    values, so Python complex scalars and numpy arrays both work; zero is
    the additive identity of the result.
    """
    states = [zero + 1]
    for x, (count, sources) in zip(values, plan):
        # states share values, so sums build new objects, never update in place;
        # each state is dropped once spread (mesh-sized arrays)
        nxt = [None] * count
        for src, moves in enumerate(sources):
            val = states[src]
            states[src] = None
            for dst, p in moves:
                term = val if p is None else val * x ** p
                prev = nxt[dst]
                nxt[dst] = term if prev is None else prev + term
        states = nxt
    return zero + states[0]


def monomial_eval(lam, xs) -> complex:
    """m_lambda(X), the sum of the distinct monomials x^alpha, alpha ~ lambda."""
    return _monomial(lam, as_varset(xs), 0j)


def monomial_on_arrays(lam, arrays, npoints) -> np.ndarray:
    """m_lambda over parallel variable arrays: one value per point."""
    return _monomial(lam, arrays, np.zeros(npoints, dtype=complex))


def powersum_r(r: int, xs) -> complex:
    return sum((x ** r for x in as_varset(xs)), 0j)


def basis_eval(lam, xs) -> complex:
    """The power sum p_lambda(X); p_{-lambda}(X) is basis_eval(lam, inv(X))."""
    lam = canonical(lam)
    xs = as_varset(xs)
    out = 1.0 + 0j
    for p in lam:
        out *= powersum_r(p, xs)
    return out


# -- Schur functions ---------------------------------------------------------

def schur_det(lam, xs) -> complex:
    """Schur polynomial as a ratio of the generalized Vandermonde to Delta."""
    return _schur_det_many((canonical(lam),), as_varset(xs))[0]


def _schur_det_many(lams, xs: VarSet) -> list[complex]:
    """schur_det of every canonical lam at one variable set, with one stacked determinant.

    The n x n matrices [x_i**(lam_j + n - j)] go to one ``np.linalg.det``
    call, which factors each matrix of the stack as it would factor it alone.
    """
    n = len(xs)
    out = [0j if len(lam) > n else 1.0 + 0j for lam in lams]
    live = [i for i, lam in enumerate(lams) if len(lam) <= n]
    if n == 0 or not live:
        return out
    if not _distinct(xs):
        raise CoincidentVariablesError(
            "variables closer than distinctness threshold; use schur_comb"
        )
    mats = [
        [[x ** (part(lams[i], j) + n - j) for j in range(1, n + 1)] for x in xs]
        for i in live
    ]
    dets = np.linalg.det(np.array(mats, dtype=complex))
    delta_x = _delta(xs)
    for i, det in zip(live, dets):
        out[i] = complex(det / delta_x)
    return out


@lru_cache(maxsize=1 << 12)
def _comb_plan(lam, n: int, m: int, cap: int):
    """Bottom-up evaluation order of LS_lam(x_1..x_n; y_1..y_m) by hook-tableau branching.

    Level j <= n branches on x_j by horizontal strips (s_mu(x_1..x_j)), and
    level n + i on y_i by vertical strips: LS_mu(X; y_1..y_i) is the sum of
    y_i**|mu/rho| LS_rho(X; y_1..y_{i-1}) over vertical strips mu/rho, with
    LS_rho(X; ()) = s_rho(X).  With m = 0 this is the branching rule of s_lam.

    Returns (levels, slot).  Values sit in slots: 0 holds 1 (the empty
    shape), 1 holds 0 (a shape outside the hook of its prefix), and then one
    slot per node (mu, j) that lam reaches, in order of prefix length j.
    levels[j - 1] is (top, nodes) for the j-th variable: each node lists its
    ((slot, strip), ...) predecessors in strip-predecessor order, and top is
    the largest strip.  slot is the slot of lam.  The plan holds shape data
    only.
    """
    lam = canonical(lam)
    if size(lam) > cap:
        raise SizeCapError(f"|lambda| = {size(lam)} exceeds cap {cap}")

    def vanishes(mu, j):
        # s_mu(x_1..x_j) needs l(mu) <= j; LS_mu(X; y_1..y_i) needs mu_{n+1} <= i
        return part(mu, n + 1) > j - n if j > n else len(mu) > j

    def predecessors(mu, j):
        if j > n:
            return _vertical_strip_predecessors(mu)
        return _horizontal_strip_predecessors(mu)

    k = n + m
    reached = [{} for _ in range(k + 1)]  # prefix length -> shapes, in order
    if lam and not vanishes(lam, k):
        reached[k][lam] = None
    for j in range(k, 1, -1):
        for mu in reached[j]:
            for rho, _ in predecessors(mu, j):
                if rho and not vanishes(rho, j - 1):
                    reached[j - 1][rho] = None
    slot = {}
    for j in range(1, k + 1):
        for mu in reached[j]:
            slot[mu, j] = len(slot) + 2

    def where(mu, j):
        if not mu:
            return 0
        return 1 if vanishes(mu, j) else slot[mu, j]

    levels = []
    for j in range(1, k + 1):
        nodes = tuple(
            tuple(_pair(where(rho, j - 1), strip) for rho, strip in predecessors(mu, j))
            for mu in reached[j]
        )
        # the largest horizontal (vertical) strip of mu is its first row (column)
        top = max((mu[0] if j <= n else len(mu) for mu in reached[j]), default=-1)
        levels.append((top, nodes))
    return tuple(levels), where(lam, k)


@lru_cache(maxsize=1 << 12)
def _pair(slot: int, count: int) -> tuple[int, int]:
    """One shared (slot, count) tuple: plans hold ~10^5 pairs, a few hundred distinct."""
    return slot, count


def _branching_values(levels, xs: VarSet) -> list[complex]:
    """The slot values of a ``_comb_plan``'s levels at xs, in a list for this call only.

    xs holds one value per level.  Each node sums x_j**strip *
    value[predecessor] in plan order, so the arithmetic is that of the
    recursive branching rule term by term.
    """
    vals = [1.0 + 0j, 0j]
    for x, (top, nodes) in zip(xs, levels):
        powers = [x ** s for s in range(top + 1)]
        for node in nodes:
            total = 0j
            for slot, strip in node:
                total += powers[strip] * vals[slot]
            vals.append(total)
    return vals


@lru_cache(maxsize=1 << 16)
def _horizontal_strip_predecessors(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """All (mu, |lam| - |mu|) with lam/mu a horizontal strip (branching rule)."""
    lam = canonical(lam)
    ranges = [
        range(part(lam, j + 2), lam[j] + 1) for j in range(len(lam))
    ]
    out = []
    for choice in itertools.product(*ranges):
        if all(choice[i] >= choice[i + 1] for i in range(len(choice) - 1)):
            mu = canonical(choice)
            out.append((mu, size(lam) - size(mu)))
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _vertical_strip_predecessors(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """All (rho, |lam| - |rho|) with lam/rho a vertical strip: the conjugate rule."""
    return tuple(
        (conjugate(rho), strip)
        for rho, strip in _horizontal_strip_predecessors(conjugate(lam))
    )


def schur_comb(lam, xs, cap: int = SIZE_CAP) -> complex:
    """Schur polynomial as the semistandard-tableau weight sum.

    Evaluated by peeling horizontal strips for the last variable, which is the
    tableau sum organized by the largest entry; valid for repeated variables.
    """
    xs = as_varset(xs)
    levels, slot = _comb_plan(tuple(lam), len(xs), 0, cap)
    return _branching_values(levels, xs)[slot]


# -- Littlewood-Richardson coefficients --------------------------------------

@lru_cache(maxsize=1 << 16)
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu nu}.

    Counts semistandard skew tableaux of shape lam/nu and content mu whose row
    word (rows read right to left, top to bottom) is a lattice word.
    """
    lam, mu, nu = canonical(lam), canonical(mu), canonical(nu)
    if size(lam) > SIZE_CAP:
        raise SizeCapError(f"|lambda| = {size(lam)} exceeds cap {SIZE_CAP}")
    if size(lam) != size(mu) + size(nu):
        return 0
    if not (contains(lam, mu) and contains(lam, nu)):
        return 0
    if not mu:
        return 1  # shape lam/nu is empty iff lam == nu, ensured by the sizes
    nrows = len(lam)
    nvals = len(mu)

    def fill_rows(row: int, above: tuple[int, ...], counts: tuple[int, ...]) -> int:
        if row > nrows:
            return 1
        lo, width = part(nu, row), part(lam, row) - part(nu, row)

        def fill_cells(col: int, prev_val: int, cnow: tuple[int, ...], acc: tuple[int, ...]) -> int:
            if col == width:
                # lattice condition consumes this row right to left,
                # starting from the counts accumulated before the row
                c = list(counts)
                for v in reversed(acc):
                    c[v - 1] += 1
                    if v > 1 and c[v - 1] > c[v - 2]:
                        return 0
                return fill_rows(row + 1, acc, tuple(c))
            abs_col = lo + col + 1
            upper = 0
            if row > 1 and abs_col > part(nu, row - 1):
                upper = above[abs_col - part(nu, row - 1) - 1]
            total = 0
            for v in range(max(prev_val, upper + 1), nvals + 1):
                if cnow[v - 1] >= mu[v - 1]:
                    continue
                bumped = cnow[:v - 1] + (cnow[v - 1] + 1,) + cnow[v:]
                total += fill_cells(col + 1, v, bumped, acc + (v,))
            return total

        return fill_cells(0, 1, counts, ())

    return fill_rows(1, (), (0,) * nvals)


# -- Littlewood-Schur functions ----------------------------------------------

def ls_comb(lam, xs, ys) -> complex:
    """LS_lambda(X; Y) = sum over (mu, nu) of c^lam_{mu nu} s_mu(X) s_{nu'}(Y).

    Evaluated as the hook-tableau weight sum: horizontal strips for the X
    variables, then vertical strips for the Y variables.  Valid for
    arbitrary, even coincident, values.
    """
    xs, ys = as_varset(xs), as_varset(ys)
    levels, slot = _comb_plan(tuple(lam), len(xs), len(ys), SIZE_CAP)
    return _branching_values(levels, xs + ys)[slot]


def ls_det_sign(lam, m: int, n: int) -> int:
    """epsilon(lambda) = (-1)^{|lam_[n-k]|} (-1)^{mk} (-1)^{k(k-1)/2}."""
    lam = canonical(lam)
    k = mn_index(lam, m, n)
    head = sum(part(lam, j) for j in range(1, n - k + 1))
    exp = head + m * k + k * (k - 1) // 2
    return -1 if exp % 2 else 1


def ls_det(lam, xs, ys) -> complex:
    """Determinantal evaluation of LS_lambda(-X; Y).

    Computes the value of the Littlewood-Schur function at the negated first
    variable set, which is the normalization in which the block-determinant
    formula holds; callers wanting LS_lambda(X; Y) should negate X first.
    Returns 0 when the (m,n)-index of lambda is negative.
    """
    return _ls_det_many(((lam, as_varset(xs), as_varset(ys)),))[0]


def _ls_det_many(items) -> list[complex]:
    """ls_det of every (lam, xs, ys) item, one determinant call per dimension.

    xs and ys are VarSets; lam is any sequence of parts, planned as its
    canonical form by the cached ``_ls_det_plan``.  The matrices of one
    dimension go to one ``np.linalg.det`` call on a stack, which factors each
    matrix as it would factor it alone, so every value is the one-item value.
    Their entries, built as Python complex numbers, move into arrays every
    STACK_CHUNK entries, so a large stack holds few Python objects at a time.
    """
    out = [0j] * len(items)
    stacks = {}  # dim -> ((item index, sign)s, filled arrays, entries not yet in an array)
    for i, (lam, xs, ys) in enumerate(items):
        plan = _ls_det_plan(tuple(lam), len(xs), len(ys))
        if plan is None:
            continue
        if not _distinct(xs + ys):
            raise CoincidentVariablesError(
                "X union Y has coincident variables; use ls_comb"
            )
        dim, x_exps, y_exps, sign = plan
        where, arrays, flat = stacks.setdefault(dim, ([], [], []))
        where.append((i, sign))
        # rows [1/(x - y) | x^a] for x in X, then [y^b | 0] for each exponent b
        for x in xs:
            flat += [1 / (x - y) for y in ys]
            flat += [x ** e for e in x_exps]
        pad = [0j] * (dim - len(ys))
        for e in y_exps:
            flat += [y ** e for y in ys]
            flat += pad
        if len(flat) >= STACK_CHUNK:
            arrays.append(np.array(flat, dtype=complex))
            flat.clear()
    for dim, (where, arrays, flat) in stacks.items():
        arrays.append(np.array(flat, dtype=complex))
        dets = np.linalg.det(np.concatenate(arrays).reshape(len(where), dim, dim))
        for (i, sign), det in zip(where, dets.tolist()):
            _, xs, ys = items[i]
            out[i] = sign * _delta2(ys, xs) / (_delta(xs) * _delta(ys)) * det
    return out


@lru_cache(maxsize=1 << 12)
def _ls_det_plan(lam, n: int, m: int):
    """ls_det's layout: (dim, x exponents, y exponents, sign), or None when k < 0.

    With k the (m, n)-index, the matrix has dim = n + m - k rows; x_i's row
    holds x_i**a for the n - k exponents a, and y exponent b gives the row
    y_j**b.
    """
    lam = canonical(lam)
    k = mn_index(lam, m, n)
    if k < 0:
        return None
    lamc = conjugate(lam)
    x_exps = tuple(part(lam, j) + n - m - j for j in range(1, n - k + 1))
    y_exps = tuple(part(lamc, i) + m - n - i for i in range(1, m - k + 1))
    return n + (m - k), x_exps, y_exps, ls_det_sign(lam, m, n)


def schur_in_monomials(lam, nvars: int) -> dict[Partition, int]:
    """Kostka expansion s_lam = sum_mu K_{lam mu} m_mu restricted to nvars."""
    lam = canonical(lam)
    if size(lam) > SIZE_CAP:
        raise SizeCapError(f"|lambda| = {size(lam)} exceeds cap {SIZE_CAP}")
    out: dict[Partition, int] = {}
    for mu in partitions_of(size(lam), max_len=nvars):
        k = lr_kostka(lam, mu)
        if k:
            out[mu] = k
    return out


@lru_cache(maxsize=1 << 12)
def lr_kostka(lam: Partition, mu: Partition) -> int:
    """Kostka number: semistandard tableaux of shape lam and content mu."""
    lam, mu = canonical(lam), canonical(mu)
    if size(lam) != size(mu):
        return 0

    def count(shape: Partition, remaining: Partition) -> int:
        if not remaining:
            return 1 if not shape else 0
        total = 0
        for prev, strip in _horizontal_strip_predecessors(shape):
            if strip == remaining[-1]:
                total += count(prev, remaining[:-1])
        return total

    return count(lam, mu)
