"""Partitions as tuples: diagrams, ribbons, overlaps and overlap fibers.

A partition is a weakly decreasing tuple of non-negative integers; the
canonical form drops trailing zeros and all functions here return canonical
tuples.  Points use matrix-free coordinates (i, j) where (i, j) lies in the
diagram iff i <= lambda_j; by convention points with a zero coordinate belong
to every partition and the 0-th part is infinite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import index


Partition = tuple[int, ...]


def canonical(parts) -> Partition:
    """Canonical form: tuple of ints without trailing zeros.

    A part that is not an integer (2.5, and 2.0 too) raises ValueError.
    """
    try:
        p = tuple(map(index, parts))
    except TypeError:
        raise ValueError(f"non-integer part in {parts}") from None
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return p


def size(lam) -> int:
    return sum(lam)


def part(lam, j: int) -> int:
    """j-th part, 1-based; 0 for j beyond the length."""
    if j < 1:
        raise ValueError("parts are 1-based")
    return lam[j - 1] if j <= len(lam) else 0


def contains_point(lam, i: int, j: int) -> bool:
    """(i, j) in lambda, with the zero-coordinate and lambda_0 conventions."""
    if i <= 0 or j <= 0:
        return True
    return i <= part(lam, j)


def contains(lam, mu) -> bool:
    """Diagram containment mu subset-of lam."""
    mu = canonical(mu)
    return all(part(lam, j + 1) >= mu[j] for j in range(len(mu)))


def conjugate(lam) -> Partition:
    """Transpose of the Ferrers diagram."""
    lam = canonical(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def multiplicities(lam) -> dict[int, int]:
    """Map part value -> multiplicity (positive parts only)."""
    mult: dict[int, int] = {}
    for p in canonical(lam):
        mult[p] = mult.get(p, 0) + 1
    return mult


def complement(lam, m: int, n: int) -> Partition:
    """(m,n)-complement of lam inside the rectangle <m^n>."""
    lam = canonical(lam)
    if len(lam) > n or (lam and lam[0] > m):
        raise ValueError(f"{lam} not contained in rectangle <{m}^{n}>")
    padded = lam + (0,) * (n - len(lam))
    return canonical(tuple(m - padded[n - 1 - i] for i in range(n)))


def mn_index(lam, m: int, n: int) -> int:
    """Largest k <= min(m,n) with the point (m+1-k, n+1-k) outside lam."""
    k = min(m, n)
    while contains_point(lam, m + 1 - k, n + 1 - k):
        k -= 1
    return k


def partitions_of(s: int, max_part: int | None = None, max_len: int | None = None):
    """Yield all partitions of s with the given bounds, lex-decreasing.

    The first-part loop stops once that part times the length bound falls
    short of s, so no branch is entered that yields nothing.
    """
    if s == 0:
        yield ()
        return
    mp = s if max_part is None else min(max_part, s)
    ml = s if max_len is None else max_len
    if ml <= 0 or mp <= 0:
        return
    for first in range(mp, 0, -1):
        if first * ml < s:
            break
        for rest in partitions_of(s - first, max_part=first, max_len=ml - 1):
            yield (first,) + rest


def partitions_up_to(s: int, max_part: int | None = None, max_len: int | None = None):
    """All partitions of size 0..s."""
    for k in range(s + 1):
        yield from partitions_of(k, max_part=max_part, max_len=max_len)


@lru_cache(maxsize=256)
def partition_pool(s: int, max_part: int | None = None, max_len: int | None = None):
    """partitions_up_to(s, max_part, max_len) as a tuple, built once per bounds."""
    return tuple(partitions_up_to(s, max_part=max_part, max_len=max_len))


def subdiagrams(lam):
    """All partitions contained in the diagram of lam."""
    lam = canonical(lam)
    if not lam:
        yield ()
        return
    def rows(j, cap):
        if j == len(lam):
            yield ()
            return
        for first in range(min(cap, lam[j]), -1, -1):
            if first == 0:
                yield ()
                return
            for rest in rows(j + 1, first):
                yield (first,) + rest
    yield from rows(0, lam[0])


# -- ribbons ----------------------------------------------------------------

@dataclass(frozen=True)
class RibbonStep:
    """One ribbon move between two partitions."""
    start: Partition
    end: Partition
    size: int
    height: int


def _beta(lam, n: int) -> list[int]:
    """Beta numbers lam_i + n - i for i = 1..n (strictly decreasing)."""
    return [part(lam, i) + n - i for i in range(1, n + 1)]


def _beta_moves(lam, n: int, shift: int):
    """(partition, height) for each move of one of lam's n beta numbers by shift.

    The moved entry must stay non-negative and land on a free value; the
    other entries keep their places and the result is read off the resorted
    sequence.  The height is the number of entries jumped over.
    """
    beta = _beta(lam, n)
    present = set(beta)
    for q in range(n):
        new = beta[q] + shift
        if new < 0 or new in present:
            continue
        low, high = sorted((beta[q], new))
        height = sum(1 for b in beta if low < b < high)
        shifted = sorted(beta[:q] + beta[q + 1:] + [new], reverse=True)
        yield canonical(tuple(shifted[i] - (n - 1 - i) for i in range(n))), height


def ribbons_added(mu, k: int) -> list[RibbonStep]:
    """All lam with lam/mu a k-ribbon, via the sorted-sequence characterization.

    Adding a k-ribbon is adding k to one entry of mu + rho_n and resorting;
    the height is the number of entries jumped over.  Results are sorted for
    reproducibility.
    """
    if k < 1:
        raise ValueError("ribbon size must be >= 1")
    mu = canonical(mu)
    out = [RibbonStep(mu, lam, k, height) for lam, height in _beta_moves(mu, len(mu) + k, k)]
    out.sort(key=lambda r: r.end)
    return out


def ribbons_removed(lam, k: int) -> list[RibbonStep]:
    """All mu with lam/mu a k-ribbon, by subtracting k from one beta number."""
    if k < 1:
        raise ValueError("ribbon size must be >= 1")
    lam = canonical(lam)
    out = [RibbonStep(mu, lam, k, height) for mu, height in _beta_moves(lam, len(lam), -k)]
    out.sort(key=lambda r: r.start)
    return out


# -- overlap ----------------------------------------------------------------

INFINITE = "infinite"


@dataclass(frozen=True)
class OverlapOutcome:
    """Finite overlap (partition plus sorting sign) or the infinite symbol."""
    result: Partition | None
    sign: int

    @property
    def finite(self) -> bool:
        return self.result is not None

    def to_json(self):
        if not self.finite:
            return {"result": INFINITE, "sign": 1}
        return {"result": list(self.result), "sign": self.sign}


def _inversion_sign(seq) -> int:
    inv = 0
    for a, b in itertools.combinations(seq, 2):
        if a < b:
            inv += 1
    return -1 if inv % 2 else 1


def overlap(mu, nu, m: int, n: int) -> OverlapOutcome:
    """(m,n)-overlap: sorted merge of mu + rho_m and nu + rho_n, with sign.

    Finite outcome lam satisfies lam + rho_{m+n} = sorted merge; infinite when
    the merge has a repeated entry.
    """
    mu, nu = canonical(mu), canonical(nu)
    if len(mu) > m or len(nu) > n:
        raise ValueError(f"length precondition violated: {mu}, {nu} vs ({m}, {n})")
    merged = [part(mu, i) + m - i for i in range(1, m + 1)]
    merged += [part(nu, i) + n - i for i in range(1, n + 1)]
    if len(set(merged)) < len(merged):
        return OverlapOutcome(None, 1)
    sign = _inversion_sign(merged)
    srt = sorted(merged, reverse=True)
    total = m + n
    lam = canonical(tuple(srt[i] - (total - 1 - i) for i in range(total)))
    return OverlapOutcome(lam, sign)


# -- overlap fibers ---------------------------------------------------------

def overlap_fiber(lam, m: int, n: int) -> list[tuple[Partition, Partition, int]]:
    """All (mu, nu, sign) whose (m,n)-overlap is lam, one per staircase walk.

    A walk pi across the n x m rectangle is the set V of its m south-step
    times in 1..m+n, with H the remaining (west-step) times.  It maps to
    (mu(pi) + lam_V, nu(pi)' + lam_H) with sign (-1)^{mn - |mu(pi)|}, where
    mu(pi)_i = n + i - V_i and nu(pi)'_j = m + j - H_j.  Walks come in
    lexicographic order of V; this order is part of the external contract.
    """
    return list(_overlap_fiber(canonical(lam), m, n))


@lru_cache(maxsize=1 << 12)
def _overlap_fiber(lam: Partition, m: int, n: int) -> tuple[tuple[Partition, Partition, int], ...]:
    if len(lam) > m + n:
        raise ValueError(f"l({lam}) > {m + n}")
    times = range(1, m + n + 1)
    out = []
    for v in itertools.combinations(times, m):
        h = [t for t in times if t not in v]
        upper = [n + i - t for i, t in enumerate(v, 1)]
        mu = canonical(p + part(lam, t) for p, t in zip(upper, v))
        nu = canonical(m + j - t + part(lam, t) for j, t in enumerate(h, 1))
        out.append((mu, nu, -1 if (m * n - sum(upper)) % 2 else 1))
    return tuple(out)


# -- subpartitions ----------------------------------------------------------

def sub_partition(lam, n: int, K) -> Partition | None:
    """Subpartition of lam for the index subsequence K inside [n].

    Solves mu_j + l(K) - j = lam_{K_j} + n - K_j; returns None when the shift
    is not a valid partition.
    """
    lam = canonical(lam)
    if len(lam) > n:
        raise ValueError(f"l({lam}) > {n}")
    K = tuple(K)
    if any(not 1 <= k <= n for k in K) or list(K) != sorted(set(K)):
        raise ValueError(f"K must be a subsequence of [1..{n}]: {K}")
    lk = len(K)
    vals = [part(lam, K[j - 1]) + n - K[j - 1] - (lk - j) for j in range(1, lk + 1)]
    if any(v < 0 for v in vals):
        return None
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        return None
    return canonical(tuple(vals))


def c_seq(n: int, K) -> tuple[int, ...]:
    """C_n(K): sorted (n - j + 1 for j outside K), a subsequence of [n]."""
    K = set(K)
    return tuple(sorted(n - j + 1 for j in range(1, n + 1) if j not in K))
