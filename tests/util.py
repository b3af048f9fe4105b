"""Shared test helpers: the seeded-instance helpers and the tests' own oracles.

The oracles are reference formulas that only the tests call: the part-wise
sum of two partitions, the partition enumerator without pruning, ribbon
heights and horizontal strips read off the diagram, Littlewood-Schur
functions by their Littlewood-Richardson definition, the leading moment
coefficient f_k, the Vandermonde product, e_r and h_r summed over subsets,
the exact z-statistic, the recipe's ratio-and-log-derivative main term as
two truncated power-sum series, and the dict-keyed m_lambda dynamic program, the
two-array Szego recursion and the step-by-step tilted draw that the planned
kernel, the stacked recursion and the tilted sampler must match bit for bit,
and the per-instance loops of the ls-properties and overlap suites, which the
one-stack suites must match bit for bit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import numpy as np

from lsrmt.haar import TILT_MAX
from lsrmt.overlap_identities import first_overlap_rhs, second_overlap_rhs
from lsrmt.partitions import (
    canonical,
    conjugate,
    contains,
    mn_index,
    multiplicities,
    overlap_fiber,
    part,
    partitions_of,
    size,
    subdiagrams,
)
from lsrmt.symfunc import (
    _delta,
    _ls_det_many,
    as_varset,
    basis_eval,
    delta2,
    e_prod,
    ls_comb,
    ls_det,
    lr_coeff,
    neg,
    schur_comb,
    schur_det,
)
from lsrmt.verify import _Checks
from lsrmt.verify import random_partition, random_points, rel_err  # noqa: F401


def add(lam, mu):
    """Elementwise sum of (zero-padded) part sequences."""
    n = max(len(lam), len(mu))
    return canonical(tuple(part(lam, j) + part(mu, j) for j in range(1, n + 1)))


def unpruned_partitions_of(s, max_part=None, max_len=None):
    """Oracle: partitions of s, lex-decreasing, trying every first part down to 1."""
    if s == 0:
        yield ()
        return
    mp = s if max_part is None else min(max_part, s)
    ml = s if max_len is None else max_len
    if ml <= 0 or mp <= 0:
        return
    for first in range(mp, 0, -1):
        for rest in unpruned_partitions_of(s - first, max_part=first, max_len=ml - 1):
            yield (first,) + rest


def brute_force_ribbons_added(mu, k, max_len=None):
    """Oracle: scan all partitions of |mu|+k containing mu for ribbon skews."""
    out = []
    for lam in partitions_of(size(mu) + k, max_len=max_len):
        if not contains(lam, mu):
            continue
        h = ribbon_height(lam, mu)
        if h is not None:
            out.append((canonical(lam), h))
    return sorted(out)


def ribbon_height(lam, mu) -> int | None:
    """Height of the ribbon lam/mu, or None if the skew shape is no ribbon.

    A ribbon is edgewise connected and contains no 2x2 block; its height is
    one less than the number of rows it occupies.
    """
    lam, mu = canonical(lam), canonical(mu)
    if not contains(lam, mu):
        raise ValueError(f"{mu} not contained in {lam}")
    # boxes (col, row) of lam/mu, 1-based
    boxes = [
        (i, j)
        for j in range(1, len(lam) + 1)
        for i in range(part(mu, j) + 1, part(lam, j) + 1)
    ]
    if not boxes:
        return None
    cells = set(boxes)
    for (i, j) in cells:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells:
            return None  # 2x2 block
    seen = {boxes[0]}
    frontier = [boxes[0]]
    while frontier:
        i, j = frontier.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    if len(seen) != len(cells):
        return None  # disconnected
    return len({j for _, j in cells}) - 1


def is_horizontal_strip(lam, mu) -> bool:
    """lam/mu has at most one box per column."""
    if not contains(lam, mu):
        return False
    return all(part(lam, j + 1) <= part(mu, j) for j in range(1, len(lam) + 1))


def ls_by_lr_sum(lam, xs, ys) -> complex:
    """Oracle: LS_lam(X; Y) = sum over (mu, nu) of c^lam_{mu nu} s_mu(X) s_{nu'}(Y)."""
    n, m = len(xs), len(ys)
    total = 0j
    for nu in subdiagrams(lam):
        if nu and nu[0] > m:
            continue  # s_{nu'}(Y) vanishes
        sy = schur_comb(conjugate(nu), ys)
        for mu in partitions_of(size(lam) - size(nu), max_len=n):
            if contains(lam, mu):
                c = lr_coeff(lam, mu, nu)
                if c:
                    total += c * schur_comb(mu, xs) * sy
    return total


def moment_leading(k: int) -> Fraction:
    """Leading coefficient f_k of the moment as N -> infinity."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(factorial(j), factorial(j + k))
    return out


def delta(xs) -> complex:
    """Vandermonde product prod_{i<j} (x_i - x_j)."""
    return _delta(as_varset(xs))


def elementary_r(r: int, xs) -> complex:
    xs = as_varset(xs)
    if r == 0:
        return 1.0 + 0j
    if r > len(xs):
        return 0j
    return sum(
        (e_prod(sub) for sub in itertools.combinations(xs, r)), 0j
    )


def complete_r(r: int, xs) -> complex:
    xs = as_varset(xs)
    if r == 0:
        return 1.0 + 0j
    if not xs:
        return 0j
    return sum(
        (e_prod(sub) for sub in itertools.combinations_with_replacement(xs, r)),
        0j,
    )


def z_stat(lam) -> Fraction:
    """prod_i i^{m_i} m_i! over the part multiplicities m_i."""
    z = Fraction(1)
    for i, m in multiplicities(lam).items():
        z *= Fraction(i) ** m * factorial(m)
    return z


def series_logders_ratio_main_single(b_vars, c_vars, eps) -> complex:
    """Oracle: the main term for B, C nonempty, E = (eps), F = {}, as two series
    truncated at 59 terms, one per recipe branch."""
    total = 0j
    # branch E' = (), E'' = (eps): psi empty, chi = (q)
    for q in range(1, 60):
        total += (-eps) ** (q - 1) * basis_eval((q,), neg(b_vars))
    # branch E' = (eps), E'' = (): psi = (s), omega empty
    for s in range(1, 60):
        total += eps ** (s - 1) * basis_eval((s,), c_vars)
    return -total


def dict_monomial(lam, values, zero):
    """Oracle: m_lambda(values) by the dynamic program over dicts keyed on states.

    The state is the partition of the parts not yet given to a variable; each
    variable takes one distinct remaining part, or exponent 0 while enough
    variables remain for the rest.
    """
    lam = canonical(lam)
    nvars = len(values)
    if len(lam) > nvars:
        return zero
    states = {lam: zero + 1}
    for left, x in zip(range(nvars - 1, -1, -1), values):
        nxt = {}
        for rest in list(states):
            val = states.pop(rest)
            if len(rest) <= left:
                prev = nxt.get(rest)
                nxt[rest] = val if prev is None else prev + val
            for j, p in enumerate(rest):
                if j and rest[j - 1] == p:
                    continue
                key = rest[:j] + rest[j + 1:]
                term = val * x ** p
                prev = nxt.get(key)
                nxt[key] = term if prev is None else prev + term
        states = nxt
    return zero + states[()]


def two_array_szego(alpha, points):
    """Oracle: chi_g and chi_g' by the Szego recursion on separate arrays.

    Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k, Phi*_{k+1} = Phi*_k - alpha_k z Phi_k
    from Phi_0 = Phi*_0 = 1, with the derivative carried alongside.
    """
    z = np.asarray(points, dtype=complex)
    shape = (alpha.shape[0], z.size)
    phi, star = np.ones(shape, dtype=complex), np.ones(shape, dtype=complex)
    dphi, dstar = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for k in range(alpha.shape[1]):
        a = alpha[:, k:k + 1]
        a_bar = np.conj(a)
        z_phi, dz_phi = z * phi, phi + z * dphi
        phi, star = z_phi - a_bar * star, star - a * z_phi
        dphi, dstar = dz_phi - a_bar * dstar, dstar - a * dz_phi
    return star, dstar


def loop_tilted_char(rng, count, big_n, points, tilt):
    """Oracle: the tilted Verblunsky draw of haar._tilted_char_batch, step by step.

    The same draws and the same floating-point operations on the same
    operands, written as one plain loop over k: every quantity is recomputed
    where it is used, both phase arrays are exponentiated in full, and points
    outside the disc are reflected at every step.
    """
    z = np.asarray(points, dtype=complex)
    tilt = np.asarray(tilt, dtype=float)
    u = rng.random((count, big_n, 6))
    m = np.arange(big_n - 1, -1, -1)
    free = m > 0
    first = np.ones((count, big_n))
    first[:, free] = u[:, free, 0] ** (1.0 / m[free])
    s_one = 1 - first
    s_two = 1 - first * u[:, :, 1] ** (1.0 / (m + 1))
    s_one[:, ~free] = s_two[:, ~free] = 1
    dip = np.exp(2j * np.arccos(np.sqrt(u[:, :, 4]) * np.cos(2 * np.pi * u[:, :, 5])))
    flat = np.exp(2j * np.pi * u[:, :, 4])
    outside = np.abs(z) > 1
    shape = (count, z.size)
    phi, star = np.ones(shape, dtype=complex), np.ones(shape, dtype=complex)
    weight = np.ones(count)
    for k in range(big_n):
        z_phi = z * phi
        with np.errstate(divide="ignore", invalid="ignore"):
            b = z_phi / star
            b[:, outside] = 1 / np.conj(b[:, outside])
            e = b @ tilt / 2
        e = np.where(np.isfinite(e), e, 0)
        size = np.abs(e)
        unit = np.where(size > 0, np.conj(e) / np.maximum(size, np.finfo(float).tiny), 1)
        size = np.minimum(size, TILT_MAX)
        z_k = 1 + size ** 2 / (m[k] + 1)
        root_s = np.sqrt(np.where(u[:, k, 2] * z_k < z_k - 1, s_two[:, k], s_one[:, k]))
        w = root_s * size
        cis = np.where(u[:, k, 3] * (1 + w * w) < 2 * w, dip[:, k], flat[:, k])
        weight *= z_k / (1 + w * w - 2 * w * cis.real)
        alpha = (root_s * cis * unit)[:, None]
        phi, star = z_phi - np.conj(alpha) * star, star - alpha * z_phi
    return star, weight


def loop_ls_properties(seed: int, instances: int = 100, tol: float = 1e-7) -> dict:
    """Oracle: verify_ls_properties with one determinant stack per instance."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    for _ in range(instances):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lam = random_partition(rng, 6)
        xs = random_points(rng, n)
        ys = random_points(rng, m, avoid=xs)
        a = complex(*rng.uniform(0.5, 1.2, size=2))
        perm_x = tuple(xs[i] for i in rng.permutation(n))
        perm_y = tuple(ys[i] for i in rng.permutation(m))
        base, scaled, permuted = _ls_det_many((
            (lam, xs, ys),
            (lam, tuple(a * x for x in xs), tuple(a * y for y in ys)),
            (lam, perm_x, perm_y),
        ))
        checks.record(rel_err(scaled, a ** sum(lam) * base), property="homogeneity", lam=list(lam))
        checks.record(rel_err(permuted, base), property="double-symmetry", lam=list(lam))
        comb = ls_comb(lam, neg(xs), ys)
        checks.record(
            max(
                rel_err(ls_comb(lam, neg(xs) + (0j,), ys), comb),
                rel_err(ls_comb(lam, neg(xs), ys + (0j,)), comb),
            ),
            property="restriction",
            lam=list(lam),
        )
        t = complex(*rng.uniform(0.4, 1.1, size=2))
        checks.record(
            rel_err(ls_comb(lam, neg(xs) + (-t,), ys + (t,)), comb),
            property="cancellation",
            lam=list(lam),
        )
        alpha = random_partition(rng, 4, max_len=n)
        beta = random_partition(rng, 4, max_len=m)
        lam_f = canonical(tuple(p + m for p in (alpha + (0,) * (n - len(alpha)))) + conjugate(beta))
        got = ls_det(lam_f, xs, ys)
        want = delta2(ys, xs) * schur_det(alpha, neg(xs)) * schur_det(beta, ys)
        checks.record(rel_err(got, want), property="factorization", lam=list(lam_f))
    return checks.report("ls-properties", seed, instances)


def loop_first_overlap(seed: int, instances: int = 200, tol: float = 1e-7) -> dict:
    """Oracle: verify_first_overlap with ls_det and first_overlap_rhs per instance."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    done = 0
    while done < instances:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        lam = random_partition(rng, 10, max_len=n + m)
        k = mn_index(lam, m, n)
        if k < 0:
            continue
        l = int(rng.integers(0, n - k + 1))
        head, tail = lam[: n - k], lam[n - k:]
        fiber = overlap_fiber(head, l, n - k - l)
        mu, nu, _ = fiber[int(rng.integers(len(fiber)))]
        xs = random_points(rng, n)
        ys = random_points(rng, m, avoid=xs)
        lhs = ls_det(lam, xs, ys)
        rhs = first_overlap_rhs(mu, nu, l, tail, xs, ys)
        checks.record(rel_err(lhs, rhs), lam=list(lam), mu=list(mu), nu=list(nu), l=l)
        done += 1
    return checks.report("first-overlap", seed, instances)


def loop_second_overlap(seed: int, instances: int = 200, tol: float = 1e-7) -> dict:
    """Oracle: verify_second_overlap with ls_det and second_overlap_rhs per instance."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    done = 0
    while done < instances:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        lam = random_partition(rng, 10, max_len=n + m)
        k = mn_index(lam, m, n)
        if k < 0:
            continue
        l = int(rng.integers(0, n - k + 1))
        pts = random_points(rng, n + m)
        s_vars, t_vars, ys = pts[:l], pts[l:n], pts[n:]
        lhs = ls_det(lam, s_vars + t_vars, ys)
        rhs = second_overlap_rhs(lam, s_vars, t_vars, ys)
        checks.record(rel_err(lhs, rhs), lam=list(lam), l=l, m=m, n=n)
        done += 1
    return checks.report("second-overlap", seed, instances)
