"""Seeded verification suites behind the CLI and the tests.

Every suite draws seeded random instances, checks an identity at a stated
tolerance, and returns a report dict {identity, seed, instances, max_rel_err,
tolerance, pass, failures}.  The instance helpers (random points, random
partitions, relative error) are shared with the tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .overlap_identities import _first_overlap_terms, _fold, _items, _second_overlap_terms
from .partitions import (
    c_seq,
    canonical,
    complement,
    conjugate,
    mn_index,
    overlap_fiber,
    part,
    partition_pool,
    partitions_up_to,
    ribbons_added,
    sub_partition,
)
from .rmt import (
    RecipeInput,
    logders_main,
    ratio_avg,
    recipe_main,
)
from .schur_algebra import (
    SchurExpansion,
    hall_inner,
    mn_derive,
    mn_multiply,
    mn_negative,
)
from .symfunc import (
    _ls_det_many,
    _schur_det_many,
    basis_eval,
    delta2,
    inv,
    ls_comb,
    neg,
    schur_comb,
    schur_det,
)


def rel_err(a, b) -> float:
    """|a - b| scaled by max(1, |a|, |b|)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


# smallest distance between two points that random_points draws
MIN_SEP = 1e-3


def random_points(rng, count, avoid=(), rmin=0.3, rmax=1.5):
    """Complex points in an annulus, pairwise MIN_SEP apart and MIN_SEP from avoid."""
    out, taken = [], list(avoid)
    while len(out) < count:
        # one (radius, angle) pair per missing point: the pairs, and their
        # scaling, that point-by-point rng.uniform draws would give
        u = rng.random(2 * (count - len(out))).tolist()
        for u_radius, u_angle in zip(u[::2], u[1::2]):
            radius = rmin + (rmax - rmin) * u_radius
            angle = 2 * np.pi * u_angle
            z = complex(radius * np.cos(angle), radius * np.sin(angle))
            if all(abs(z - w) >= MIN_SEP for w in taken):
                out.append(z)
                taken.append(z)
    return tuple(out)


def random_partition(rng, max_size, max_len=None):
    """Uniform draw from the partitions of size <= max_size with at most max_len parts."""
    pool = partition_pool(max_size, max_len=max_len)
    return pool[int(rng.integers(len(pool)))]


class _Checks:
    """One suite run's largest error and its failures."""

    def __init__(self, tol: float):
        self.tol = tol
        self.max_err = 0.0
        self.failures = []

    def record(self, err: float, tol: float | None = None, **context):
        """Count err; above tol (the suite's by default) it is a failure with context."""
        self.max_err = max(self.max_err, err)
        if err > (self.tol if tol is None else tol):
            self.failures.append({**context, "err": err})

    def report(self, identity: str, seed: int, instances: int) -> dict:
        return {
            "identity": identity,
            "seed": seed,
            "instances": instances,
            "max_rel_err": self.max_err,
            "tolerance": self.tol,
            "pass": not self.failures,
            "failures": self.failures[:5],
        }


def verify_ls_properties(seed: int, instances: int = 100, tol: float = 1e-7) -> dict:
    """The five characterizing properties of Littlewood-Schur functions.

    All instances are drawn first, then their ls_det values come from one stack.
    """
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    drawn, items = [], []
    for _ in range(instances):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lam = random_partition(rng, 6)
        xs = random_points(rng, n)
        ys = random_points(rng, m, avoid=xs)
        a = complex(*rng.uniform(0.5, 1.2, size=2))
        perm_x = tuple(xs[i] for i in rng.permutation(n))
        perm_y = tuple(ys[i] for i in rng.permutation(m))
        t = complex(*rng.uniform(0.4, 1.1, size=2))
        alpha = random_partition(rng, 4, max_len=n)
        beta = random_partition(rng, 4, max_len=m)
        lam_f = canonical(tuple(p + m for p in alpha + (0,) * (n - len(alpha))) + conjugate(beta))
        items += (
            (lam, xs, ys),
            (lam, tuple(a * x for x in xs), tuple(a * y for y in ys)),
            (lam, perm_x, perm_y),
            (lam_f, xs, ys),
        )
        drawn.append((lam, xs, ys, a, t, alpha, beta, lam_f))

    vals = iter(_ls_det_many(items))
    for lam, xs, ys, a, t, alpha, beta, lam_f in drawn:
        base, scaled, permuted, got = next(vals), next(vals), next(vals), next(vals)

        # homogeneity: LS(-aX; aY) = a^{|lam|} LS(-X; Y)
        checks.record(rel_err(scaled, a ** sum(lam) * base), property="homogeneity", lam=list(lam))

        # double symmetry under independent permutations
        checks.record(rel_err(permuted, base), property="double-symmetry", lam=list(lam))

        # restriction: appending zero changes nothing (combinatorial route)
        comb = ls_comb(lam, neg(xs), ys)
        checks.record(
            max(
                rel_err(ls_comb(lam, neg(xs) + (0j,), ys), comb),
                rel_err(ls_comb(lam, neg(xs), ys + (0j,)), comb),
            ),
            property="restriction",
            lam=list(lam),
        )

        # cancellation: x_n = y_m removes one variable from each side
        checks.record(
            rel_err(ls_comb(lam, neg(xs) + (-t,), ys + (t,)), comb),
            property="cancellation",
            lam=list(lam),
        )

        # factorization at lam_f = (<m^n> + alpha) cup beta'
        want = delta2(ys, xs) * schur_det(alpha, neg(xs)) * schur_det(beta, ys)
        checks.record(rel_err(got, want), property="factorization", lam=list(lam_f))
    return checks.report("ls-properties", seed, instances)


def verify_first_overlap(seed: int, instances: int = 200, tol: float = 1e-7) -> dict:
    """Seeded random instances of the first overlap identity, all in one stack."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    items, cases = [], []
    while len(cases) < instances:
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
        terms = _first_overlap_terms(mu, nu, l, tail, xs, ys)
        items += [(lam, xs, ys), *_items(terms)]
        cases.append((terms, {"lam": list(lam), "mu": list(mu), "nu": list(nu), "l": l}))
    vals = iter(_ls_det_many(items))
    for terms, context in cases:
        lhs = next(vals)
        checks.record(rel_err(lhs, _fold(terms, vals)), **context)
    return checks.report("first-overlap", seed, instances)


def verify_second_overlap(seed: int, instances: int = 200, tol: float = 1e-7) -> dict:
    """Seeded random instances of the second overlap identity, all in one stack."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    items, cases = [], []
    while len(cases) < instances:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        lam = random_partition(rng, 10, max_len=n + m)
        k = mn_index(lam, m, n)
        if k < 0:
            continue
        l = int(rng.integers(0, n - k + 1))
        pts = random_points(rng, n + m)
        s_vars, t_vars, ys = pts[:l], pts[l:n], pts[n:]
        terms = _second_overlap_terms(lam, s_vars, t_vars, ys)
        items += [(lam, s_vars + t_vars, ys), *_items(terms)]
        cases.append((terms, {"lam": list(lam), "l": l, "m": m, "n": n}))
    vals = iter(_ls_det_many(items))
    for terms, context in cases:
        lhs = next(vals)
        checks.record(rel_err(lhs, _fold(terms, vals)), **context)
    return checks.report("second-overlap", seed, instances)


def verify_subpartition_form(seed: int, instances: int = 1, tol: float = 1e-10) -> dict:
    """Subpartition-indexed Schur identity, exhaustive in kappa for m, n, l <= 2.

    Each (m, n, l) triple is checked at ``instances`` random point draws; the
    report counts the kappa checks.
    """
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)
    count = 0
    for m, n, ell, _ in itertools.product((1, 2), (1, 2), (1, 2), range(instances)):
        pts = random_points(rng, m + n)
        s_vars, t_vars = pts[:m], pts[m:]
        for kappa in partitions_up_to(min(6, (m + n) * ell), max_len=ell):
            if kappa and kappa[0] > m + n:
                continue
            lhs = schur_det(conjugate(kappa), s_vars + t_vars)
            total = 0j
            for lam in partitions_up_to(m * (n + ell), max_len=n + ell):
                if lam and lam[0] > m:
                    continue
                for K in itertools.combinations(range(1, n + ell + 1), ell):
                    if sub_partition(lam, n + ell, K) != kappa:
                        continue
                    ck = c_seq(n + ell, K)
                    lam_cmpl = complement(lam, m, n + ell)
                    second = sub_partition(lam_cmpl, n + ell, ck)
                    sign = (-1) ** sum(part(lam_cmpl, j) for j in ck)
                    total += (
                        sign
                        * schur_det(conjugate(lam), s_vars)
                        * schur_det(second, t_vars)
                    )
            rhs = total / delta2(s_vars, t_vars)
            checks.record(rel_err(lhs, rhs), kappa=list(kappa), m=m, n=n, l=ell)
            count += 1
    return checks.report("subpartition-form", seed, count)


def verify_mn_all(seed: int, instances: int = 100, tol: float = 1e-9) -> dict:
    """Adjointness (exact), negative-power variants, and MN for LS."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)

    def random_expansion():
        out = SchurExpansion()
        for _ in range(int(rng.integers(1, 4))):
            out.add_term(
                random_partition(rng, 6),
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
            )
        return out

    exact_bad = 0
    for _ in range(instances):
        f, g = random_expansion(), random_expansion()
        k = int(rng.integers(1, 5))
        if hall_inner(mn_derive(k, f), g) != hall_inner(f, mn_multiply(k, g)):
            exact_bad += 1
    if exact_bad:
        checks.failures.append({"check": "adjointness", "violations": exact_bad})

    for _ in range(instances):
        n = int(rng.integers(1, 4))
        min_part = int(rng.integers(1, 4))
        body = random_partition(rng, 5, max_len=n)
        mu = canonical(tuple(p + min_part for p in (body + (0,) * (n - len(body)))))
        k = int(rng.integers(1, mu[-1] + 1))
        xs = random_points(rng, n)
        lhs, rhs = mn_negative(mu, k, xs)
        checks.record(rel_err(lhs, rhs), check="mn-negative-r", mu=list(mu), k=k)

    # composite operator route for p_{-lambda}
    for _ in range(max(instances // 10, 5)):
        n = int(rng.integers(1, 3))
        lam = random_partition(rng, 3)
        if not lam:
            continue
        body = random_partition(rng, 4, max_len=n)
        floor = sum(lam) + int(rng.integers(0, 3))
        mu = canonical(tuple(p + floor for p in (body + (0,) * (n - len(body)))))
        xs = random_points(rng, n)
        op = SchurExpansion({mu: 1})
        for p in lam:
            op = mn_derive(p, op)
        lhs = op.evaluate(xs)
        rhs = schur_comb(mu, xs) * basis_eval(lam, inv(xs))
        checks.record(rel_err(lhs, rhs), check="mn-negative-lambda", mu=list(mu), lam=list(lam))

    # MN for Littlewood-Schur, |mu| <= 6, k <= 4, at one (X, Y): each shape once
    xs = random_points(rng, 2)
    ys = random_points(rng, 2, avoid=xs)
    ls_memo = {}

    def ls_at(lam):
        if lam not in ls_memo:
            ls_memo[lam] = ls_comb(lam, xs, ys)
        return ls_memo[lam]

    for mu in partitions_up_to(6):
        for k in range(1, 5):
            factor = basis_eval((k,), xs) + (-1) ** (k - 1) * basis_eval((k,), ys)
            lhs = ls_at(mu) * factor
            rhs = sum(
                (-1) ** s.height * ls_at(s.end)
                for s in ribbons_added(mu, k)
            )
            checks.record(rel_err(lhs, rhs), check="mn-for-ls", mu=list(mu), k=k)
    return checks.report("mn-all", seed, instances)


def verify_cauchy(seed: int, instances: int = 20, tol: float = 1e-8) -> dict:
    """Cauchy (truncated), dual Cauchy (exact), generalized Cauchy."""
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)

    # Cauchy identity: values scaled so |xy| <= 0.5, truncation at L = 40
    for _ in range(instances):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        xs = random_points(rng, n, rmin=0.3, rmax=0.7)
        ys = random_points(rng, m, rmin=0.3, rmax=0.7, avoid=xs)
        closed = 1.0 + 0j
        for x in xs:
            for y in ys:
                closed /= 1 - x * y
        pool = partition_pool(40, max_len=min(n, m))
        partial = 0j
        for sx, sy in zip(_schur_det_many(pool, xs), _schur_det_many(pool, ys)):
            partial += sx * sy
        checks.record(abs(partial - closed) / max(1.0, abs(closed)), check="cauchy")

    # dual Cauchy: finite, exact to 1e-10
    for _ in range(instances):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        xs = random_points(rng, n)
        ys = random_points(rng, m, avoid=xs)
        closed = 1.0 + 0j
        for x in xs:
            for y in ys:
                closed *= 1 + x * y
        pool = partition_pool(m * n, max_part=m, max_len=n)
        total = sum(
            sx * sy
            for sx, sy in zip(
                _schur_det_many(pool, xs), _schur_det_many([conjugate(lam) for lam in pool], ys)
            )
        )
        checks.record(rel_err(total, closed), tol=1e-10, check="dual-cauchy")

    # generalized Cauchy with one variable per set, |values| <= 0.4
    for _ in range(max(instances // 4, 3)):
        s, t, u, v = (complex(z) for z in rng.uniform(0.15, 0.4, size=4) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=4)
        ))
        closed = (1 + s * v) * (1 + u * t) / ((1 - s * t) * (1 - u * v))
        # with one variable per set only hooks (a, 1^b) survive
        hooks = [()] + [
            (a,) + (1,) * b for a in range(1, 15) for b in range(15 - a)
        ]
        total = sum(
            (
                ls_comb(lam, (s,), (u,)) * ls_comb(lam, (t,), (v,))
                for lam in hooks
            ),
            0j,
        )
        checks.record(
            abs(total - closed) / max(1.0, abs(closed)), tol=1e-6, check="generalized-cauchy"
        )
    return checks.report("cauchy", seed, instances)


def verify_recipe_consistency(seed: int, instances: int = 3, tol: float = 1e-6) -> dict:
    """Recipe main term against its closed-form specializations: 3 fixed checks."""
    if instances != 3:
        raise ValueError(f"recipe-consistency runs exactly 3 checks, not {instances}")
    rng = np.random.default_rng(seed)
    checks = _Checks(tol)

    # E = F = {}: ratios
    a = random_points(rng, 1, rmin=0.8, rmax=1.2)
    b = random_points(rng, 1, rmin=0.8, rmax=1.2, avoid=a)
    c = random_points(rng, 1, rmin=0.2, rmax=0.45)
    d = random_points(rng, 1, rmin=0.2, rmax=0.45, avoid=c)
    big_n = 10
    got = recipe_main(RecipeInput(a, b, c, d, (), (), big_n), part_cap=30, size_cap=30)
    want = ratio_avg(a, b, c, d, big_n)
    checks.record(rel_err(got, want), check="recipe-to-ratios")

    # A..D = {}: logarithmic derivatives
    eps = complex(rng.uniform(0.2, 0.35))
    phi = complex(rng.uniform(0.2, 0.35))
    got = recipe_main(
        RecipeInput((), (), (), (), (eps,), (phi,), 14), part_cap=40, size_cap=20
    )
    want = logders_main((eps,), (phi,))
    checks.record(rel_err(got, want), check="recipe-to-logders")

    # F = {}, single epsilon, B and C present: ratio-and-log-derivative form
    bb = (complex(rng.uniform(0.4, 0.55)),)
    cc = (complex(rng.uniform(0.3, 0.45)),)
    got = recipe_main(
        RecipeInput((), bb, cc, (), (eps,), (), 30), part_cap=40, size_cap=20
    )
    want = _logders_ratio_main_single(bb, cc, eps)
    checks.record(rel_err(got, want), check="recipe-to-logders-ratio")
    return checks.report("recipe-consistency", seed, instances)


def _logders_ratio_main_single(b_vars, c_vars, eps) -> complex:
    """Direct main term for B, C nonempty, E = (eps), F = {}, in closed form.

    The recipe's two branches are geometric series in eps: E' = {} sums
    (-eps)^(q-1) p_q(-B) and E' = (eps) sums eps^(s-1) p_s(C); the main term,
    minus their sum, is sum_b b/(1 - eps b) - sum_c c/(1 - eps c).
    """
    return sum(b / (1 - eps * b) for b in b_vars) - sum(c / (1 - eps * c) for c in c_vars)


SUITES = {
    "ls-properties": verify_ls_properties,
    "overlap-1": verify_first_overlap,
    "overlap-2": verify_second_overlap,
    "mn-all": verify_mn_all,
    "cauchy": verify_cauchy,
    "recipe-consistency": verify_recipe_consistency,
    "subpartition": verify_subpartition_form,
}


def run_suite(name: str, seed: int, instances: int | None = None, tol: float | None = None) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    kwargs = {}
    # a run of no instances checks nothing, and no error exceeds a NaN tolerance
    if instances is not None:
        if instances < 1:
            raise ValueError(f"instances must be at least 1, got {instances}")
        kwargs["instances"] = instances
    if tol is not None:
        if not 0 <= tol < float("inf"):
            raise ValueError(f"tolerance must be a finite number >= 0, got {tol}")
        kwargs["tol"] = tol
    return SUITES[name](seed, **kwargs)
