import numpy as np
import pytest

from lsrmt import overlap_identities, symfunc, verify
from lsrmt.overlap_identities import first_overlap_rhs, second_overlap_rhs
from lsrmt.verify import _logders_ratio_main_single, random_points
from util import (
    loop_first_overlap,
    loop_ls_properties,
    loop_second_overlap,
    rel_err,
    series_logders_ratio_main_single,
)

# the suites the benchmark's cli_identities workload runs, at its instance counts
STACKED_SUITES = (
    ("ls-properties", loop_ls_properties, 100),
    ("overlap-1", loop_first_overlap, 250),
    ("overlap-2", loop_second_overlap, 200),
)


def _random_points_one_by_one(rng, count, avoid=(), rmin=0.3, rmax=1.5, min_sep=1e-3):
    """random_points drawing one radius and one angle per candidate point."""
    out, taken = [], list(avoid)
    while len(out) < count:
        radius = rng.uniform(rmin, rmax)
        angle = rng.uniform(0, 2 * np.pi)
        z = complex(radius * np.cos(angle), radius * np.sin(angle))
        if all(abs(z - w) >= min_sep for w in taken):
            out.append(z)
            taken.append(z)
    return tuple(out)


def test_block_draws_keep_the_point_by_point_stream(monkeypatch):
    rejections = 0
    cases = (({}, verify.MIN_SEP), ({"rmin": 0.3, "rmax": 0.7}, verify.MIN_SEP), ({}, 0.6))
    for seed in range(300):
        for kwargs, min_sep in cases:
            monkeypatch.setattr(verify, "MIN_SEP", min_sep)
            count = 1 + seed % 7
            avoid = ((0.5 + 0.5j,) if seed % 2 else ())
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_points(ours, count, avoid=avoid, **kwargs)
            want = _random_points_one_by_one(theirs, count, avoid=avoid, min_sep=min_sep, **kwargs)
            assert got == want, (seed, kwargs, min_sep)
            # the generator is left where the point-by-point loop leaves it
            after = ours.random()
            assert after == theirs.random(), (seed, kwargs, min_sep)
            # with no rejection the points take exactly 2 * count draws
            unrejected = np.random.default_rng(seed)
            unrejected.random(2 * count)
            rejections += after != unrejected.random()
    assert rejections > 100


def test_logders_ratio_closed_form_matches_its_series():
    # |eps * b| and |eps * c| stay below 0.2, so 59 terms reach the last bits
    rng = np.random.default_rng(11)
    for _ in range(200):
        b_vars = random_points(rng, int(rng.integers(1, 3)), rmin=0.1, rmax=0.55)
        c_vars = random_points(rng, int(rng.integers(1, 3)), rmin=0.1, rmax=0.45)
        eps = random_points(rng, 1, rmin=0.05, rmax=0.35)[0]
        got = _logders_ratio_main_single(b_vars, c_vars, eps)
        want = series_logders_ratio_main_single(b_vars, c_vars, eps)
        assert rel_err(got, want) < 1e-14, (b_vars, c_vars, eps)


@pytest.mark.parametrize("name,oracle,instances", STACKED_SUITES)
def test_stacked_suites_match_per_instance_loops(name, oracle, instances):
    # one determinant stack per run gives the per-instance reports bit for bit;
    # at tol=1e-30 every check fails, so the failure lists are compared too
    for seed in range(10):
        for tol in (None, 1e-30):
            got = verify.run_suite(name, seed, instances=instances, tol=tol)
            kwargs = {} if tol is None else {"tol": tol}
            assert got == oracle(seed, instances, **kwargs), (name, seed, tol)


@pytest.mark.parametrize("name,oracle,instances", STACKED_SUITES)
def test_stacked_suites_make_one_determinant_call(name, oracle, instances, monkeypatch):
    calls, kernel = [], symfunc._ls_det_many

    def counting(items):
        calls.append(len(items))
        return kernel(items)

    for module in (symfunc, overlap_identities, verify):
        monkeypatch.setattr(module, "_ls_det_many", counting)
    report = verify.run_suite(name, 3, instances=instances)
    assert report["pass"] and report["instances"] == instances
    assert len(calls) == 1 and calls[0] > instances


def test_public_overlap_sides_canonicalize():
    # lists and trailing zeros give the values of canonical tuples
    xs, ys = (0.3 + 0.2j, 1.1, -0.7j, 0.5 - 0.4j), (0.9 + 0.1j, -0.6 + 0.5j)
    # lambda = (3, 2, 1, 1) at n = 4, m = 2: index 1, head (3, 2, 1), tail (1,)
    want = first_overlap_rhs((4, 1), (3,), 2, (1,), xs, ys)
    assert want != 0
    assert first_overlap_rhs([4, 1, 0], [3, 0], 2, [1, 0, 0], list(xs), list(ys)) == want
    want = second_overlap_rhs((3, 2, 1, 1), xs[:2], xs[2:], ys)
    assert want != 0
    assert second_overlap_rhs([3, 2, 1, 1, 0], list(xs[:2]), list(xs[2:]), list(ys)) == want
