import numpy as np

from lsrmt import verify
from lsrmt.verify import _logders_ratio_main_single, random_points
from util import rel_err, series_logders_ratio_main_single


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
