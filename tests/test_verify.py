import numpy as np

from lsrmt.verify import random_points


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


def test_block_draws_keep_the_point_by_point_stream():
    rejections = 0
    for seed in range(300):
        for kwargs in ({}, {"rmin": 0.3, "rmax": 0.7}, {"min_sep": 0.6}):
            count = 1 + seed % 7
            avoid = ((0.5 + 0.5j,) if seed % 2 else ())
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_points(ours, count, avoid=avoid, **kwargs)
            want = _random_points_one_by_one(theirs, count, avoid=avoid, **kwargs)
            assert got == want, (seed, kwargs)
            # the generator is left where the point-by-point loop leaves it
            after = ours.random()
            assert after == theirs.random(), (seed, kwargs)
            # with no rejection the points take exactly 2 * count draws
            unrejected = np.random.default_rng(seed)
            unrejected.random(2 * count)
            rejections += after != unrejected.random()
    assert rejections > 100
