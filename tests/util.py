"""Shared test helpers: the seeded-instance helpers and a brute-force ribbon oracle."""

from __future__ import annotations

from lsrmt.partitions import canonical
from lsrmt.verify import random_partition, random_points, rel_err  # noqa: F401


def brute_force_ribbons_added(mu, k, max_len=None):
    """Oracle: scan all partitions of |mu|+k containing mu for ribbon skews."""
    from lsrmt.partitions import contains, partitions_of, ribbon_height, size

    out = []
    for lam in partitions_of(size(mu) + k, max_len=max_len):
        if not contains(lam, mu):
            continue
        h = ribbon_height(lam, mu)
        if h is not None:
            out.append((canonical(lam), h))
    return sorted(out)
