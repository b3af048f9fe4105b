"""Span tracer that wraps lsrmt's public functions from outside the package.

Each traced name is rebound, in its defining module and in every ``lsrmt``
module that imported it by name, to a wrapper that records one span per
outermost call: name, span id, parent span id, start, end and request id.
A call to a name that already has an open span runs unwrapped, so recursion
(and, for the partition enumerators, nesting inside the same layer) collapses
into the outermost span.  Spans stay in memory; ``save`` writes them out.

Self time of a span is its duration minus the durations of its direct child
spans; per-name self time, inclusive time and call counts are accumulated as
spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

# (span name, defining module, attribute); spans sharing a name share a layer
# slot, which is how the three partition enumerators become one span kind.
TRACED = [
    ("haar.mc", "lsrmt.haar", "mc_average"),
    ("haar.make_estimator", "lsrmt.haar", "make_estimator"),
    ("haar.weyl", "lsrmt.haar", "weyl_quadrature"),
    ("symfunc.monomial_eval", "lsrmt.symfunc", "monomial_eval"),
    ("symfunc.schur_det", "lsrmt.symfunc", "schur_det"),
    ("symfunc.schur_comb", "lsrmt.symfunc", "schur_comb"),
    ("symfunc.ls_det", "lsrmt.symfunc", "ls_det"),
    ("symfunc.ls_comb", "lsrmt.symfunc", "ls_comb"),
    ("symfunc.lr_coeff", "lsrmt.symfunc", "lr_coeff"),
    ("symfunc.basis_eval", "lsrmt.symfunc", "basis_eval"),
    ("symfunc.schur_in_monomials", "lsrmt.symfunc", "schur_in_monomials"),
    ("partitions.enum", "lsrmt.partitions", "partitions_of"),
    ("partitions.enum", "lsrmt.partitions", "partitions_up_to"),
    ("partitions.enum", "lsrmt.partitions", "subdiagrams"),
    ("partitions.canonical", "lsrmt.partitions", "canonical"),
    ("partitions.overlap", "lsrmt.partitions", "overlap"),
    ("partitions.ribbons", "lsrmt.partitions", "ribbons_added"),
    ("partitions.ribbons", "lsrmt.partitions", "ribbons_removed"),
    ("partitions.mn_index", "lsrmt.partitions", "mn_index"),
    ("schur_algebra.mn_derive", "lsrmt.schur_algebra", "mn_derive"),
    ("schur_algebra.mn_multiply", "lsrmt.schur_algebra", "mn_multiply"),
    ("schur_algebra.hall_inner", "lsrmt.schur_algebra", "hall_inner"),
    ("schur_algebra.mn_negative", "lsrmt.schur_algebra", "mn_negative"),
    ("overlap_identities.first_rhs", "lsrmt.overlap_identities", "first_overlap_rhs"),
    ("overlap_identities.second_rhs", "lsrmt.overlap_identities", "second_overlap_rhs"),
    ("rmt.logders_main", "lsrmt.rmt", "logders_main"),
    ("rmt.completed_logders_main", "lsrmt.rmt", "completed_logders_main"),
    ("rmt.recipe_main", "lsrmt.rmt", "recipe_main"),
    ("rmt.explicit_formula_rhs", "lsrmt.rmt", "explicit_formula_rhs"),
    ("rmt.ratio_avg", "lsrmt.rmt", "ratio_avg"),
    ("rmt.product_avg", "lsrmt.rmt", "product_avg"),
    ("rmt.moment_unitary", "lsrmt.rmt", "moment_unitary"),
    ("verify.run_suite", "lsrmt.verify", "run_suite"),
    ("cli.main", "lsrmt.cli", "main"),
]
# numpy routines wrapped only as the haar module sees them (through haar.np)
HAAR_LINALG = [("haar.qr", "qr"), ("haar.eigvals", "eigvals")]
ESTIMATOR = "haar.estimator"


class _View:
    """Attribute proxy: the given overrides, everything else from ``base``."""

    def __init__(self, base, **overrides):
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Collects spans and per-name aggregates; see the module docstring."""

    def __init__(self):
        names = sorted({n for n, _, _ in TRACED} | {n for n, _ in HAAR_LINALG} | {ESTIMATOR})
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        k = len(names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.total_s = [0.0] * k
        self.counters: dict[str, float] = {}
        self.spans = array("d")  # flat rows of SPAN_COLUMNS
        self.request = -1.0
        self.recording = True
        self._active = [0] * k
        self._open: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.originals: dict[tuple[str, str], object] = {}

    SPAN_COLUMNS = ("id", "name", "start", "end", "parent", "request")

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, idx):
        self._active[idx] = 1
        span_id = self._next_id
        self._next_id += 1
        self._open.append([span_id, 0.0])
        return span_id

    def _exit(self, idx, span_id, start, end):
        _, child = self._open.pop()
        dur = end - start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - child
        parent = -1
        if self._open:
            self._open[-1][1] += dur
            parent = self._open[-1][0]
        self._active[idx] = 0
        self.spans.extend((span_id, idx, start, end, parent, self.request))

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, observe=None):
        """Timed wrapper of ``fn``; ``observe(result)`` runs after outermost calls."""
        idx = self._index[name]
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.recording or self._active[idx]:
                    return fn(*args, **kwargs)
                return self._traced_iter(idx, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording or self._active[idx]:
                return fn(*args, **kwargs)
            span_id = self._enter(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx, span_id, start, clock())
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def _traced_iter(self, idx, gen):
        """One span per resumption of ``gen``; counts the items it yields."""
        clock = time.perf_counter
        key = self.names[idx] + "_items"
        while True:
            span_id = self._enter(idx)
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                self._exit(idx, span_id, start, clock())
                return
            except BaseException:
                self._exit(idx, span_id, start, clock())
                raise
            self._exit(idx, span_id, start, clock())
            self.count(key)
            yield item

    def timed_functional(self, functional, rows_key=None):
        """Callable that times ``functional``; counts its input rows under rows_key."""
        wrapped = self.wrap(ESTIMATOR, functional)
        if rows_key is None:
            return wrapped

        def call(eigs):
            if self.recording:
                self.count(rows_key, len(eigs))
            return wrapped(eigs)

        return call

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every traced name in every ``lsrmt`` namespace that binds it."""
        import numpy as np

        observers = {
            "mc_average": self._observe_mc,
            "run_suite": self._observe_suite,
            "main": self._observe_cli,
        }
        for name, module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, observers.get(attr))
            self.originals[(module_name, attr)] = original
            for mod in lsrmt_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, value))
                        setattr(mod, key, wrapper)
        haar = importlib.import_module("lsrmt.haar")
        linalg = {attr: self.wrap(name, getattr(np.linalg, attr)) for name, attr in HAAR_LINALG}
        self._installed.append((haar, "np", haar.np))
        haar.np = _View(np, linalg=_View(np.linalg, **linalg))

    def uninstall(self):
        for mod, key, value in reversed(self._installed):
            setattr(mod, key, value)
        self._installed.clear()

    def _observe_mc(self, est):
        self.count("haar.samples", est.samples + est.rejected)
        self.count("haar.rejected", est.rejected)

    def _observe_suite(self, report):
        self.count("verify.instances", report["instances"])
        self.count("verify.failures", len(report["failures"]))

    def _observe_cli(self, code):
        self.count("cli.exit_nonzero", int(code != 0))

    # -- output ----------------------------------------------------------------

    def stat(self, name):
        i = self._index[name]
        return self.calls[i], self.self_s[i], self.total_s[i]

    def save(self, stem):
        """Write spans as ``<stem>.spans`` (float64 rows) and ``<stem>.json``."""
        with open(f"{stem}.spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(f"{stem}.json", "w") as fh:
            json.dump({"columns": list(self.SPAN_COLUMNS), "names": self.names,
                       "dtype": "float64", "rows": len(self.spans) // len(self.SPAN_COLUMNS)}, fh)


def lsrmt_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "lsrmt" or k.startswith("lsrmt."))]
