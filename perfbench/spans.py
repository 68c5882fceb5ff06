"""Layer spans for the traced benchmark run.

The tracer wraps public functions of the library from outside: each wrapped
call opens a span, and the tracer aggregates per span name the call count,
the total time of outermost calls and the self time (the span's duration
minus the time of the wrapped spans it opened).  It also keeps, per
(parent, child) pair, the time of child spans opened directly under that
parent, and per watched ancestor the number of spans opened while it was
open.  Spans are aggregated in memory instead of being stored one by one,
because a sweep opens millions of them.

A function imported with ``from .core import minkowski_sum`` is bound under
its own name in the importing module, so patching the defining module alone
misses those calls.  ``install`` rebinds every module attribute that is the
original object.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter, watch=()):
        self.clock = clock
        self.watch = tuple(watch)
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edge_time = defaultdict(float)
        self.under = Counter()
        self.counts = Counter()
        self._stack = []  # open spans: [name, start, time of child spans]
        self._open = Counter()

    def enter(self, name: str) -> None:
        for ancestor in self.watch:
            if self._open[ancestor]:
                self.under[ancestor, name] += 1
        self.calls[name] += 1
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_time = self._stack.pop()
        duration = self.clock() - start
        self._open[name] -= 1
        self.self_time[name] += duration - child_time
        if not self._open[name]:
            self.total[name] += duration  # outermost call only, so recursion is not counted twice
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][2] += duration
        self.edge_time[parent, name] += duration

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(args, result) returns counts to add."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                self.counts.update(count(args, result))
            return result
        return traced


def package_modules(package: str) -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")]


@contextmanager
def installed(tracer: Tracer, points, modules):
    """Wrap each (span name, owner, attribute, count) point while the block runs.

    The owner is the module or class that defines the attribute; the wrapper
    replaces the original in the owner and in every module that binds it.
    """
    undo = []
    try:
        for name, owner, attr, count in points:
            original = vars(owner)[attr]
            wrapped = tracer.wrap(name, original, count)
            for target in [owner, *modules]:
                if vars(target).get(attr) is original:
                    setattr(target, attr, wrapped)
                    undo.append((target, attr, original))
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# ---------------------------------------------------------------------------
# the library's layers
# ---------------------------------------------------------------------------

GENERATORS = ("families.gen_trapezoid", "families.gen_eps_trapezoid",
              "families.gen_case_c", "families.gen_wild")
CLASSIFIERS = ("classify.thm2", "classify.thm3", "classify.1d")


def layer_points(sl) -> list:
    """The wrapped entry points of every in-process layer of the library."""
    core, bounds, compression = sl.core, sl.bounds, sl.compression
    families, classify, search, convex = sl.families, sl.classify, sl.search, sl.convex
    return [
        ("core.pointset", core.PointSet2D, "__init__", None),
        ("core.minkowski_sum", core, "minkowski_sum",
         lambda args, _: {"core.minkowski_sum_pairs": len(args[0]) * len(args[1])}),
        ("core.apply_map", core, "apply_map", None),
        ("core.cover_stats", core, "cover_stats", None),
        ("bounds.bound", bounds, "bound", None),
        ("bounds.chain_diagnostic", bounds, "chain_diagnostic", None),
        ("bounds.averaging_report", bounds, "averaging_report", None),
        ("compression.compress", compression, "compress", None),
        ("compression.compression_chain", compression, "compression_chain", None),
        *((name, families, name.split(".")[1], None) for name in GENERATORS),
        ("classify.thm2", classify, "classify_thm2", None),
        ("classify.thm3", classify, "classify_thm3", None),
        ("classify.1d", classify, "classify_1d", None),
        ("search.enumerate", search, "enumerate_subsets",
         lambda _, subsets: {"search.subsets": len(subsets)}),
        ("search.sweep", search, "sweep",
         lambda _, report: {"search.pairs_checked": report.pairs_checked,
                            "search.extremal": report.extremal_count}),
        ("convex.poly_sum", convex, "poly_minkowski_sum",
         lambda args, _: {"convex.poly_sum_vertices":
                          len(args[0].vertices) + len(args[1].vertices)}),
        ("convex.bonnesen_report", convex, "bonnesen_report", None),
        ("convex.decompose", convex, "decompose_and_classify", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics, per cycle of the workload's mix; every _s is self time."""
    per = 1 / cycles
    calls, own, counts = tracer.calls, tracer.self_time, tracer.counts
    sweep_classify = sum(tracer.edge_time["search.sweep", c] for c in CLASSIFIERS)
    return {
        "core.pointset_calls": (calls["core.pointset"] * per, "count"),
        "core.pointset_s": (own["core.pointset"] * per, "s"),
        "core.minkowski_sum_calls": (calls["core.minkowski_sum"] * per, "count"),
        "core.minkowski_sum_s": (own["core.minkowski_sum"] * per, "s"),
        "core.minkowski_sum_pairs": (counts["core.minkowski_sum_pairs"] * per, "count"),
        "core.apply_map_s": (own["core.apply_map"] * per, "s"),
        "core.cover_stats_s": (own["core.cover_stats"] * per, "s"),
        "bounds.bound_calls": (calls["bounds.bound"] * per, "count"),
        "bounds.bound_s": (own["bounds.bound"] * per, "s"),
        "bounds.chain_diagnostic_s": (own["bounds.chain_diagnostic"] * per, "s"),
        "bounds.averaging_report_calls": (calls["bounds.averaging_report"] * per, "count"),
        "bounds.averaging_report_s": (own["bounds.averaging_report"] * per, "s"),
        "compression.compress_s": (own["compression.compress"] * per, "s"),
        "compression.compression_chain_s": (own["compression.compression_chain"] * per, "s"),
        "families.gen_calls": (sum(calls[g] for g in GENERATORS) * per, "count"),
        "families.gen_s": (sum(own[g] for g in GENERATORS) * per, "s"),
        "families.gen_per_classify": (
            _ratio(sum(tracer.under["classify.thm3", g] for g in GENERATORS),
                   calls["classify.thm3"]), "ratio"),
        "classify.thm3_calls": (calls["classify.thm3"] * per, "count"),
        "classify.thm3_s": (own["classify.thm3"] * per, "s"),
        "classify.thm2_calls": (calls["classify.thm2"] * per, "count"),
        "classify.thm2_s": (own["classify.thm2"] * per, "s"),
        "classify.1d_s": (own["classify.1d"] * per, "s"),
        "search.enumerate_s": (own["search.enumerate"] * per, "s"),
        "search.subsets": (counts["search.subsets"] * per, "count"),
        "search.sweep_s": (own["search.sweep"] * per, "s"),
        "search.pairs_checked": (counts["search.pairs_checked"] * per, "count"),
        "search.extremal_frac": (
            _ratio(counts["search.extremal"], counts["search.pairs_checked"]), "ratio"),
        "search.classify_share": (_ratio(sweep_classify, tracer.total["search.sweep"]), "ratio"),
        "convex.poly_sum_calls": (calls["convex.poly_sum"] * per, "count"),
        "convex.poly_sum_vertices": (counts["convex.poly_sum_vertices"] * per, "count"),
        "convex.poly_sum_s": (own["convex.poly_sum"] * per, "s"),
        "convex.bonnesen_report_s": (own["convex.bonnesen_report"] * per, "s"),
        "convex.decompose_s": (own["convex.decompose"] * per, "s"),
    }
