"""Per-layer tracing installed from outside the library.

``Tracer.install`` wraps the library's layer boundaries in place: the
space primitives, projections per set kind, grids, mappings, the Picard loop,
certificates, rate formulas, oracles, config loading and ``cli.main``.  Hot
primitives (millions of calls) only aggregate a call count and self time in
memory; the coarse boundaries also record spans (name, start, end, parent).
Self time is a boundary's duration minus the time its traced callees took.

Nothing is written while the command runs: ``Tracer.snapshot`` returns the
aggregates and spans for the caller to write when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from functools import cached_property

# Boundaries that also record spans; everything else only aggregates.
SPAN_BOUNDARIES = {
    "cli.main",
    "config.load_config",
    "iteration.picard",
    "iteration.certify",
    "analysis.best_pair_bruteforce",
    "analysis.set_distance",
    "analysis.check_delta_limit",
}


class _Stat:
    __slots__ = ("calls", "self_s", "work", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0
        self.distinct = None


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # frames: [stat, child_seconds, span_id]
        self._grid_sizes: list[int] = []
        self._span_ids = itertools.count()

    def stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    # -- wrappers -------------------------------------------------------------------

    def timed(self, name: str, fn, after=None, counts_for=None):
        """Wrap fn so its calls and self time aggregate under `name`.

        `after(args, result, stat)` may add a work count.  A call made
        directly from the boundary `counts_for` adds one to that boundary's
        work count (set_distance makes one distance call per iteration).
        """
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans if name in SPAN_BOUNDARIES else None
        counter = self.stat(counts_for) if counts_for else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if counter is not None and parent is not None and parent[0] is counter:
                counter.work += 1
            frame = [stat, 0.0, next(self._span_ids) if spans is not None else None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat.calls += 1
                stat.self_s += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if spans is not None:
                    spans.append(
                        {
                            "id": frame[2],
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "parent": self._enclosing_span(),
                        }
                    )
            if after is not None:
                after(args, result, stat)
            return result

        return wrapper

    def _enclosing_span(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def counted(self, name: str, fn):
        """Count calls only; the time stays with the caller."""
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------------

    def install(self):
        """Wrap every traced boundary of an imported ``cat0feas``."""
        import cat0feas.analysis as analysis
        import cat0feas.cli as cli
        import cat0feas.config as config
        import cat0feas.iteration as iteration
        import cat0feas.mappings as mappings
        import cat0feas.sets as sets
        import cat0feas.spaces as spaces
        import cat0feas.trees as trees
        from cat0feas.product import ConvexCombinationSpace

        base = spaces.Space
        per_space = {
            spaces.EuclideanSpace: "spaces.{}.euclidean",
            spaces.PoincareDiskSpace: "spaces.{}.poincare-disk",
            trees.TreeSpace: "trees.{}",
            ConvexCombinationSpace: "product.{}",
        }
        for cls, pattern in per_space.items():
            cls.distance = self.timed(
                pattern.format("distance"), base.distance, counts_for="analysis.set_distance"
            )
            cls.interpolate = self.timed(pattern.format("interpolate"), base.interpolate)
        base.random_point = self.timed("spaces.random_point", base.random_point)
        base.require_member = self.counted("spaces.require_member", base.require_member)

        tables = trees.MetricTree.__dict__["_bfs_tables"]
        timed_tables = cached_property(self.timed("trees.tables", tables.func))
        timed_tables.__set_name__(trees.MetricTree, "_bfs_tables")
        trees.MetricTree._bfs_tables = timed_tables

        for cls in _subclasses(sets.ConvexSet):
            if "project" in cls.__dict__:
                cls.project = self.timed(f"sets.project.{cls.kind}", cls.project)
            if "grid" in cls.__dict__:
                cls.grid = self.timed("sets.grid", cls.grid, after=self._count_grid)
        for cls in _subclasses(mappings.Mapping):
            if "__call__" in cls.__dict__:
                cls.__call__ = self.timed("mappings.apply", cls.__call__)

        functions = [
            (spaces, "check_four_point", "spaces.check_four_point", None),
            (spaces, "check_cn_inequality", "spaces.check_cn_inequality", None),
            (mappings, "check_p2", "mappings.check_p2", None),
            (mappings, "check_firmly_nonexpansive", "mappings.check_firmly_nonexpansive", None),
            (iteration, "picard", "iteration.picard", _count_steps),
            (iteration, "certify_asymptotic_regularity", "iteration.certify", None),
            (iteration, "certify_best_approx_rate", "iteration.certify", None),
            (iteration, "asymptotic_regularity_rate", "iteration.rate_formula", None),
            (iteration, "averaged_projection_gap_rate", "iteration.rate_formula", None),
            (iteration, "composed_projection_gap_rate", "iteration.rate_formula", None),
            (analysis, "best_pair_bruteforce", "analysis.best_pair_bruteforce", self._count_pairs),
            (analysis, "set_distance", "analysis.set_distance", None),
            (analysis, "check_delta_limit", "analysis.check_delta_limit", None),
            (config, "load_config", "config.load_config", None),
            (cli, "main", "cli.main", None),
        ]
        self.stat("analysis.best_pair_bruteforce").distinct = set()
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            _rebind(original, self.timed(name, original, after=after))

    def _count_grid(self, args, result, stat):
        stat.work += len(result)
        self._grid_sizes.append(len(result))

    def _count_pairs(self, args, result, stat):
        """Grid pairs searched, and distinct (A, B, grid) requests."""
        size_a, size_b = self._grid_sizes[-2:]
        self._grid_sizes.clear()
        stat.work += size_a * size_b
        stat.distinct.add(repr(args))

    # -- results ----------------------------------------------------------------------

    def snapshot(self) -> dict:
        stats = {}
        for name, s in self.stats.items():
            entry = {"calls": s.calls, "self_s": s.self_s, "work": s.work}
            if s.distinct is not None:
                entry["distinct"] = len(s.distinct)
            stats[name] = entry
        return {"stats": stats, "spans": self.spans}


def _count_steps(args, result, stat):
    stat.work += len(result.points) - 1


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _rebind(original, wrapped):
    """Replace `original` in every library module that bound its name."""
    for name, module in list(sys.modules.items()):
        if name == "cat0feas" or name.startswith("cat0feas."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
