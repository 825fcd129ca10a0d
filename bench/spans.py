"""Spans and counters recorded around the calls one symsod module makes into another.

The tracer patches module attributes (``symsod.cli.parse_expr``,
``symsod.invariants.expand``, ...) and a few class attributes of the
``symgroup`` and ``expr`` layers with wrappers.  A span has a name, a start,
an end, a parent span and the id of the operation it belongs to.  Spans live
in flat arrays in memory and are written out once, when the run ends.  A
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Optional

# Span name -> (module, attribute) call sites it wraps.  Only calls that cross
# from one module into another are patched; recursion inside a module is not.
SPAN_SITES = {
    "cli.main": [("symsod.cli", "main")],
    "grammar.parse_expr": [("symsod.cli", "parse_expr")],
    "grammar.render_text": [("symsod.cli", "render_text")],
    "expr.canonicalize": [("symsod.grammar", "canonicalize"), ("symsod.rewrite", "canonicalize")],
    "invariants.invariant_report": [("symsod.cli", "invariant_report")],
    "rewrite.expand": [("symsod.invariants", "expand")],
    "series.gottsche_series": [
        ("symsod.cli", "gottsche_series"), ("symsod.invariants", "gottsche_series"),
    ],
    "series.macdonald_poincare": [("symsod.invariants", "macdonald_poincare")],
    "partitions.q_length": [("symsod.cli", "q_length"), ("symsod.invariants", "q_length")],
    "symgroup.induction_invariance_check": [("symsod.symgroup", "induction_invariance_check")],
    "symgroup.invariant_dimension": [("symsod.symgroup", "invariant_dimension")],
}

# Span names whose calls and self times are reported (the root "op" is extra).
TIMED = [
    "cli.main", "grammar.parse_expr", "grammar.render_text", "expr.canonicalize",
    "rewrite.expand", "invariants.invariant_report", "series.gottsche_series",
    "series.macdonald_poincare", "partitions.q_length",
    "symgroup.induction_invariance_check", "symgroup.permmodule_init",
    "symgroup.orbit_count", "symgroup.invariant_dimension",
]

# Counters filled by the tracer or by the workload runner.
COUNTERS = [
    "cli.stdout_bytes", "expr.component_of.calls", "rewrite.entries_out",
    "rewrite.multiplicity_out", "rewrite.multiplicity_vectors.calls",
    "invariants.hilb_cache.hits", "invariants.hilb_cache.misses",
    "partitions.q_cache.size", "partitions.composition_terms",
    "symgroup.permutations_constructed",
]


class Tracer:
    """Spans in flat arrays (index = span id) and named counters, for one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._patched: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``; ``before(*args)`` and ``after(result)``
        run outside the span, to count work."""
        nid = self._name_id(name)
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``wrap(original)``; a missing site raises."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Patch the package's cross-module call sites."""
        modules = sys.modules
        for name, sites in SPAN_SITES.items():
            before = self._count_compositions if name == "partitions.q_length" else None
            after = self._count_expansion if name == "rewrite.expand" else None
            for module_name, attr in sites:
                self._patch(modules[module_name], attr,
                            lambda fn: self.wrap(name, fn, before, after))
        symgroup = modules["symsod.symgroup"]
        self._patch(symgroup.PermModule, "__init__",
                    lambda fn: self.wrap("symgroup.permmodule_init", fn))
        self._patch(symgroup.PermModule, "orbit_count",
                    lambda fn: self.wrap("symgroup.orbit_count", fn))
        self._patch(symgroup.Permutation, "__post_init__",
                    lambda fn: self._counted("symgroup.permutations_constructed", fn))
        self._patch(modules["symsod.rewrite"], "multiplicity_vectors",
                    lambda fn: self._counted("rewrite.multiplicity_vectors.calls", fn))
        self._patch(modules["symsod.expr"].Component, "of",
                    lambda of: classmethod(self._counted("expr.component_of.calls", of.__func__)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_expansion(self, components) -> None:
        self.counts["rewrite.entries_out"] += len(components)
        self.counts["rewrite.multiplicity_out"] += components.total_multiplicity()

    def _count_compositions(self, n, l, *_args, **_kwargs) -> None:
        cache = sys.modules["symsod.partitions"]._Q_CACHE
        if n >= 0 and l >= 1 and (n, l) not in cache:
            self.counts["partitions.composition_terms"] += math.comb(n + l - 1, l - 1)

    def self_times(self, scale: list[float]) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, total duration and self duration, in seconds.

        Durations in operation k are multiplied by ``scale[k]``.
        """
        count = len(self.starts)
        duration = [(self.ends[i] - self.starts[i]) * scale[self.ops[i]] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += duration[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i in range(count):
            name = self.names[self.name_ids[i]]
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - child[i]
        return calls, total, own

    def write(self, path) -> None:
        """Write every span as one CSV line: op, span, parent, name, start_s, end_s."""
        with open(path, "w") as out:
            out.write("op,span,parent,name,start_s,end_s\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{self.ops[i]},{i},{self.parents[i]},{self.names[self.name_ids[i]]},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
                )
