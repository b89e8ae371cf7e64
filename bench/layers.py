"""Per-layer spans recorded from outside the program.

The tracer replaces each public function at the module attribute the
program calls it through (``hdpf.driver.linearize``, ``hdpf.comm.condense_region``,
``hdpf.central.linearize``, ...) with a wrapper that records a span: layer,
benchmark operation, start, end, parent span, and the region and outer
iteration it belongs to.  A call made while a span of the same layer is open
is not recorded again.  A wrap point that the program no longer has is
reported as absent; the metrics built on it then read 0.

Regions are attributed from the call arguments: ``linearize`` receives a
network of the problem ``partition`` returned, ``condense_region`` the linearization that call returned,
and ``recover_local`` a condensed model carrying that linearization.  The
k-th ``linearize`` of a region within one operation opens its iteration k.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, layer)
POINTS = (
    ("hdpf.caseio", "load_manifest", "caseio"),
    ("hdpf.caseio", "parse_manifest", "caseio"),
    ("hdpf.caseio", "parse_case", "caseio"),
    ("hdpf.partition", "partition", "partition"),
    ("hdpf.network", "build_network", "build_network"),
    ("hdpf.driver", "build_network", "build_network"),
    ("hdpf.comm", "build_network", "build_network"),
    ("hdpf.driver", "linearize", "linearize"),
    ("hdpf.comm", "linearize", "linearize"),
    ("hdpf.central", "linearize", "central.linearize"),
    ("hdpf.driver", "q_term", "q_term"),
    ("hdpf.comm", "q_term", "q_term"),
    ("hdpf.driver", "condense_region", "condense_region"),
    ("hdpf.comm", "condense_region", "condense_region"),
    ("hdpf.driver", "recover_local", "recover_local"),
    ("hdpf.comm", "recover_local", "recover_local"),
    ("hdpf.driver", "consensus_pass", "consensus_pass"),
    ("hdpf.comm", "weighted_average", "weighted_average"),
    ("hdpf.driver", "solve", "driver"),
    ("hdpf.comm", "run_distributed", "comm"),
    ("hdpf.central", "central_solve", "central"),
)

REGION_LAYERS = ("linearize", "condense_region", "recover_local")


class Tracer:
    """Spans of one traced round, kept in memory."""

    def __init__(self):
        # each span: [layer, op, start, end, parent, region, iteration]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._op = None
        self._net_region: dict[int, int] = {}
        self._lin_region: dict[int, int] = {}
        self._iteration: dict[tuple, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every present point for the duration of the block."""
        self.absent = []
        for mod_name, attr, layer in POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._saved):
                setattr(mod, attr, fn)
            self._saved.clear()

    @contextlib.contextmanager
    def op(self, name: str):
        """Span for one benchmark operation (set-up, solve, ...)."""
        self._op = name
        idx = self._open("op", None)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str, region) -> int:
        iteration = None
        if region is not None:
            key = (self._op, region)
            if layer == "linearize":
                self._iteration[key] += 1
            iteration = self._iteration[key]
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, self._op, time.perf_counter(), None, parent, region, iteration])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._depth[layer] += 1
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def _region(self, layer: str, args):
        if not args:
            return None
        if layer == "linearize":
            return self._net_region.get(id(args[0]))
        if layer == "condense_region":
            return self._lin_region.get(id(args[0]))
        if layer == "recover_local":
            return self._lin_region.get(id(getattr(args[0], "lin", None)))
        return None

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._depth[layer]:
                return fn(*args, **kwargs)
            region = self._region(layer, args)
            idx = self._open(layer, region)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if layer == "partition":
                self._net_region = {id(r.net): r.index for r in out.regions}
            elif layer == "linearize" and region is not None:
                self._lin_region[id(out)] = region
            return out
        return traced

    # -- derived figures ------------------------------------------------------

    def total(self, layer: str, ops) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == layer and s[1] in ops)

    def count(self, layer: str, ops) -> int:
        return sum(1 for s in self.spans if s[0] == layer and s[1] in ops)

    def self_time(self, layer: str, op: str) -> float:
        """Span time of ``layer`` within ``op`` minus the time of its child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        return sum(s[3] - s[2] - child[i] for i, s in enumerate(self.spans)
                   if s[0] == layer and s[1] == op)

    def region_times(self, op: str) -> tuple[float, float]:
        """(sum, critical path) of per-region work in ``op``: the critical
        path adds, over iterations, the largest region's time."""
        per = defaultdict(float)
        for s in self.spans:
            if s[0] in REGION_LAYERS and s[1] == op and s[5] is not None:
                per[(s[6], s[5])] += s[3] - s[2]
        worst = defaultdict(float)
        for (iteration, _), t in per.items():
            worst[iteration] = max(worst[iteration], t)
        return sum(per.values()), sum(worst.values())
