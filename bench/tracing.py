"""Spans around the public functions of each lanepack module.

The tracer replaces each target function, in every lanepack module that
holds a reference to it, with a wrapper that records a span: name, the
sequence (trace) it belongs to, its parent span, start and end. Spans are
kept in flat arrays in memory and written out when the run ends. A target
that no longer exists stops the traced run with TraceTargetMissing rather
than reporting zero for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute path, span name). Several targets may share a name.
SPAN_TARGETS = (
    ("lanepack.lanes", "Packing.arrays", "lanes.arrays"),
    ("lanepack.lanes", "find_position", "lanes.find_position"),
    ("lanepack.geometry", "Frame.to_local", "geometry.to_local"),
    ("lanepack.geometry", "leftmost_feasible", "geometry.leftmost_feasible"),
    ("lanepack.blocks", "pack_small_class", "blocks.pack_small_class"),
    ("lanepack.dslp", "dslp_pack", "dslp.dslp_pack"),
    ("lanepack.dslp", "dslp_metrics", "dslp.dslp_metrics"),
    ("lanepack.classification", "classify", "classification.classify"),
    ("lanepack.classification", "build_class_table",
     "classification.build_class_table"),
    ("lanepack.containers", "RectRun.__init__", "containers.run_init"),
    ("lanepack.containers", "SquareRun.__init__", "containers.run_init"),
    ("lanepack.containers", "pack_rect_online", "containers.pack_self"),
    ("lanepack.containers", "pack_square_online", "containers.pack_self"),
    ("lanepack.audit", "validate", "audit.validate"),
)

# Extra sums taken at a span's entry: span name -> (counter, probe(args)).
# find_position(lane, r, packing, ...) hands len(packing) obstacles to the
# sweep.
PROBES = {
    "lanes.find_position": ("lanes.obstacles", lambda args: len(args[2])),
}

# (module, attribute path, counter name): counted, not timed; their time
# stays in the caller's self time.
COUNT_TARGETS = (
    ("lanepack.lanes", "commit", "lanes.commits"),
    ("lanepack.blocks", "BlockLedger.frontier", "blocks.frontier_calls"),
)


class TraceTargetMissing(RuntimeError):
    pass


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    try:
        for name in parents:
            owner = getattr(owner, name)
        fn = vars(owner)[leaf]
    except (AttributeError, KeyError):
        raise TraceTargetMissing(
            f"traced target {module_name}.{path} no longer exists") from None
    return owner, leaf, fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.trace_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn):
        nid = self._intern(name)
        counter, probe = PROBES.get(name, (None, None))
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                counts[counter] = counts.get(counter, 0) + probe(args)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module_name: str, path: str, wrapper_of) -> None:
        owner, leaf, fn = _resolve(module_name, path)
        wrapper = wrapper_of(fn)
        if isinstance(owner, type):
            self._patches.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)
            return
        # A module-level function is also bound by name in every module
        # that imported it with `from .x import f`.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lanepack" or mod_name.startswith("lanepack."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for module_name, path, name in SPAN_TARGETS:
                self._patch(module_name, path,
                            lambda fn, name=name: self._timed(name, fn))
            for module_name, path, name in COUNT_TARGETS:
                self._patch(module_name, path,
                            lambda fn, name=name: self._counted(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(self._patches):
                setattr(owner, attr, fn)
            self._patches.clear()

    def mark(self) -> tuple[int, dict[str, float]]:
        return len(self.start), dict(self.counts)

    def summary(self, since: tuple[int, dict[str, float]]):
        """Self time and call count per span name, and counter deltas,
        for the spans recorded after `since` (a value of mark())."""
        lo, counts0 = since
        hi = len(self.start)
        names = np.array(self.name_id[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        if np.any(dur < 0):
            raise RuntimeError("a span was left open")
        nested = parent >= lo
        covered = np.bincount(parent[nested] - lo, weights=dur[nested],
                              minlength=hi - lo)
        own = dur - covered
        k = len(self.names)
        self_s = np.bincount(names, weights=own, minlength=k)
        calls = np.bincount(names, minlength=k)
        per_name = {n: (float(self_s[i]), int(calls[i]))
                    for i, n in enumerate(self.names)}
        counters = {n: v - counts0.get(n, 0) for n, v in self.counts.items()}
        return per_name, counters

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\ttrace\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.trace[i]}\t{self.parent[i]}\t"
                          f"{self.names[self.name_id[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
