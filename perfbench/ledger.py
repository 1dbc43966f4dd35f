"""Per-layer ledger for the rack benchmark, timed from outside the program.

Every layer boundary the benchmark traces is a public method of a repo
class.  :meth:`Ledger.install` replaces each such method *on its class*
with a thin wrapper that takes a ``perf_counter`` pair around the call and
keeps a stack of open spans, so a layer's **self time** is its span minus
the spans of traced layers it called.  Nothing under ``src/`` is edited;
:meth:`Ledger.install` returns a context manager that puts every original
method back.

Spans are aggregated as they close (self seconds, calls and work units per
layer) instead of being kept one by one: a traced ``read_observed`` run
closes millions of spans, and only their sums are reported.

Wrappers must be installed *before* the rack is built: some callers bind a
method once at construction (the switch's ``hot_key_handler`` is the
controller's bound ``report_hot_key``), and such a binding would bypass a
wrapper installed later.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.client.workload import Workload
from repro.core.controller import CacheController
from repro.core.geometry import CacheLayout
from repro.core.stats import QueryStatistics
from repro.core.switch import NetCacheSwitch
from repro.kvstore.server import StorageServer
from repro.kvstore.shim import ServerShim
from repro.kvstore.store import KVStore
from repro.net.events import EventQueue
from repro.net.fastpath import FastPathEngine
from repro.net.trace import DeliveryTrace
from repro.obs.metrics import Counter, Histogram

#: Work-unit extractors: the size of one call, read from its arguments.
Size = Optional[Callable[[tuple], int]]


def _first_len(args: tuple) -> int:
    return len(args[1])


def _first_int(args: tuple) -> int:
    return int(args[1])


def _layout_classes() -> List[type]:
    """CacheLayout and every subclass, so each layout's own
    ``classify_reads`` is timed, whichever geometry a rack uses."""
    out, todo = [], [CacheLayout]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def trace_points() -> List[Tuple[type, str, str, Size]]:
    """``(class, method, layer, size)`` for every traced entry point.

    Several methods may share one layer (``stats`` has three batch
    kernels); its self time and calls are summed over them.  ``size``
    counts the work one call carries (keys, queries, records) where that
    differs from one per call.
    """
    points = [
        (Workload, "next_queries", "client.gen", _first_int),
        (FastPathEngine, "run_until", "fastpath", None),
        (NetCacheSwitch, "process_read_batch", "switch.read_batch",
         _first_len),
        (NetCacheSwitch, "process_write_packet", "switch.write", None),
        (NetCacheSwitch, "handle_packet", "switch.handle_packet", None),
        (QueryStatistics, "sample_batch", "stats", _first_len),
        (QueryStatistics, "cache_count_batch", "stats", None),
        (QueryStatistics, "heavy_hitter_count_batch", "stats", None),
        (KVStore, "get", "store.get", None),
        (KVStore, "put", "store.put", None),
        (ServerShim, "process", "shim.process", None),
        (StorageServer, "handle_packet", "server.handle_packet", None),
        (CacheController, "update_round", "controller", None),
        (CacheController, "report_hot_key", "controller", None),
        (DeliveryTrace, "note_batch", "trace", None),
        (DeliveryTrace, "digest", "trace", None),
        (EventQueue, "step", "simulator", None),
        (Counter, "inc", "obs.metrics", None),
        (Histogram, "observe", "obs.metrics", None),
    ]
    for cls in _layout_classes():
        if "classify_reads" in cls.__dict__:
            points.append((cls, "classify_reads", "geometry.classify",
                           _first_len))
    return points


class Ledger:
    """Self seconds, calls and work units per layer, from nested spans."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (call outside any span)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, int] = defaultdict(int)
        # Child seconds accumulated by each open span; the bottom entry
        # collects top-level spans and is never popped.
        self._stack: List[float] = [0.0]

    def _wrap(self, fn: Callable, layer: str, size: Size) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = ledger._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                ledger.self_s[layer] += dt - child
                ledger.calls[layer] += 1
                if size is not None:
                    ledger.units[layer] += size(args)

        return traced

    @contextlib.contextmanager
    def install(self) -> Iterator["Ledger"]:
        """Wrap every trace point for the duration of the ``with`` block."""
        saved = []
        try:
            for cls, name, layer, size in trace_points():
                orig = cls.__dict__[name]
                saved.append((cls, name, orig))
                setattr(cls, name, self._wrap(orig, layer, size))
            yield self
        finally:
            for cls, name, orig in reversed(saved):
                setattr(cls, name, orig)
