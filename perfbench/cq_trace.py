"""In-memory span recording around the public entry points of each layer.

Tracing is installed from the benchmark's own files: :func:`instrument`
replaces each entry point (a module-level function or a class method)
with a wrapper that records one span per call, and :meth:`SpanLog.restore`
puts the originals back. A module-level function is replaced in every
loaded ``repro`` module that imported it by name, so a call through any
of those bindings is seen.

A span is ``(name, start, end, parent, cycle)``. The program is driven
from one thread and none of the wrapped entry points awaits, so a plain
stack gives each span its parent. A call into a layer that is already
the innermost open span (``deltas_since`` calling ``delta_since``,
``encode_frame`` calling ``encode_payload``) is folded into that span
rather than nested under it.

Spans live in flat typed arrays (about 40 bytes each) and are written
out as one JSON file when the run ends. The program's own
``repro.obs.trace.Tracer`` is not used: its per-span lock, ``Span``
object and dict record cost about 2.5 times as much per span, and that
cost lands in the caller's self time. On ``cluster-fanout`` (360k
subscriber-apply spans per traced phase) it raised the router's self
time by about a fifth and the process's peak memory by about 70 MB
(``READING.md``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class SpanLog:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cycle = array("i")
        self.counts: Dict[str, float] = {}
        self.current_cycle = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def top_name(self) -> Optional[str]:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cycle.append(self.current_cycle)
        self.end.append(0.0)
        self.start.append(_clock())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str) -> "_Span":
        """A span opened by the benchmark itself (``with log.span(..)``)."""
        return _Span(self, self.name_id(name))

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[object, tuple], None]] = None,
        name_for: Optional[Callable[[Optional[str]], str]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``on_result(result, args)`` adds counts from the call's result;
        ``name_for(top)`` picks the span name from the innermost open
        span's name (the caller's layer).
        """
        log = self
        default = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = log.top_name()
            nid = default if name_for is None else log.name_id(name_for(top))
            if top is not None and log.names[nid] == top:
                return fn(*args, **kwargs)
            idx = log.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, **kw))
        else:
            replacement = self.wrap(name, original, **kw)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Replace ``fn`` in every loaded ``repro`` module bound to it."""
        traced = self.wrap(name, fn, **kw)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def hook_method(self, cls: type, attr: str, before=None, after=None) -> None:
        """Observe calls without a span (timestamps, not time spent)."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            if before is not None:
                before(args)
            result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, hooked)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self, window: Optional[Tuple[float, float]] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap on one thread. With a
        ``(start, end)`` window only spans inside it count.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            if window is not None and not (
                window[0] <= self.start[i] and self.end[i] <= window[1]
            ):
                continue
            row = out.setdefault(
                self.names[self.name[i]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    @classmethod
    def read(cls, path: str) -> "SpanLog":
        with open(path) as fh:
            record = json.load(fh)
        log = cls()
        log.names = record["names"]
        for field in ("name", "start", "end", "parent", "cycle"):
            getattr(log, field).extend(record[field])
        log.counts = record["counts"]
        return log

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """All spans as parallel arrays, with their name table."""
        record = {
            "meta": meta,
            "names": self.names,
            "span_fields": ["name", "start", "end", "parent", "cycle"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "cycle": self.cycle.tolist(),
            "counts": self.counts,
            "totals": self.totals(),
        }
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
            fh.write("\n")


class _Span:
    __slots__ = ("log", "nid", "idx")

    def __init__(self, log: SpanLog, nid: int):
        self.log = log
        self.nid = nid

    def __enter__(self) -> None:
        self.idx = self.log.open(self.nid)

    def __exit__(self, *exc) -> None:
        self.log.close(self.idx)


def traced_shard_worker(out_dir: str, conn, shard_id: int, *args) -> None:
    """A cluster shard worker with spans around its layers.

    Runs in the shard process in place of the plain worker and writes its
    spans to ``out_dir`` when the worker exits. ``time.perf_counter``
    reads the system's monotonic clock, so the spans line up with the
    router's.
    """
    from repro.cluster import proc

    log = SpanLog()
    instrument(log)
    try:
        proc._shard_worker(conn, shard_id, *args)
    finally:
        log.restore()
        log.write(
            os.path.join(out_dir, f"shard{shard_id}-{os.getpid()}.json"),
            {"shard": shard_id},
        )


def _delta_rows(result, args) -> int:
    if isinstance(result, dict):
        return sum(len(d) for d in result.values())
    return len(result)


def instrument(log: SpanLog) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.cluster.dispatch import CycleEngine
    from repro.cluster.router import ClusterRouter
    from repro.cluster.shard import ShardHost
    from repro.core.manager import CQManager
    from repro.delta import capture
    from repro.delta.differential import DeltaRelation
    from repro.dra.aggregates import DifferentialAggregate
    from repro.dra.algorithm import dra_execute
    from repro.dra.predindex import PredicateIndex
    from repro.net import codec, digest
    from repro.net.server import CQServer
    from repro.storage.transactions import Transaction
    from repro.storage.wal import WriteAheadLog

    log.patch_method(Transaction, "commit", "storage.commit")
    log.patch_method(
        WriteAheadLog,
        "log_commit",
        "storage.wal_append",
        on_result=lambda r, a: log.count("storage.wal_appends"),
    )
    log.patch_method(WriteAheadLog, "commit_barrier", "storage.wal_sync")
    log.patch_method(WriteAheadLog, "sync", "storage.wal_sync")

    def capture_rows(result, args):
        log.count("delta.capture_rows", _delta_rows(result, args))

    log.patch_function(capture.deltas_since, "delta.capture", on_result=capture_rows)
    log.patch_function(capture.delta_since, "delta.capture", on_result=capture_rows)
    # An apply with no program layer open is the subscriber's (the
    # client session); the benchmark's own callbacks open
    # ``delta.apply`` themselves. Applies inside a layer (a server
    # group's retained copy) are that layer's internal work.
    log.patch_method(
        DeltaRelation,
        "apply_to",
        "delta.apply",
        name_for=lambda top: (
            "delta.apply" if top in (None, "delta.apply") else "delta.apply_internal"
        ),
    )

    def routed(result, args):
        index = args[0]
        log.count("dra.groups_matched", len(result))
        log.count("dra.groups_indexed", len(index))

    log.patch_method(PredicateIndex, "match_batch", "dra.match_batch", on_result=routed)
    log.patch_function(dra_execute, "dra.execute")
    log.patch_method(DifferentialAggregate, "update", "dra.aggregate")
    log.patch_method(CQManager, "poll", "core.poll")
    log.patch_method(CQServer, "refresh_all", "net.refresh_all")
    log.patch_function(digest.relation_digest, "net.digest")
    log.patch_function(codec.encode_payload, "net.encode")
    log.patch_function(codec.encode_frame, "net.encode")
    log.patch_function(codec.decode_payload, "net.decode")
    log.patch_method(ClusterRouter, "refresh", "cluster.refresh")
    log.patch_method(CycleEngine, "run", "cluster.dispatch")
    log.patch_method(ShardHost, "handle", "cluster.shard_handle")
