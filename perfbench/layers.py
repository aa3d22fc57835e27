"""Per-layer timing and counting from outside the program.

:class:`LayerTrace` wraps the public entry points of each layer while it is
installed and restores the originals when it is removed, so untraced
repetitions run the unmodified code. Every wrapper calls through with the
same arguments and returns (or raises) what the original did.

Timed calls nest: a call's *self* time is its duration minus the time its
wrapped callees took, so the self times of all spans add up to the part of
a repetition that some layer accounts for; the rest is engine glue
(``engine.residual_s``).
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.engine as engine_mod
import repro.match.interface as match_interface
from repro.core.actions import ActionEvaluator
from repro.core.engine import ParulelEngine
from repro.core.redaction import MetaLevel
from repro.match.interface import Matcher
from repro.obs.flightrec import FlightRecorder
from repro.parallel.process import ProcessMatcher, ProcessMatchPool
from repro.wm.columnar import ColumnarWorkingMemory
from repro.wm.memory import WorkingMemory

_MISSING = object()


class LayerTrace:
    """Span self/inclusive times and exact counters for one repetition."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._in_meta_init = 0
        self._in_redact = 0
        #: (store id, original listener) -> installed wrapper.
        self._listeners: Dict[Tuple[int, Any], Callable] = {}
        #: Instantiation keys in each connection's previous reply.
        self._last_reply: Dict[int, set] = {}
        self._gc_start = 0.0

    # -- span accounting ---------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_s[name] += dt - child
        self.total_s[name] += dt
        if self._stack:
            self._stack[-1] += dt

    def span(self, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        """Call ``fn`` from the benchmark's own code as a timed span."""
        t0 = self._enter()
        try:
            return fn(*args, **kw)
        finally:
            self._exit(name, t0)

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kw: Any) -> Any:
            t0 = self._enter()
            try:
                return fn(*args, **kw)
            finally:
                self._exit(name, t0)

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, wm_backend: str) -> None:
        """Wrap every layer boundary. Only the store class ``wm_backend``
        selects is wrapped, so a columnar store's ``remove``/``discard``
        are not counted twice through ``super()``."""
        tr = self
        store_cls = ColumnarWorkingMemory if wm_backend == "columnar" else WorkingMemory
        self._patch(match_interface, "compile_rules",
                    self._timed("match.compile", match_interface.compile_rules))
        self._patch(engine_mod, "merge_deltas", self._wrap_merge(engine_mod.merge_deltas))
        self._patch(ParulelEngine, "__init__", self._timed("engine.init", ParulelEngine.__init__))

        make, remove, discard = store_cls.make, store_cls.remove, store_cls.discard

        def wm_make(*args: Any, **kw: Any) -> Any:
            tr.counts["wm.makes"] += 1
            t0 = tr._enter()
            try:
                return make(*args, **kw)
            finally:
                tr._exit("wm.mutate", t0)

        def wm_remove(wm: Any, wme: Any) -> None:
            tr.counts["wm.removes"] += 1
            t0 = tr._enter()
            try:
                return remove(wm, wme)
            finally:
                tr._exit("wm.mutate", t0)

        def wm_discard(wm: Any, wme: Any) -> bool:
            t0 = tr._enter()
            try:
                removed = discard(wm, wme)
            finally:
                tr._exit("wm.mutate", t0)
            tr.counts["wm.removes"] += removed
            return removed

        self._patch(store_cls, "make", wm_make)
        self._patch(store_cls, "remove", wm_remove)
        self._patch(store_cls, "discard", wm_discard)
        self._wrap_listeners()

        meta_init = MetaLevel.__init__

        def meta_level_init(*args: Any, **kw: Any) -> None:
            tr._in_meta_init += 1
            try:
                meta_init(*args, **kw)
            finally:
                tr._in_meta_init -= 1

        self._patch(MetaLevel, "__init__", meta_level_init)
        self._patch(MetaLevel, "redact", self._wrap_redact(MetaLevel.redact))
        self._patch(ActionEvaluator, "evaluate", self._wrap_evaluate(ActionEvaluator.evaluate))
        for cls in (Matcher, ProcessMatcher):
            self._patch(cls, "instantiations", self._wrap_collect(cls.instantiations))
        self._patch(ProcessMatchPool, "conflict_set",
                    self._timed("pool.conflict_set", ProcessMatchPool.conflict_set))
        self._wrap_ipc()

        record = FlightRecorder.record

        def flight_record(*args: Any, **kw: Any) -> None:
            tr.counts["obs.flight_records"] += 1
            return record(*args, **kw)

        self._patch(FlightRecorder, "record", flight_record)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """Garbage-collection pauses are their own span, so they are not
        charged to whichever layer's allocation triggered them."""
        if phase == "start":
            self._gc_start = self._enter()
        else:
            self.counts["gc.collections"] += 1
            self._exit("gc", self._gc_start)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap_listeners(self) -> None:
        """Listeners are wrapped as they register, named by owner: a
        matcher built inside ``MetaLevel`` is the meta-level matcher, any
        other matcher the object-level one, and anything else (the process
        pool's timestamp index) is pool bookkeeping. ``remove_listener``
        must hand the store the wrapper it was given."""
        tr = self
        add, remove = WorkingMemory.add_listener, WorkingMemory.remove_listener

        def add_listener(wm: Any, listener: Callable) -> None:
            owner = getattr(listener, "__self__", None)
            if isinstance(owner, Matcher):
                name = "redact.meta_propagate" if tr._in_meta_init else "match.propagate"
            else:
                name = "pool.index"
            wrapper = tr._timed(name, listener)
            tr._listeners[(id(wm), listener)] = wrapper
            add(wm, wrapper)

        def remove_listener(wm: Any, listener: Callable) -> None:
            remove(wm, tr._listeners.pop((id(wm), listener), listener))

        self._patch(WorkingMemory, "add_listener", add_listener)
        self._patch(WorkingMemory, "remove_listener", remove_listener)

    def _wrap_merge(self, merge: Callable) -> Callable:
        tr = self

        def merge_deltas(*args: Any, **kw: Any) -> Any:
            t0 = tr._enter()
            try:
                merged = merge(*args, **kw)
            finally:
                tr._exit("merge", t0)
            tr.counts["merge.conflicts_resolved"] += merged.conflicts_resolved
            tr.counts["merge.makes_deduped"] += merged.makes_deduped
            return merged

        return merge_deltas

    def _wrap_redact(self, redact: Callable) -> Callable:
        tr = self

        def meta_redact(*args: Any, **kw: Any) -> Any:
            tr._in_redact += 1
            t0 = tr._enter()
            try:
                survivors, report = redact(*args, **kw)
            finally:
                tr._exit("redact", t0)
                tr._in_redact -= 1
            tr.counts["redact.candidates"] += report.candidates
            tr.counts["redact.redacted"] += report.redacted
            tr.counts["redact.survivors"] += len(survivors)
            return survivors, report

        return meta_redact

    def _wrap_evaluate(self, evaluate: Callable) -> Callable:
        tr = self

        def evaluate_wrapper(*args: Any, **kw: Any) -> Any:
            if tr._in_redact:
                name = "redact.meta_evaluate"
            else:
                name = "act.evaluate"
                tr.counts["act.firings"] += 1
            t0 = tr._enter()
            try:
                return evaluate(*args, **kw)
            finally:
                tr._exit(name, t0)

        return evaluate_wrapper

    def _wrap_collect(self, instantiations: Callable) -> Callable:
        """Object-level collect only: the meta matcher's reads inside
        ``redact`` stay in ``redact``'s self time."""
        tr = self
        timed = self._timed("match.collect", instantiations)

        def collect(matcher: Any) -> Any:
            if tr._in_redact:
                return instantiations(matcher)
            return timed(matcher)

        return collect

    def _wrap_ipc(self) -> None:
        """Parent-side pipe traffic. ``recv`` becomes ``recv_bytes`` plus
        unpickling, which reads the same bytes ``Connection.recv`` would,
        so replies can be metered exactly."""
        tr = self
        conn_cls = connection.Connection
        send_bytes, poll, recv_bytes = (
            conn_cls.send_bytes, conn_cls.poll, conn_cls.recv_bytes
        )

        def send(conn: Any, buf: Any, *args: Any) -> None:
            tr.counts["ipc.request_bytes"] += len(buf)
            t0 = tr._enter()
            try:
                return send_bytes(conn, buf, *args)
            finally:
                tr._exit("ipc.send", t0)

        def wait(conn: Any, timeout: Optional[float] = 0.0) -> bool:
            t0 = tr._enter()
            try:
                return poll(conn, timeout)
            finally:
                tr._exit("ipc.wait", t0)

        def recv(conn: Any) -> Any:
            t0 = tr._enter()
            try:
                buf = recv_bytes(conn)
                msg = ForkingPickler.loads(buf)
            finally:
                tr._exit("ipc.recv", t0)
            tr.counts["ipc.reply_bytes"] += len(buf)
            if isinstance(msg, tuple) and msg and msg[0] == "ok":
                tr._count_reply(id(conn), msg[1][0])
            return msg

        self._patch(conn_cls, "send_bytes", send)
        self._patch(conn_cls, "poll", wait)
        self._patch(conn_cls, "recv", recv)

    def _count_reply(self, conn_id: int, summaries: List[tuple]) -> None:
        keys = {(rule, stamps) for rule, stamps, _env in summaries}
        previous = self._last_reply.get(conn_id, set())
        self.counts["ipc.reply_insts"] += len(summaries)
        self.counts["ipc.reply_new"] += len(keys - previous)
        self._last_reply[conn_id] = keys

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, float], Counter]:
        return dict(self.self_s), dict(self.total_s), Counter(self.counts)

