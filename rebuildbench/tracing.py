"""Span tracing from outside the program.

:class:`Tracer` wraps the public methods of the engine's layer objects at
class level, so every instance built afterwards (and every bound method
it caches) goes through the wrapper.  Each call records one span: name,
start, end, parent.  Spans nest per thread; a layer's self time is its
spans' duration minus the time covered by their child spans, accumulated
as each span closes.  A child covers its whole wrapper, from entering it
to leaving it; the wrapper's own bookkeeping outside the span's start and
end is charged to the ``trace`` layer, so no layer's self time holds the
tracer's cost of the calls beneath it.  Per thread the self times of all
spans under a root span, ``trace`` included, add up to that root's
duration, which is how the traced wall time is accounted for layer by
layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

from repro.btree.tree import BTree
from repro.concurrency.latch import LatchManager
from repro.concurrency.locks import LockManager
from repro.concurrency.txn import TransactionManager
from repro.core.rebuild import OnlineRebuild
from repro.core.scrubber import Scrubber
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.wal.log import LogManager

# (class, method, span name, layer).  The layer names follow the modules.
TARGETS = [
    (BTree, "insert", "btree.insert", "btree"),
    (BTree, "delete", "btree.delete", "btree"),
    (BTree, "lookup", "btree.lookup", "btree"),
    (BTree, "scan", "btree.scan", "btree"),
    (OnlineRebuild, "run", "core.rebuild", "core.rebuild"),
    (Scrubber, "run_pass", "core.scrub", "core.scrub"),
    (BufferPool, "fetch", "storage.fetch", "storage"),
    (BufferPool, "flush_pages", "storage.flush", "storage"),
    (Disk, "read", "storage.disk", "storage"),
    (Disk, "write", "storage.disk", "storage"),
    (Disk, "read_run", "storage.disk", "storage"),
    (Disk, "write_many", "storage.disk", "storage"),
    (LogManager, "append", "wal.append", "wal"),
    (LogManager, "flush_to", "wal.flush", "wal"),
    (LogManager, "flush_commit", "wal.flush", "wal"),
    (LatchManager, "acquire", "concurrency.latch", "concurrency"),
    (LockManager, "acquire", "concurrency.lock", "concurrency"),
    (LockManager, "try_acquire", "concurrency.lock", "concurrency"),
    (TransactionManager, "commit", "concurrency.commit", "concurrency"),
]

ROOT_LAYER = "bench"   # the benchmark's own code between program calls
IDLE_LAYER = "idle"    # the open-loop client sleeping until its next op
TRACE_LAYER = "trace"  # the wrappers' own bookkeeping around each span
BTREE_OPS = {"btree.insert", "btree.delete", "btree.lookup", "btree.scan"}


class _ThreadState:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "btree_ops",
                 "btree_fetches", "spans")

    def __init__(self) -> None:
        # Frames: [span id, name, layer, start, child time, entered].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.btree_ops = 0
        self.btree_fetches = 0
        self.spans: list[tuple] = []


class Tracer:
    """Per-thread span stacks with on-the-fly self-time accounting."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, _ThreadState]] = []
        self._saved: list[tuple[type, str, object]] = []
        self._ids = iter(range(1, 1 << 62))

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every target method.  Call before building the engine."""
        for cls, method, name, layer in TARGETS:
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            if method == "scan":
                wrapper = self._wrap_generator(original, name, layer)
            else:
                wrapper = self._wrap(original, name, layer)
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = begin(name, layer, time.perf_counter())
            if token is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                end(*token)

        return wrapper

    def _wrap_generator(self, fn, name: str, layer: str):
        """Scans are generators: the span runs from the first item asked
        for to the last (the benchmark drains every scan at once)."""
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = begin(name, layer, time.perf_counter())
            if token is None:
                yield from fn(*args, **kwargs)
                return
            try:
                yield from fn(*args, **kwargs)
            finally:
                end(*token)

        return wrapper

    # --------------------------------------------------------------- spans

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append((threading.current_thread().name, state))
            return state

    def _begin(self, name: str, layer: str, entered: float,
               root: bool = False):
        """Open a span whose wrapper was entered at ``entered``; program
        calls outside every root span (set-up, output checks) are not
        recorded."""
        state = self._state()
        stack = state.stack
        if not stack and not root:
            return None
        if name in BTREE_OPS and not any(f[1] in BTREE_OPS for f in stack):
            state.btree_ops += 1
        elif name == "storage.fetch" and any(f[1] in BTREE_OPS for f in stack):
            state.btree_fetches += 1
        frame = [next(self._ids), name, layer, 0.0, 0.0, entered]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return state, frame

    def _end(self, state: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        span_id, name, layer, start, child, entered = frame
        duration = end - start
        state.self_s[layer] += duration - child
        state.incl_s[name] += duration
        state.calls[name] += 1
        if not stack:
            state.spans.append((span_id, 0, name, start, end))
            return
        parent = stack[-1]
        state.spans.append((span_id, parent[0], name, start, end))
        left = time.perf_counter()
        state.self_s[TRACE_LAYER] += (left - entered) - duration
        parent[4] += left - entered

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span around one job of the benchmark's own code; time
        under it that no program span covers is the benchmark's."""
        state, frame = self._begin(
            name, ROOT_LAYER, time.perf_counter(), root=True
        )
        try:
            yield
        finally:
            self._end(state, frame)

    @contextlib.contextmanager
    def idle(self):
        """A span around the open-loop client's sleep (inside its root)."""
        state, frame = self._begin(
            "loadgen.sleep", IDLE_LAYER, time.perf_counter()
        )
        try:
            yield
        finally:
            self._end(state, frame)

    # ------------------------------------------------------------- results

    def totals(self) -> dict:
        """Self time per layer, inclusive time and calls per span name,
        summed over threads, plus the root spans' total duration."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        btree_ops = btree_fetches = 0
        root_s = 0.0
        with self._lock:
            threads = list(self._threads)
        for _name, state in threads:
            for layer, value in state.self_s.items():
                self_s[layer] += value
            for name, value in state.incl_s.items():
                incl_s[name] += value
            for name, value in state.calls.items():
                calls[name] += value
            btree_ops += state.btree_ops
            btree_fetches += state.btree_fetches
            root_s += sum(
                end - start for _id, parent, _n, start, end in state.spans
                if parent == 0
            )
        return {
            "self_s": self_s, "incl_s": incl_s, "calls": calls,
            "btree_ops": btree_ops, "btree_fetches": btree_fetches,
            "root_s": root_s,
        }

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers)."""
        with self._lock:
            for _name, state in self._threads:
                if state.stack:
                    raise RuntimeError("reset with a span still open")
                state.__init__()

    def export(self, path: str) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        with self._lock:
            threads = list(self._threads)
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread, state in threads:
                for span_id, parent, name, start, end in state.spans:
                    out.write(json.dumps({
                        "id": span_id, "parent": parent, "name": name,
                        "thread": thread, "start": start, "end": end,
                    }) + "\n")
                    count += 1
        return count
