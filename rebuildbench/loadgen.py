"""Seeded load generator: key space, row model, closed and open loops.

Everything a client does is drawn from its own ``random.Random``, seeded
from the benchmark's ``--seed`` and the client's id, so one seed gives
each client one operation stream.

Key make-up (all int4 keys, big-endian, so byte order is numeric order):

* the bulk-loaded rows use the even integers ``0, 2, ..., 2(n-1)``; the
  ``i``-th of them has rowid ``i`` (``bulk_load`` numbers rows by their
  sorted ordinal);
* the odd integers belong to the clients.  Client ``c`` of ``clients``
  owns the odd keys ``k`` with ``(k // 2) % clients == c`` and is the only
  writer of those keys.  A client row ``k`` has rowid ``k``.

The :class:`Model` holds the rows the index should contain.  Each client
checks every lookup and scan against it and keeps it up to date with its
own inserts and deletes.  The workloads run one client at a time, so the
model is exact; two concurrent clients could see each other's writes in
flight.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import random
import threading
import time
from dataclasses import dataclass, field

LOOKUP, SCAN, INSERT, DELETE = "lookup", "scan", "insert", "delete"
CLASS_OF = {LOOKUP: LOOKUP, SCAN: SCAN, INSERT: "write", DELETE: "write"}


def key_bytes(k: int) -> bytes:
    return k.to_bytes(4, "big")


def bulk_keys(n: int) -> list[bytes]:
    return [key_bytes(2 * i) for i in range(n)]


class Model:
    """The rows the index should hold: every bulk-loaded row plus the
    client rows inserted and not yet deleted."""

    def __init__(self, n_bulk: int) -> None:
        self.n_bulk = n_bulk
        self.owned: list[int] = []  # sorted client keys present
        self._owned_set: set[int] = set()

    def add(self, k: int) -> None:
        bisect.insort(self.owned, k)
        self._owned_set.add(k)

    def remove(self, k: int) -> None:
        del self.owned[bisect.bisect_left(self.owned, k)]
        self._owned_set.discard(k)

    def has_owned(self, k: int) -> bool:
        return k in self._owned_set

    def lookup(self, k: int) -> list[int]:
        if k % 2 == 0:
            return [k // 2] if 0 <= k < 2 * self.n_bulk else []
        return [k] if k in self._owned_set else []

    def scan(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(key, rowid) pairs with lo <= key <= hi, in key order."""
        first = max(0, (lo + 1) // 2)
        last = min(self.n_bulk - 1, hi // 2)
        rows = [(2 * i, i) for i in range(first, last + 1)]
        a = bisect.bisect_left(self.owned, lo)
        b = bisect.bisect_right(self.owned, hi)
        rows.extend((k, k) for k in self.owned[a:b])
        rows.sort()
        return rows

    def rows(self) -> list[tuple[bytes, int]]:
        rows = [(2 * i, i) for i in range(self.n_bulk)]
        rows.extend((k, k) for k in self.owned)
        rows.sort()
        return [(key_bytes(k), rowid) for k, rowid in rows]


@dataclass(frozen=True)
class Mix:
    """Operation shares of one client; writes split evenly between
    inserts and deletes so the client's row count hovers."""

    lookup: float = 0.6
    scan: float = 0.1
    scan_width: int = 32  # keys spanned by one range scan (half are bulk rows)


@dataclass
class LoopStats:
    """What one client saw: latency samples per op class, lateness, and
    the attempted / failed / wrong-result counts."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {LOOKUP: [], SCAN: [], "write": []}
    )
    lateness: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    busy_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def all_latencies(self) -> list[float]:
        return [s for samples in self.latencies.values() for s in samples]


class Client:
    """One client: draws seeded operations over its key range, runs them
    against the tree, and checks each answer against the model."""

    def __init__(
        self,
        tree,
        model: Model,
        rng: random.Random,
        key_range: tuple[int, int],
        mix: Mix = Mix(),
        client_id: int = 0,
        clients: int = 1,
    ) -> None:
        self.tree = tree
        self.model = model
        self.rng = rng
        self.lo, self.hi = key_range  # integer keys, hi exclusive
        self.mix = mix
        self.client_id = client_id
        self.clients = clients

    def _owned_key(self) -> int:
        """A random odd key of this client's subset inside its range."""
        slots = (self.hi - self.lo) // (2 * self.clients)
        slot = self.rng.randrange(slots)
        base = self.lo // 2 + slot * self.clients
        base += (self.client_id - base) % self.clients
        return 2 * base + 1

    def next_op(self) -> tuple[str, int, int]:
        r = self.rng.random()
        mix = self.mix
        if r < mix.lookup:
            return LOOKUP, self.rng.randrange(self.lo, self.hi), 0
        if r < mix.lookup + mix.scan:
            lo = self.rng.randrange(self.lo, self.hi)
            return SCAN, lo, lo + mix.scan_width - 1
        k = self._owned_key()
        return (DELETE if self.model.has_owned(k) else INSERT), k, 0

    def run(self, op: tuple[str, int, int], stats: LoopStats,
            due: float) -> None:
        """Run one op; record its latency measured from ``due``."""
        kind, k, hi = op
        tree = self.tree
        stats.attempted += 1
        start = time.perf_counter()
        stats.lateness.append(start - due)
        try:
            if kind == LOOKUP:
                got = tree.lookup(key_bytes(k))
            elif kind == SCAN:
                got = list(tree.scan(key_bytes(k), key_bytes(hi)))
            elif kind == INSERT:
                tree.insert(key_bytes(k), k)
            else:
                tree.delete(key_bytes(k), k)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            end = time.perf_counter()
            stats.failed += 1
            if len(stats.errors) < 5:
                stats.errors.append(f"{kind} {k}: {exc!r}")
            stats.busy_s += end - start
            return
        end = time.perf_counter()
        stats.busy_s += end - start
        stats.latencies[CLASS_OF[kind]].append(end - due)
        if kind == LOOKUP:
            if got != self.model.lookup(k):
                self._wrong(stats, f"lookup {k}: {got}")
        elif kind == SCAN:
            want = [(key_bytes(a), b) for a, b in self.model.scan(k, hi)]
            if got != want:
                self._wrong(stats, f"scan [{k}, {hi}]: {len(got)} rows")
        elif kind == INSERT:
            self.model.add(k)
        else:
            self.model.remove(k)

    @staticmethod
    def _wrong(stats: LoopStats, what: str) -> None:
        stats.wrong += 1
        if len(stats.errors) < 5:
            stats.errors.append("wrong result: " + what)


def closed_loop(client: Client, ops: int) -> LoopStats:
    """Run ``ops`` operations back to back.  Each op is due when the
    previous one returned, so lateness is the generator's own cost."""
    stats = LoopStats()
    due = time.perf_counter()
    for _ in range(ops):
        op = client.next_op()
        client.run(op, stats, due)
        due = time.perf_counter()
    return stats


class OpenLoop:
    """A client thread that issues ops at a fixed rate until stopped.

    Op ``i`` is due at ``t0 + i / rate`` whatever happened to op ``i-1``;
    its latency runs from that due time, so a stall also counts against
    the ops queued behind it.  With a ``tracer`` the loop runs under a
    root span and its sleeps under idle spans, so sleeping is kept out of
    every layer's busy time.
    """

    def __init__(self, client: Client, rate: float, tracer=None) -> None:
        self.client = client
        self.interval = 1.0 / rate
        self.stats = LoopStats()
        self._stop = threading.Event()
        self._tracer = tracer
        self._thread = threading.Thread(
            target=self._loop, name="open-loop-client", daemon=True
        )

    def start(self) -> None:
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)

    def cpu_time(self) -> float:
        """CPU time the client thread has used so far (while it runs)."""
        return time.clock_gettime(self._clock)

    def stop(self, timeout: float) -> bool:
        """Stop issuing; True when the thread ended within ``timeout``."""
        self._stop.set()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def _loop(self) -> None:
        tracer = self._tracer
        if tracer is None:
            self._issue(contextlib.nullcontext)
        else:
            with tracer.root("loadgen.open_loop"):
                self._issue(tracer.idle)

    def _issue(self, idle) -> None:
        client, stats = self.client, self.stats
        due = time.perf_counter()
        while not self._stop.is_set():
            wait = due - time.perf_counter()
            if wait > 0:
                with idle():
                    time.sleep(wait)
            client.run(client.next_op(), stats, due)
            due += self.interval


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
