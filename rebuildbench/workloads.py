"""The three workloads and the checks run at the end of each round.

A run is a sequence of rounds.  Every round builds a fresh engine and
index (the set-up), then runs one online rebuild at ntasize 32, one scrub
pass and one closed-loop client, then checks the outputs.  The workloads
differ in index size against pool size, whether the cache starts cold,
and how the jobs are arranged:

* ``table1-cold`` — the rebuild runs alone on a cold cache, then the
  scrub pass, then a short read-mostly client on the rebuilt index;
* ``oltp-only`` — the client runs alone first, then the rebuild and the
  scrub pass of the index it left behind;
* ``rebuild-under-oltp`` — an open-loop client runs at a fixed rate on a
  hot key range while the rebuild and then the scrub pass run; then the
  closed-loop client runs on the same hot range of the rebuilt index.

Every workload reports every end-to-end metric, so each runs every job;
what the workload is *for* is its first job (see README.md).  The
end-to-end latencies come from the closed loop, which never shares the
interpreter with a background job; the open loop's lateness is a
per-layer metric (README.md, "Steadiness").

The engine is driven only through ``Engine``, ``bulk_load``, the
``BTree`` operations, ``OnlineRebuild(...).run()``,
``Scrubber(tree).run_pass()`` and ``Engine.counters``; every knob stays at
its default except ``ntasize`` and the sizing arguments
``buffer_capacity`` and ``io_size``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import time
from dataclasses import dataclass, field

from loadgen import (
    Client, LoopStats, Mix, Model, OpenLoop, bulk_keys, closed_loop,
)
from repro import Engine
from repro.core.config import RebuildConfig
from repro.core.rebuild import OnlineRebuild
from repro.core.scrubber import Scrubber
from repro.storage.page import HEADER_SIZE, PAGE_SIZE_DEFAULT, SLOT_OVERHEAD
from repro.workload.builder import bulk_load

KEY_LEN = 4     # int4 keys: the paper's Table 1 "key size 4" row
ROWID_LEN = 6   # bytes of the rowid stored after the key in a leaf row
NTASIZE = 32
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int                 # bulk-loaded rows
    fill: float               # bulk-load fill fraction
    buffer_capacity: int      # pool frames
    io_size: int | None       # bytes per physical I/O (None = one page)
    cold: bool                # evict the pool after loading
    client_ops: int           # closed loop: ops per round
    mix: Mix = Mix()
    rate: float = 0.0         # open loop beside the rebuild: ops per second
    hot_rows: int = 0         # clients touch keys below 2 * hot_rows
                              # (0: the whole key range)


WORKLOADS = {
    w.name: w
    for w in (
        # 1205 half-full leaves; the 4096-frame pool holds them and the
        # 599 rebuilt ones.  16 KB I/O as in the paper.  The client after
        # the rebuild is read-mostly, so the rebuild stays the bulk of the
        # round's work.
        Workload("table1-cold", rows=100_000, fill=0.5, buffer_capacity=4096,
                 io_size=16384, cold=True, client_ops=1000,
                 mix=Mix(lookup=0.85, scan=0.1)),
        # ~430 leaves at 70% fill, all resident.
        Workload("oltp-only", rows=50_000, fill=0.7, buffer_capacity=4096,
                 io_size=None, cold=False, client_ops=6000),
        # 3615 half-full leaves against 384 frames; the hot range (the
        # first 10k rows, ~120 leaves) fits in the pool, and the rebuild
        # and scrub window lasts long enough for ~1000 open-loop ops.  The
        # closed loop afterwards stays on the hot range too: over the whole
        # index its latencies followed the host's speed half as much again
        # as the CPU times did (README.md, "Steadiness").
        Workload("rebuild-under-oltp", rows=300_000, fill=0.5,
                 buffer_capacity=384, io_size=None, cold=False,
                 client_ops=3000, rate=500.0, hot_rows=10_000),
    )
}


@dataclass
class Round:
    """Measurements and check results of one round."""

    setup_s: float = 0.0
    rebuild_cpu_s: float = 0.0   # process CPU time of the job, less the
    scrub_cpu_s: float = 0.0     # open-loop client's
    jobs_s: float = 0.0          # wall time of the round's jobs
    log_bytes_per_page: float = 0.0
    index_bytes_per_row: float = 0.0
    client: LoopStats = field(default_factory=LoopStats)  # closed loop
    open_loop: LoopStats | None = None
    counters: dict[str, int] = field(default_factory=dict)
    scrub_repositions: int = 0
    attempted: int = 0           # rebuild and scrub jobs
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None    # tracer totals of a traced round


def run_round(wl: Workload, seed: int, index: int, tracer=None) -> Round:
    """One round: set up, run the jobs, check the outputs."""
    rnd = Round()
    gc.collect()
    start = time.perf_counter()
    engine = Engine(buffer_capacity=wl.buffer_capacity, io_size=wl.io_size)
    tree = bulk_load(engine, bulk_keys(wl.rows), KEY_LEN, fill=wl.fill)
    if wl.cold:
        engine.buffer.evict_all()
    rnd.setup_s = time.perf_counter() - start

    model = Model(wl.rows)
    key_range = (0, 2 * (wl.hot_rows or wl.rows))

    def client(client_id: int = 0, clients: int = 1) -> Client:
        """Each client draws from its own seeded stream, so how many ops
        the open loop happens to issue cannot shift the closed loop's."""
        rng = random.Random(f"{wl.name}:{seed}:{index}:{client_id}")
        return Client(tree, model, rng, key_range, wl.mix, client_id, clients)

    @contextlib.contextmanager
    def job(name: str):
        """Run one job of the round: its wall time and counter deltas add
        to the round's; traced, it is a root span."""
        before = engine.counters.snapshot()
        begin = time.perf_counter()
        span = tracer.root(name) if tracer else contextlib.nullcontext()
        with span:
            yield
        rnd.jobs_s += time.perf_counter() - begin
        for key, delta in engine.counters.diff(before).items():
            rnd.counters[key] = rnd.counters.get(key, 0) + delta

    if wl.name == "table1-cold":
        with job("bench.rebuild"):
            _rebuild(tree, rnd, time.process_time)
        _check_table1(tree, wl, rnd)
        with job("bench.scrub"):
            _scrub(tree, rnd, time.process_time)
        with job("bench.client"):
            _closed(client(), wl, rnd)
    elif wl.name == "oltp-only":
        with job("bench.client"):
            _closed(client(), wl, rnd)
        with job("bench.rebuild"):
            _rebuild(tree, rnd, time.process_time)
        with job("bench.scrub"):
            _scrub(tree, rnd, time.process_time)
    else:
        # Two clients one after the other, each writing its own keys.
        loop = OpenLoop(client(0, 2), wl.rate, tracer)
        loop.start()

        def job_cpu() -> float:
            return time.process_time() - loop.cpu_time()

        with job("bench.rebuild_and_scrub"):
            _rebuild(tree, rnd, job_cpu)
            _scrub(tree, rnd, job_cpu)
        if not loop.stop(STOP_TIMEOUT_S):
            rnd.problems.append("open-loop client did not stop")
            rnd.failed += 1
        rnd.open_loop = loop.stats
        with job("bench.client"):
            _closed(client(1, 2), wl, rnd)
    _check_end(engine, tree, model, rnd)
    return rnd


def _rebuild(tree, rnd: Round, cpu) -> None:
    """``cpu`` is the clock the job is charged by: the process's CPU time,
    so worker and I/O threads the engine starts for the job count too;
    beside the open loop, less the client thread's."""
    rnd.attempted += 1
    start = cpu()
    try:
        report = OnlineRebuild(tree, RebuildConfig(ntasize=NTASIZE)).run()
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        rnd.failed += 1
        rnd.problems.append(f"rebuild raised {exc!r}")
        return
    rnd.rebuild_cpu_s = cpu() - start
    if report.aborted or not report.completed or not report.leaf_pages_rebuilt:
        rnd.problems.append("rebuild did not complete")
        return
    rnd.log_bytes_per_page = report.log_bytes / report.leaf_pages_rebuilt


def _scrub(tree, rnd: Round, cpu) -> None:
    rnd.attempted += 1
    start = cpu()
    try:
        report = Scrubber(tree).run_pass()
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        rnd.failed += 1
        rnd.problems.append(f"scrub raised {exc!r}")
        return
    rnd.scrub_cpu_s = cpu() - start
    rnd.scrub_repositions = report.repositions
    if not report.complete:
        rnd.problems.append("scrub pass did not complete")
    if report.defects:
        # No corruption is injected, so any defect is a false positive.
        rnd.problems.append(f"scrub reported {len(report.defects)} defects")


def _closed(client: Client, wl: Workload, rnd: Round) -> None:
    rnd.client = closed_loop(client, wl.client_ops)


def _check_table1(tree, wl: Workload, rnd: Round) -> None:
    """Properties a Table 1 rebuild must have, derived from page and row
    sizes: leaves packed full (fillfactor 100%) and laid out in key order."""
    try:
        stats = tree.verify()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        rnd.problems.append(f"verify after the rebuild failed: {exc!r}")
        return
    per_page = (PAGE_SIZE_DEFAULT - HEADER_SIZE) // (
        SLOT_OVERHEAD + KEY_LEN + ROWID_LEN
    )
    want = math.ceil(wl.rows / per_page)
    if stats.leaf_pages != want:
        rnd.problems.append(
            f"rebuilt leaf count {stats.leaf_pages}, want {want}"
        )
    ids = stats.leaf_page_ids
    if any(a >= b for a, b in zip(ids, ids[1:])):
        rnd.problems.append("rebuilt leaf page ids do not ascend in key order")


def _check_end(engine, tree, model: Model, rnd: Round) -> None:
    """The index holds exactly the model's rows, passes the structural
    check, and owns no page it cannot reach from its root."""
    for loop in (rnd.client, rnd.open_loop):
        if loop is not None and (loop.failed or loop.wrong):
            rnd.problems.extend(loop.errors)
    try:
        stats = tree.verify()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        rnd.problems.append(f"verify failed: {exc!r}")
        return
    if tree.contents() != model.rows():
        rnd.problems.append("index contents differ from the model")
    allocated = len(engine.page_manager.allocated_pages())
    reachable = stats.leaf_pages + stats.nonleaf_pages
    if allocated != reachable:
        rnd.problems.append(
            f"{allocated} pages allocated, {reachable} reachable from the root"
        )
    rnd.index_bytes_per_row = allocated * PAGE_SIZE_DEFAULT / stats.rows
