#!/usr/bin/env python3
"""Run one workload of the rebuild-engine benchmark and print its result.

    python3 rebuildbench/run.py --workload table1-cold --seed 1 \\
        --seconds 15 --trace 0

Runs whole rounds (set-up, jobs, output checks; see ``workloads.py``)
until ``--seconds`` have passed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from traced rounds and writes the spans of the last
traced round to ``.bench_traces/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WATCHDOG_S = 170.0  # a run must end within 180 s; a stuck one fails here


def main() -> int:
    started = time.perf_counter()
    args = parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS  # needs repro on the path

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    _start_watchdog(started + WATCHDOG_S)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds)
    else:
        result = plain_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _start_watchdog(deadline: float) -> None:
    """End a stuck run as failed instead of letting it hang."""

    def watch() -> None:
        time.sleep(max(0.0, deadline - time.perf_counter()))
        print("watchdog: run did not finish in time", file=sys.stderr)
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ), flush=True)
        os._exit(3)

    threading.Thread(target=watch, name="watchdog", daemon=True).start()


def _rounds(workload, seed: int, seconds: float, min_rounds: int, tracer_for):
    """Run rounds until ``seconds`` have passed (at least ``min_rounds``)."""
    from workloads import run_round

    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        tracer = tracer_for(len(rounds))
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            rounds.append(run_round(workload, seed, len(rounds), tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            rounds[-1].trace = tracer.totals()
    return rounds


def _outcome(rounds) -> dict:
    loops = [r.client for r in rounds] + [
        r.open_loop for r in rounds if r.open_loop is not None
    ]
    problems = [p for r in rounds for p in r.problems]
    for problem in problems[:10]:
        print("check failed:", problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds)
        + sum(loop.attempted for loop in loops),
        "failed": sum(r.failed for r in rounds)
        + sum(loop.failed for loop in loops),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain_run(workload, seed: int, seconds: float) -> dict:
    """Every metric is taken per round; the run reports the median over
    its rounds, so one disturbed round cannot move it."""
    from loadgen import percentile

    rounds = _rounds(workload, seed, seconds, 3, lambda _i: None)

    def median(value) -> float:
        return statistics.median(value(r) for r in rounds)

    def latency(value) -> float:
        return median(value) * 1000.0

    metrics = {
        "setup_s": (median(lambda r: r.setup_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "rebuild_cpu_s": (median(lambda r: r.rebuild_cpu_s), "s"),
        "scrub_cpu_s": (median(lambda r: r.scrub_cpu_s), "s"),
        "log_bytes_per_page": (median(lambda r: r.log_bytes_per_page), "B"),
        "index_bytes_per_row": (median(lambda r: r.index_bytes_per_row), "B"),
        "oltp_ops_per_s": (median(
            lambda r: r.client.attempted / r.client.busy_s), "ops/s"),
        "oltp_p50_ms": (latency(
            lambda r: percentile(r.client.all_latencies(), 0.5)), "ms"),
        "oltp_p99_ms": (latency(
            lambda r: percentile(r.client.all_latencies(), 0.99)), "ms"),
        "lookup_p50_ms": (latency(
            lambda r: percentile(r.client.latencies["lookup"], 0.5)), "ms"),
        "scan_p50_ms": (latency(
            lambda r: percentile(r.client.latencies["scan"], 0.5)), "ms"),
        "write_p50_ms": (latency(
            lambda r: percentile(r.client.latencies["write"], 0.5)), "ms"),
    }
    return {
        **_outcome(rounds),
        "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds: the traced ones give the
    per-layer metrics, the pair of medians gives the tracing overhead."""
    from loadgen import percentile
    from tracing import Tracer

    tracer = Tracer()
    rounds = _rounds(
        workload, seed, seconds, 2, lambda i: tracer if i % 2 else None
    )
    traced = [r for r in rounds if r.trace is not None]
    plain = [r for r in rounds if r.trace is None]
    n = len(traced)

    def per_round(values) -> float:
        return sum(values) / n

    def count(name: str) -> float:
        return per_round(r.counters.get(name, 0) for r in traced)

    def self_s(layer: str) -> float:
        return per_round(r.trace["self_s"].get(layer, 0.0) for r in traced)

    def incl_s(name: str) -> float:
        return per_round(r.trace["incl_s"].get(name, 0.0) for r in traced)

    def calls(name: str) -> float:
        return per_round(r.trace["calls"].get(name, 0) for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root_s = sum(r.trace["root_s"] for r in traced)
    # The open loop's lateness where there is one: how long ops waited
    # beside the background jobs.  Otherwise the closed loop's own cost.
    lateness = [
        s for r in traced for s in (r.open_loop or r.client).lateness
    ]
    overhead = (
        statistics.median(r.jobs_s for r in traced)
        / statistics.median(r.jobs_s for r in plain) - 1.0
    )
    metrics = {
        # repro.core
        "core.rebuild_self_s": (self_s("core.rebuild"), "s"),
        "core.top_actions": (count("top_actions"), "count"),
        "core.level1_visits": (count("level1_visits"), "count"),
        "core.bytes_copied": (count("bytes_copied"), "B"),
        "core.scrub_self_s": (self_s("core.scrub"), "s"),
        "core.scrub_pages_checked": (count("scrub_pages_checked"), "count"),
        "core.scrub_repositions": (
            per_round(r.scrub_repositions for r in traced), "count"),
        # repro.wal
        "wal.self_s": (self_s("wal"), "s"),
        "wal.bytes": (count("log_bytes"), "B"),
        "wal.records": (count("log_records"), "count"),
        "wal.append_s": (incl_s("wal.append"), "s"),
        "wal.flushes": (count("log_flushes"), "count"),
        "wal.flush_s": (incl_s("wal.flush"), "s"),
        # repro.storage
        "storage.self_s": (self_s("storage"), "s"),
        "storage.fetches": (count("page_reads"), "count"),
        "storage.fetch_s": (incl_s("storage.fetch"), "s"),
        "storage.flush_s": (incl_s("storage.flush"), "s"),
        "storage.disk_s": (incl_s("storage.disk"), "s"),
        "storage.disk_io_calls": (count("disk_io_calls"), "count"),
        "storage.disk_pages_read": (count("disk_pages_read"), "count"),
        "storage.disk_pages_written": (count("disk_pages_written"), "count"),
        "storage.demand_hit_ratio": (ratio(
            count("pool_demand_hits"),
            count("pool_demand_hits") + count("pool_demand_misses")), "ratio"),
        "storage.prefetch_hit_ratio": (ratio(
            count("prefetch_hits"), count("prefetch_admitted")), "ratio"),
        "storage.hot_evictions_by_scan": (
            count("hot_evictions_by_scan"), "count"),
        "storage.shard_conflicts": (count("pool_shard_conflicts"), "count"),
        # repro.concurrency
        "concurrency.self_s": (self_s("concurrency"), "s"),
        "concurrency.latch_acquires": (count("latch_acquires"), "count"),
        "concurrency.latch_waits": (count("latch_waits"), "count"),
        "concurrency.latch_s": (incl_s("concurrency.latch"), "s"),
        "concurrency.lock_calls": (count("lock_mgr_calls"), "count"),
        "concurrency.lock_waits": (count("lock_waits"), "count"),
        "concurrency.lock_s": (incl_s("concurrency.lock"), "s"),
        "concurrency.commits": (calls("concurrency.commit"), "count"),
        "concurrency.commit_s": (incl_s("concurrency.commit"), "s"),
        # repro.btree
        "btree.self_s": (self_s("btree"), "s"),
        "btree.pages_per_op": (ratio(
            sum(r.trace["btree_fetches"] for r in traced),
            sum(r.trace["btree_ops"] for r in traced)), "pages"),
        "btree.key_comparisons": (count("key_comparisons"), "count"),
        "btree.retraversal_ratio": (ratio(
            count("retraversals"), count("traversals")), "ratio"),
        # the benchmark's own code and the load generator
        "loadgen.self_s": (self_s("bench"), "s"),
        "loadgen.late_p50_ms": (percentile(lateness, 0.5) * 1000.0, "ms"),
        "loadgen.late_p99_ms": (percentile(lateness, 0.99) * 1000.0, "ms"),
        # the trace itself
        "trace.wall_s": (root_s / n, "s"),
        "trace.self_s": (self_s("trace"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    os.makedirs(".bench_traces", exist_ok=True)
    path = os.path.join(".bench_traces", f"{workload.name}-seed{seed}.jsonl")
    spans = tracer.export(path)
    print(f"wrote {spans} spans of the last traced round to {path}",
          file=sys.stderr)
    return {
        **_outcome(rounds),
        "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
