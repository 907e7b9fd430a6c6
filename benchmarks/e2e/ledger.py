"""Per-layer metrics and ledgers from a traced run.

Inputs are the span records ``repro.obs.spans.capture()`` collects (the
program's own spans plus the benchmark's ``bench.*`` spans around public
calls) and, for serving, the batch records of the class-level
``TopNEngine.query`` wrapper.  Each ledger splits a total the user sees
into layers; its closure is the named layers' sum over that total.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from openloop import PhaseResult, quantile_ms

__all__ = [
    "LAYER_METRICS",
    "EngineBatch",
    "record_engine_batches",
    "setup_layers",
    "training_layers",
    "serving_layers",
    "read_p99_during_writes",
]

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: a workload does not exercise reports 0.
LAYER_METRICS = {
    "datasets.load_s": "s",
    "datasets.load_mb_per_s": "MB/s",
    "sparse.csr_build_s": "s",
    "sparse.csc_build_s": "s",
    "linalg.s1.busy_s": "s",
    "linalg.s2.busy_s": "s",
    "linalg.s3.busy_s": "s",
    "linalg.s1.gflops": "GFLOP/s",
    "linalg.s3.gflops": "GFLOP/s",
    "linalg.s1.ceiling_frac": "fraction",
    "linalg.s3.ceiling_frac": "fraction",
    "core.subspace.predict_busy_s": "s",
    "core.half_sweep_s": "s",
    "core.loss_s": "s",
    "core.iterations": "count",
    "core.unattributed_s": "s",
    "parallel.efficiency": "fraction",
    "parallel.imbalance": "ratio",
    "serving.read_p99_ms": "ms",
    "serving.hit_p50_us": "us",
    "serving.gen_lag_ms.p50": "ms",
    "serving.gen_lag_ms.p99": "ms",
    "serving.submit_us.p50": "us",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.engine_ms.p50": "ms",
    "serving.engine_ms.p99": "ms",
    "serving.fanout_ms.p50": "ms",
    "serving.unattributed_ms.p50": "ms",
    "serving.batch_size.mean": "users",
    "serving.cache_hit_share": "fraction",
    "serving.worker_busy_frac": "fraction",
    "serving.engine.users_per_s": "users/s",
    "serving.engine.gflops": "GFLOP/s",
    "serving.engine.ceiling_frac": "fraction",
    "serving.read_p99_during_write_ms": "ms",
    "serving.swap_ms.p50": "ms",
    "obs.trace_overhead_frac": "fraction",
    "ledger.setup.closure": "fraction",
    "ledger.train.closure": "fraction",
    "ledger.serve.closure": "fraction",
}

STAGES = ("S1", "S2", "S3")


@dataclass(frozen=True)
class EngineBatch:
    start: float
    end: float
    users: np.ndarray
    thread: str  # thread name: service workers are "repro-serve-*"
    tid: int  # thread ident, as span records carry it


@contextmanager
def record_engine_batches(engine_cls):
    """Wrap ``engine_cls.query`` for the block; yields the batch list.

    Only the traced run installs this.  Each call records its start,
    end, users and calling thread, so service batches (worker threads)
    can be told from the benchmark's own reference queries.
    """
    batches: list[EngineBatch] = []
    original = engine_cls.query

    def query(self, users, n=10, exclude=None):
        t0 = perf_counter()
        result = original(self, users, n, exclude)
        batches.append(EngineBatch(
            t0, perf_counter(), np.array(users, dtype=np.int64, copy=True),
            threading.current_thread().name, threading.get_ident(),
        ))
        return result

    engine_cls.query = query
    try:
        yield batches
    finally:
        engine_cls.query = original


def _named(records, *names):
    return [r for r in records if r.name in names]


def _total(records, *names) -> float:
    return float(sum(r.duration for r in _named(records, *names)))


def setup_layers(records, total_s: float) -> tuple[dict, dict]:
    """``setup_s`` ledger: ``load_ratings``, ``ratings_views``, service
    start and first response, each a benchmark span."""
    load = _total(records, "bench.load_ratings")
    views = _total(records, "bench.ratings_views")
    start = _total(records, "bench.service_start")
    first = _total(records, "bench.first_response")
    file_bytes = sum(r.attrs.get("bytes", 0) for r in _named(records, "bench.load_ratings"))
    named = load + views + start + first
    metrics = {
        "datasets.load_s": load,
        "datasets.load_mb_per_s": file_bytes / load / 1e6 if load else 0.0,
        "sparse.csr_build_s": views,
        "ledger.setup.closure": named / total_s if total_s else 0.0,
    }
    table = {"total_s": total_s, "load_s": load, "csr_build_s": views,
             "service_start_s": start, "first_response_s": first,
             "unattributed_s": total_s - named}
    return metrics, table


def training_layers(records, train_s: float, gemm_gflops: float | None) -> tuple[dict, dict]:
    """``train_s`` ledger and the S1/S2/S3, core and parallel layers.

    ``records`` are the spans of one traced ``fit``; the benchmark's
    ``bench.fit`` span marks the caller's thread.  FLOPs come from span
    attributes: S1 is ``2·nnz·d²`` (one Gram GEMM term per rating) and
    S3 is ``rows·(d³/3 + 2d²)`` (a Cholesky factor and two triangular
    solves per row).
    """
    tid = _named(records, "bench.fit")[0].tid
    busy = defaultdict(float)
    flops = defaultdict(float)
    for r in records:
        stage = r.attrs.get("stage")
        if stage not in STAGES or r.cat == "kernel":
            continue
        busy[stage] += r.duration
        d = float(r.attrs.get("k", 0))
        if stage == "S1":
            flops["S1"] += 2.0 * r.attrs.get("nnz", 0) * d * d
        elif stage == "S3":
            flops["S3"] += r.attrs.get("batch", 0) * (d**3 / 3.0 + 2.0 * d * d)
    main = [r for r in records if r.tid == tid]
    csc = _total(main, "als.build_views")
    sweeps = _total(main, "als.half_sweep", "als.subspace.block")
    loss = _total(main, "als.loss")
    unattributed = float(sum(
        r.self_duration
        for r in _named(main, "bench.fit", "recommender.fit", "als.train", "als.iteration")
    ))

    def rate(stage):
        return flops[stage] / busy[stage] / 1e9 if busy[stage] else 0.0

    metrics = {
        "linalg.s1.busy_s": busy["S1"],
        "linalg.s2.busy_s": busy["S2"],
        "linalg.s3.busy_s": busy["S3"],
        "linalg.s1.gflops": rate("S1"),
        "linalg.s3.gflops": rate("S3"),
        "linalg.s1.ceiling_frac": rate("S1") / gemm_gflops if gemm_gflops else 0.0,
        "linalg.s3.ceiling_frac": rate("S3") / gemm_gflops if gemm_gflops else 0.0,
        "core.subspace.predict_busy_s": _total(records, "als.subspace.predict"),
        "core.half_sweep_s": sweeps,
        "core.loss_s": loss,
        "core.iterations": float(len(_named(main, "als.iteration"))),
        "core.unattributed_s": unattributed,
        "sparse.csc_build_s": csc,
        "ledger.train.closure": (csc + sweeps + loss + unattributed) / train_s,
        **_parallel(records),
    }
    table = {"total_s": train_s, "csc_build_s": csc, "half_sweep_s": sweeps,
             "loss_s": loss, "unattributed_s": unattributed}
    return metrics, table


def _parallel(records) -> dict:
    """Σ shard busy / (workers × parallel sweep wall), and the mean
    max/mean shard time over the parallel sweeps."""
    sweeps = _named(records, "als.sweep.parallel")
    shards = sorted(_named(records, "als.shard"), key=lambda r: r.start)
    starts = np.array([s.start for s in shards])
    capacity = busy = 0.0
    imbalance = []
    for sweep in sweeps:
        lo = np.searchsorted(starts, sweep.start)
        hi = np.searchsorted(starts, sweep.end, side="right")
        times = np.array([s.duration for s in shards[lo:hi]])
        if times.size == 0:
            continue
        capacity += sweep.attrs.get("workers", 1) * sweep.duration
        busy += float(times.sum())
        imbalance.append(float(times.max() / times.mean()))
    return {
        "parallel.efficiency": busy / capacity if capacity else 0.0,
        "parallel.imbalance": float(np.mean(imbalance)) if imbalance else 0.0,
    }


def serving_layers(
    phase: PhaseResult,
    batches: list[EngineBatch],
    records,
    *,
    n_items: int,
    k: int,
    gemm_gflops: float | None,
) -> tuple[dict, dict]:
    """Request-path ledger of the cache misses of one open-loop phase.

    The service has one worker draining a FIFO queue, and the dispatcher
    is its only client, so the queued requests (the misses), taken in
    submission order, fill the worker's batches in order.  A miss's
    latency splits into generator lag, ``submit()``, queue wait, engine
    (the program's ``serve.topn`` span), and fan-out (engine return to
    the future resolving); the rest of the batch call is unattributed.
    """
    cached = phase.cached
    queued = np.flatnonzero(phase.queued)
    first = float(np.nanmin(phase.sent)) if phase.count else 0.0
    last = float(np.nanmax(phase.done)) if phase.count else 0.0
    svc = sorted(
        (b for b in batches
         if b.thread.startswith("repro-serve") and first <= b.start <= last),
        key=lambda b: b.start,
    )
    workers = {b.tid for b in svc}
    topn = sorted(
        (r for r in records
         if r.name == "serve.topn" and first <= r.start <= last and r.tid in workers),
        key=lambda r: r.start,
    )
    topn_starts = np.array([r.start for r in topn])
    queue = np.zeros(queued.size)
    engine = np.zeros(queued.size)
    fanout = np.zeros(queued.size)
    residual = np.zeros(queued.size)
    matched = np.zeros(queued.size, dtype=bool)
    pos = 0
    engine_busy = users_scored = 0.0
    mismatched_batches = 0
    for b in svc:
        size = b.users.size
        idx = queued[pos:pos + size]
        rows = np.arange(pos, pos + idx.size)
        pos += size
        if idx.size != size or not np.array_equal(phase.users[idx], b.users):
            mismatched_batches += 1
            continue
        j = np.searchsorted(topn_starts, b.start)
        span_s = topn[j].duration if j < len(topn) and topn[j].end <= b.end else b.end - b.start
        engine_busy += span_s
        users_scored += size
        queue[rows] = b.start - phase.submitted[idx]
        engine[rows] = span_s
        fanout[rows] = phase.done[idx] - b.end
        residual[rows] = (b.end - b.start) - span_s
        matched[rows] = True
    sel = queued[matched]
    lag = phase.lag[sel]
    submit = (phase.submitted - phase.sent)[sel]
    total = (phase.done - phase.due)[sel]
    q, e, f, u = queue[matched], engine[matched], fanout[matched], residual[matched]
    named = lag + submit + q + e + f
    wall = float(np.nanmax(phase.done) - phase.due[0]) if phase.count else 0.0
    gflops = 2.0 * users_scored * n_items * k / engine_busy / 1e9 if engine_busy else 0.0

    def mean_ms(a):
        return float(a.mean() * 1e3) if a.size else 0.0

    metrics = {
        "serving.gen_lag_ms.p50": quantile_ms(lag, 0.5),
        "serving.gen_lag_ms.p99": quantile_ms(lag, 0.99),
        "serving.submit_us.p50": quantile_ms(submit, 0.5) * 1e3,
        "serving.queue_wait_ms.p50": quantile_ms(q, 0.5),
        "serving.queue_wait_ms.p99": quantile_ms(q, 0.99),
        "serving.engine_ms.p50": quantile_ms(e, 0.5),
        "serving.engine_ms.p99": quantile_ms(e, 0.99),
        "serving.fanout_ms.p50": quantile_ms(f, 0.5),
        "serving.unattributed_ms.p50": quantile_ms(u, 0.5),
        "serving.batch_size.mean": float(np.mean([b.users.size for b in svc])) if svc else 0.0,
        "serving.cache_hit_share": float(cached.mean()) if cached.size else 0.0,
        "serving.worker_busy_frac": sum(b.end - b.start for b in svc) / wall if wall else 0.0,
        "serving.engine.users_per_s": users_scored / engine_busy if engine_busy else 0.0,
        "serving.engine.gflops": gflops,
        "serving.engine.ceiling_frac": gflops / gemm_gflops if gemm_gflops else 0.0,
        "ledger.serve.closure": float(named.mean() / total.mean()) if total.size else 0.0,
    }
    table = {
        "misses": int(queued.size), "matched": int(matched.sum()),
        "mismatched_batches": mismatched_batches,
        "total_ms": mean_ms(total), "lag_ms": mean_ms(lag), "submit_ms": mean_ms(submit),
        "queue_wait_ms": mean_ms(q), "engine_ms": mean_ms(e), "fanout_ms": mean_ms(f),
        "unattributed_ms": mean_ms(u),
    }
    return {k: 0.0 if np.isnan(v) else v for k, v in metrics.items()}, table


def read_p99_during_writes(phase: PhaseResult, writes: list) -> float:
    """p99 latency (ms) of the reads of ``phase`` in flight while a write ran."""
    if not writes:
        return 0.0
    ok = phase.ok
    due, done = phase.due[ok], phase.done[ok]
    hit = np.zeros(due.size, dtype=bool)
    for w in writes:
        hit |= (due < w.end) & (done > w.start)
    return quantile_ms((done - due)[hit], 0.99) if hit.any() else 0.0
