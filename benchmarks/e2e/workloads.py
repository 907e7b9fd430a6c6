"""The two workloads and the pipeline one child process runs for each.

A child drives only the public API — ``load_ratings``, ``ratings_views``,
``Recommender`` and ``RecommendService`` — over the input files the
parent wrote.  Both workloads go the whole way from a ratings file to a
served model that takes writes, so every run reports every end-to-end
metric.  They differ in the training regime and in the serving path a
read takes (see ``why``).

Run as a script by ``run.py``::

    python3 workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --work DIR

It writes ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import Shape, poisson_schedule, user_ranking, zipf_users
from openloop import Staircase, quantile_ms, run_phase

__all__ = ["Workload", "WORKLOADS", "E2E_METRICS", "Verifier", "compare_answer"]

#: Every end-to-end metric a run reports, with its unit.
E2E_METRICS = {
    "setup_s": "s",
    "train_s": "s",
    "holdout_rmse": "rating",
    "holdout_recall_at_10": "fraction",
    "serve_p50_ms": "ms",
    "max_rate_rps": "req/s",
    "update_p50_ms": "ms",
    "foldin_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Each round serves for 0.6 * --seconds / ROUNDS; with the fits, a run
# at the shipped shapes takes about --seconds plus ~15 s.
ROUNDS = 7  # timed set-up, fit and serving rounds per run
READ_SHARE = 0.04  # of --seconds: each round's fixed-rate read window
PROBES = 2  # max-rate probes per round
PROBE_SHARE = 0.015  # of --seconds: each probe
WRITE_SHARE = 0.023  # of --seconds: each round's write window
WRITES_PER_KIND = 4  # update, fold-in and swap calls in each write window
P99_LIMIT_MS = 50.0  # a max-rate probe passes only with p99 within this
STAIRCASE_START = 8  # the first max-rate probe runs at this multiple of the read rate
SAMPLE_SHARE = 0.01  # share of answers re-derived through recommend_batch
N = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    model: dict  # Recommender keyword arguments
    zipf_s: float  # user popularity exponent of the read traffic (0: uniform)
    cache_size: int  # RecommendService result cache (0: every read reaches the engine)
    fixed_rate: float  # req/s of the read and write windows

    @property
    def implicit(self) -> bool:
        return self.model.get("algorithm") == "implicit"


# The shapes keep the ratings per user of the datasets they are named
# after and cut users, so that eight fits and the serving fit one run:
# ML-10M/8's ~40 ratings per user and per item, and ML-1M's ~160 per
# user (the Zipf degree cap, n/4, trims the 300k target to ~246k).
ML10M_ROWS = Shape("ml10m-rows", 3000, 2730, 120_000)
ML1M_ROWS = Shape("ml1m-rows", 1510, 3706, 300_000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "als-ml10m-engine",
            "explicit full k=64 solves: S3 is 76% of S1-S3 time; uniform reads with the "
            "cache off, so every read reaches the engine (42% of a read's latency)",
            ML10M_ROWS, dict(k=64, lam=5.0, iterations=3),
            # Every read reaches the engine, so the worker's load follows
            # the rate; at 1,000 req/s queueing turned every slow stretch
            # of the host into a longer wait, and the p50 spread 5-17%
            # over 10-run sets.
            zipf_s=0.0, cache_size=0, fixed_rate=500.0,
        ),
        Workload(
            "ials-ml1m-cached",
            "implicit d=16 blocks: S3 is 8-10% of stage time, S2 and predictions 74-78%; "
            "Zipf reads, 90% answered from the result cache inside submit()",
            ML1M_ROWS, dict(k=64, algorithm="implicit", alpha=40.0, block_size=16, iterations=4),
            zipf_s=1.0, cache_size=1024, fixed_rate=2000.0,
        ),
    )
}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def compare_answer(served, ref_items, ref_scores, x_user, Y) -> bool:
    """Whether a served top-N equals the reference up to GEMM rounding.

    Batched scoring is not bitwise independent of batch size (BLAS picks
    different kernels for a 1-user and a 32-user product), so equality
    is position-wise within a relative 1e-9 of the score scale: items
    may differ only where their true scores tie within that tolerance,
    and every served score must equal its item's recomputed score.
    """
    keep = ref_items >= 0
    ref_items, ref_scores = ref_items[keep], ref_scores[keep]
    items = np.array([i for i, _ in served], dtype=np.int64)
    scores = np.array([s for _, s in served], dtype=np.float64)
    if items.size != ref_items.size:
        return False
    if items.size == 0:
        return True
    tol = 1e-9 * max(1.0, float(np.abs(ref_scores).max()))
    true_served = Y[items] @ x_user
    true_ref = Y[ref_items] @ x_user
    return bool(
        np.all(np.abs(scores - ref_scores) <= tol)
        and np.all(np.abs(true_served - scores) <= tol)
        and np.all((items == ref_items) | (np.abs(true_served - true_ref) <= tol))
    )


class Verifier:
    """Re-derives a sampled share of served answers via ``recommend_batch``.

    ``submit`` wraps the service's ``submit`` and keeps about
    ``SAMPLE_SHARE`` of the futures.  :meth:`check` compares every kept
    answer of the *current* generation against the recommender serving
    it; the writer calls it just before each write, so the model cannot
    change under the comparison.  Answers from an older generation can
    no longer be re-derived and are counted as skipped.
    """

    def __init__(self, service, seed: int):
        self._service = service
        self._rng = np.random.default_rng([seed, 0xC4EC])
        self._lock = threading.Lock()
        self._pending: list = []
        self.verified = 0
        self.mismatched = 0
        self.skipped = 0

    def submit(self, user: int, n: int):
        fut = self._service.submit(user, n)
        if self._rng.random() < SAMPLE_SHARE:
            with self._lock:
                self._pending.append(fut)
        return fut

    def check(self, rec, generation: int) -> None:
        with self._lock:
            pending, self._pending = self._pending, []
        ready, keep = [], []
        for fut in pending:
            if not fut.done():
                keep.append(fut)
            elif fut.exception() is None:
                res = fut.result()
                if res.generation == generation:
                    ready.append(res)
                else:
                    self.skipped += 1
        with self._lock:
            self._pending.extend(keep)
        if not ready:
            return
        ref = rec.recommend_batch(np.array([r.user for r in ready]), n_items=N)
        X, Y = np.asarray(rec.model.X), np.asarray(rec.model.Y)
        for pos, res in enumerate(ready):
            ok = compare_answer(
                res.recommendations[:N], ref.items[pos], ref.scores[pos], X[res.user], Y
            )
            self.verified += 1
            self.mismatched += not ok


def scores_sorted(answer) -> bool:
    """Whether a response lists its scores in non-increasing order."""
    recs = answer.recommendations
    return all(recs[i][1] >= recs[i + 1][1] for i in range(len(recs) - 1))


def training_failures(rec) -> list[str]:
    model = rec.model
    history = [getattr(h, "loss", h) for h in model.history]
    problems = []
    if not history:
        problems.append("no loss history")
    if any(b > a * (1 + 1e-12) for a, b in zip(history, history[1:])):
        problems.append(f"loss increased: {history}")
    if not (np.all(np.isfinite(model.X)) and np.all(np.isfinite(model.Y))):
        problems.append("non-finite factors")
    return problems


def peak_rss_mb() -> float:
    """This process's peak resident set, MiB.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces;
    ``ru_maxrss`` survives ``exec`` and would report the parent's peak
    at fork time when that was larger.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def factor_sha(rec) -> str:
    digest = hashlib.sha256()
    for F in (rec.model.X, rec.model.Y):
        digest.update(np.ascontiguousarray(F, dtype=np.float64).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# pipeline steps
# ----------------------------------------------------------------------
class Run:
    """What one child accumulates: metrics, ledgers, checks and counts."""

    def __init__(self, args):
        self.w = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = Path(args.work)
        self.gemm_gflops = args.gemm_gflops
        self.n_users = self.n_items = 0
        self.metrics: dict = {}
        self.layers: dict = {}
        self.ledgers: dict = {}
        self.checks: dict = {"training": "ok", "verified": 0, "mismatched": 0, "skipped": 0}
        self.phases: list = []
        self.records: list = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    @staticmethod
    def span(name: str, **attrs):
        from repro.obs.spans import span

        return span(name, cat="bench", **attrs)

    def result(self) -> dict:
        return {
            "metrics": self.metrics,
            "layers": self.layers,
            "ledgers": self.ledgers,
            "checks": self.checks,
            "phases": self.phases,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.wrong == 0 and self.checks["verified"] > 0,
        }


def ingest(run: Run):
    """``load_ratings`` + ``ratings_views``; returns (file, csr, seconds)."""
    from repro.core.als import ratings_views
    from repro.datasets.loaders import load_ratings

    path = run.work / "train.tsv"
    t0 = perf_counter()
    with run.span("bench.load_ratings", bytes=path.stat().st_size):
        rf = load_ratings(path)
    with run.span("bench.ratings_views"):
        _, csr = ratings_views(rf.ratings)
    seconds = perf_counter() - t0
    run.n_users, run.n_items = csr.shape
    return rf, csr, seconds


def fit(run: Run, csr):
    """Fit a fresh recommender and check it; returns (it, seconds)."""
    from repro.api import Recommender

    rec = Recommender(seed=run.seed, **run.w.model)
    t0 = perf_counter()
    with run.span("bench.fit"):
        rec.fit(csr)
    seconds = perf_counter() - t0
    problems = training_failures(rec)
    if problems:
        run.checks["training"] = problems
        run.wrong += 1
    return rec, seconds


def evaluate(run: Run, rec, rf) -> None:
    """Held-out RMSE and recall@10 (implicit: the target preference is 1)."""
    from repro.sparse.coo import COOMatrix

    test = np.load(run.work / "test.npz")
    users = np.searchsorted(rf.user_ids, test["users"] + 1)
    items = np.searchsorted(rf.item_ids, test["items"] + 1)
    values = np.ones(users.size) if run.w.implicit else test["values"]
    held = COOMatrix((rf.n_users, rf.n_items), users, items, values)
    run.metrics["holdout_rmse"] = rec.evaluate(held)["rmse"]
    run.metrics["holdout_recall_at_10"] = rec.evaluate_ranking(held, n=N).recall


def start_service(run: Run, rec):
    """Service start and first response; returns (service, seconds)."""
    from repro.serving.service import RecommendService

    t0 = perf_counter()
    with run.span("bench.service_start"):
        svc = RecommendService(rec, cache_size=run.w.cache_size).start()
    with run.span("bench.first_response"):
        svc.recommend(0, N)
    return svc, perf_counter() - t0


def warm_cache(run: Run, svc) -> None:
    """Fill the result cache with the most popular users, as a service
    long in use would have it.  A cold cache at a high probe rate either
    catches up or collapses under repeats of users not yet answered, and
    which one happens is chance."""
    hot = user_ranking(run.n_users, run.seed)[: svc.cache_size]
    for fut in [svc.submit(int(u), N) for u in hot]:
        fut.result(timeout=60)


@dataclass
class WriteRecord:
    kind: str
    start: float
    end: float
    ok: bool


class Writer:
    """Applies update / fold-in / hot-swap writes to a running service.

    Payloads come from the seed: 64 existing users × 5 ratings, 16 new
    users × 20 ratings, and a swap to the other of two fitted
    recommenders.  Sampled answers of the current generation are checked
    before each write changes the model.
    """

    KINDS = ("update", "foldin", "swap")

    def __init__(self, service, recs, m: int, n: int, seed: int, verifier: Verifier):
        self.service = service
        self.recs = list(recs)
        self.current = 0
        self.m, self.n = m, n
        self.rng = np.random.default_rng([seed, 0x3717])
        self.verifier = verifier
        self.log: list[WriteRecord] = []

    def _values(self, size):
        return self.rng.integers(1, 11, size) / 2.0

    @property
    def serving(self):
        """The recommender the service currently serves."""
        return self.recs[self.current]

    def write_once(self) -> None:
        from repro.sparse.coo import COOMatrix

        kind = self.KINDS[len(self.log) % 3]
        self.verifier.check(self.serving, self.service.generation)
        if kind == "update":
            users = np.repeat(self.rng.choice(self.m, 64, replace=False), 5)
            items = self.rng.integers(0, self.n, users.size)
            payload = COOMatrix((self.m, self.n), users, items, self._values(users.size))
            call = self.service.update_ratings
        elif kind == "foldin":
            rows = np.repeat(np.arange(16), 20)
            items = np.concatenate([self.rng.choice(self.n, 20, replace=False) for _ in range(16)])
            payload = COOMatrix((16, self.n), rows, items, self._values(rows.size))
            call = self.service.fold_in_users
        else:
            payload = self.recs[1 - self.current]
            call = self.service.hot_swap
        t0 = perf_counter()
        try:
            call(payload)
            ok = True
        except Exception as exc:  # a failed operation; the run goes on
            print(f"{kind} failed: {exc!r}", file=sys.stderr)
            ok = False
        self.log.append(WriteRecord(kind, t0, perf_counter(), ok))
        if ok and kind == "swap":
            self.current = 1 - self.current

    def run_paced(self, count: int, period: float) -> None:
        """``count`` writes, due every ``period`` seconds from ``period/2``."""
        due = perf_counter() + period / 2
        for _ in range(count):
            time.sleep(max(0.0, due - perf_counter()))
            self.write_once()
            due += period


def read_quantiles(phase) -> dict:
    """A read window's latency quantiles, ms, timed from due times: the
    p50 of the reads the engine answered (cache misses), the p50 of the
    cache hits when there were any, and the p99 of all reads."""
    latency = phase.done - phase.due
    hits = phase.ok & phase.cached
    out = {"engine_p50_ms": quantile_ms(latency[phase.ok & ~phase.cached], 0.5),
           "p99_ms": quantile_ms(phase.latency, 0.99)}
    if hits.any():
        out["hit_p50_ms"] = quantile_ms(latency[hits], 0.5)
    return out


def write_ms(log: list, kind: str) -> list[float]:
    """Durations (ms) of the successful writes of one kind."""
    return [(w.end - w.start) * 1e3 for w in log if w.kind == kind and w.ok]


class Serving:
    """One round's service: a fixed-rate read window, max-rate probes,
    then a write window (reads at the fixed rate beside a writer thread).

    The writes come last because they change the model and clear the
    result cache.  Every request and write counts as attempted.
    """

    def __init__(self, run: Run, svc, rec, round_no: int):
        self.run, self.svc = run, svc
        self.seed = run.seed + 7919 * round_no
        self.verifier = Verifier(svc, self.seed)
        self.writer = Writer(svc, (rec, copy.deepcopy(rec)), run.n_users, run.n_items,
                             self.seed, self.verifier)
        if svc.cache_size:
            warm_cache(run, svc)

    def _phase(self, rate, seconds, seed, label, **kw):
        run = self.run
        schedule = poisson_schedule(rate, seconds, seed)
        users = zipf_users(user_ranking(run.n_users, run.seed), schedule.size, run.w.zipf_s, seed)
        phase = run_phase(self.verifier.submit, users, schedule, rate=rate, n=N,
                          inspect=scores_sorted, **kw)
        run.phases.append(phase.summary() | {"phase": label})
        run.attempted += phase.count
        run.failed += int(phase.failed.sum())
        run.wrong += phase.malformed
        return phase

    def read_window(self):
        return self._phase(self.run.w.fixed_rate, READ_SHARE * self.run.seconds, self.seed, "read")

    def probe(self, staircase: Staircase) -> None:
        rate = staircase.next_rate()
        limit = P99_LIMIT_MS / 1e3
        p = self._phase(rate, PROBE_SHARE * self.run.seconds, self.seed + int(rate), "probe",
                        abort_backlog=max(100, int(4 * rate * limit)), drain_timeout=5.0)
        p99 = quantile_ms(p.latency, 0.99)
        passed = (not p.aborted and not p.failed.any()
                  and p.backlog_at_end <= rate * limit and p99 <= P99_LIMIT_MS)
        staircase.record(rate, passed, p99)

    def write_window(self):
        """Reads at the fixed rate while the writer makes
        ``WRITES_PER_KIND`` writes of each kind; returns (phase, writes)."""
        seconds = WRITE_SHARE * self.run.seconds
        count = 3 * WRITES_PER_KIND
        thread = threading.Thread(target=self.writer.run_paced, args=(count, seconds / count),
                                  name="bench-writer")
        thread.start()
        try:
            phase = self._phase(self.run.w.fixed_rate, seconds, self.seed + 1, "write")
        finally:
            thread.join(timeout=60)
        return phase, self.writer.log

    def finish(self) -> None:
        """Check the last sampled answers and count the writes."""
        run, v = self.run, self.verifier
        v.check(self.writer.serving, self.svc.generation)
        for key in ("verified", "mismatched", "skipped"):
            run.checks[key] += getattr(v, key)
        run.failed += v.mismatched
        run.wrong += v.mismatched
        run.attempted += len(self.writer.log)
        run.failed += sum(not w.ok for w in self.writer.log)


def measure(run: Run) -> None:
    """``ROUNDS`` rounds of ingest, fit, service set-up and serving.

    The host's speed drifts by up to 1.5× from one stretch of seconds to
    the next.  Every metric takes one sample per round, so its samples
    spread over the whole run and one slow stretch sets none of them;
    the medians over the rounds are reported.  The staircase of the
    max-rate search runs on across the rounds.

    An untimed warm-up ingest and fit comes first: the first fit in a
    process also pays for lazy imports and first-touch page faults.
    Every round fits the same model from the same file, so the warm-up's
    is the one evaluated.
    """
    rf, csr, _ = ingest(run)
    rec, _ = fit(run, csr)
    run.checks["served_factors_sha256"] = factor_sha(rec)
    evaluate(run, rec, rf)
    setups, fits, writes = [], [], []
    reads = defaultdict(list)  # read-window quantiles (read_quantiles), one per round
    staircase = Staircase(STAIRCASE_START * run.w.fixed_rate)
    for r in range(ROUNDS):
        gc.collect()  # the last round's garbage must not add to this one
        rf, csr, ingest_s = ingest(run)
        rec, fit_s = fit(run, csr)
        fits.append(fit_s)
        svc, start_s = start_service(run, rec)
        setups.append(ingest_s + start_s)
        try:
            serving = Serving(run, svc, rec, r)
            read = serving.read_window()
            for key, value in read_quantiles(read).items():
                reads[key].append(value)
            for _ in range(PROBES):
                serving.probe(staircase)
            _, log = serving.write_window()
            writes += log
            serving.finish()
        finally:
            svc.stop()
    m = run.metrics
    m["setup_s"] = statistics.median(setups)
    m["train_s"] = statistics.median(fits)
    m["serve_p50_ms"] = statistics.median(reads["engine_p50_ms"])
    m["max_rate_rps"] = staircase.result()
    for kind in Writer.KINDS:
        run.checks[f"{kind}_ms"] = write_ms(writes, kind)
    # A swap takes ~0.5 ms alone and 0.35-1.2 ms beside reads, where it
    # waits for the interpreter; its median moved by up to 38% between
    # runs of the same code, so it is recorded but not reported.
    for kind in ("update", "foldin"):
        times = run.checks[f"{kind}_ms"]
        m[f"{kind}_p50_ms"] = statistics.median(times) if times else math.nan
    run.checks["rounds"] = {"setup_s": setups, "train_s": fits,
                            **{f"read_{key}": values for key, values in reads.items()}}
    run.checks["staircase"] = staircase.trials


def measure_traced(run: Run) -> None:
    """A warm-up fit, an untraced fit for the overhead baseline, then one
    traced round: ingest and fit under one capture, serving under
    another (fold-in writes run S1–S3 too and must not count as
    training)."""
    from ledger import (
        read_p99_during_writes,
        record_engine_batches,
        serving_layers,
        setup_layers,
        training_layers,
    )
    from repro.obs.spans import capture
    from repro.serving.engine import TopNEngine

    _, csr, _ = ingest(run)
    fit(run, csr)
    _, untraced_s = fit(run, csr)
    gc.collect()
    with capture() as tracer:  # one global tracer: copy its records after each block
        _, csr, ingest_s = ingest(run)
        rec, train_s = fit(run, csr)
    train_records = list(tracer.records)
    with capture() as tracer, record_engine_batches(TopNEngine) as batches:
        svc, start_s = start_service(run, rec)
        try:
            serving = Serving(run, svc, rec, 0)
            read = serving.read_window()
            write, log = serving.write_window()
            serving.finish()
        finally:
            svc.stop()
    serve_records = list(tracer.records)
    run.records = train_records + serve_records
    for name, (metrics, table) in {
        "setup": setup_layers(run.records, ingest_s + start_s),
        "train": training_layers(train_records, train_s, run.gemm_gflops),
        "serve": serving_layers(read, batches, serve_records, n_items=run.n_items,
                                k=run.w.model["k"], gemm_gflops=run.gemm_gflops),
    }.items():
        run.layers.update(metrics)
        run.ledgers[name] = table
    quantiles = read_quantiles(read)
    run.layers["serving.read_p99_ms"] = quantiles["p99_ms"]
    run.layers["serving.hit_p50_us"] = quantiles.get("hit_p50_ms", 0.0) * 1e3
    run.layers["serving.read_p99_during_write_ms"] = read_p99_during_writes(write, log)
    run.layers["serving.swap_ms.p50"] = statistics.median(write_ms(log, "swap"))
    run.layers["obs.trace_overhead_frac"] = train_s / untraced_s - 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--gemm-gflops", type=float, default=None)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    run = Run(args)
    (measure_traced if run.trace else measure)(run)
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    if args.trace_file and run.records:
        from repro.obs.export import write_trace

        write_trace(args.trace_file, run.records, meta={"workload": run.w.name, "seed": run.seed})
    (run.work / "result.json").write_text(json.dumps(run.result(), default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
