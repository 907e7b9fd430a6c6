"""Grid workload: the long-lived RecommendService load test.

The benchmark body behind ``benchmarks/bench_serving.py``: batched vs
unbatched closed loops, warm vs cold cache, open-loop Poisson
percentiles, and bitwise fold-in and rating-update parity with the
trainers disarmed.
``BENCH_9.json`` records the committed numbers; returns **two** records
— ``serving_service`` (gated on ``batching_speedup``) plus a
``serving_throughput`` record explicitly gated on absolute
``serve_throughput`` (a ratio would mask a uniform slowdown of both
arms).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.bench import grid
from repro.datasets.catalog import MOVIELENS1M

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record", "ALGORITHMS"]

K = 64
LAM = 0.1
ALPHA = 40.0
ITERATIONS = 3
N_TOP = 10
MAX_BATCH = 32
ALGORITHMS = ("als", "als-wr", "implicit")


def _train(ratings, *, k: int, iterations: int, seed: int, algorithm: str = "als"):
    from repro.api import Recommender

    return Recommender(
        k=k, lam=LAM, iterations=iterations, seed=seed,
        algorithm=algorithm, alpha=ALPHA,
    ).fit(ratings)


def _closed(service, users, ns, *, concurrency=None) -> dict:
    from repro.serving.loadgen import run_closed_loop

    report = run_closed_loop(
        service, users, n=N_TOP,
        concurrency=concurrency or ns.concurrency,
        requests_per_worker=ns.requests, seed=ns.seed,
    )
    return report.to_dict()


def _measure_batching(rec, users, ns) -> dict:
    """Closed-loop throughput, micro-batched vs one-request-at-a-time.

    Cache off in both services so coalescing is the only difference.
    """
    from repro.serving.service import RecommendService

    out: dict = {}
    for label, kwargs in (
        ("unbatched", dict(max_batch=1, cache_size=0)),
        ("batched", dict(max_batch=ns.max_batch, cache_size=0)),
    ):
        with RecommendService(rec, **kwargs) as service:
            out[label] = _closed(service, users, ns)
            out[label]["mean_batch_size"] = (
                service.stats.snapshot()["mean_batch_size"]
            )
        lat = out[label]["latency"]
        print(
            f"  {label:9s}: {out[label]['throughput']:9.0f} req/s "
            f"(batch {out[label]['mean_batch_size']:5.1f}, "
            f"p50={lat['p50'] * 1e3:.2f} ms p95={lat['p95'] * 1e3:.2f} ms "
            f"p99={lat['p99'] * 1e3:.2f} ms)",
            flush=True,
        )
    out["batching_speedup"] = (
        out["batched"]["throughput"] / out["unbatched"]["throughput"]
        if out["unbatched"]["throughput"] > 0 else 0.0
    )
    print(f"  batching speedup {out['batching_speedup']:.2f}x", flush=True)
    return out


def _measure_cache(rec, users, ns) -> dict:
    """The same closed-loop stream twice; pass two answers from the LRU."""
    from repro.serving.service import RecommendService

    pool = users[: max(8, users.size // 8)]  # small pool -> guaranteed reuse
    with RecommendService(
        rec, max_batch=ns.max_batch, cache_size=max(4096, 2 * pool.size),
    ) as service:
        cold = _closed(service, pool, ns)
        warm = _closed(service, pool, ns)  # same seed: identical picks
        stats = service.stats.snapshot()
    hits = stats["cache_hits"]
    hit_rate = hits / stats["requests"] if stats["requests"] else 0.0
    speedup = (
        warm["throughput"] / cold["throughput"]
        if cold["throughput"] > 0 else 0.0
    )
    print(
        f"  cache: cold {cold['throughput']:9.0f} req/s, "
        f"warm {warm['throughput']:9.0f} req/s -> {speedup:.2f}x "
        f"(hit rate {hit_rate:.0%})",
        flush=True,
    )
    return {
        "cold": cold,
        "warm": warm,
        "cache_speedup": speedup,
        "hit_rate": hit_rate,
    }


def _measure_open_loop(rec, users, ns) -> dict:
    """Poisson arrivals at a fixed offered rate; tail includes queueing."""
    from repro.serving.loadgen import run_open_loop
    from repro.serving.service import RecommendService

    with RecommendService(rec, max_batch=ns.max_batch, cache_size=0) as service:
        report = run_open_loop(
            service, users, n=N_TOP, rate=ns.rate, duration=ns.duration,
            seed=ns.seed,
        ).to_dict()
    lat = report["latency"]
    print(
        f"  open loop @ {ns.rate:.0f}/s for {ns.duration:.1f} s: "
        f"{report['throughput']:9.0f} req/s served "
        f"(p50={lat['p50'] * 1e3:.2f} ms p95={lat['p95'] * 1e3:.2f} ms "
        f"p99={lat['p99'] * 1e3:.2f} ms)",
        flush=True,
    )
    return report


def _check_writes(ratings, ns) -> tuple[dict, dict, bool]:
    """Bitwise write parity per algorithm, with the trainers disarmed.

    After ``fold_in_users`` the recommender's training matrix *is* the
    augmented matrix, so the reference is a fresh serial float64
    half-sweep over it; the folded rows must equal its tail rows bit for
    bit.  An ``update_ratings`` (restated and new ratings of existing
    users) follows, and the affected rows must equal the same rows of a
    fresh half-sweep over the spliced training matrix.  The trainer
    registry is swapped for tripwires during both writes: any retrain
    attempt raises.  Returns ``(foldin, update, no_retrain)``.
    """
    import repro.api as api_mod
    from repro.core.alswr import weighted_half_sweep
    from repro.core.implicit import implicit_half_sweep
    from repro.kernels.fastpath import fast_half_sweep
    from repro.sparse.coo import COOMatrix

    rng = np.random.default_rng(ns.seed + 1)
    m, n = ratings.shape
    h = 8
    rows = np.repeat(np.arange(h), 6)
    cols = rng.integers(0, n, rows.size)
    vals = rng.integers(1, 6, rows.size).astype(np.float32)
    new_users = COOMatrix((h, n), rows, cols, vals)
    # Four ratings each for six existing users and one new one: some
    # restate a stored cell, the others add one.
    users = np.repeat(np.append(rng.choice(m, 6, replace=False), m), 4)
    updates = COOMatrix(
        (m + h, n), users, rng.integers(0, n, users.size),
        rng.integers(1, 6, users.size).astype(np.float32),
    )

    def reference(algorithm, R, Y):
        if algorithm == "als":
            return fast_half_sweep(R, Y, LAM)
        if algorithm == "als-wr":
            return weighted_half_sweep(R, Y, LAM, None)
        return implicit_half_sweep(R, Y, LAM, ALPHA)

    foldin: dict = {}
    update: dict = {}
    no_retrain = True
    for algorithm in ALGORITHMS:
        rec = _train(
            ratings, k=ns.check_k, iterations=2, seed=ns.seed,
            algorithm=algorithm,
        )
        armed = dict(api_mod._ALGORITHMS)

        def _tripwire(*a, **kw):
            raise AssertionError("fold-in must not retrain")

        api_mod._ALGORITHMS = {name: _tripwire for name in armed}
        try:
            ids = rec.fold_in_users(new_users)
            folded = np.asarray(rec.model.X)[ids]
            ref = reference(algorithm, rec._train_csr, np.asarray(rec.model.Y))
            foldin[algorithm] = bool(np.array_equal(folded, ref[ids]))
            affected = rec.update_ratings(updates)
            ref = reference(algorithm, rec._train_csr, np.asarray(rec.model.Y))
            update[algorithm] = bool(np.array_equal(
                np.asarray(rec.model.X)[affected], ref[affected]
            ))
        except AssertionError:
            no_retrain = False
            foldin.setdefault(algorithm, False)
            update[algorithm] = False
        finally:
            api_mod._ALGORITHMS = armed
    print(
        f"  fold-in bitwise: {foldin}, update bitwise: {update} "
        f"(no retrain: {no_retrain})",
        flush=True,
    )
    return foldin, update, no_retrain


def run_benchmark(
    scale: float,
    k: int,
    iterations: int,
    concurrency: int,
    max_batch: int,
    requests: int,
    rate: float,
    duration: float,
    seed: int,
    check_scale: float,
    check_k: int,
) -> list[dict]:
    from repro.datasets.synthetic import generate_ratings

    ns = SimpleNamespace(
        scale=scale, k=k, iterations=iterations, concurrency=concurrency,
        max_batch=max_batch, requests=requests, rate=rate, duration=duration,
        seed=seed, check_scale=check_scale, check_k=check_k,
    )
    spec = MOVIELENS1M.scaled(ns.scale)
    ratings = generate_ratings(spec, seed=ns.seed)
    print(
        f"serving benchmark: {spec.abbr} scale={ns.scale:g} "
        f"(m={spec.m}, n={spec.n}, nnz={ratings.nnz}), k={ns.k}, "
        f"top-{N_TOP}, max_batch={ns.max_batch}, "
        f"concurrency={ns.concurrency} x {ns.requests} requests",
        flush=True,
    )
    rec = _train(ratings, k=ns.k, iterations=ns.iterations, seed=ns.seed)
    users = np.arange(spec.m, dtype=np.int64)

    batching = _measure_batching(rec, users, ns)
    cache = _measure_cache(rec, users, ns)
    open_loop = _measure_open_loop(rec, users, ns)

    check_spec = MOVIELENS1M.scaled(ns.check_scale)
    check_ratings = generate_ratings(check_spec, seed=ns.seed)
    foldin_bitwise, update_bitwise, no_retrain = _check_writes(check_ratings, ns)

    batched_lat = batching["batched"]["latency"]
    shape = {
        "dataset": spec.abbr,
        "scale": ns.scale,
        "m": spec.m,
        "n": spec.n,
        "nnz": ratings.nnz,
        "k": ns.k,
        "lam": LAM,
        "alpha": ALPHA,
        "iterations": ns.iterations,
        "seed": ns.seed,
    }
    main_record = {
        "benchmark": "serving_service",
        **shape,
        "n_top": N_TOP,
        "max_batch": ns.max_batch,
        "concurrency": ns.concurrency,
        "requests_per_worker": ns.requests,
        "batching": batching,
        "cache": cache,
        "open_loop": open_loop,
        "batching_speedup": batching["batching_speedup"],
        "cache_speedup": cache["cache_speedup"],
        "cache_hit_rate": cache["hit_rate"],
        "serve_throughput": batching["batched"]["throughput"],
        "serve_p50_latency": batched_lat["p50"],
        "serve_p95_latency": batched_lat["p95"],
        "serve_p99_latency": batched_lat["p99"],
        "foldin_bitwise": foldin_bitwise,
        "update_bitwise": update_bitwise,
        "foldin_no_retrain": no_retrain,
    }
    # A second, explicitly-keyed record gates absolute served throughput
    # at this shape (batching_speedup is a ratio and would mask a uniform
    # slowdown of both arms).
    throughput_record = {
        "benchmark": "serving_throughput",
        "gate_metric": "serve_throughput",
        **shape,
        "n_top": N_TOP,
        "max_batch": ns.max_batch,
        "concurrency": ns.concurrency,
        "serve_throughput": batching["batched"]["throughput"],
        "serve_p95_latency": batched_lat["p95"],
    }
    return [main_record, throughput_record]


def resolve(
    quick: bool = True,
    scale: float | None = None,
    k: int | None = None,
    iterations: int | None = None,
    concurrency: int | None = None,
    max_batch: int | None = None,
    requests: int | None = None,
    rate: float | None = None,
    duration: float | None = None,
    seed: int = 7,
) -> dict:
    scale = scale if scale is not None else (1 / 64 if quick else 1 / 8)
    k = k if k is not None else (16 if quick else K)
    concurrency = concurrency if concurrency is not None else (8 if quick else 32)
    return {
        "scale": scale,
        "k": k,
        "iterations": iterations if iterations is not None else (2 if quick else ITERATIONS),
        "concurrency": concurrency,
        # Match concurrency by default, so the worker stops yielding
        # the moment every client it answered has resubmitted.
        "max_batch": max_batch if max_batch is not None else min(MAX_BATCH, concurrency),
        "requests": requests if requests is not None else (40 if quick else 200),
        "rate": rate if rate is not None else (200.0 if quick else 500.0),
        "duration": duration if duration is not None else (1.0 if quick else 4.0),
        "seed": seed,
        "check_scale": min(scale, 1 / 64),
        "check_k": min(k, 16),
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> list[dict]:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(records: dict | list, params: dict) -> list[str]:
    """The ``--check`` bars: batching speedup (1.5 full / 1.2 quick),
    bitwise no-retrain fold-in and rating update, non-zero throughput,
    zero loop errors."""
    result = records[0] if isinstance(records, list) else records
    bar = 1.2 if params.get("quick", True) else 1.5
    failures = []
    if result["batching_speedup"] < bar:
        failures.append(
            f"batching speedup {result['batching_speedup']:.2f} is below "
            f"the required {bar:.2f}"
        )
    for alg, ok in result["foldin_bitwise"].items():
        if not ok:
            failures.append(
                f"{alg}: folded-in factors are not bitwise-equal to a "
                f"fresh augmented-matrix half-sweep"
            )
    for alg, ok in result["update_bitwise"].items():
        if not ok:
            failures.append(
                f"{alg}: updated factors are not bitwise-equal to a fresh "
                f"half-sweep over the spliced training matrix"
            )
    if not result["foldin_no_retrain"]:
        failures.append("a fold-in or rating update triggered a trainer call")
    for label in ("batched", "unbatched"):
        if result["batching"][label]["throughput"] <= 0:
            failures.append(f"{label} closed loop served nothing")
        if result["batching"][label]["errors"]:
            failures.append(
                f"{label} closed loop had "
                f"{result['batching'][label]['errors']} errors"
            )
    if result["open_loop"]["throughput"] <= 0:
        failures.append("open loop served nothing")
    if result["open_loop"]["errors"]:
        failures.append(
            f"open loop had {result['open_loop']['errors']} errors"
        )
    return failures


grid.register("serving", run_cell, check=check_record)
