"""Grid workload: tiled top-N serving vs the dense batch path.

The benchmark body behind ``benchmarks/bench_topn.py``.
``BENCH_4.json`` records the committed numbers; the gate metric is
``best_speedup``.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from repro.bench import grid
from repro.datasets.catalog import MOVIELENS1M
from repro.datasets.synthetic import generate_ratings
from repro.serving.engine import DEFAULT_TILE_BYTES, TopNEngine
from repro.sparse.csr import CSRMatrix

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]


def naive_topn_batch(X, Y, users, n, exclude):
    """The pre-engine ``recommend_top_n_batch`` body, verbatim."""
    scores = X[users] @ Y.T  # (U, n_items), the dense matrix the engine avoids
    if exclude is not None:
        for pos, user in enumerate(users):
            seen, _ = exclude.row_slice(int(user))
            scores[pos, seen] = -np.inf
    top = np.argpartition(scores, -n, axis=1)[:, -n:]
    row_scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(row_scores, axis=1)[:, ::-1]
    ranked = np.take_along_axis(top, order, axis=1)
    return ranked, np.take_along_axis(row_scores, order, axis=1), scores.nbytes


def _interleaved_best(fns: dict[str, object], repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` wall time per candidate, measured round-robin.

    Interleaving keeps every candidate exposed to the same machine
    conditions within each round — timing all repeats of one candidate
    back-to-back lets a load spike land entirely on one side of the
    before/after ratio.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = perf_counter()
            fn()
            best[name] = min(best[name], perf_counter() - t0)
    return best


def run_benchmark(scale: float, k: int, top_n: int, repeats: int, seed: int) -> dict:
    spec = MOVIELENS1M.scaled(scale)
    coo = generate_ratings(spec, seed=seed)
    R = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((R.nrows, k))
    Y = rng.standard_normal((R.ncols, k))
    users = np.arange(R.nrows)

    print(
        f"top-N benchmark: {spec.abbr} scale={scale:g} "
        f"(m={R.nrows}, n={R.ncols}, nnz={R.nnz}), k={k}, N={top_n}, "
        f"repeats={repeats}, cores={os.cpu_count()}",
        flush=True,
    )

    ref_items, ref_scores, dense_bytes = naive_topn_batch(X, Y, users, top_n, R)
    # Where the dense path ran out of unseen items it emits arbitrary
    # -inf-scored ids; the engine pads those slots with -1 (the
    # documented contract), so identity is asserted on finite slots only.
    ref_valid = np.isfinite(ref_scores)

    configs = [
        ("engine-f64", dict(tile_bytes=DEFAULT_TILE_BYTES, dtype="float64")),
        ("engine-f32", dict(tile_bytes=4 << 20, dtype="float32")),
    ]
    built = {
        name: TopNEngine(X, Y, user_block=2048, **kwargs)
        for name, kwargs in configs
    }
    f64_identical = None
    for name, kwargs in configs:
        engine = built[name]
        result = engine.query(users, n=top_n, exclude=R)  # warm-up + parity
        if kwargs["dtype"] == "float64":
            f64_identical = bool(
                np.array_equal(result.items[ref_valid], ref_items[ref_valid])
                and ((result.items == -1) == ~ref_valid).all()
            )

    timings = _interleaved_best(
        {
            "dense": lambda: naive_topn_batch(X, Y, users, top_n, R),
            **{
                name: (lambda e=built[name]: e.query(users, n=top_n, exclude=R))
                for name, _ in configs
            },
        },
        repeats,
    )
    naive_seconds = timings["dense"]
    naive_ups = users.size / naive_seconds
    print(
        f"  dense batch      : {naive_seconds:8.3f} s  {naive_ups:10,.0f} u/s  "
        f"peak {dense_bytes / 2**20:8.1f} MB",
        flush=True,
    )

    engines: dict[str, dict] = {}
    for name, kwargs in configs:
        engine = built[name]
        seconds = timings[name]
        ups = users.size / seconds
        engines[name] = {
            **{key: val for key, val in kwargs.items()},
            "seconds": seconds,
            "users_per_sec": ups,
            "speedup": ups / naive_ups,
            "peak_scoring_bytes": engine.peak_tile_bytes,
        }
        print(
            f"  {name:17s}: {seconds:8.3f} s  {ups:10,.0f} u/s  "
            f"peak {engine.peak_tile_bytes / 2**20:8.1f} MB  "
            f"({ups / naive_ups:.2f}x)",
            flush=True,
        )

    best = max(engines.values(), key=lambda e: e["users_per_sec"])
    return {
        "benchmark": "tiled_topn_serving",
        "dataset": spec.abbr,
        "scale": scale,
        "m": R.nrows,
        "n": R.ncols,
        "nnz": R.nnz,
        "k": k,
        "top_n": top_n,
        "repeats": repeats,
        "seed": seed,
        "cores": os.cpu_count(),
        "dense_batch": {
            "seconds": naive_seconds,
            "users_per_sec": naive_ups,
            "peak_scoring_bytes": dense_bytes,
        },
        "engines": engines,
        "best_speedup": best["speedup"],
        "best_peak_fraction_of_dense": best["peak_scoring_bytes"] / dense_bytes,
        "f64_identical_to_dense": f64_identical,
    }


def resolve(
    quick: bool = True,
    scale: float | None = None,
    k: int | None = None,
    top_n: int | None = None,
    repeats: int | None = None,
    seed: int = 7,
) -> dict:
    """Quick and full share the full ml-1m serving shape (the 2x bar is
    only honest there); only the --check bar differs."""
    return {
        "scale": scale if scale is not None else 1.0,
        "k": k if k is not None else 64,
        "top_n": top_n if top_n is not None else 10,
        "repeats": repeats if repeats is not None else 3,
        "seed": seed,
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bars: speedup (1.8x quick / 2.0x full, the quick
    margin tolerating CI timing noise around the ~2.0-2.1x true ratio),
    peak memory <= 1/4 of dense, bit-identical float64 result."""
    bar = 1.8 if params.get("quick", True) else 2.0
    failures = []
    if record["best_speedup"] < bar:
        failures.append(
            f"best engine speedup {record['best_speedup']:.2f}x is below "
            f"the required {bar:.1f}x"
        )
    if record["best_peak_fraction_of_dense"] > 0.25:
        failures.append(
            f"peak scoring memory is "
            f"{record['best_peak_fraction_of_dense']:.2%} of the dense "
            f"matrix (bar: <= 25%)"
        )
    if not record["f64_identical_to_dense"]:
        failures.append("float64 engine result differs from dense reference")
    return failures


grid.register("topn", run_cell, check=check_record)
