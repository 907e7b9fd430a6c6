#!/usr/bin/env python
"""Subspace (iALS++) block coordinate descent vs full-k ALS sweeps.

Trains the same synthetic MovieLens-1M-shape ratings twice per
algorithm (explicit ALS, ALS-WR, implicit) — once with classic full
k-wide half-sweeps, once descending on d-column subspace blocks — and
compares the loss-vs-wall-seconds curves.  The headline metric is the
**time-to-target-loss speedup**: how much sooner the subspace run
reaches the loss the full-k run ends at.  Solving (k/d) systems of size
d costs d^2/k of the full solve and every block sees the other blocks'
freshest values, so the subspace run both moves faster per pass and
makes more progress per pass.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_convergence.py           # ML1M/8, k=64
    PYTHONPATH=src python benchmarks/bench_convergence.py --quick   # CI perf smoke
    PYTHONPATH=src python benchmarks/bench_convergence.py --check   # exit 1 on failure

``--check`` verifies the tentpole claims: the worst per-algorithm
time-to-target speedup clears the bar (1.5x full runs, 0.7x sanity bar
for the tiny ``--quick`` shape where per-block overhead dominates), the
subspace run's final loss lands within 1e-6 relative of the full-k
final loss, ``block_size == k`` reproduces the full sweep bitwise, and
subspace training on an on-disk ShardStore matches in-RAM bitwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.bench.record import (
    add_telemetry_args,
    enable_telemetry_if_requested,
    write_record,
    write_telemetry,
)
from repro.datasets.catalog import MOVIELENS1M

K = 64
LAM = 0.1
ITERATIONS = 8
BLOCK = 16
ALPHA = 40.0
ALGORITHMS = ("als", "als-wr", "implicit")


def _train_curve(
    algorithm: str,
    ratings,
    *,
    k: int,
    iterations: int,
    seed: int,
    block_size: int | None,
    block_schedule: str,
) -> tuple[object, list[tuple[float, float]]]:
    """``(model, [(loss, cumulative_elapsed_seconds), ...])`` per iteration."""
    from repro.core.als import ALSConfig, train_als
    from repro.core.alswr import train_als_wr
    from repro.core.implicit import ImplicitConfig, train_implicit_als

    kw = dict(
        k=k, lam=LAM, iterations=iterations, seed=seed,
        block_size=block_size, block_schedule=block_schedule,
    )
    if algorithm == "implicit":
        model = train_implicit_als(ratings, ImplicitConfig(alpha=ALPHA, **kw))
    else:
        trainer = train_als if algorithm == "als" else train_als_wr
        model = trainer(ratings, ALSConfig(**kw))
    return model, [
        (float(s.loss), float(s.elapsed_seconds)) for s in model.history
    ]


def _time_to_target(curve: list[tuple[float, float]], target: float) -> float:
    """First cumulative elapsed at which the curve reaches ``target``."""
    bar = target + abs(target) * 1e-12
    for loss, elapsed in curve:
        if loss <= bar:
            return max(elapsed, 1e-9)
    return float("inf")


def _compare_algorithm(
    algorithm: str, ratings, ns: argparse.Namespace
) -> dict:
    _, full = _train_curve(
        algorithm, ratings, k=ns.k, iterations=ns.iterations, seed=ns.seed,
        block_size=None, block_schedule=ns.block_schedule,
    )
    # The subspace pass is cheaper, so give it the same wall-clock
    # allowance in iterations (2x) and let time-to-target judge it.
    _, sub = _train_curve(
        algorithm, ratings, k=ns.k, iterations=2 * ns.iterations, seed=ns.seed,
        block_size=ns.block_size, block_schedule=ns.block_schedule,
    )
    target = full[-1][0]
    t_full = full[-1][1]
    t_sub = _time_to_target(sub, target)
    speedup = t_full / t_sub if np.isfinite(t_sub) else 0.0
    final_gap = max(0.0, sub[-1][0] - target) / max(1.0, abs(target))
    print(
        f"  {algorithm:8s}: full-k {t_full:7.2f} s to loss {target:.4f}; "
        f"d={ns.block_size} reaches it in "
        f"{t_sub:7.2f} s -> {speedup:5.2f}x "
        f"(final loss gap {final_gap:.1e})",
        flush=True,
    )
    return {
        "algorithm": algorithm,
        "full": {
            "losses": [l for l, _ in full],
            "elapsed_seconds": [e for _, e in full],
        },
        "subspace": {
            "losses": [l for l, _ in sub],
            "elapsed_seconds": [e for _, e in sub],
        },
        "target_loss": target,
        "seconds_to_target_full": t_full,
        "seconds_to_target_subspace": t_sub,
        "time_to_target_speedup": speedup,
        "final_loss_rel_gap": final_gap,
    }


def _bitwise_dk(algorithm: str, ratings, ns: argparse.Namespace) -> bool:
    """``block_size == k`` must reproduce the full sweep bit for bit."""
    full_model, _ = _train_curve(
        algorithm, ratings, k=ns.check_k, iterations=2, seed=ns.seed,
        block_size=None, block_schedule=ns.block_schedule,
    )
    dk_model, _ = _train_curve(
        algorithm, ratings, k=ns.check_k, iterations=2, seed=ns.seed,
        block_size=ns.check_k, block_schedule=ns.block_schedule,
    )
    return bool(
        np.array_equal(np.asarray(full_model.X), np.asarray(dk_model.X))
        and np.array_equal(np.asarray(full_model.Y), np.asarray(dk_model.Y))
    )


def _bitwise_sharded(algorithm: str, ratings, ns: argparse.Namespace) -> bool:
    """Subspace training on a ShardStore must match in-RAM bitwise."""
    from repro.datasets.shardio import build_shard_store
    from repro.sparse.shards import ShardStore

    ram_model, _ = _train_curve(
        algorithm, ratings, k=ns.check_k, iterations=2, seed=ns.seed,
        block_size=max(2, ns.check_k // 4), block_schedule=ns.block_schedule,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-conv-") as tmp:
        store_dir = str(Path(tmp) / "store")
        build_shard_store(store_dir, ratings)
        store = ShardStore.open(store_dir, shard_bytes=1 << 20)
        ooc_model, _ = _train_curve(
            algorithm, store, k=ns.check_k, iterations=2, seed=ns.seed,
            block_size=max(2, ns.check_k // 4), block_schedule=ns.block_schedule,
        )
    return bool(
        np.array_equal(np.asarray(ram_model.X), np.asarray(ooc_model.X))
        and np.array_equal(np.asarray(ram_model.Y), np.asarray(ooc_model.Y))
    )


def run_benchmark(ns: argparse.Namespace) -> dict:
    from repro.datasets.synthetic import generate_ratings

    spec = MOVIELENS1M.scaled(ns.scale)
    ratings = generate_ratings(spec, seed=ns.seed)
    print(
        f"subspace convergence benchmark: {spec.abbr} scale={ns.scale:g} "
        f"(m={spec.m}, n={spec.n}, nnz={ratings.nnz}), k={ns.k}, "
        f"block_size={ns.block_size}, schedule={ns.block_schedule}, "
        f"iterations={ns.iterations} full / {2 * ns.iterations} subspace",
        flush=True,
    )
    algorithms = [_compare_algorithm(a, ratings, ns) for a in ALGORITHMS]
    headline = min(a["time_to_target_speedup"] for a in algorithms)
    worst_gap = max(a["final_loss_rel_gap"] for a in algorithms)
    print(f"  worst time-to-target speedup {headline:.2f}x, "
          f"worst final-loss gap {worst_gap:.1e}", flush=True)

    check_spec = MOVIELENS1M.scaled(ns.check_scale)
    check_ratings = generate_ratings(check_spec, seed=ns.seed)
    dk = {a: _bitwise_dk(a, check_ratings, ns) for a in ALGORITHMS}
    sharded = {a: _bitwise_sharded(a, check_ratings, ns) for a in ALGORITHMS}
    print(f"  d==k bitwise: {dk}", flush=True)
    print(f"  sharded bitwise: {sharded}", flush=True)

    return {
        "benchmark": "subspace_convergence",
        "dataset": spec.abbr,
        "scale": ns.scale,
        "m": spec.m,
        "n": spec.n,
        "nnz": ratings.nnz,
        "k": ns.k,
        "lam": LAM,
        "alpha": ALPHA,
        "iterations": ns.iterations,
        "block_size": ns.block_size,
        "block_schedule": ns.block_schedule,
        "seed": ns.seed,
        "algorithms": algorithms,
        "time_to_target_speedup": headline,
        "final_loss_rel_gap": worst_gap,
        "dk_bitwise": dk,
        "sharded_bitwise": sharded,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small configuration for CI (1/64-scale ML1M, k=32)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on failure: time-to-target speedup below the "
        "bar (1.5 full, 0.7 quick), final-loss gap beyond 1e-6, or a "
        "bitwise d==k / ShardStore mismatch",
    )
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None, help="ML1M scale")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument(
        "--block-size", type=int, default=None,
        help="subspace block width d (default: 16 full, 8 quick)",
    )
    parser.add_argument(
        "--block-schedule", default="paired", choices=("paired", "sweep"),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here (default: BENCH_8.json for full "
        "runs, no file for --quick)",
    )
    add_telemetry_args(parser)
    ns = parser.parse_args(argv)

    enable_telemetry_if_requested(ns)
    if ns.scale is None:
        ns.scale = 1 / 64 if ns.quick else 1 / 8
    if ns.k is None:
        ns.k = 32 if ns.quick else K
    if ns.iterations is None:
        ns.iterations = 4 if ns.quick else ITERATIONS
    if ns.block_size is None:
        ns.block_size = 8 if ns.quick else BLOCK
    # The bitwise checks always run on a small shape so they stay cheap.
    ns.check_scale = min(ns.scale, 1 / 64)
    ns.check_k = min(ns.k, 16)

    result = run_benchmark(ns)

    out = ns.out
    if out is None and not ns.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_8.json"
    if out:
        write_record(out, result)
        print(f"report written to {out}", flush=True)
    write_telemetry(ns, meta={"benchmark": result["benchmark"]})

    if ns.check:
        bar = 0.7 if ns.quick else 1.5
        failures = []
        if result["time_to_target_speedup"] < bar:
            failures.append(
                f"time-to-target speedup {result['time_to_target_speedup']:.2f} "
                f"is below the required {bar:.2f}"
            )
        if result["final_loss_rel_gap"] > 1e-6:
            failures.append(
                f"subspace final loss misses full-k by "
                f"{result['final_loss_rel_gap']:.3e} relative (need <= 1e-6)"
            )
        for alg, ok in result["dk_bitwise"].items():
            if not ok:
                failures.append(f"{alg}: block_size==k is not bitwise-equal "
                                f"to the full sweep")
        for alg, ok in result["sharded_bitwise"].items():
            if not ok:
                failures.append(f"{alg}: sharded subspace training diverges "
                                f"from in-RAM bitwise")
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print(
            f"OK: speedup {result['time_to_target_speedup']:.2f} >= {bar:.2f}, "
            f"loss gap {result['final_loss_rel_gap']:.1e} <= 1e-6, "
            f"d==k and sharded runs bitwise-equal"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
