"""Grid workload: subspace (iALS++) block descent vs full-k ALS sweeps.

The benchmark body behind ``benchmarks/bench_convergence.py``.
``BENCH_8.json`` records the committed numbers; the gate metric is
``time_to_target_speedup``.

Trains the same synthetic MovieLens-1M-shape ratings twice per
algorithm (explicit ALS, ALS-WR, implicit) — once with classic full
k-wide half-sweeps, once descending on d-column subspace blocks — and
compares the loss-vs-wall-seconds curves.  The headline metric is the
**time-to-target-loss speedup**: how much sooner the subspace run
reaches the loss the full-k run ends at.  Solving (k/d) systems of size
d costs d^2/k of the full solve and every block sees the other blocks'
freshest values, so the subspace run both moves faster per pass and
makes more progress per pass.  The record also carries the bitwise
``block_size == k`` and ShardStore-vs-in-RAM verdicts, run on a small
shape so they stay cheap.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.bench import grid
from repro.datasets.catalog import MOVIELENS1M

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]

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
    algorithm: str,
    ratings,
    *,
    k: int,
    iterations: int,
    seed: int,
    block_size: int,
    block_schedule: str,
) -> dict:
    _, full = _train_curve(
        algorithm, ratings, k=k, iterations=iterations, seed=seed,
        block_size=None, block_schedule=block_schedule,
    )
    # The subspace pass is cheaper, so give it the same wall-clock
    # allowance in iterations (2x) and let time-to-target judge it.
    _, sub = _train_curve(
        algorithm, ratings, k=k, iterations=2 * iterations, seed=seed,
        block_size=block_size, block_schedule=block_schedule,
    )
    target = full[-1][0]
    t_full = full[-1][1]
    t_sub = _time_to_target(sub, target)
    speedup = t_full / t_sub if np.isfinite(t_sub) else 0.0
    final_gap = max(0.0, sub[-1][0] - target) / max(1.0, abs(target))
    print(
        f"  {algorithm:8s}: full-k {t_full:7.2f} s to loss {target:.4f}; "
        f"d={block_size} reaches it in "
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


def _same_factors(a, b) -> bool:
    return bool(
        np.array_equal(np.asarray(a.X), np.asarray(b.X))
        and np.array_equal(np.asarray(a.Y), np.asarray(b.Y))
    )


def _bitwise_dk(
    algorithm: str, ratings, *, k: int, seed: int, block_schedule: str
) -> bool:
    """``block_size == k`` must reproduce the full sweep bit for bit."""
    kw = dict(k=k, iterations=2, seed=seed, block_schedule=block_schedule)
    full_model, _ = _train_curve(algorithm, ratings, block_size=None, **kw)
    dk_model, _ = _train_curve(algorithm, ratings, block_size=k, **kw)
    return _same_factors(full_model, dk_model)


def _bitwise_sharded(
    algorithm: str, ratings, *, k: int, seed: int, block_schedule: str
) -> bool:
    """Subspace training on a ShardStore must match in-RAM bitwise."""
    from repro.datasets.shardio import build_shard_store
    from repro.sparse.shards import ShardStore

    kw = dict(
        k=k, iterations=2, seed=seed, block_size=max(2, k // 4),
        block_schedule=block_schedule,
    )
    ram_model, _ = _train_curve(algorithm, ratings, **kw)
    with tempfile.TemporaryDirectory(prefix="repro-bench-conv-") as tmp:
        store_dir = str(Path(tmp) / "store")
        build_shard_store(store_dir, ratings)
        store = ShardStore.open(store_dir, shard_bytes=1 << 20)
        ooc_model, _ = _train_curve(algorithm, store, **kw)
    return _same_factors(ram_model, ooc_model)


def run_benchmark(
    scale: float,
    k: int,
    iterations: int,
    block_size: int,
    block_schedule: str,
    seed: int,
) -> dict:
    from repro.datasets.synthetic import generate_ratings

    spec = MOVIELENS1M.scaled(scale)
    ratings = generate_ratings(spec, seed=seed)
    print(
        f"subspace convergence benchmark: {spec.abbr} scale={scale:g} "
        f"(m={spec.m}, n={spec.n}, nnz={ratings.nnz}), k={k}, "
        f"block_size={block_size}, schedule={block_schedule}, "
        f"iterations={iterations} full / {2 * iterations} subspace",
        flush=True,
    )
    algorithms = [
        _compare_algorithm(
            a, ratings, k=k, iterations=iterations, seed=seed,
            block_size=block_size, block_schedule=block_schedule,
        )
        for a in ALGORITHMS
    ]
    headline = min(a["time_to_target_speedup"] for a in algorithms)
    worst_gap = max(a["final_loss_rel_gap"] for a in algorithms)
    print(f"  worst time-to-target speedup {headline:.2f}x, "
          f"worst final-loss gap {worst_gap:.1e}", flush=True)

    # The bitwise checks always run on a small shape so they stay cheap.
    check_ratings = generate_ratings(
        MOVIELENS1M.scaled(min(scale, 1 / 64)), seed=seed
    )
    check_kw = dict(k=min(k, 16), seed=seed, block_schedule=block_schedule)
    dk = {a: _bitwise_dk(a, check_ratings, **check_kw) for a in ALGORITHMS}
    sharded = {
        a: _bitwise_sharded(a, check_ratings, **check_kw) for a in ALGORITHMS
    }
    print(f"  d==k bitwise: {dk}", flush=True)
    print(f"  sharded bitwise: {sharded}", flush=True)

    return {
        "benchmark": "subspace_convergence",
        "dataset": spec.abbr,
        "scale": scale,
        "m": spec.m,
        "n": spec.n,
        "nnz": ratings.nnz,
        "k": k,
        "lam": LAM,
        "alpha": ALPHA,
        "iterations": iterations,
        "block_size": block_size,
        "block_schedule": block_schedule,
        "seed": seed,
        "algorithms": algorithms,
        "time_to_target_speedup": headline,
        "final_loss_rel_gap": worst_gap,
        "dk_bitwise": dk,
        "sharded_bitwise": sharded,
    }


def resolve(
    quick: bool = True,
    k: int | None = None,
    scale: float | None = None,
    iterations: int | None = None,
    block_size: int | None = None,
    block_schedule: str | None = None,
    seed: int | None = None,
) -> dict:
    """Quick: 1/64-scale ml-1m, k=32, 4 iterations, d=8; full: 1/8,
    k=64, 8 iterations, d=16."""
    return {
        "scale": scale if scale is not None else (1 / 64 if quick else 1 / 8),
        "k": k if k is not None else (32 if quick else K),
        "iterations": (
            iterations if iterations is not None
            else (4 if quick else ITERATIONS)
        ),
        "block_size": (
            block_size if block_size is not None else (8 if quick else BLOCK)
        ),
        "block_schedule": block_schedule or "paired",
        "seed": seed if seed is not None else 7,
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bars: time-to-target speedup (1.5 full / 0.7
    quick, where per-block overhead dominates the tiny shape), 1e-6
    final-loss parity, bitwise d==k and sharded agreement."""
    bar = 0.7 if params.get("quick", True) else 1.5
    failures = []
    if record["time_to_target_speedup"] < bar:
        failures.append(
            f"time-to-target speedup {record['time_to_target_speedup']:.2f} "
            f"is below the required {bar:.2f}"
        )
    if record["final_loss_rel_gap"] > 1e-6:
        failures.append(
            f"subspace final loss misses full-k by "
            f"{record['final_loss_rel_gap']:.3e} relative (need <= 1e-6)"
        )
    for alg, ok in record["dk_bitwise"].items():
        if not ok:
            failures.append(
                f"{alg}: block_size==k is not bitwise-equal to the full sweep"
            )
    for alg, ok in record["sharded_bitwise"].items():
        if not ok:
            failures.append(
                f"{alg}: sharded subspace training diverges from in-RAM bitwise"
            )
    return failures


grid.register("convergence", run_cell, check=check_record)
