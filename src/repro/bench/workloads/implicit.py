"""Grid workload: implicit-feedback half-sweep, binned vs scatter.

The benchmark body behind ``benchmarks/bench_implicit.py``.
``BENCH_5.json`` records the committed numbers; the gate metric is
``speedup``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.bench import grid
from repro.core.implicit import implicit_half_sweep
from repro.datasets.catalog import MOVIELENS1M
from repro.datasets.synthetic import generate_ratings
from repro.linalg.normal_equations import (
    DEFAULT_TILE_NNZ,
    scatter_normal_equations,
    tile_bytes_bound,
)
from repro.linalg.solvers import batched_lapack_solve
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture, span
from repro.sparse.csr import CSRMatrix

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]

ALPHA = 40.0
LAM = 0.1


def _scatter_half_sweep(R, Y):
    """:func:`implicit_half_sweep` with the scatter reference assembly:
    serial, every row primal, one LAPACK solve."""
    X = np.zeros((R.nrows, Y.shape[1]))
    rows, sub = R.occupied_submatrix()
    w = ALPHA * sub.value.astype(np.float64)
    A, b = scatter_normal_equations(sub, Y, LAM, nnz_weight=w, rhs_nnz_value=w + 1.0)
    A += Y.T @ Y
    with span("als.implicit.s3", stage="S3", solver="lapack", k=Y.shape[1],
              batch=rows.size, form="primal"):
        X[rows] = batched_lapack_solve(A, b)
    return X


def _time_variant(sweep, repeats):
    """Min-of-N wall time, the S1/S2/S3 span split, gauges and the result."""
    best = float("inf")
    split = {}
    result = None
    for _ in range(repeats):
        obs_metrics.reset()
        with capture() as tracer:
            t0 = perf_counter()
            X = sweep()
            elapsed = perf_counter() - t0
        result = X
        if elapsed < best:
            best = elapsed
            stage_seconds = {"S1": 0.0, "S2": 0.0, "S3": 0.0}
            for rec in tracer.records:
                stage = rec.attrs.get("stage")
                if stage in stage_seconds:
                    stage_seconds[stage] += rec.duration
            split = {
                "total_seconds": elapsed,
                "s1_seconds": stage_seconds["S1"],
                "s2_seconds": stage_seconds["S2"],
                "s3_seconds": stage_seconds["S3"],
                "gauges": obs_metrics.snapshot()["gauges"],
            }
    return split, result


def run_benchmark(
    scale: float, k: int, repeats: int, scatter_repeats: int,
    tile_nnz: int, seed: int,
) -> dict:
    spec = MOVIELENS1M.scaled(scale)
    coo = generate_ratings(spec, seed=seed)
    R = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((R.ncols, k))
    # Warm the derived-structure caches (a training run reuses one matrix
    # across every sweep) so steady-state cost is what gets compared.
    R.expanded_rows()
    R.degree_bins()

    print(
        f"implicit half-sweep benchmark: {spec.abbr} scale={scale:g} "
        f"(m={R.nrows}, n={R.ncols}, nnz={R.nnz}), k={k}, alpha={ALPHA:g}, "
        f"tile_nnz={tile_nnz}, repeats={repeats}",
        flush=True,
    )
    binned, X_binned = _time_variant(
        lambda: implicit_half_sweep(R, Y, LAM, ALPHA, tile_nnz=tile_nnz), repeats
    )
    print(f"  binned  : {binned['total_seconds']:8.3f} s "
          f"(S1 {binned['s1_seconds']:.3f}, S2 {binned['s2_seconds']:.3f}, "
          f"S3 {binned['s3_seconds']:.3f})", flush=True)
    scatter, X_scatter = _time_variant(
        lambda: _scatter_half_sweep(R, Y), scatter_repeats
    )
    print(f"  scatter : {scatter['total_seconds']:8.3f} s "
          f"(S1 {scatter['s1_seconds']:.3f}, S2 {scatter['s2_seconds']:.3f}, "
          f"S3 {scatter['s3_seconds']:.3f})", flush=True)

    max_abs_diff = float(np.abs(X_binned - X_scatter).max())
    speedup = scatter["total_seconds"] / binned["total_seconds"]
    peak = binned["gauges"].get("assembly.implicit.peak_tile_bytes", 0.0)
    bound = tile_bytes_bound(tile_nnz, k, weighted=True)
    print(f"  speedup : {speedup:8.2f}x", flush=True)
    print(f"  max |binned - scatter| = {max_abs_diff:.3e}", flush=True)
    print(f"  peak tile bytes: {peak:,.0f} (bound {bound:,})", flush=True)
    return {
        "benchmark": "implicit_half_sweep",
        "dataset": spec.abbr,
        "scale": scale,
        "m": R.nrows,
        "n": R.ncols,
        "nnz": R.nnz,
        "k": k,
        "alpha": ALPHA,
        "lam": LAM,
        "tile_nnz": tile_nnz,
        "repeats": repeats,
        "scatter_repeats": scatter_repeats,
        "seed": seed,
        "scatter": scatter,
        "binned": binned,
        "speedup": speedup,
        "max_abs_diff": max_abs_diff,
        "peak_tile_bytes": peak,
        "peak_tile_bytes_bound": bound,
    }


def resolve(
    quick: bool = True,
    scale: float | None = None,
    k: int | None = None,
    repeats: int | None = None,
    scatter_repeats: int | None = None,
    tile_nnz: int | None = None,
    seed: int = 7,
) -> dict:
    if repeats is None:
        repeats = 1 if quick else 2
    if scatter_repeats is None:
        # The scatter reference takes minutes per pass at full scale (it
        # exists to be beaten); one pass is plenty at a >100x margin.
        scatter_repeats = repeats if quick else 1
    return {
        "scale": scale if scale is not None else (1 / 16 if quick else 1.0),
        "k": k if k is not None else (32 if quick else 64),
        "repeats": repeats,
        "scatter_repeats": scatter_repeats,
        "tile_nnz": tile_nnz if tile_nnz is not None else DEFAULT_TILE_NNZ,
        "seed": seed,
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bars: speedup (3x full / 1x quick), 1e-10 variant
    agreement, and peak assembly scratch within the weighted tile bound."""
    required = 1.0 if params.get("quick", True) else 3.0
    failures = []
    if record["speedup"] < required:
        failures.append(
            f"binned speedup {record['speedup']:.2f}x is below the "
            f"required {required:.1f}x"
        )
    if record["max_abs_diff"] > 1e-10:
        failures.append(
            f"binned and scatter sweeps disagree: max |diff| = "
            f"{record['max_abs_diff']:.3e} > 1e-10"
        )
    if not 0 < record["peak_tile_bytes"] <= record["peak_tile_bytes_bound"]:
        failures.append(
            f"peak tile bytes {record['peak_tile_bytes']:,.0f} outside "
            f"(0, {record['peak_tile_bytes_bound']:,}]"
        )
    return failures


grid.register("implicit", run_cell, check=check_record)
