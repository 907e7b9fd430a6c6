"""Grid workload: S3 batched solvers and the parallel half-sweep.

The benchmark body behind ``benchmarks/bench_solve.py``.
``BENCH_3.json`` records the committed numbers; the gate metric is
``lapack_speedup``.  The ``write_solve`` table times one S3 call at the
sizes a write solves (a fold-in or update group of 16 or 64 rows),
where per-call overhead rather than arithmetic sets the cost.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from repro.bench import grid
from repro.datasets.catalog import MOVIELENS1M
from repro.datasets.synthetic import generate_ratings
from repro.kernels.fastpath import fast_half_sweep
from repro.linalg.cholesky import batched_cholesky_solve
from repro.linalg.gaussian import batched_gaussian_solve
from repro.linalg.normal_equations import binned_normal_equations
from repro.linalg.solvers import batched_lapack_solve
from repro.parallel import SweepExecutor
from repro.sparse.csr import CSRMatrix

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]


#: The S3 variants timed: the sweep's LAPACK solve and the two
#: from-scratch references it replaced (§V-C).
SOLVERS = {
    "cholesky": batched_cholesky_solve,
    "gaussian": batched_gaussian_solve,
    "lapack": batched_lapack_solve,
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


#: (rows, width) of the write-sized S3 calls: rows of a fold-in or
#: update group, widths of the dual and primal forms up to k = 64.
WRITE_ROWS = (16, 64)
WRITE_WIDTHS = (16, 32, 48, 64)


def write_solve_table(seed: int, calls: int) -> list[dict]:
    """Best-of-``calls`` ms per call of ``lapack`` and the ``cholesky``
    reference on ALS-shaped SPD stacks of every write-sized (rows, width)."""
    rng = np.random.default_rng(seed)
    table = []
    for rows in WRITE_ROWS:
        for width in WRITE_WIDTHS:
            W = rng.standard_normal((rows, width + 3, width))
            A = W.transpose(0, 2, 1) @ W
            A[:, np.arange(width), np.arange(width)] += 0.1
            b = rng.standard_normal((rows, width))
            cell = {"rows": rows, "width": width}
            for name in ("lapack", "cholesky"):
                fn = SOLVERS[name]
                cell[f"{name}_ms"] = 1e3 * _best_of(lambda: fn(A, b), calls)
            cell["lapack_speedup"] = cell["cholesky_ms"] / cell["lapack_ms"]
            print(f"  write s3 rows={rows:3d} width={width:3d}: lapack "
                  f"{cell['lapack_ms']:7.3f} ms, cholesky "
                  f"{cell['cholesky_ms']:7.3f} ms "
                  f"({cell['lapack_speedup']:.1f}x)", flush=True)
            table.append(cell)
    return table


def run_benchmark(
    scale: float,
    k: int,
    repeats: int,
    seed: int,
    skip: tuple[str, ...] = (),
    write_calls: int = 30,
) -> dict:
    spec = MOVIELENS1M.scaled(scale)
    coo = generate_ratings(spec, seed=seed)
    R = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((R.ncols, k))
    # Warm the derived-structure caches (a training run reuses one matrix
    # across every sweep) and assemble the S3 input once: the solve
    # comparison isolates S3, the sweep comparison covers S1+S2+S3.
    rows, sub = R.occupied_submatrix()
    A, b = binned_normal_equations(sub, Y, 0.1)
    batch = A.shape[0]

    print(
        f"solve benchmark: {spec.abbr} scale={scale:g} "
        f"(m={R.nrows}, n={R.ncols}, nnz={R.nnz}), k={k}, "
        f"batch={batch}, repeats={repeats}, cores={os.cpu_count()}",
        flush=True,
    )

    solve_seconds: dict[str, float] = {}
    for name, fn in SOLVERS.items():
        if name in skip:
            continue
        solve_seconds[name] = _best_of(lambda: fn(A, b), repeats)
        print(f"  s3 {name:9s}: {solve_seconds[name]:8.3f} s", flush=True)
    lapack_speedup = solve_seconds["cholesky"] / solve_seconds["lapack"]
    print(f"  lapack speedup over reference: {lapack_speedup:8.2f}x", flush=True)
    write_solve = write_solve_table(seed, write_calls)

    X_serial = fast_half_sweep(R, Y, 0.1)  # untimed warm-up
    serial_seconds = _best_of(lambda: fast_half_sweep(R, Y, 0.1), repeats)
    with SweepExecutor("auto") as executor:
        workers = executor.workers
        # Untimed warm-up, as on the serial side: the first call builds
        # the shards' lane plans.
        X_parallel = executor.half_sweep(R, Y, 0.1)
        parallel_seconds = _best_of(
            lambda: executor.half_sweep(R, Y, 0.1), repeats
        )
    bitwise = bool(np.array_equal(X_serial, X_parallel))
    sweep_speedup = serial_seconds / parallel_seconds
    print(f"  sweep workers=1   : {serial_seconds:8.3f} s", flush=True)
    print(f"  sweep workers={workers:<4d}: {parallel_seconds:8.3f} s "
          f"({sweep_speedup:.2f}x, bitwise identical: {bitwise})", flush=True)

    return {
        "benchmark": "s3_solve_and_parallel_sweep",
        "dataset": spec.abbr,
        "scale": scale,
        "m": R.nrows,
        "n": R.ncols,
        "nnz": R.nnz,
        "k": k,
        "batch": batch,
        "repeats": repeats,
        "seed": seed,
        "cores": os.cpu_count(),
        "s3_seconds": solve_seconds,
        "lapack_speedup": lapack_speedup,
        "write_solve": write_solve,
        "sweep": {
            "solver": "lapack",
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "workers": workers,
            "speedup": sweep_speedup,
            "bitwise_identical": bitwise,
        },
    }


def resolve(
    quick: bool = True,
    scale: float | None = None,
    k: int | None = None,
    repeats: int | None = None,
    seed: int = 7,
) -> dict:
    """Quick keeps the full solve shape (the 3x bar is only honest on
    the real ml-1m batch) but one repeat, no gaussian timing and fewer
    write-sized calls."""
    return {
        "scale": scale if scale is not None else 1.0,
        "k": k if k is not None else 64,
        "repeats": repeats if repeats is not None else (1 if quick else 2),
        "seed": seed,
        "skip": ("gaussian",) if quick else (),
        "write_calls": 10 if quick else 30,
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bars: lapack >= 3x at k >= 32, bitwise parallel
    sweep, and (multi-core only) parallel faster than serial."""
    failures = []
    if record["k"] >= 32 and record["lapack_speedup"] < 3.0:
        failures.append(
            f"lapack speedup {record['lapack_speedup']:.2f}x is below the "
            f"required 3.0x at k={record['k']}"
        )
    if not record["sweep"]["bitwise_identical"]:
        failures.append("parallel sweep result differs from serial")
    cores = os.cpu_count() or 1
    if cores > 1 and record["sweep"]["speedup"] <= 1.0:
        failures.append(
            f"parallel sweep ({record['sweep']['workers']} workers on "
            f"{cores} cores) not faster than serial "
            f"({record['sweep']['speedup']:.2f}x)"
        )
    return failures


grid.register("solve", run_cell, check=check_record)
