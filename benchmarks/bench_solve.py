#!/usr/bin/env python
"""Benchmark of the S3 batched solvers and the parallel half-sweep.

Isolates stage S3 (solving the per-user normal equations) on the full
ml-1m shape: the reference blocked-Cholesky path against the batched
LAPACK ``gesv`` path and the Gaussian-elimination comparator; then one
S3 call at the sizes a write solves (the ``write_solve`` table: rows
{16, 64} × width {16, 32, 48, 64}, lapack vs the reference, best ms
per call); then a whole half-sweep (S1+S2+S3) serial vs parallel with
bitwise-identity verification.  ``BENCH_3.json`` at the repo root
records the committed numbers.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_solve.py            # full ml-1m, k=64
    PYTHONPATH=src python benchmarks/bench_solve.py --quick    # CI perf smoke
    PYTHONPATH=src python benchmarks/bench_solve.py --check    # exit 1 on regression

The benchmark body lives in :mod:`repro.bench.workloads.solve` (the
grid workload registered as ``solve``); this entry point is a thin
single-cell wrapper over :func:`repro.bench.grid.run_single_cell`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.grid import run_single_cell
from repro.bench.record import (
    add_telemetry_args,
    enable_telemetry_if_requested,
    write_record,
    write_telemetry,
)
from repro.bench.workloads.solve import check_record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI perf-smoke configuration: full ml-1m solve shape at k=64 "
        "but one repeat and no gaussian timing",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless lapack beats the reference solve by >= 3x "
        "(and, on multi-core hosts, the parallel sweep beats serial)",
    )
    parser.add_argument("--k", type=int, default=None, help="latent factor size")
    parser.add_argument("--scale", type=float, default=None, help="ml-1m scale")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here (default: BENCH_3.json for full "
        "runs, no file for --quick)",
    )
    add_telemetry_args(parser)
    ns = parser.parse_args(argv)
    enable_telemetry_if_requested(ns)

    # check=False: the record must land (and be written below) even when
    # the bar is missed; the bar is applied explicitly for --check.
    params = {"quick": ns.quick, "check": False, "seed": ns.seed}
    for name in ("scale", "k", "repeats"):
        if getattr(ns, name) is not None:
            params[name] = getattr(ns, name)
    result = run_single_cell("solve", params)

    out = ns.out
    if out is None and not ns.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_3.json"
    if out:
        write_record(out, result)
        print(f"report written to {out}", flush=True)
    write_telemetry(ns, meta={"benchmark": result["benchmark"]})

    if ns.check:
        failures = check_record(result, params)
        if failures:
            for message in failures:
                print(f"FAIL: {message}", file=sys.stderr)
            return 1
        print(
            f"OK: lapack {result['lapack_speedup']:.2f}x >= 3.0x, parallel "
            f"sweep {result['sweep']['speedup']:.2f}x with "
            f"{result['sweep']['workers']} workers, bitwise identical"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
