#!/usr/bin/env python
"""Benchmark of the long-lived RecommendService under load.

Trains an ml-1m-shaped model, stands the service up, and measures:
micro-batched vs unbatched closed-loop throughput and latency
percentiles, warm vs cold result-cache throughput, an open-loop Poisson
arrival run at a fixed offered rate, and bitwise fold-in and
rating-update parity with the trainers disarmed.  ``BENCH_9.json`` at the repo root records the
committed numbers (two records: ``serving_service`` gated on
``batching_speedup`` and ``serving_throughput`` gated on absolute
``serve_throughput``).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serving.py            # ML1M/8, k=64
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI perf smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --check    # exit 1 on failure

The benchmark body lives in :mod:`repro.bench.workloads.serving` (the
grid workload registered as ``serving``); this entry point is a thin
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
from repro.bench.workloads.serving import check_record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small configuration for CI (1/64-scale ML1M, k=16)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on failure: batching speedup below the bar "
        "(1.5 full, 1.2 quick), a fold-in parity/retrain failure, zero "
        "throughput, or load-loop errors",
    )
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None, help="ML1M scale")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument(
        "--max-batch", type=int, default=None,
        help="coalescing cap (default: match --concurrency, so the worker "
        "stops yielding the moment every client it answered has resubmitted)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=None,
        help="closed-loop client threads (default: 32 full, 8 quick)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="closed-loop requests per client (default: 200 full, 40 quick)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="open-loop offered arrivals/s (default: 500 full, 200 quick)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="open-loop seconds (default: 4 full, 1 quick)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here (default: BENCH_9.json for full "
        "runs, no file for --quick)",
    )
    add_telemetry_args(parser)
    ns = parser.parse_args(argv)
    enable_telemetry_if_requested(ns)

    # check=False: the records must land (and be written below) even when
    # a bar is missed; the bars are applied explicitly for --check.
    params = {"quick": ns.quick, "check": False, "seed": ns.seed}
    for name in (
        "scale", "k", "iterations", "max_batch", "concurrency",
        "requests", "rate", "duration",
    ):
        if getattr(ns, name) is not None:
            params[name] = getattr(ns, name)
    records = run_single_cell("serving", params)
    result = records[0]

    out = ns.out
    if out is None and not ns.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_9.json"
    if out:
        write_record(out, records)
        print(f"report written to {out}", flush=True)
    write_telemetry(ns, meta={"benchmark": result["benchmark"]})

    if ns.check:
        bar = 1.2 if ns.quick else 1.5
        failures = check_record(records, params)
        if failures:
            for message in failures:
                print(f"FAIL: {message}", file=sys.stderr)
            return 1
        print(
            f"OK: batching {result['batching_speedup']:.2f}x >= {bar:.2f}, "
            f"cache {result['cache_speedup']:.2f}x "
            f"(hit rate {result['cache_hit_rate']:.0%}), fold-in and update "
            f"bitwise with no retrain"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
