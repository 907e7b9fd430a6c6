#!/usr/bin/env python
"""Subspace (iALS++) block coordinate descent vs full-k ALS sweeps.

Trains the same synthetic MovieLens-1M-shape ratings twice per
algorithm (explicit ALS, ALS-WR, implicit) — once with classic full
k-wide half-sweeps, once descending on d-column subspace blocks — and
reports the **time-to-target-loss speedup**: how much sooner the
subspace run reaches the loss the full-k run ends at.  ``BENCH_8.json``
at the repo root records the committed numbers.

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

The benchmark body lives in :mod:`repro.bench.workloads.convergence`
(the grid workload registered as ``convergence``); this entry point is a
thin single-cell wrapper over :func:`repro.bench.grid.run_single_cell`.
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
from repro.bench.workloads.convergence import check_record


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

    # check=False: the record must land (and be written below) even when
    # the bar is missed; the bar is applied explicitly for --check.
    params = {
        "quick": ns.quick, "check": False,
        "block_schedule": ns.block_schedule, "seed": ns.seed,
    }
    for name in ("scale", "k", "iterations", "block_size"):
        if getattr(ns, name) is not None:
            params[name] = getattr(ns, name)
    result = run_single_cell("convergence", params)

    out = ns.out
    if out is None and not ns.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_8.json"
    if out:
        write_record(out, result)
        print(f"report written to {out}", flush=True)
    write_telemetry(ns, meta={"benchmark": result["benchmark"]})

    if ns.check:
        bar = 0.7 if ns.quick else 1.5
        failures = check_record(result, params)
        if failures:
            for message in failures:
                print(f"FAIL: {message}", file=sys.stderr)
            return 1
        print(
            f"OK: speedup {result['time_to_target_speedup']:.2f} >= {bar:.2f}, "
            f"loss gap {result['final_loss_rel_gap']:.1e} <= 1e-6, "
            f"d==k and sharded runs bitwise-equal"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
