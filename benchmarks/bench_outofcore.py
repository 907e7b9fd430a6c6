#!/usr/bin/env python
"""Out-of-core sharded training vs the in-RAM baseline.

Trains the same synthetic Netflix-shape ratings twice — once on in-RAM
CSR/CSC views, once streaming byte-budgeted shards from an on-disk
store — and compares wall time, loss trajectories and peak RSS, each
phase in its own subprocess.  ``BENCH_7.json`` at the repo root records
the committed numbers.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_outofcore.py           # NTFX/8, k=32
    PYTHONPATH=src python benchmarks/bench_outofcore.py --quick   # CI perf smoke
    PYTHONPATH=src python benchmarks/bench_outofcore.py --check   # exit 1 on failure

``--check`` verifies the tentpole claims: the sharded losses match the
in-RAM trajectory to 1e-10 relative, sharded throughput retains >= 70%
of in-RAM, the sharded phase's peak-RSS delta stays under 50% of the
in-RAM delta, and, where the kernel enforces ``RLIMIT_DATA``, the
sharded phase survives a hard cap sized to half the in-RAM footprint.

The benchmark body lives in :mod:`repro.bench.workloads.outofcore` (the
grid workload registered as ``outofcore``); this entry point is a thin
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
from repro.bench.workloads.outofcore import ITERATIONS, K, check_record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small configuration for CI (1/64-scale Netflix, k=32)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on failure: loss parity beyond 1e-10, "
        "throughput retention below 0.7, sharded RSS delta above half "
        "the in-RAM delta, or a capped sharded run dying",
    )
    parser.add_argument("--k", type=int, default=K)
    parser.add_argument("--scale", type=float, default=None, help="Netflix scale")
    parser.add_argument("--iterations", type=int, default=ITERATIONS)
    parser.add_argument("--shard-bytes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="build (and keep) the shard store here instead of a temp dir",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here (default: BENCH_7.json for full "
        "runs, no file for --quick)",
    )
    add_telemetry_args(parser)
    ns = parser.parse_args(argv)
    enable_telemetry_if_requested(ns)

    # check=False: the record must land (and be written below) even when
    # the bar is missed; the bar is applied explicitly for --check.
    params = {
        "quick": ns.quick, "check": False, "k": ns.k,
        "iterations": ns.iterations, "seed": ns.seed,
    }
    for name in ("scale", "shard_bytes", "store"):
        if getattr(ns, name) is not None:
            params[name] = getattr(ns, name)
    result = run_single_cell("outofcore", params)

    out = ns.out
    if out is None and not ns.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_7.json"
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
            f"OK: retention {result['throughput_retention']:.2f} >= 0.70, "
            f"RSS ratio {result['rss_delta_ratio']:.2f} < 0.5, loss parity "
            f"{result['loss_rel_err']:.1e} <= 1e-10"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
