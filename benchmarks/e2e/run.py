"""End-to-end benchmark: ratings file → trained model → served reads and writes.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out FILE]

Without ``--workload`` every workload runs.  For each workload the
benchmark writes its inputs from the seed, runs the program in a child
process with one BLAS/OpenMP thread and ``REPRO_WORKERS`` = cores (so no
more busy threads than cores), checks the answers, prints every metric
as ``workload metric value unit`` and, last, one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload traced and reports its per-layer
metrics.  ``--out`` also writes a JSON record with the host envelope,
input and factor hashes, phases and ledgers (and, traced, a Perfetto
trace next to it).  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import os

# Before NumPy loads: the host probes measure one thread, as the child runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from host import envelope, gemm_gflops, nproc  # noqa: E402
from inputs import make_ratings, sha256_file, write_tsv  # noqa: E402
from ledger import LAYER_METRICS  # noqa: E402
from workloads import E2E_METRICS, WORKLOADS  # noqa: E402

#: The child must end within this, so a run ends inside its 180-second
#: limit even when something hangs.
WORKLOAD_TIMEOUT_S = 165.0
WORK_DIR = ROOT / ".e2e_work"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_WORKERS=str(nproc()),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
    )
    return env


def run_child(name: str, args, work: Path, gemm: float | None,
              trace_file: Path | None) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    if gemm:
        cmd += ["--gemm-gflops", repr(gemm)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=WORKLOAD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def run_workload(name: str, args, gemm: float | None) -> dict:
    """Write the inputs, run the child, return its result."""
    work = WORK_DIR / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        split = make_ratings(WORKLOADS[name].shape, args.seed)
        write_tsv(work / "train.tsv", split.train_users, split.train_items, split.train_values)
        np.savez(work / "test.npz", users=split.test_users, items=split.test_items,
                 values=split.test_values)
        inputs = {f: sha256_file(work / f) for f in ("train.tsv", "test.npz")}
        trace_file = None
        if args.trace and args.out:
            trace_file = Path(args.out).with_suffix(f".{name}.trace.json").resolve()
        res = run_child(name, args, work, gemm, trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_DIR.rmdir()
    return {"inputs_sha256": inputs, **res}


def reported(res: dict, trace: bool) -> dict:
    """The metric set of this run kind; a missing or non-finite value
    marks the run incorrect."""
    names = LAYER_METRICS if trace else E2E_METRICS
    source = res["layers"] if trace else res["metrics"]
    out = {}
    for metric, unit in names.items():
        value = source.get(metric, 0.0 if trace else math.nan)
        if not math.isfinite(value):
            res["correct"] = False
            value = 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=32.0,
                    help="serving time of a run, spread over its rounds (fits come on top)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write the full JSON record here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = args.workload or list(WORKLOADS)
    host = envelope() if args.out else None
    gemm = host["host.gemm_gflops"] if host else (gemm_gflops() if args.trace else None)
    results = {}
    for name in names:
        res = run_workload(name, args, gemm)
        res["reported"] = reported(res, bool(args.trace))
        results[name] = res
        for metric, m in res["reported"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"{name} attempted {res['attempted']} ops, failed {res['failed']}, "
              f"correct {res['correct']}", flush=True)

    if args.out:
        record = {"benchmark": "e2e", "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host": host, "workloads": results}
        Path(args.out).write_text(json.dumps(record, indent=1, default=float))
    if len(names) == 1:
        metrics = results[names[0]]["reported"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["reported"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
