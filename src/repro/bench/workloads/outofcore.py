"""Grid workload: out-of-core sharded training vs the in-RAM baseline.

The benchmark body behind ``benchmarks/bench_outofcore.py``.
``BENCH_7.json`` records the committed numbers; the gate metric is
``throughput_retention``.

Trains the same synthetic Netflix-shape ratings twice — once on in-RAM
CSR/CSC views, once streaming byte-budgeted shards from an on-disk
store — and compares wall time, loss trajectories and peak RSS.  Each
phase runs in its own subprocess because the peak RSS (``VmHWM``, see
:func:`repro.obs.resource.peak_rss_bytes`) is a monotonic per-process
high-water mark: a fresh interpreter per phase is the only way to
attribute a peak to one phase.  A phase child is this module run as
``python -m repro.bench.workloads.outofcore --run-phase ...``.  A store
built in a temporary directory (no ``--store``) is removed when the run
ends, failed or not.

Where the kernel enforces ``RLIMIT_DATA`` (Linux >= 4.7; probed, not
assumed — the limit caps heap plus anonymous mmaps but not file-backed
maps, exactly the split out-of-core training exploits) the sharded
phase is additionally re-run under a hard cap sized to half the in-RAM
footprint and must complete; the in-RAM phase is run under the same cap
to demonstrate it cannot (recorded, and on Linux it dies in the
allocator).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import repro
from repro.bench import grid
from repro.datasets.catalog import NETFLIX

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]

K = 32
LAM = 0.1
ITERATIONS = 2
_PHASE_MARKER = "PHASE_RESULT "
_MODULE = "repro.bench.workloads.outofcore"

#: Probe allocation sizes: limit the data segment to 128 MB, then try to
#: grab 256 MB.  On kernels that enforce RLIMIT_DATA for anonymous maps
#: the allocation raises MemoryError; elsewhere it silently succeeds.
_PROBE = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_DATA, (1 << 27, 1 << 27))\n"
    "try:\n"
    "    b = bytearray(1 << 28)\n"
    "    print('UNENFORCED')\n"
    "except MemoryError:\n"
    "    print('ENFORCED')\n"
)


def rlimit_data_enforced() -> bool:
    """Whether this kernel applies RLIMIT_DATA to anonymous mappings."""
    try:
        out = subprocess.run(
            [sys.executable, "-c", _PROBE],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return out.returncode == 0 and "ENFORCED" in out.stdout


# ----------------------------------------------------------------------
# child: one training phase in a fresh interpreter
# ----------------------------------------------------------------------
def run_phase(ns: argparse.Namespace) -> int:
    if ns.limit_bytes:
        import resource

        resource.setrlimit(resource.RLIMIT_DATA, (ns.limit_bytes, ns.limit_bytes))
    import numpy as np

    from repro.core.als import ALSConfig, train_als
    from repro.obs.resource import peak_rss_bytes
    from repro.sparse.shards import ShardStore

    baseline = peak_rss_bytes() or 0
    store = ShardStore.open(ns.store, shard_bytes=ns.shard_bytes)
    cfg = ALSConfig(k=ns.k, lam=LAM, iterations=ns.iterations, seed=ns.seed)
    t0 = perf_counter()
    if ns.run_phase == "ram":
        ratings = store.rows.to_csr()
        store.release_pages()
    else:
        ratings = store
    build_seconds = perf_counter() - t0
    t0 = perf_counter()
    model = train_als(ratings, cfg)
    train_seconds = perf_counter() - t0
    peak = peak_rss_bytes() or 0
    nnz = store.nnz
    result = {
        "phase": ns.run_phase,
        "build_seconds": build_seconds,
        "train_seconds": train_seconds,
        "ratings_per_sec": nnz * ns.iterations / max(train_seconds, 1e-9),
        "baseline_rss_bytes": baseline,
        "peak_rss_bytes": peak,
        "delta_rss_bytes": peak - baseline,
        "losses": [float(s.loss) for s in model.history],
        "final_rmse": float(model.history[-1].train_rmse),
        "limit_bytes": ns.limit_bytes,
        "x_check": float(np.sum(np.abs(model.X))),  # cheap cross-phase probe
    }
    print(_PHASE_MARKER + json.dumps(result), flush=True)
    return 0


def _child_env() -> dict[str, str]:
    """The parent's environment with the directory holding this ``repro``
    package first on ``PYTHONPATH``, so the child imports the same code."""
    env = dict(os.environ)
    root = str(Path(repro.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, rest]) if rest else root
    return env


def launch_phase(
    phase: str,
    store: str,
    *,
    k: int,
    iterations: int,
    shard_bytes: int,
    seed: int,
    limit_bytes: int = 0,
) -> tuple[int, dict | None]:
    """Run one phase subprocess; returns (exit code, parsed result)."""
    cmd = [
        # The package __init__ imports this module before runpy executes
        # it as __main__; that double import is expected here.
        sys.executable, "-W", f"ignore:'{_MODULE}' found in sys.modules",
        "-m", _MODULE,
        "--run-phase", phase, "--store", store,
        "--k", str(k), "--iterations", str(iterations),
        "--shard-bytes", str(shard_bytes), "--seed", str(seed),
    ]
    if limit_bytes:
        cmd += ["--limit-bytes", str(limit_bytes)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(_PHASE_MARKER):
            result = json.loads(line[len(_PHASE_MARKER):])
    if proc.returncode != 0 and not limit_bytes:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


# ----------------------------------------------------------------------
# parent: build the store once, fan the phases out, compare
# ----------------------------------------------------------------------
def run_benchmark(
    scale: float,
    k: int,
    iterations: int,
    shard_bytes: int,
    seed: int,
    store: str | None = None,
) -> dict:
    """Build the store (at ``store``, else in a temporary directory that
    is removed afterwards, also on failure) and compare the phases."""
    kw = dict(
        scale=scale, k=k, iterations=iterations, shard_bytes=shard_bytes,
        seed=seed,
    )
    if store is not None:
        return _compare(store_dir=store, overwrite=False, **kw)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ooc-") as tmp:
        return _compare(store_dir=str(Path(tmp) / "store"), overwrite=True, **kw)


def _compare(
    scale: float,
    k: int,
    iterations: int,
    shard_bytes: int,
    seed: int,
    store_dir: str,
    overwrite: bool,
) -> dict:
    from repro.datasets.shardio import build_shard_store
    from repro.datasets.synthetic import generate_ratings_chunked

    spec = NETFLIX.scaled(scale)
    print(
        f"out-of-core training benchmark: {spec.abbr} scale={scale:g} "
        f"(m={spec.m}, n={spec.n}, nnz={spec.nnz}), k={k}, "
        f"iterations={iterations}, shard_bytes={shard_bytes}",
        flush=True,
    )
    t0 = perf_counter()
    # The chunk factory streams the generator twice (count pass + scatter
    # pass); the parent never materializes the full rating matrix.
    built = build_shard_store(
        store_dir,
        lambda: generate_ratings_chunked(spec, seed=seed),
        shape=(spec.m, spec.n),
        sorted_within_rows=True,
        overwrite=overwrite,
    )
    build_seconds = perf_counter() - t0
    print(f"  store   : {built.nnz} nnz packed in {build_seconds:.2f} s "
          f"at {store_dir}", flush=True)

    phase_kw = dict(
        k=k, iterations=iterations, shard_bytes=shard_bytes, seed=seed
    )
    code, ram = launch_phase("ram", store_dir, **phase_kw)
    if code != 0 or ram is None:
        raise RuntimeError("in-RAM phase failed")
    print(f"  in-RAM  : {ram['train_seconds']:8.2f} s "
          f"({ram['ratings_per_sec']:,.0f} ratings/s), "
          f"peak RSS delta {ram['delta_rss_bytes'] / 2**20:,.1f} MB", flush=True)
    code, sharded = launch_phase("sharded", store_dir, **phase_kw)
    if code != 0 or sharded is None:
        raise RuntimeError("sharded phase failed")
    print(f"  sharded : {sharded['train_seconds']:8.2f} s "
          f"({sharded['ratings_per_sec']:,.0f} ratings/s), "
          f"peak RSS delta {sharded['delta_rss_bytes'] / 2**20:,.1f} MB",
          flush=True)

    retention = sharded["ratings_per_sec"] / ram["ratings_per_sec"]
    rss_ratio = (
        sharded["delta_rss_bytes"] / ram["delta_rss_bytes"]
        if ram["delta_rss_bytes"] > 0 else float("inf")
    )
    loss_rel = max(
        (
            abs(a - b) / max(1.0, abs(a))
            for a, b in zip(ram["losses"], sharded["losses"])
        ),
        default=float("inf"),
    )
    print(f"  retention {retention:.2f}x  RSS ratio {rss_ratio:.2f}  "
          f"loss parity {loss_rel:.2e}", flush=True)

    # The hard-cap demonstration: sharded must train inside a budget
    # sized to half the in-RAM footprint; in-RAM cannot.
    enforced = rlimit_data_enforced()
    cap_bytes = int(ram["baseline_rss_bytes"] + 0.5 * ram["delta_rss_bytes"])
    capped: dict = {"rlimit_data_enforced": enforced, "cap_bytes": cap_bytes}
    if enforced:
        code_s, res_s = launch_phase(
            "sharded", store_dir, limit_bytes=cap_bytes, **phase_kw
        )
        capped["sharded_exit"] = code_s
        capped["sharded_ok"] = code_s == 0 and res_s is not None
        code_r, _ = launch_phase("ram", store_dir, limit_bytes=cap_bytes, **phase_kw)
        capped["ram_exit"] = code_r
        capped["ram_failed_as_expected"] = code_r != 0
        print(f"  capped  : RLIMIT_DATA={cap_bytes / 2**20:,.1f} MB -> "
              f"sharded exit {code_s}, in-RAM exit {code_r}", flush=True)
    else:
        print("  capped  : RLIMIT_DATA not enforced on this kernel; "
              "relying on the measured RSS deltas", flush=True)

    return {
        "benchmark": "outofcore_training",
        "dataset": spec.abbr,
        "scale": scale,
        "m": spec.m,
        "n": spec.n,
        "nnz": built.nnz,
        "k": k,
        "lam": LAM,
        "iterations": iterations,
        "shard_bytes": shard_bytes,
        "seed": seed,
        "store_build_seconds": build_seconds,
        "ram": ram,
        "sharded": sharded,
        "throughput_retention": retention,
        "rss_delta_ratio": rss_ratio,
        "loss_rel_err": loss_rel,
        "capped": capped,
    }


def resolve(
    quick: bool = True,
    k: int | None = None,
    scale: float | None = None,
    iterations: int | None = None,
    shard_bytes: int | None = None,
    seed: int | None = None,
    store: str | None = None,
) -> dict:
    """Quick: 1/64-scale Netflix in 8 MiB shards; full: 1/8 in 32 MiB."""
    return {
        "scale": scale if scale is not None else (1 / 64 if quick else 1 / 8),
        "k": k if k is not None else K,
        "iterations": iterations if iterations is not None else ITERATIONS,
        "shard_bytes": (
            shard_bytes if shard_bytes is not None
            else (8 << 20) if quick else (32 << 20)
        ),
        "seed": seed if seed is not None else 7,
        "store": store,
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bars: loss parity to 1e-10, >= 70% throughput
    retention, sharded RSS delta < half of in-RAM, and survival under
    the RLIMIT_DATA cap where enforced."""
    failures = []
    if record["loss_rel_err"] > 1e-10:
        failures.append(
            f"loss trajectories disagree: rel err "
            f"{record['loss_rel_err']:.3e} > 1e-10"
        )
    if record["throughput_retention"] < 0.7:
        failures.append(
            f"throughput retention {record['throughput_retention']:.2f} "
            f"is below the required 0.70"
        )
    if not record["rss_delta_ratio"] < 0.5:
        failures.append(
            f"sharded RSS delta is {record['rss_delta_ratio']:.2f}x the "
            f"in-RAM delta (need < 0.5)"
        )
    capped = record["capped"]
    if capped["rlimit_data_enforced"] and not capped.get("sharded_ok"):
        failures.append(
            f"sharded training died under the "
            f"{capped['cap_bytes'] / 2**20:,.1f} MB RLIMIT_DATA cap"
        )
    return failures


grid.register("outofcore", run_cell, check=check_record)


def main(argv: list[str] | None = None) -> int:
    """Phase-child entry point (``launch_phase`` builds the argv)."""
    parser = argparse.ArgumentParser(description="one out-of-core training phase")
    parser.add_argument("--run-phase", required=True, choices=("ram", "sharded"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--iterations", type=int, required=True)
    parser.add_argument("--shard-bytes", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit-bytes", type=int, default=0)
    return run_phase(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
