"""Command-line interface: regenerate any table/figure of the paper.

Usage::

    repro-als list                 # available experiments
    repro-als fig7                 # reproduce Fig. 7
    repro-als fig7 --metrics m.json  # + machine-readable metrics dump
    repro-als all                  # everything, in paper order
    repro-als tune gpu NTFX        # exhaustive variant search (§III-D)
    repro-als train NTFX --out-of-core --scale 0.1 --save model
                                   # pack a shard store and train the
                                   # blocked out-of-core sweeps on it
    repro-als train /data/store --memmap-factors
                                   # train on a prebuilt shard store with
                                   # .npy-backed factor matrices
    repro-als recommend ML1M --n 10 --tile-bytes 8388608
                                   # train on a synthetic ML1M sample and
                                   # serve top-N through the tiled engine
    repro-als recommend ML1M --algorithm implicit --alpha 40
                                   # implicit-feedback (Hu-Koren) training
                                   # on the same binned/tiled substrate
    repro-als profile ML10M --device gpu --trace t.json --metrics m.json
                                   # instrumented real training run:
                                   # measured S1/S2/S3 hotspot table, top
                                   # spans, and a merged Perfetto trace of
                                   # host spans + simulated kernels
    repro-als perf-gate bench.json # compare fresh benchmark records
                                   # against the committed BENCH trajectory
                                   # (exit 1 on regression)
    repro-als grid run ci-quick --store grid.sqlite
                                   # run an experiment grid into a
                                   # resumable sqlite results store
                                   # (re-invoke after a crash: only the
                                   # cells still open execute)
    repro-als grid status          # per-grid cell counts + error detail
    repro-als grid export --out-dir exported
                                   # render done cells to gate-compatible
                                   # BENCH_grid_*.json + RESULTS.md
    repro-als grid reset-errors    # reopen errored cells for a re-run
    repro-als serve-metrics --metrics-port 9500
                                   # stand-alone Prometheus /metrics +
                                   # /healthz endpoint with the resource
                                   # sampler running
    repro-als serve ML1M --port 9600 --max-batch 32
                                   # long-lived recommendation service:
                                   # micro-batched /recommend with an LRU
                                   # result cache, plus /metrics (append
                                   # ?window=1 for per-interval latency
                                   # percentiles), /healthz and /stats
    repro-als serve model-ckpt/ --port 9600
                                   # serve a saved directory checkpoint
    repro-als recommend ML1M --metrics-port 9500
                                   # any command can expose its live
                                   # registry on an HTTP endpoint

The knob flags ``--tile-nnz``, ``--assembly-dtype``, ``--workers``,
``--tile-bytes``, ``--serve-dtype`` and ``--shard-bytes`` configure the
knobs of :mod:`repro.knobs` (each also has a ``REPRO_*`` environment
variable); a bad value exits 2.  Each
knob has a fixed default; none is measured at run time.  Training can
descend on column subspaces instead of full k-wide rows: ``--block-size
D`` sets the iALS++ block width (a positive integer; a bad value exits
2) and ``--block-schedule {paired,sweep}`` its visit order.
"""

from __future__ import annotations

import argparse
import sys

from repro.autotune.search import exhaustive_search
from repro.bench.experiments import EXPERIMENTS, run_with_metrics
from repro.clsim.device import device_by_name
from repro.core.subspace import validate_block_size
from repro.datasets.catalog import dataset_by_name
from repro.datasets.synthetic import degree_sequences
from repro.kernels.opencl_source import generate_program
from repro.kernels.variants import recommended_variant
from repro.knobs import table as knob_table

__all__ = ["main"]


def _run_experiment(name: str, metrics_path: str | None = None) -> int:
    runner = EXPERIMENTS.get(name)
    if runner is None:
        print(f"unknown experiment {name!r}; try: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if metrics_path is not None:
        result, _ = run_with_metrics(name, metrics_path)
        print(result.render())
        print(f"metrics written to {metrics_path}")
    else:
        print(runner().render())
    return 0


def _run_tune(device_name: str, dataset_name: str, k: int) -> int:
    device = device_by_name(device_name)
    spec = dataset_by_name(dataset_name)
    rows, cols = degree_sequences(spec)
    result = exhaustive_search(device, rows, cols, k=k)
    print(f"exhaustive search on {device} / {spec.abbr} (k={k}):")
    for name, ws, seconds in result.ranking()[:10]:
        print(f"  {name:28s} ws={ws:<4d} {seconds:9.3f} s")
    print(
        f"best: {result.best_variant.name} @ ws={result.best_ws} "
        f"({result.best_seconds:.3f} s, {result.speedup_over_worst():.2f}x over worst)"
    )
    return 0


def _resolve_training_input(
    name_or_dir: str, ns: argparse.Namespace, *, out_of_core: bool
):
    """``(ratings_or_store, label)`` from a dataset name or a store dir.

    A path holding a shard store trains out of core directly; a dataset
    name generates a synthetic sample at ``--scale`` and, with
    ``--out-of-core``, packs it into a shard store first (``--store``
    names the directory, default a fresh temp dir).
    """
    import tempfile

    from repro.datasets.shardio import build_shard_store
    from repro.datasets.synthetic import generate_ratings
    from repro.sparse.shards import ShardStore, is_shard_store

    if is_shard_store(name_or_dir):
        store = ShardStore.open(name_or_dir)
        m, n = store.shape
        return store, f"{name_or_dir} (m={m}, n={n}, nnz={store.nnz})"
    spec = dataset_by_name(name_or_dir)
    scale = ns.scale if ns.scale is not None else min(1.0, 500_000 / spec.nnz)
    spec = spec.scaled(scale)
    ratings = generate_ratings(spec, seed=ns.seed)
    label = f"{spec.abbr} scale={scale:g} (m={spec.m}, n={spec.n}, nnz={ratings.nnz})"
    if not out_of_core:
        return ratings, label
    dest = ns.store or tempfile.mkdtemp(prefix="repro-store-")
    store = build_shard_store(dest, ratings, overwrite=ns.store is None)
    return store, f"{label} -> {dest}"


def _block_size_arg(raw: str) -> int:
    """``--block-size``: an integer width that passes validate_block_size."""
    value = int(raw) if raw.strip().isdigit() else raw
    try:
        validate_block_size(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _block_knobs(ns: argparse.Namespace) -> dict:
    """``--block-size``/``--block-schedule`` as Recommender kwargs."""
    knobs: dict = {}
    if ns.block_size is not None:
        knobs["block_size"] = ns.block_size
    if ns.block_schedule is not None:
        knobs["block_schedule"] = ns.block_schedule
    return knobs


def _run_train(ns: argparse.Namespace) -> int:
    if len(ns.args) != 1:
        print("usage: repro-als train <dataset|store-dir> [--algorithm A]"
              " [--k K] [--iterations I] [--block-size D] [--out-of-core]"
              " [--memmap-factors] [--store DIR] [--save PATH] [--scale S]"
              " [--shard-bytes B]",
              file=sys.stderr)
        return 2
    from time import perf_counter

    from repro.api import Recommender
    from repro.sparse.shards import ShardStore

    try:
        source, label = _resolve_training_input(
            ns.args[0], ns, out_of_core=ns.out_of_core
        )
    except (KeyError, FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        rec = Recommender(
            k=ns.k, iterations=ns.iterations, seed=ns.seed,
            algorithm=ns.algorithm, alpha=ns.alpha, **_block_knobs(ns),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if ns.memmap_factors:
        cfg = rec.config
        rec.config = type(cfg)(**{**_cfg_dict(cfg), "factors": "memmap"})
    mode = "out-of-core" if isinstance(source, ShardStore) else "in-RAM"
    print(f"training {ns.algorithm} on {label} [{mode}"
          f"{', memmap factors' if ns.memmap_factors else ''}]")
    t0 = perf_counter()
    if ns.metrics:
        from repro.obs import metrics as obs_metrics
        from repro.obs.export import metrics_payload
        from repro.obs.spans import capture

        import json
        from pathlib import Path

        obs_metrics.reset()
        with capture() as tracer:
            rec.fit(source)
        payload = metrics_payload(
            obs_metrics.get_registry(),
            tuple(tracer.records),
            meta={"command": "train", "dataset": label, "mode": mode},
        )
        Path(ns.metrics).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"metrics written to {ns.metrics}")
    else:
        rec.fit(source)
    seconds = perf_counter() - t0
    nnz = source.nnz
    print(f"{ns.iterations} iterations in {seconds:.2f} s "
          f"({nnz * ns.iterations / max(seconds, 1e-9):,.0f} ratings/s)")
    history = rec.model.history
    if history:
        last = history[-1]
        if last.train_rmse is not None:
            print(f"final train RMSE: {last.train_rmse:.4f}")
        else:  # implicit: the exact implicit objective
            print(f"final implicit objective: {last.loss:.4f}")
    if ns.save:
        rec.save(ns.save)
        print(f"model saved to {ns.save}")
    return 0


def _cfg_dict(cfg) -> dict:
    from dataclasses import asdict

    return asdict(cfg)


def _run_recommend(ns: argparse.Namespace) -> int:
    if len(ns.args) != 1:
        print("usage: repro-als recommend <dataset> [--n N] [--users U] [--k K]"
              " [--algorithm als|als-wr|implicit] [--alpha A]"
              " [--tile-bytes B] [--serve-dtype D] [--scale S] [--iterations I]",
              file=sys.stderr)
        return 2
    from time import perf_counter

    from repro.api import Recommender
    from repro.datasets.synthetic import generate_ratings
    from repro.obs import metrics as obs_metrics
    from repro.obs.spans import capture

    try:
        spec = dataset_by_name(ns.args[0])
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    scale = ns.scale if ns.scale is not None else min(1.0, 500_000 / spec.nnz)
    spec = spec.scaled(scale)
    ratings = generate_ratings(spec, seed=ns.seed)
    try:
        rec = Recommender(
            k=ns.k, iterations=ns.iterations, seed=ns.seed,
            algorithm=ns.algorithm, alpha=ns.alpha, **_block_knobs(ns),
        ).fit(ratings)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    engine = rec.engine()
    users = list(range(min(ns.users, spec.m)))
    # Serve each user as its own query under instrumentation: every
    # call lands one observation in the serve.topn.seconds sketch, so
    # the tail-latency report below is over real per-query samples.
    with capture():
        t0 = perf_counter()
        results = [rec.recommend_batch([user], n_items=ns.n) for user in users]
        seconds = perf_counter() - t0
    print(
        f"top-{ns.n} on {spec.abbr} scale={scale:g} (m={spec.m}, n={spec.n}), "
        f"k={ns.k}: tile={engine.tile_items()} items "
        f"({engine.tile_bytes} B budget, {engine.dtype_name})"
    )
    for user, result in zip(users, results):
        row = ", ".join(f"{i}:{s:.2f}" for i, s in result.row(0)[: ns.n])
        print(f"  user {user:>6d}: {row}")
    if seconds > 0:
        print(f"{len(users)} users in {seconds * 1e3:.1f} ms "
              f"({len(users) / seconds:,.0f} users/s, "
              f"peak tile {engine.peak_tile_bytes} B)")
    lat = obs_metrics.get_registry().quantile("serve.topn.seconds").summary()
    if lat["count"]:
        print(
            f"serve.topn latency over {lat['count']} queries: "
            f"p50={lat['p50'] * 1e3:.3f} ms  p95={lat['p95'] * 1e3:.3f} ms  "
            f"p99={lat['p99'] * 1e3:.3f} ms  max={lat['max'] * 1e3:.3f} ms"
        )
    return 0


def _run_profile(ns: argparse.Namespace) -> int:
    if len(ns.args) != 1:
        print("usage: repro-als profile <dataset> [--device D] [--trace T.json]"
              " [--metrics M.json] [--scale S] [--iterations N]", file=sys.stderr)
        return 2
    from repro.obs.profiler import profile_training, render_report

    try:
        report = profile_training(
            ns.args[0],
            device=ns.device,
            k=ns.k,
            iterations=ns.iterations,
            scale=ns.scale,
            seed=ns.seed,
            algorithm=ns.algorithm,
            workers=ns.workers,
            alpha=ns.alpha,
        )
    except (KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_report(report, top=ns.top))
    if ns.trace:
        report.write_trace(ns.trace)
        print(f"\ntrace written to {ns.trace} (open at https://ui.perfetto.dev)")
    if ns.metrics:
        report.write_metrics(ns.metrics)
        print(f"metrics written to {ns.metrics}")
    return 0


def _run_perf_gate(ns: argparse.Namespace) -> int:
    if not ns.args:
        print("usage: repro-als perf-gate <record.json> [...] [--baseline-dir D]"
              " [--tolerance T] [--host-slack S] [--strict]", file=sys.stderr)
        return 2
    from repro.obs.gate import render_checks, run_gate

    checks, ok = run_gate(
        ns.args,
        root=ns.baseline_dir,
        tolerance=ns.tolerance,
        host_slack=ns.host_slack,
        strict=ns.strict,
    )
    print(render_checks(checks))
    return 0 if ok else 1


def _run_grid(ns: argparse.Namespace) -> int:
    """The experiment-grid harness: run/status/export/reset-errors."""
    from repro.bench.grid import (
        GridError,
        export_markdown,
        export_records,
        load_config,
        render_status,
        run_grid,
    )
    from repro.bench.store import ResultsStore

    usage = (
        "usage: repro-als grid run [CONFIG] | status [GRID] | "
        "export [GRID] | reset-errors [GRID]  "
        "[--store grid.sqlite] [--max-cells N] [--out-dir DIR] [--markdown]"
    )
    if not ns.args:
        print(usage, file=sys.stderr)
        return 2
    action, rest = ns.args[0], ns.args[1:]
    store_path = ns.store or "grid.sqlite"

    if action == "run":
        try:
            config = load_config(rest[0] if rest else "ci-quick")
            with ResultsStore(store_path) as store:
                counts = run_grid(store, config, max_cells=ns.max_cells)
        except GridError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        # Open cells are fine under --max-cells (resume later); errored
        # cells fail the run so CI sees missed bars.
        return 1 if counts.get("error", 0) else 0

    if action == "status":
        which = rest[0] if rest else None
        with ResultsStore(store_path) as store:
            cells = store.cells(which)
            by_grid: dict[str, dict[str, int]] = {}
            for cell in cells:
                counts = by_grid.setdefault(cell.grid, {})
                counts[cell.status] = counts.get(cell.status, 0) + 1
            if not by_grid:
                print(f"no cells in {store_path}"
                      + (f" for grid {which!r}" if which else ""))
                return 0
            for name in sorted(by_grid):
                print(f"{name}: {render_status(by_grid[name])}")
            for cell in cells:
                if cell.status == "error" and cell.error:
                    first = cell.error.strip().splitlines()[0]
                    print(f"  [{cell.grid}] cell {cell.id} {cell.benchmark}: "
                          f"{first}")
        return 0

    if action == "export":
        which = rest[0] if rest else None
        out_dir = ns.out_dir or "grid-export"
        from pathlib import Path

        with ResultsStore(store_path) as store:
            written = export_records(store, out_dir, which)
            markdown = export_markdown(store, which)
        md_path = Path(out_dir) / "RESULTS.md"
        md_path.write_text(markdown)
        for path in written + [md_path]:
            print(f"wrote {path}")
        if ns.markdown:
            print()
            print(markdown, end="")
        return 0

    if action == "reset-errors":
        which = rest[0] if rest else None
        with ResultsStore(store_path) as store:
            reopened = store.reset_errors(which)
        print(f"reopened {reopened} errored cell(s)")
        return 0

    print(usage, file=sys.stderr)
    return 2


def _run_serve_metrics(ns: argparse.Namespace) -> int:
    """Stand-alone metrics endpoint: scrape target + resource gauges.

    Mostly a smoke/demo command — long-running commands expose the same
    endpoint in-process via ``--metrics-port``.
    """
    import time

    from repro.obs.endpoint import MetricsEndpoint
    from repro.obs.resource import ResourceSampler
    from repro.obs.spans import enable

    enable()  # gauge/counter helpers are no-ops otherwise
    port = ns.metrics_port if ns.metrics_port is not None else 0
    with MetricsEndpoint(port=port) as endpoint, ResourceSampler():
        print(f"serving {endpoint.url('/metrics')} and "
              f"{endpoint.url('/healthz')} (Ctrl-C to stop)", flush=True)
        try:
            if ns.duration is not None:
                time.sleep(ns.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
    return 0


def _run_serve(ns: argparse.Namespace) -> int:
    """Long-lived recommendation service over a dataset or checkpoint.

    Trains a synthetic sample (dataset name) or loads a saved model
    (checkpoint path), then serves ``/recommend`` through the
    micro-batching :class:`~repro.serving.service.RecommendService`
    with ``/metrics`` (windowed percentiles via ``?window=1``),
    ``/healthz`` and ``/stats`` mounted on the same port.
    """
    if len(ns.args) != 1:
        print("usage: repro-als serve <dataset|checkpoint> [--port P]"
              " [--max-batch B] [--cache-size N]"
              " [--serve-workers W] [--duration S] [--algorithm A] [--k K]"
              " [--iterations I] [--scale S] [--n N]", file=sys.stderr)
        return 2
    import time
    from pathlib import Path

    from repro.api import Recommender
    from repro.obs.resource import ResourceSampler
    from repro.obs.spans import enable
    from repro.serving.service import RecommendService, ServiceEndpoint

    source = ns.args[0]
    if Path(source).is_dir() or source.endswith(".npz"):
        try:
            rec = Recommender.load(source)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        label = f"checkpoint {source}"
    else:
        try:
            spec = dataset_by_name(source)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        scale = ns.scale if ns.scale is not None else min(1.0, 500_000 / spec.nnz)
        spec = spec.scaled(scale)
        from repro.datasets.synthetic import generate_ratings

        try:
            rec = Recommender(
                k=ns.k, iterations=ns.iterations, seed=ns.seed,
                algorithm=ns.algorithm, alpha=ns.alpha, **_block_knobs(ns),
            ).fit(generate_ratings(spec, seed=ns.seed))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        label = f"{spec.abbr} scale={scale:g} (m={spec.m}, n={spec.n})"
    enable()  # service counters/sketches and /metrics need the registry live
    service = RecommendService(
        rec, max_batch=ns.max_batch, cache_size=ns.cache_size,
        workers=ns.serve_workers,
    )
    port = ns.port if ns.port is not None else 0
    with service, ResourceSampler(), ServiceEndpoint(
        service, port=port, default_n=ns.n
    ) as endpoint:
        print(f"serving {label} on {endpoint.url('/recommend')} "
              f"(max_batch={ns.max_batch}, cache={ns.cache_size}, "
              f"workers={ns.serve_workers}); /metrics, /healthz and /stats "
              f"mounted (Ctrl-C to stop)", flush=True)
        try:
            if ns.duration is not None:
                time.sleep(ns.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
    stats = service.stats.snapshot()
    print(f"served {stats['requests']:.0f} requests in "
          f"{stats['batches']:.0f} batches "
          f"(mean batch {stats['mean_batch_size']:.1f}, "
          f"{stats['cache_hits']:.0f} cache hits)")
    return 0


def _parser() -> argparse.ArgumentParser:
    """The CLI's parser; each knob flag's dest is its knob's name."""
    parser = argparse.ArgumentParser(
        prog="repro-als",
        description="Reproduce the IPDPSW'17 portable-ALS evaluation.",
        # No prefix matching: a retired flag such as --assembly must not
        # resolve to --assembly-dtype.
        allow_abbrev=False,
    )
    parser.add_argument(
        "command",
        help="experiment id (table1, fig1, fig6..fig10, ksweep), 'all', 'list', "
        "'summary', 'tune', 'train', 'recommend', 'emit-cl', "
        "'profile', 'perf-gate', 'grid', 'serve-metrics' or 'serve'",
    )
    parser.add_argument(
        "args", nargs="*",
        help="for tune: <device> <dataset>; for profile/recommend: "
        "<dataset>; for train: <dataset> or a shard-store directory; for "
        "perf-gate: benchmark record JSON files; for grid: "
        "run|status|export|reset-errors plus an optional config "
        "(builtin name or JSON path) or grid name",
    )
    parser.add_argument("--k", type=int, default=10, help="latent factor (default 10)")
    parser.add_argument(
        "--device", default=None, help="profile: also simulate on this device (cpu/gpu/mic)"
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="profile: write the merged Perfetto/Chrome trace JSON here",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the run's metrics JSON here (profile and experiments)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="profile: dataset scale in (0,1]; default auto-shrinks to a fast run",
    )
    parser.add_argument(
        "--iterations", type=int, default=5, help="profile: ALS iterations (default 5)"
    )
    parser.add_argument(
        "--algorithm", default="als", choices=("als", "als-wr", "implicit"),
        help="profile/recommend: trainer (default als; 'implicit' = "
        "confidence-weighted implicit feedback)",
    )
    parser.add_argument(
        "--alpha", type=float, default=40.0,
        help="implicit: confidence slope c = 1 + alpha*r (default 40)",
    )
    parser.add_argument("--seed", type=int, default=7, help="profile: RNG seed")
    parser.add_argument(
        "--top", type=int, default=10, help="profile: top-N spans to print (default 10)"
    )
    parser.add_argument(
        "--tile-nnz", default=None, metavar="N",
        help="assembly tile budget: max non-zeros gathered per tile",
    )
    parser.add_argument(
        "--assembly-dtype", default=None, choices=("float32", "float64"),
        help="assembly compute precision (accumulation stays float64)",
    )
    parser.add_argument(
        "--workers", default=None, metavar="N",
        help="half-sweep parallelism: 'auto' = one worker per core, or a "
        "thread count (default: serial)",
    )
    parser.add_argument(
        "--block-size", type=_block_size_arg, default=None, metavar="D",
        help="train/recommend/serve: iALS++ subspace block width — a "
        "positive integer d < k descends on d-column blocks (default: "
        "full k-wide sweeps)",
    )
    parser.add_argument(
        "--block-schedule", default=None, choices=("paired", "sweep"),
        help="train/recommend: subspace visit order — 'paired' interleaves "
        "user/item updates per block (iALS++), 'sweep' finishes all user "
        "blocks first (default: paired)",
    )
    parser.add_argument(
        "--n", type=int, default=10,
        help="recommend: recommendations per user (default 10)",
    )
    parser.add_argument(
        "--users", type=int, default=5,
        help="recommend: how many users to print (default 5)",
    )
    parser.add_argument(
        "--tile-bytes", dest="serve_tile_bytes", default=None, metavar="B",
        help="serving tile budget: bytes of score buffer per user block "
        "(default 8 MB)",
    )
    parser.add_argument(
        "--serve-dtype", default=None, choices=("float32", "float64"),
        help="serving score precision (default: float64)",
    )
    parser.add_argument(
        "--shard-bytes", default=None, metavar="B",
        help="out-of-core shard byte budget per resident CSR shard "
        "(default 256 MB; REPRO_SHARD_BYTES)",
    )
    parser.add_argument(
        "--out-of-core", action="store_true",
        help="train: pack the dataset into a shard store and run the "
        "blocked out-of-core sweeps",
    )
    parser.add_argument(
        "--memmap-factors", action="store_true",
        help="train: back the factor matrices with .npy memory maps "
        "instead of heap arrays",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="train: shard-store directory to build "
        "(default: a fresh temp dir); grid: sqlite results-store path "
        "(default: grid.sqlite)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="grid run: stop after N cells (the rest stay open; re-invoke "
        "to continue)",
    )
    parser.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="grid export: directory for BENCH_grid_*.json + RESULTS.md "
        "(default: grid-export)",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="grid export: also print the markdown results tables",
    )
    parser.add_argument(
        "--save", default=None, metavar="PATH",
        help="train: persist the model here (directory checkpoint; a "
        ".npz suffix selects the legacy envelope)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="expose a Prometheus /metrics + /healthz HTTP endpoint on this "
        "port for the duration of the command (0 = ephemeral)",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve/serve-metrics: stop after this many seconds (default: "
        "run until Ctrl-C)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="serve: HTTP port for the recommendation service "
        "(default 0 = ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32, metavar="B",
        help="serve: max requests coalesced into one engine query "
        "(default 32; 1 disables micro-batching)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="serve: LRU result-cache entries (default 4096; 0 disables)",
    )
    parser.add_argument(
        "--serve-workers", type=int, default=1, metavar="W",
        help="serve: service worker threads draining the request queue "
        "(default 1)",
    )
    parser.add_argument(
        "--baseline-dir", default=".", metavar="DIR",
        help="perf-gate: directory holding the committed BENCH_*.json "
        "trajectory (default: .)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="perf-gate: allowed fractional regression on a same-host "
        "comparison (default 0.2)",
    )
    parser.add_argument(
        "--host-slack", type=float, default=2.0,
        help="perf-gate: tolerance multiplier when the baseline came from "
        "a different host (default 2.0)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="perf-gate: fail records with no comparable baseline instead "
        "of skipping them",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    for knob in knob_table():
        value = getattr(ns, knob.name, None)
        if value is not None:
            try:
                knob.configure(value)
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2

    if ns.command == "serve-metrics":
        return _run_serve_metrics(ns)
    if ns.metrics_port is not None:
        # Any other command can expose its live registry while it runs:
        # scrape-able from outside for however long the work takes.
        from repro.obs.endpoint import MetricsEndpoint
        from repro.obs.resource import ResourceSampler
        from repro.obs.spans import enable

        enable()
        with MetricsEndpoint(port=ns.metrics_port) as endpoint, ResourceSampler():
            print(f"metrics endpoint: {endpoint.url('/metrics')}", flush=True)
            return _dispatch(ns)
    return _dispatch(ns)


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "summary":
        from repro.bench.summary import render_scorecard

        print(render_scorecard())
        return 0
    if ns.command == "list":
        print("\n".join(EXPERIMENTS))
        return 0
    if ns.command == "all":
        for name in EXPERIMENTS:
            print(f"\n===== {name} =====")
            _run_experiment(name)
        return 0
    if ns.command == "emit-cl":
        if len(ns.args) != 1:
            print("usage: repro-als emit-cl <device>", file=sys.stderr)
            return 2
        device = device_by_name(ns.args[0])
        variant = recommended_variant(device)
        print(generate_program(variant.flags, k=ns.k))
        return 0
    if ns.command == "tune":
        if len(ns.args) != 2:
            print("usage: repro-als tune <device> <dataset>", file=sys.stderr)
            return 2
        return _run_tune(ns.args[0], ns.args[1], ns.k)
    if ns.command == "train":
        return _run_train(ns)
    if ns.command == "recommend":
        return _run_recommend(ns)
    if ns.command == "profile":
        return _run_profile(ns)
    if ns.command == "perf-gate":
        return _run_perf_gate(ns)
    if ns.command == "grid":
        return _run_grid(ns)
    if ns.command == "serve":
        return _run_serve(ns)
    return _run_experiment(ns.command, metrics_path=ns.metrics)


def _entry() -> int:
    """Console-script entry: exit quietly when the pipe closes (| head)."""
    import os

    try:
        return main()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(_entry())
