"""End-to-end profiling runs behind ``repro-als profile``.

Trains a real (NumPy) ALS model on a catalog dataset — scaled down so a
profile run takes seconds, not core-hours — with instrumentation
enabled, and optionally simulates the same-shape run on one of the
paper's devices so the exported trace shows measured host spans and
simulated kernel launches on one timeline.

Kept out of ``repro.obs.__init__`` on purpose: this module imports the
training stack, which itself imports ``repro.obs`` for spans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.clsim.device import DeviceSpec, device_by_name
from repro.clsim.runtime import CommandQueue
from repro.api import _ALGORITHMS, _CONFIGS
from repro.core.als import ALSConfig, ALSModel
from repro.datasets.catalog import DatasetSpec, dataset_by_name
from repro.datasets.synthetic import generate_ratings
from repro.knobs import effective
from repro.obs import export, hotspot
from repro.obs import metrics as obs_metrics
from repro.obs.resource import ResourceSampler
from repro.obs.spans import SpanRecord, capture, span
from repro.solvers.base import SimulatedRun
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["MAX_PROFILE_NNZ", "ProfileReport", "profile_training", "render_report"]

#: Auto-scale ceiling: datasets are shrunk until their training non-zeros
#: fit under this, keeping a 5-iteration profile run in seconds.  (Memory
#: is no longer the binding constraint: the degree-binned assembly caps
#: its scratch at the tile budget regardless of dataset size.)
MAX_PROFILE_NNZ = 150_000


@dataclass(frozen=True)
class ProfileReport:
    """Everything one instrumented training run produced."""

    spec: DatasetSpec  # the (scaled) spec that was actually trained
    scale: float
    algorithm: str
    config: ALSConfig
    model: ALSModel
    records: tuple[SpanRecord, ...]
    metrics: dict
    device: DeviceSpec | None = None
    sim_run: SimulatedRun | None = None
    sim_queue: CommandQueue | None = None

    @property
    def train_seconds(self) -> float:
        """Measured wall-clock of the root training span."""
        return sum(r.duration for r in self.records if r.name == "als.train")

    @property
    def train_minor_faults(self) -> int | None:
        """Minor page faults the root training span took (``None``: unread)."""
        faults = [
            r.attrs["minor_faults"] for r in self.records
            if r.name == "als.train" and "minor_faults" in r.attrs
        ]
        return sum(faults) if faults else None

    def write_trace(self, path: str | os.PathLike) -> None:
        """Merged Perfetto trace: host spans + simulated queue (if any)."""
        queues = (self.sim_queue,) if self.sim_queue is not None else ()
        export.write_trace(path, self.records, queues, meta=self._meta())

    def write_metrics(self, path: str | os.PathLike) -> None:
        export.write_metrics(path, self.metrics, self.records, meta=self._meta())

    def _meta(self) -> dict:
        c = self.config
        knobs = effective(
            tile_nnz=c.tile_nnz, assembly_dtype=c.assembly_dtype, workers=c.workers,
        )
        meta = {
            "dataset": self.spec.abbr,
            "scale": self.scale,
            "algorithm": self.algorithm,
            "k": self.config.k,
            "lam": self.config.lam,
            "iterations": self.config.iterations,
            "knobs": {
                name: {"value": value, "source": source}
                for name, (value, source) in knobs.items()
            },
        }
        if self.algorithm == "implicit":
            meta["alpha"] = self.config.alpha
        if self.device is not None:
            meta["device"] = self.device.name
        return meta


def profile_training(
    dataset: str | DatasetSpec,
    device: str | DeviceSpec | None = None,
    k: int = 10,
    lam: float = 0.1,
    iterations: int = 5,
    scale: float | None = None,
    seed: int = 7,
    algorithm: str = "als",
    workers: int | str | None = None,
    alpha: float = 40.0,
) -> ProfileReport:
    """Run one instrumented training and (optionally) its simulation.

    ``scale=None`` auto-shrinks the dataset spec so its non-zeros stay
    under :data:`MAX_PROFILE_NNZ`; pass ``scale=1.0`` to force the full
    published shape.  The simulation, when a device is given, uses the
    *materialized* (scaled) matrix's degree sequences, so both time
    domains in the trace describe the same problem instance.
    """
    if algorithm not in _ALGORITHMS:
        known = ", ".join(sorted(_ALGORITHMS))
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}")
    full = dataset_by_name(dataset) if isinstance(dataset, str) else dataset
    if scale is None:
        scale = min(1.0, MAX_PROFILE_NNZ / full.nnz)
    spec = full.scaled(scale)
    ratings = generate_ratings(spec, seed=seed)
    extra = {"alpha": alpha} if algorithm == "implicit" else {}
    config = _CONFIGS[algorithm](
        k=k, lam=lam, iterations=iterations, seed=seed,
        workers=workers, **extra,
    )

    obs_metrics.reset()
    with capture() as tracer:
        # The sampler runs only for the profiled window so the
        # proc.rss/cpu gauges in the snapshot describe this training
        # run, not whatever the process did before it.
        with ResourceSampler():
            with span(
                "profile.run", cat="profile", dataset=spec.abbr, scale=scale
            ):
                model = _ALGORITHMS[algorithm](ratings, config)
    records = tuple(tracer.records)
    snapshot = obs_metrics.snapshot()

    device_spec = device_by_name(device) if isinstance(device, str) else device
    sim_run = sim_queue = None
    if device_spec is not None:
        from repro.solvers.portable import PortableALS

        R = CSRMatrix.from_coo(ratings.deduplicate())
        cols = CSCMatrix.from_csr(R).col_lengths()
        solver = PortableALS(device_spec)
        sim_queue = solver.context.create_queue()
        sim_run = solver.simulate(
            R.row_lengths(),
            cols,
            k=k,
            iterations=iterations,
            dataset=spec.abbr,
            queue=sim_queue,
        )
    return ProfileReport(
        spec=spec,
        scale=scale,
        algorithm=algorithm,
        config=config,
        model=model,
        records=records,
        metrics=snapshot,
        device=device_spec,
        sim_run=sim_run,
        sim_queue=sim_queue,
    )


def render_report(report: ProfileReport, top: int = 10) -> str:
    """Terminal rendering: header, hotspot table, top spans, counters."""
    spec = report.spec
    lines = [
        f"profile: {spec.name} ({spec.abbr})  m={spec.m} n={spec.n} nnz={spec.nnz}"
        f"  scale={report.scale:g}",
        f"algorithm={report.algorithm}  k={report.config.k} "
        f"lam={report.config.lam} iterations={report.config.iterations}",
        f"measured training wall-clock: {report.train_seconds:.3f} s",
    ]
    if report.train_minor_faults is not None:
        lines[-1] += f"  minor page faults: {report.train_minor_faults}"
    if report.model.history:
        last = report.model.history[-1]
        if last.train_rmse is not None:
            lines.append(f"final train RMSE: {last.train_rmse:.4f}")
        else:  # implicit: the exact implicit objective
            lines.append(f"final implicit objective: {last.loss:.4f}")
    if report.sim_run is not None:
        lines.append(
            f"simulated on {report.device.name}: {report.sim_run.seconds:.3f} s "
            f"({report.sim_run.solver}, ws={report.sim_run.ws})"
        )
    lines.append("")
    lines.append(hotspot.render_hotspot_table(report.records))
    lines.append("")
    lines.append(hotspot.render_top_spans(report.records, n=top))
    counters = report.metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        lines.extend(f"  {name} = {value:g}" for name, value in counters.items())
    quantiles = report.metrics.get("quantiles", {})
    if quantiles:
        lines.append("")
        lines.append("latency percentiles (log-bucketed sketch):")
        for name in sorted(quantiles):
            q = quantiles[name]
            if not q.get("count"):
                continue
            lines.append(
                f"  {name:28s} n={q['count']:<5d} "
                f"p50={q['p50']:.6f}s p95={q['p95']:.6f}s p99={q['p99']:.6f}s"
            )
    gauges = report.metrics.get("gauges", {})
    rss = gauges.get("proc.peak_rss_bytes") or gauges.get("proc.rss_bytes")
    if rss:
        cpu = gauges.get("proc.cpu_seconds")
        line = f"peak RSS: {rss / 2**20:.1f} MiB"
        if cpu is not None:
            line += f"  cpu time: {cpu:.2f} s"
        lines.append("")
        lines.append(line)
    return "\n".join(lines)
