"""Background RSS / CPU-time sampling during training and serving.

The out-of-core roadmap item claims "train Table I's shapes on a
laptop-class memory budget" — a claim that needs a recorded memory
trajectory, not a guess.  :class:`ResourceSampler` runs a daemon thread
that periodically reads the process's resident set size and CPU time
and records them into the metrics registry:

* ``proc.rss_bytes`` (gauge) — current resident set,
* ``proc.peak_rss_bytes`` (gauge) — the kernel's high-water mark
  (``VmHWM``, else ``ru_maxrss``), which catches spikes between samples,
* ``proc.cpu_seconds`` (gauge) — user+system CPU time,
* ``proc.minor_faults`` (gauge) — minor page faults so far
  (``ru_minflt``): each is a first touch of a fresh page, so the count
  shows how much memory the process keeps mapping anew,
* ``proc.samples`` (counter), and
* ``proc.rss.sampled_bytes`` (summary histogram) — the sampled RSS
  distribution over the run (min/mean/max).

Readings are stdlib-only: ``/proc/self/statm`` and ``/proc/self/status``
on Linux, falling back to ``resource.getrusage`` where ``/proc`` is absent; on platforms with
neither, RSS gauges are simply not emitted.  The sampler writes
directly to its registry (not through the enable-gated helpers) —
starting one is already the explicit opt-in.
"""

from __future__ import annotations

import os
import threading

from repro.obs.metrics import MetricsRegistry, get_registry

try:  # Unix-only stdlib module; Windows runs without peak-RSS readings.
    import resource as _resource
except ImportError:  # pragma: no cover - non-Unix platforms
    _resource = None

__all__ = [
    "ResourceSampler",
    "rss_bytes",
    "peak_rss_bytes",
    "cpu_seconds",
    "minor_faults",
]

_STATM_PATH = "/proc/self/statm"
_STATUS_PATH = "/proc/self/status"
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


def rss_bytes() -> int | None:
    """Current resident set size in bytes (``None`` when unreadable)."""
    try:
        with open(_STATM_PATH, "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process in bytes (``None`` unknown).

    Reads ``VmHWM`` from ``/proc/self/status``.  That high-water mark
    belongs to the address space, which ``exec`` replaces, so a child
    process reports its own peak.  ``ru_maxrss``, the fallback where
    ``/proc`` is absent, survives ``exec`` on Linux: a child launched by
    a larger parent reads the parent's RSS at fork time as its peak.
    Linux reports ``ru_maxrss`` in kilobytes, macOS in bytes.
    """
    try:
        with open(_STATUS_PATH, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    if _resource is None:  # pragma: no cover - non-Unix platforms
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    import sys

    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process."""
    t = os.times()
    return t.user + t.system


def minor_faults() -> int | None:
    """Minor page faults this process has taken (``None`` when unknown)."""
    if _resource is None:  # pragma: no cover - non-Unix platforms
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_minflt)


class ResourceSampler:
    """Daemon thread recording RSS / peak-RSS / CPU gauges at an interval.

    Use as a context manager around a training or serving block, or
    :meth:`start`/:meth:`stop` explicitly.  :meth:`sample` takes one
    reading synchronously (the tests' entry point, and also called once
    on ``start`` and once on ``stop`` so even a shorter-than-interval
    run records its footprint).
    """

    DEFAULT_INTERVAL = 0.05

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        registry: MetricsRegistry | None = None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive seconds")
        self.interval = float(interval)
        self.registry = registry or get_registry()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def sample(self) -> dict[str, float]:
        """Take one reading and record it; returns what was recorded."""
        reg = self.registry
        recorded: dict[str, float] = {}
        rss = rss_bytes()
        if rss is not None:
            reg.gauge("proc.rss_bytes").set(rss)
            reg.histogram("proc.rss.sampled_bytes").observe(rss)
            recorded["proc.rss_bytes"] = float(rss)
        peak = peak_rss_bytes()
        if peak is not None:
            reg.gauge("proc.peak_rss_bytes").set(peak)
            recorded["proc.peak_rss_bytes"] = float(peak)
        cpu = cpu_seconds()
        reg.gauge("proc.cpu_seconds").set(cpu)
        recorded["proc.cpu_seconds"] = cpu
        faults = minor_faults()
        if faults is not None:
            reg.gauge("proc.minor_faults").set(faults)
            recorded["proc.minor_faults"] = float(faults)
        reg.counter("proc.samples").inc()
        return recorded

    def start(self) -> "ResourceSampler":
        if self.running:
            return self
        self._stop.clear()
        self.sample()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.sample()  # closing reading: final CPU time and peak RSS

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
