"""Named counters, gauges and histograms for the real execution path.

The registry is the numeric companion to :mod:`repro.obs.spans`: spans
say *where* the time went, metrics say *how much work* was done there
(``als.sweep.rows``, ``solver.lapack.calls``, ``sparse.nnz_touched``),
which is what turns a hotspot table into an arithmetic-intensity
argument (cf. the paper's roofline discussion).

Two histogram flavors coexist:

* :class:`Histogram` — bucket-free streaming summary
  (count/sum/min/max/mean); merges trivially and is what the
  ``BENCH_*.json`` reports record.
* :class:`QuantileHistogram` — fixed log-bucketed latency sketch with
  bounded memory, mergeable across shards/processes, answering the
  serving question summaries cannot: p50/p95/p99.  The quantile error
  is bounded by the bucket resolution (one geometric bucket width).

Instrumented code calls the module-level helpers (:func:`inc`,
:func:`set_gauge`, :func:`observe`, :func:`observe_quantile`,
:func:`observe_latency`), which are gated on the same enable flag as
spans and early-return when tracing is off.  The registry objects
themselves always work — tests and exporters use them directly.

Every instrument carries its own lock and :meth:`MetricsRegistry.snapshot`
reads all of them in a single pass under the registry lock, so snapshots
taken while ``SweepExecutor`` workers are writing are never torn.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, Sequence

from repro.obs.spans import SpanRecord, is_enabled, set_span_observer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileHistogram",
    "DEFAULT_QUANTILES",
    "MetricsRegistry",
    "get_registry",
    "inc",
    "set_gauge",
    "observe",
    "observe_quantile",
    "observe_latency",
    "snapshot",
    "reset",
]

#: The percentiles every quantile sketch reports by default — the
#: latency triple the serving roadmap (and every SRE dashboard) asks for.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """Monotonically increasing count (calls, rows, bytes...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins value (sizes, configuration, temperatures...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max/mean).

    Deliberately bucket-free: the consumers here want summary rows in a
    metrics JSON, not quantile sketches, and summaries merge trivially.
    Quantiles live in :class:`QuantileHistogram`.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        with self._lock:
            if not self.count:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count,
            }


class QuantileHistogram:
    """Fixed log-bucketed histogram: bounded memory, mergeable, p50/p95/p99.

    Buckets are geometrically spaced — ``buckets_per_decade`` per factor
    of ten between ``lo`` and ``hi`` — plus one underflow and one
    overflow bucket, so the footprint is fixed at construction no matter
    how many samples arrive (the HdrHistogram/Prometheus-native-histogram
    idea, stdlib-only).  A quantile estimate is the geometric midpoint of
    the bucket holding the nearest-rank sample, clamped to the observed
    ``[min, max]``; its relative error is therefore bounded by one bucket
    width, i.e. a factor of :attr:`growth` (≈1.21 at the default 12
    buckets/decade).

    Two sketches with the same layout merge by adding bucket counts,
    which is what lets per-shard or per-process latency distributions
    aggregate without losing the tail.
    """

    __slots__ = (
        "name", "lo", "hi", "buckets_per_decade",
        "count", "total", "min", "max",
        "_counts", "_log_lo", "_inv_log_growth", "_lock",
        "_win_counts", "_win_count", "_win_total", "_win_min", "_win_max",
    )

    #: Default range: 100 ns .. ~28 h, aimed at wall-clock seconds.
    DEFAULT_LO = 1e-7
    DEFAULT_HI = 1e5
    DEFAULT_BUCKETS_PER_DECADE = 12

    def __init__(
        self,
        name: str,
        lo: float | None = None,
        hi: float | None = None,
        buckets_per_decade: int | None = None,
    ):
        lo = self.DEFAULT_LO if lo is None else float(lo)
        hi = self.DEFAULT_HI if hi is None else float(hi)
        bpd = (
            self.DEFAULT_BUCKETS_PER_DECADE
            if buckets_per_decade is None
            else int(buckets_per_decade)
        )
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi for log-spaced buckets")
        if bpd < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.buckets_per_decade = bpd
        n = int(math.ceil(math.log10(hi / lo) * bpd - 1e-9))
        # index 0 = underflow (< lo); 1..n = log buckets; n+1 = overflow.
        self._counts = [0] * (n + 2)
        self._log_lo = math.log(lo)
        self._inv_log_growth = bpd / math.log(10.0)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # Window state: same layout, reset on every window_summary(reset=
        # True) — what lets a /metrics scrape report *per-interval*
        # percentiles instead of lifetime-cumulative ones.
        self._win_counts = [0] * len(self._counts)
        self._win_count = 0
        self._win_total = 0.0
        self._win_min = float("inf")
        self._win_max = float("-inf")
        self._lock = threading.Lock()

    @property
    def growth(self) -> float:
        """Upper/lower edge ratio of one bucket — the resolution bound."""
        return 10.0 ** (1.0 / self.buckets_per_decade)

    def layout(self) -> tuple[float, float, int]:
        return (self.lo, self.hi, self.buckets_per_decade)

    def _bucket_index(self, value: float) -> int:
        if value < self.lo:
            return 0
        if value >= self.hi:
            return len(self._counts) - 1
        i = int((math.log(value) - self._log_lo) * self._inv_log_growth) + 1
        return min(max(i, 1), len(self._counts) - 2)

    def _upper_edge(self, index: int) -> float:
        """Upper bound of bucket ``index`` (underflow → lo, overflow → inf)."""
        if index <= 0:
            return self.lo
        if index >= len(self._counts) - 1:
            return float("inf")
        return self.lo * self.growth ** index

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            i = self._bucket_index(value)
            self._counts[i] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._win_counts[i] += 1
            self._win_count += 1
            self._win_total += value
            if value < self._win_min:
                self._win_min = value
            if value > self._win_max:
                self._win_max = value

    def merge(self, other: "QuantileHistogram") -> None:
        """Fold another sketch of identical layout into this one.

        Merged samples count toward the current window too — a shard's
        distribution folded in between scrapes is interval activity.
        """
        if other.layout() != self.layout():
            raise ValueError(
                f"cannot merge layouts {other.layout()} into {self.layout()}"
            )
        counts, count, total, mn, mx = other._state()
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
                self._win_counts[i] += c
            self.count += count
            self.total += total
            self._win_count += count
            self._win_total += total
            if mn < self.min:
                self.min = mn
            if mx > self.max:
                self.max = mx
            if mn < self._win_min:
                self._win_min = mn
            if mx > self._win_max:
                self._win_max = mx

    def _state(self) -> tuple[list[int], int, float, float, float]:
        with self._lock:
            return (list(self._counts), self.count, self.total, self.min, self.max)

    def _quantile_from(
        self, counts: list[int], count: int, mn: float, mx: float, q: float
    ) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if count == 0:
            return 0.0
        target = max(1, math.ceil(q * count))
        cum = 0
        for i, c in enumerate(counts):
            cum += c
            if cum >= target:
                if i == 0:
                    return mn  # everything here is below lo
                if i == len(counts) - 1:
                    return mx  # everything here is at/above hi
                # Geometric midpoint of bucket i = [lo·g^(i-1), lo·g^i),
                # clamped to the observed range (which the nearest-rank
                # sample also lies in, so the clamp only tightens).
                est = self.lo * self.growth ** (i - 0.5)
                return min(max(est, mn), mx)
        return mx  # unreachable: cum == count >= target by the last bucket

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (0 with no samples)."""
        counts, count, total, mn, mx = self._state()
        return self._quantile_from(counts, count, mn, mx, q)

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., ...}`` from one consistent pass."""
        counts, count, total, mn, mx = self._state()
        return {
            f"p{q * 100:g}": self._quantile_from(counts, count, mn, mx, q)
            for q in qs
        }

    def _summary_from(
        self, counts: list[int], count: int, total: float, mn: float, mx: float
    ) -> dict[str, float]:
        if not count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        out = {
            "count": count,
            "sum": total,
            "min": mn,
            "max": mx,
            "mean": total / count,
        }
        for q in DEFAULT_QUANTILES:
            out[f"p{round(q * 100):d}"] = self._quantile_from(
                counts, count, mn, mx, q
            )
        return out

    def summary(self) -> dict[str, float]:
        counts, count, total, mn, mx = self._state()
        return self._summary_from(counts, count, total, mn, mx)

    def window_summary(self, reset: bool = True) -> dict[str, float]:
        """Summary of the samples observed since the last window reset.

        The delta-since-last-scrape view: a monitoring endpoint calling
        this once per scrape reports *per-interval* p50/p95/p99 instead
        of lifetime-cumulative percentiles that stop moving once the
        sample count dwarfs the interval.  ``reset=True`` (the default)
        starts the next window atomically with the read; ``reset=False``
        peeks without consuming.  Cumulative state is never touched.
        """
        with self._lock:
            counts = list(self._win_counts)
            count = self._win_count
            total = self._win_total
            mn = self._win_min
            mx = self._win_max
            if reset:
                for i in range(len(self._win_counts)):
                    self._win_counts[i] = 0
                self._win_count = 0
                self._win_total = 0.0
                self._win_min = float("inf")
                self._win_max = float("-inf")
        return self._summary_from(counts, count, total, mn, mx)

    def buckets(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_edge, count)`` pairs, ascending by edge."""
        counts, _, _, _, _ = self._state()
        return [
            (self._upper_edge(i), c) for i, c in enumerate(counts) if c
        ]


class MetricsRegistry:
    """Get-or-create store of named instruments, snapshot-able to JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._quantiles: dict[str, QuantileHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            try:
                return self._counters[name]
            except KeyError:
                inst = self._counters[name] = Counter(name)
                return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            try:
                return self._gauges[name]
            except KeyError:
                inst = self._gauges[name] = Gauge(name)
                return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            try:
                return self._histograms[name]
            except KeyError:
                inst = self._histograms[name] = Histogram(name)
                return inst

    def quantile(
        self,
        name: str,
        lo: float | None = None,
        hi: float | None = None,
        buckets_per_decade: int | None = None,
    ) -> QuantileHistogram:
        """Get-or-create a quantile sketch (layout args apply on creation)."""
        with self._lock:
            try:
                return self._quantiles[name]
            except KeyError:
                inst = self._quantiles[name] = QuantileHistogram(
                    name, lo=lo, hi=hi, buckets_per_decade=buckets_per_decade
                )
                return inst

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(
                sorted(
                    {
                        *self._counters,
                        *self._gauges,
                        *self._histograms,
                        *self._quantiles,
                    }
                )
            )

    def snapshot(self) -> dict[str, dict]:
        """A plain-dict view, ready for ``json.dump``.

        One consistent pass: the registry lock is held for the whole
        walk (no instruments appear or vanish mid-snapshot) and every
        instrument is read under its own lock (no torn count/sum pairs).
        """
        with self._lock:
            counters = {}
            for n, c in sorted(self._counters.items()):
                with c._lock:
                    counters[n] = c.value
            gauges = {}
            for n, g in sorted(self._gauges.items()):
                with g._lock:
                    gauges[n] = g.value
            return {
                "counters": counters,
                "gauges": gauges,
                "histograms": {
                    n: h.summary() for n, h in sorted(self._histograms.items())
                },
                "quantiles": {
                    n: q.summary() for n, q in sorted(self._quantiles.items())
                },
            }

    def window_snapshot(self, reset: bool = True) -> dict[str, dict]:
        """Like :meth:`snapshot`, with *windowed* quantile summaries.

        Counters, gauges and plain histograms stay cumulative (their
        Prometheus types expect that — rate() handles the delta); the
        quantile sketches report delta-since-last-window summaries and,
        with ``reset=True``, open a new window.  The long-lived serving
        endpoint scrapes this for per-interval latency percentiles.
        """
        snap = self.snapshot()
        with self._lock:
            sketches = sorted(self._quantiles.items())
        snap["quantiles"] = {
            n: q.window_summary(reset=reset) for n, q in sketches
        }
        return snap

    def quantile_histograms(self) -> dict[str, QuantileHistogram]:
        """A stable-ordered copy of the live quantile sketches."""
        with self._lock:
            return dict(sorted(self._quantiles.items()))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._quantiles.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry the gated helpers write to."""
    return _REGISTRY


def inc(name: str, amount: float = 1.0) -> None:
    """Bump a counter — no-op while instrumentation is disabled."""
    if is_enabled():
        _REGISTRY.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge — no-op while instrumentation is disabled."""
    if is_enabled():
        _REGISTRY.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample — no-op while instrumentation is disabled."""
    if is_enabled():
        _REGISTRY.histogram(name).observe(value)


def observe_quantile(name: str, value: float) -> None:
    """Record into a quantile sketch — no-op while disabled."""
    if is_enabled():
        _REGISTRY.quantile(name).observe(value)


def observe_latency(name: str, seconds: float) -> None:
    """Record a latency sample into both histogram flavors.

    The summary keeps BENCH JSONs small and mergeable; the quantile
    sketch under the same name answers p50/p95/p99.  Gated like every
    other helper.
    """
    if is_enabled():
        _REGISTRY.histogram(name).observe(seconds)
        _REGISTRY.quantile(name).observe(seconds)


def snapshot() -> dict[str, dict]:
    """Snapshot the global registry."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Clear every instrument in the global registry."""
    _REGISTRY.reset()


# -- stage latency wiring ---------------------------------------------------
#
# The S1/S2/S3 kernels already run inside stage-tagged spans (see
# repro.linalg.normal_equations and repro.kernels.fastpath); rather than
# duplicating timers at every call site, a span-end observer on the
# global tracer folds those measured durations into per-stage latency
# distributions.  Only measured host spans count — simulated kernel
# launches carry cat="kernel" and are excluded.

_STAGE_SERIES = {"S1": "stage.s1.seconds", "S2": "stage.s2.seconds",
                 "S3": "stage.s3.seconds"}


def _span_end_observer(record: SpanRecord) -> None:
    if record.cat != "host":
        return
    name = _STAGE_SERIES.get(record.attrs.get("stage"))
    if name is not None:
        _REGISTRY.histogram(name).observe(record.duration)
        _REGISTRY.quantile(name).observe(record.duration)


set_span_observer(_span_end_observer)
