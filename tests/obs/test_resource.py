"""The stdlib-only resource sampler and its raw readers."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.obs.metrics import MetricsRegistry
from repro.obs.resource import (
    ResourceSampler,
    cpu_seconds,
    minor_faults,
    peak_rss_bytes,
    rss_bytes,
)


class TestReaders:
    def test_cpu_seconds_monotone_nonnegative(self):
        a = cpu_seconds()
        sum(i * i for i in range(200_000))  # burn a little CPU
        b = cpu_seconds()
        assert 0.0 <= a <= b

    @pytest.mark.skipif(sys.platform == "win32", reason="no /proc, no rusage")
    def test_rss_readers_plausible(self):
        rss = rss_bytes()
        peak = peak_rss_bytes()
        # A running CPython interpreter is comfortably above 1 MB and
        # under 1 TB; the peak high-water mark is at least current RSS
        # (modulo page rounding between the two sources).
        if rss is not None:
            assert 1 << 20 < rss < 1 << 40
        if peak is not None:
            assert 1 << 20 < peak < 1 << 40
        if rss is not None and peak is not None:
            assert peak >= rss // 2


    @pytest.mark.skipif(sys.platform == "win32", reason="no rusage")
    def test_minor_faults_count_first_touches(self):
        before = minor_faults()
        # 64 MiB is above glibc's largest mmap threshold, so the block
        # is freshly mapped and every page is touched for the first time
        # (at least 32 faults even if the kernel backs it by 2 MiB pages).
        block = np.ones(8 << 20)
        after = minor_faults()
        assert block[-1] == 1.0
        assert 0 <= before and after - before >= 32

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="VmHWM needs /proc"
    )
    def test_child_reports_its_own_peak(self):
        """A child's peak is its own, not its launcher's.

        ``ru_maxrss`` survives ``exec`` on Linux, so a child launched by
        a larger parent would read the parent's RSS as its peak.  The
        parent holds 64 MB the child never touches, so the child's own
        peak sits at least half of that below the parent's RSS.
        """
        extra = 64 << 20
        ballast = np.ones(extra // 8)  # every page touched
        parent = rss_bytes()
        env = dict(os.environ)
        root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (root, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs.resource import peak_rss_bytes; "
             "print(peak_rss_bytes())"],
            capture_output=True, text=True, env=env, check=True,
        )
        child = int(out.stdout)
        assert ballast.sum() > 0
        assert 0 < child < parent - extra // 2


class TestSampler:
    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0)

    def test_sample_records_into_registry(self):
        reg = MetricsRegistry()
        recorded = ResourceSampler(registry=reg).sample()
        snap = reg.snapshot()
        assert "proc.cpu_seconds" in recorded
        assert snap["gauges"]["proc.cpu_seconds"] == recorded["proc.cpu_seconds"]
        assert snap["counters"]["proc.samples"] == 1
        if "proc.minor_faults" in recorded:  # Unix
            assert snap["gauges"]["proc.minor_faults"] == recorded["proc.minor_faults"]
        if "proc.rss_bytes" in recorded:  # Linux with /proc
            assert snap["histograms"]["proc.rss.sampled_bytes"]["count"] == 1

    def test_context_manager_samples_on_enter_and_exit(self):
        reg = MetricsRegistry()
        with ResourceSampler(interval=10.0, registry=reg) as sampler:
            assert sampler.running
            assert reg.snapshot()["counters"]["proc.samples"] == 1  # start
        assert not sampler.running
        assert reg.snapshot()["counters"]["proc.samples"] == 2  # + stop

    def test_background_thread_keeps_sampling(self):
        reg = MetricsRegistry()
        with ResourceSampler(interval=0.01, registry=reg):
            time.sleep(0.08)
        assert reg.snapshot()["counters"]["proc.samples"] >= 4

    def test_start_is_idempotent_and_stop_without_start_is_noop(self):
        reg = MetricsRegistry()
        sampler = ResourceSampler(interval=10.0, registry=reg)
        sampler.stop()  # never started: no-op, no sample
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "quantiles": {},
        }
        sampler.start()
        try:
            assert sampler.start() is sampler
        finally:
            sampler.stop()
