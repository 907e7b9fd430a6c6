"""Host envelope: what the machine is and what it can do at best.

The GEMM and copy probes give each layer a ceiling to report its
achieved rate against (``*.ceiling_frac``).  Both run single-threaded:
the caller sets ``OPENBLAS_NUM_THREADS=1`` before NumPy is imported.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["nproc", "gemm_gflops", "stream_gb_per_s", "envelope"]

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REPRO_WORKERS")

#: Cap on each copy buffer.  The copy should run at ≥4× the last-level
#: cache so it measures memory, but a VM may report the whole socket's
#: cache (300 MB on the 2-core VM this was built on); two buffers of 4×
#: that would crowd the memory other processes on the host share.
STREAM_CAP_BYTES = 256 << 20


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def gemm_gflops(size: int = 1024, repeats: int = 5) -> float:
    """Median float64 matmul rate (2·n³ flops per product)."""
    rng = np.random.default_rng(0)
    a = rng.random((size, size))
    b = rng.random((size, size))
    a @ b  # warm the BLAS
    times = []
    for _ in range(repeats):
        t = perf_counter()
        a @ b
        times.append(perf_counter() - t)
    return 2.0 * size**3 / statistics.median(times) / 1e9


def _llc_bytes() -> int | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level > best[0] or (level == best[0] and size > best[1]):
            best = (level, size)
    return None if best is None else best[1]


def stream_gb_per_s(repeats: int = 5) -> dict:
    """Median array-copy bandwidth (read + write bytes per second)."""
    llc = _llc_bytes()
    want = 4 * llc if llc else 256 << 20
    size = min(want, STREAM_CAP_BYTES)
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in
    times = []
    for _ in range(repeats):
        t = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t)
    return {
        "gb_per_s": 2.0 * src.nbytes / statistics.median(times) / 1e9,
        "llc_bytes": llc,
        "array_bytes": int(src.nbytes),
        "capped": size < want,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy < 1.25 prints only
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def envelope() -> dict:
    """The host record every result file carries."""
    stream = stream_gb_per_s()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "host.gemm_gflops": gemm_gflops(),
        "host.stream_gb_per_s": stream["gb_per_s"],
        "stream": stream,
    }
