"""Multicore execution of the ALS half-sweep.

The paper's whole premise is mapping ALS onto multi-core hardware; this
package is the host-side analogue of its per-device execution engine: an
nnz-balanced row sharding (the LPT partitioner the OpenMP baseline uses)
driven by a thread pool, with BLAS/LAPACK releasing the GIL inside each
shard's batched GEMMs and factorizations.
"""

from repro.parallel.executor import (
    SweepExecutor,
    configure_workers,
    resolve_workers,
)

__all__ = [
    "SweepExecutor",
    "configure_workers",
    "resolve_workers",
]
