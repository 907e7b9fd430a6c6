"""Grid-registered benchmark workloads.

Importing this package registers every bundled workload with
:mod:`repro.bench.grid`:

* ``assembly`` — S1+S2 normal-equations assembly, binned vs scatter
  (:mod:`repro.bench.workloads.assembly`);
* ``solve`` — S3 batched solvers and the parallel half-sweep
  (:mod:`repro.bench.workloads.solve`);
* ``topn`` — tiled top-N serving vs the dense batch path
  (:mod:`repro.bench.workloads.topn`);
* ``implicit`` — implicit-feedback half-sweep, binned vs scatter
  (:mod:`repro.bench.workloads.implicit`);
* ``serving`` — the long-lived RecommendService load test
  (:mod:`repro.bench.workloads.serving`);
* ``outofcore`` — out-of-core sharded training vs in-RAM, one
  subprocess per phase (:mod:`repro.bench.workloads.outofcore`);
* ``convergence`` — iALS++ subspace blocks vs full-k sweeps
  (:mod:`repro.bench.workloads.convergence`).

Every workload takes ``quick``/``check`` plus per-benchmark overrides
and returns the same record dict its ``benchmarks/bench_*.py`` wrapper
writes, so grid cells and standalone runs land identical evidence.
"""

from repro.bench.workloads import (  # noqa: F401  (self-registering)
    assembly,
    convergence,
    implicit,
    outofcore,
    serving,
    solve,
    topn,
)
