"""The implicit trainer's loss history is the exact implicit objective.

Every ``history`` entry must equal the brute-force objective over *all*
cells of the rating matrix,

    Σ_all c·(p − x_uᵀy_i)² + λ(‖X‖² + ‖Y‖²),   p = 1, c = 1 + α·r observed,
                                               p = 0, c = 1 elsewhere,

on every path: full sweeps, one full-width block (d = k), strict d < k
blocks under both schedules (which read the maintained predictions) and
the out-of-core :class:`ShardStore` (which streams them by entry range).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.implicit import ImplicitConfig, train_implicit_als
from repro.datasets.shardio import build_shard_store
from repro.sparse import COOMatrix, ShardStore
from repro.sparse.shards import MIN_SHARD_BYTES

K = 6
ITERATIONS = 4
TOL = 1e-10


def _dense(m: int, n: int, density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    mask[1] = False  # an empty row
    mask[:, 2] = False  # an empty column
    return np.where(mask, rng.integers(1, 6, size=(m, n)), 0).astype(np.float32)


def _brute_force(dense: np.ndarray, X, Y, config: ImplicitConfig) -> float:
    observed = dense != 0
    P = observed.astype(np.float64)
    C = 1.0 + config.alpha * dense.astype(np.float64)
    S = np.asarray(X) @ np.asarray(Y).T
    fit = float(np.sum(C * (P - S) ** 2))
    penalty = float(np.sum(np.square(X))) + float(np.sum(np.square(Y)))
    return fit + config.lam * penalty


def _check_every_loss(ratings, dense: np.ndarray, **kw) -> list[float]:
    """Train 1..ITERATIONS iterations; each run's last loss is its
    iteration's history entry and must match the brute force."""
    full = None
    for it in range(1, ITERATIONS + 1):
        config = ImplicitConfig(k=K, lam=0.3, alpha=5.0, iterations=it, **kw)
        model = train_implicit_als(ratings, config)
        want = _brute_force(dense, model.X, model.Y, config)
        got = model.history[-1].loss
        assert abs(got - want) <= TOL * max(1.0, abs(want)), (it, got, want)
        full = model
    losses = full.losses()
    assert len(losses) == ITERATIONS
    return losses


PATHS = pytest.mark.parametrize(
    "kw",
    [
        pytest.param({}, id="full-sweep"),
        pytest.param({"block_size": K}, id="d=k"),
        pytest.param({"block_size": 4}, id="strict-paired"),
        pytest.param({"block_size": 4, "block_schedule": "sweep"}, id="strict-sweep"),
        pytest.param({"block_size": 2, "workers": 2}, id="strict-workers2"),
    ],
)


class TestExactObjective:
    @PATHS
    def test_in_ram_history_is_the_exact_objective(self, kw):
        dense = _dense(30, 20, 0.3, seed=3)
        losses = _check_every_loss(COOMatrix.from_dense(dense), dense, **kw)
        # Exact block minimization of the objective never increases it.
        assert all(b <= a * (1 + 1e-12) for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({}, id="full-sweep"),
            pytest.param({"block_size": 4}, id="strict-paired"),
            pytest.param({"block_size": 4, "block_schedule": "sweep"},
                         id="strict-sweep"),
        ],
    )
    def test_shard_store_history_is_the_exact_objective(self, kw, tmp_path):
        # Large enough for several resident shards at the smallest
        # budget, so the maintained predictions are read by entry range.
        dense = _dense(400, 300, 0.85, seed=4)
        build_shard_store(tmp_path / "store", COOMatrix.from_dense(dense))
        store = ShardStore.open(tmp_path / "store", shard_bytes=MIN_SHARD_BYTES)
        assert len(store.rows.shards()) > 1
        _check_every_loss(store, dense, **kw)

    def test_d_equals_k_history_equals_full_sweep_bitwise(self):
        coo = COOMatrix.from_dense(_dense(30, 20, 0.3, seed=5))
        base = train_implicit_als(coo, ImplicitConfig(k=K, iterations=3))
        dk = train_implicit_als(coo, ImplicitConfig(k=K, iterations=3, block_size=K))
        assert base.losses() == dk.losses()
