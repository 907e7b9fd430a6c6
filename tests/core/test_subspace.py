"""Tests for iALS++ subspace block coordinate descent.

The tentpole guarantees: ``block_size == k`` reproduces the historical
full sweep *bitwise* for all three trainers, d < k reaches the full-k
loss at a lower arithmetic cost, and the blocked path is insensitive to
parallelism and to the out-of-core input representation.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Recommender
from repro.cli import main as cli_main
from repro.core.als import ALSConfig, ALSModel, IterationStats, train_als
from repro.core.alswr import train_als_wr
from repro.core.implicit import ImplicitConfig, train_implicit_als
from repro.core.init import init_factors
from repro.core.loss import entry_predictions
from repro.core.subspace import (
    BLOCK_SCHEDULES,
    SubspaceState,
    make_blocks,
    pass_cost,
    resolve_block_size,
    subspace_iteration,
    validate_block_size,
)
from repro.datasets.shardio import build_shard_store
from repro.linalg.normal_equations import GramCache, complement_predictions
from repro.parallel.executor import SweepExecutor
from repro.sparse import CSCMatrix, CSRMatrix, ShardStore

K = 8


@pytest.fixture(scope="module")
def ratings():
    """Non-negative ratings so the same fixture feeds all three trainers."""
    gen = np.random.default_rng(11)
    dense = np.where(
        gen.random((60, 45)) < 0.3,
        gen.integers(1, 6, size=(60, 45)).astype(np.float64),
        0.0,
    )
    return CSRMatrix.from_dense(dense).to_coo()


#: Every trainer × schedule; the paired cases keep the bare trainer id.
_ALGORITHM_SCHEDULES = pytest.mark.parametrize(
    ("algorithm", "schedule"),
    [
        pytest.param(a, s, id=a if s == "paired" else f"{s}-{a}")
        for s in BLOCK_SCHEDULES
        for a in ("als", "als-wr", "implicit")
    ],
)


def _train(algorithm, ratings, **overrides):
    kw = dict(k=K, lam=0.1, iterations=3, seed=3)
    kw.update(overrides)
    if algorithm == "implicit":
        return train_implicit_als(ratings, ImplicitConfig(alpha=10.0, **kw))
    trainer = train_als if algorithm == "als" else train_als_wr
    return trainer(ratings, ALSConfig(**kw))


class TestBlockPlumbing:
    def test_make_blocks_covers_k(self):
        assert make_blocks(8, 3) == ((0, 3), (3, 6), (6, 8))
        assert make_blocks(8, 8) == ((0, 8),)
        with pytest.raises(ValueError):
            make_blocks(8, 16)  # resolve_block_size clamps before this

    def test_validate_block_size(self):
        validate_block_size(None)
        validate_block_size(4)
        with pytest.raises(ValueError):
            validate_block_size(0)
        with pytest.raises(ValueError, match="block_size"):
            validate_block_size("auto")  # no width is measured at run time
        with pytest.raises(ValueError):
            validate_block_size("fast")
        with pytest.raises(ValueError):
            validate_block_size(True)

    def test_resolve_clamps_to_k(self):
        assert resolve_block_size(None, 8) is None
        assert resolve_block_size(16, 8) == 8
        assert resolve_block_size(4, 8) == 4

    def test_pass_cost_smaller_blocks_cheaper_solve(self):
        # Same assembly-side nnz work order, but a d=4 pass solves
        # 2 systems of size 4 instead of 1 of size 8.
        full = pass_cost(8, 8, nnz=1000, rows=100)
        blocked = pass_cost(8, 4, nnz=1000, rows=100)
        assert blocked != full
        assert pass_cost(64, 16, nnz=10**5, rows=10**3) < pass_cost(
            64, 64, nnz=10**5, rows=10**3
        )

    def test_config_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            ALSConfig(k=4, block_size=0)
        with pytest.raises(ValueError):
            ALSConfig(k=4, block_schedule="zigzag")
        with pytest.raises(ValueError):
            ImplicitConfig(k=4, block_size="turbo")
        with pytest.raises(ValueError, match="block_size"):
            ALSConfig(k=4, block_size="auto")
        with pytest.raises(ValueError, match="block_size"):
            Recommender(k=4, block_size="auto")

    @pytest.mark.parametrize("bad", ["auto", "fast"])
    @pytest.mark.parametrize("command", ["train", "recommend", "serve"])
    def test_cli_bad_block_size_exits_2(self, command, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "ML1M", "--block-size", bad])
        assert exc.value.code == 2
        assert "block_size" in capsys.readouterr().err


class TestFullWidthReduction:
    """``block_size == k`` is the historical full sweep, bit for bit."""

    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    @pytest.mark.parametrize("schedule", BLOCK_SCHEDULES)
    def test_dk_bitwise_equal(self, ratings, algorithm, schedule):
        base = _train(algorithm, ratings)
        blocked = _train(
            algorithm, ratings, block_size=K, block_schedule=schedule
        )
        assert np.array_equal(np.asarray(base.X), np.asarray(blocked.X))
        assert np.array_equal(np.asarray(base.Y), np.asarray(blocked.Y))

    @pytest.mark.parametrize("algorithm", ("als", "implicit"))
    def test_dk_loss_history_equal(self, ratings, algorithm):
        base = _train(algorithm, ratings)
        blocked = _train(algorithm, ratings, block_size=K)
        assert base.losses() == blocked.losses()


class TestSubspaceConvergence:
    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    def test_reaches_full_k_loss_at_lower_cost(self, ratings, algorithm):
        iterations = 6
        base = _train(algorithm, ratings, iterations=iterations)
        sub = _train(
            algorithm, ratings, iterations=2 * iterations, block_size=K // 4
        )
        losses = sub.losses()
        target = base.history[-1].loss
        bar = target + abs(target) * 1e-6
        reached = [i for i, loss in enumerate(losses) if loss <= bar]
        assert reached, f"subspace never reached full-k loss {target}"
        # Arithmetic-cost proxy for wall time: the passes spent getting
        # there must undercut the full-k passes.
        nnz, rows = ratings.nnz, 60
        spent = (reached[0] + 1) * pass_cost(K, K // 4, nnz=nnz, rows=rows)
        full = iterations * pass_cost(K, K, nnz=nnz, rows=rows)
        assert spent < full

    @_ALGORITHM_SCHEDULES
    def test_parallel_matches_serial_bitwise(self, ratings, algorithm, schedule):
        kw = dict(block_size=3, block_schedule=schedule)
        serial = _train(algorithm, ratings, **kw)
        threaded = _train(algorithm, ratings, workers=3, **kw)
        assert np.array_equal(np.asarray(serial.X), np.asarray(threaded.X))
        assert np.array_equal(np.asarray(serial.Y), np.asarray(threaded.Y))

    @_ALGORITHM_SCHEDULES
    def test_shard_store_matches_in_ram_bitwise(
        self, ratings, algorithm, schedule, tmp_path
    ):
        build_shard_store(tmp_path / "store", ratings)
        store = ShardStore.open(tmp_path / "store", shard_bytes=1 << 20)
        kw = dict(block_size=3, block_schedule=schedule)
        ram = _train(algorithm, ratings, **kw)
        ooc = _train(algorithm, store, **kw)
        assert np.array_equal(np.asarray(ram.X), np.asarray(ooc.X))
        assert np.array_equal(np.asarray(ram.Y), np.asarray(ooc.Y))


class _CheckingExecutor(SweepExecutor):
    """Checks every strict block's complement against a fresh recompute."""

    def __init__(self, workers, csr):
        super().__init__(workers)
        self.csr = csr  # id(view) -> the view as an in-RAM CSRMatrix
        self.visits = 0

    def half_sweep(self, R, Y, lam, X_prev=None, col_block=None,
                   complement=None, **kw):
        s, e = col_block
        if e - s < Y.shape[1]:
            R_csr = self.csr[id(R)]
            expect = complement_predictions(R_csr, X_prev, Y, s, e)
            _assert_close_dots(complement, expect, R_csr, X_prev, Y)
            self.visits += 1
        return super().half_sweep(
            R, Y, lam, X_prev=X_prev, col_block=col_block,
            complement=complement, **kw,
        )


def _assert_close_dots(got, expect, R, X, Y):
    """Per entry, within 1e-12 of the summed magnitudes of its products."""
    scale = entry_predictions(np.abs(X), R.expanded_rows(), np.abs(Y), R.col_idx)
    assert np.all(np.abs(np.asarray(got) - expect) <= 1e-12 * scale)


def _views(dense, store_dir):
    """``(R_rows, R_cols, csr)`` in RAM, or from a shard store when
    ``store_dir`` is set; ``csr`` maps each view to its in-RAM form."""
    R_rows = CSRMatrix.from_dense(dense)
    R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
    if store_dir is None:
        return R_rows, R_cols, {id(R_rows): R_rows, id(R_cols): R_cols}
    build_shard_store(store_dir, R_rows)
    store = ShardStore.open(store_dir)
    for view in (store.rows, store.cols):
        # Below the planner's floor on purpose: a few rows per shard, so
        # the predictions stream over several entry ranges.
        view.shard_bytes = 64
    return store.rows, store.cols, {
        id(store.rows): R_rows, id(store.cols): R_cols,
    }


_KW = {
    "als": {},
    "als-wr": {"weighted": True},
    "implicit": {"implicit_alpha": 10.0},
}


@st.composite
def _problems(draw):
    m = draw(st.integers(2, 7))
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, 9))
    d = draw(st.integers(1, k - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = gen.random((m, n)) < draw(st.floats(0.2, 0.9))
    mask[draw(st.integers(0, m - 1))] = False  # an empty row
    mask[:, draw(st.integers(0, n - 1))] = False  # an empty column
    dense = np.where(mask, gen.integers(1, 6, size=(m, n)), 0)
    return dense.astype(np.float32), k, d


class TestMaintainedPredictions:
    """The maintained per-rating predictions stay the recomputed ones."""

    @pytest.mark.parametrize("store", (False, True), ids=("csr", "store"))
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("schedule", BLOCK_SCHEDULES)
    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    @settings(max_examples=6, deadline=None)
    @given(problem=_problems())
    # k > min(m, n), d not dividing k, an empty row and column:
    @example(problem=(np.array([[0, 3, 1], [0, 0, 0], [0, 5, 2]], np.float32), 5, 2))
    def test_complement_matches_recompute(
        self, algorithm, schedule, workers, store, problem
    ):
        dense, k, d = problem

        def fit(store_dir, workers):
            R_rows, R_cols, csr = _views(dense, store_dir)
            X, Y = init_factors(*dense.shape, k, seed=1)
            state = SubspaceState()
            with _CheckingExecutor(workers, csr) as ex:
                for _ in range(3):
                    X, Y = subspace_iteration(
                        ex, R_rows, R_cols, X, Y, 0.1, make_blocks(k, d),
                        schedule, _KW[algorithm], state=state,
                    )
            assert ex.visits == 3 * 2 * len(make_blocks(k, d))
            return X, Y

        # Sliced per worker shard or streamed per resident shard, the
        # same vectors train bitwise like the serial in-RAM fit.
        X, Y = fit(None, 1)
        with tempfile.TemporaryDirectory() as tmp:
            Xs, Ys = fit(Path(tmp, "store") if store else None, workers)
        assert np.array_equal(X, Xs) and np.array_equal(Y, Ys)

    @pytest.mark.parametrize("schedule", BLOCK_SCHEDULES)
    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    def test_no_drift_after_30_iterations(self, ratings, algorithm, schedule):
        R_rows = CSRMatrix.from_coo(ratings)
        R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
        X, Y = init_factors(*R_rows.shape, K, seed=3)
        state = SubspaceState()
        with SweepExecutor(1) as ex:
            for _ in range(30):
                X, Y = subspace_iteration(
                    ex, R_rows, R_cols, X, Y, 0.1, make_blocks(K, 3),
                    schedule, _KW[algorithm], state=state,
                )
        rows = R_rows.expanded_rows()
        fresh = entry_predictions(X, rows, Y, R_rows.col_idx)
        _assert_close_dots(state.p, fresh, R_rows, X, Y)
        assert np.array_equal(R_cols.col_idx, rows[state.perm])


class TestBuildingBlocks:
    def test_complement_predictions_matches_dense(self, rng):
        dense = np.where(rng.random((12, 9)) < 0.4, rng.random((12, 9)), 0.0)
        R = CSRMatrix.from_dense(dense)
        X = rng.standard_normal((12, 6))
        Y = rng.standard_normal((9, 6))
        got = complement_predictions(R, X, Y, 2, 4)
        rows = R.expanded_rows()
        expect = np.einsum(
            "ej,ej->e", X[rows][:, [0, 1, 4, 5]], Y[R.col_idx][:, [0, 1, 4, 5]]
        )
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_complement_full_block_is_zero(self, rng):
        dense = np.where(rng.random((6, 5)) < 0.5, rng.random((6, 5)), 0.0)
        R = CSRMatrix.from_dense(dense)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((5, 4))
        assert np.all(complement_predictions(R, X, Y, 0, 4) == 0.0)

    def test_gram_cache_block_update_tracks_fresh_recompute(self, rng):
        F = rng.standard_normal((20, 8))
        cache = GramCache(F)
        F[:, 2:5] = rng.standard_normal((20, 3))
        cache.update_block(F, 2, 5)
        np.testing.assert_allclose(
            cache.matrix, GramCache(F).matrix, rtol=1e-12, atol=1e-12
        )

    def test_gram_cache_full_width_update_is_exact(self, rng):
        F = rng.standard_normal((10, 4))
        cache = GramCache(F)
        F[:] = rng.standard_normal((10, 4))
        cache.update_block(F, 0, 4)
        assert np.array_equal(cache.matrix, GramCache(F).matrix)


class TestElapsedSeconds:
    @pytest.mark.parametrize("algorithm", ("als", "als-wr"))
    def test_monotone_cumulative(self, ratings, algorithm):
        model = _train(algorithm, ratings, iterations=4)
        elapsed = [s.elapsed_seconds for s in model.history]
        assert all(e > 0 for e in elapsed)
        assert elapsed == sorted(elapsed)

    def test_implicit_stats_monotone(self, ratings):
        model = _train("implicit", ratings, iterations=4)
        elapsed = [s.elapsed_seconds for s in model.history]
        assert len(model.history) == 4
        assert all(isinstance(s.loss, float) for s in model.history)
        assert all(s.train_rmse is None for s in model.history)
        assert all(e > 0 for e in elapsed)
        assert elapsed == sorted(elapsed)

    def test_old_checkpoints_default_to_zero(self):
        stats = IterationStats(iteration=0, loss=1.0, train_rmse=0.5)
        assert stats.elapsed_seconds == 0.0

    @pytest.mark.parametrize("algorithm", ("als", "implicit"))
    def test_roundtrips_through_save_load(self, ratings, algorithm, tmp_path):
        from repro.api import Recommender

        rec = Recommender(
            k=4, iterations=3, seed=5, algorithm=algorithm, alpha=10.0
        ).fit(ratings)
        rec.save(tmp_path / "model")
        loaded = Recommender.load(tmp_path / "model")
        saved = [s.elapsed_seconds for s in rec.model.history]
        back = [s.elapsed_seconds for s in loaded.model.history]
        assert back == saved
        assert saved == sorted(saved)


class TestImplicitLossControls:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImplicitConfig(k=4, tol=-1.0)
        with pytest.raises(ValueError):
            ImplicitConfig(k=4, tol=1e-3, track_loss=False)
        ImplicitConfig(k=4, tol=1e-3)  # fine with tracking on

    def test_track_loss_off_skips_history(self, ratings):
        model = _train("implicit", ratings, track_loss=False)
        assert model.history == []
        assert np.all(np.isfinite(model.X))

    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    def test_tol_early_stops(self, ratings, algorithm):
        lax = _train(algorithm, ratings, iterations=30, tol=0.5)
        assert len(lax.history) < 30
        # The tight-tol run keeps going at least as long.
        tight = _train(algorithm, ratings, iterations=30, tol=1e-12)
        assert len(tight.history) >= len(lax.history)
