"""Exactness and contract tests for the tiled top-N serving engine.

The load-bearing property: for float64 scoring with integer-valued
factors the engine is *bitwise* identical to a full lexsort of the dense
score matrix, for any tile width and user-block size — tiling, the
running threshold, candidate-side exclusion and the streaming merge are
pure reorganizations of the same computation.  (Real-valued factors are
kept out of bitwise assertions on scores: BLAS GEMM may round the same
dot product differently for different operand shapes.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serving.engine import (
    DEFAULT_TILE_BYTES,
    PAD_ITEM,
    TopNEngine,
    TopNResult,
    configure_serving,
    serving_defaults,
    topn_from_scores,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@pytest.fixture(autouse=True)
def _reset_serving_config():
    yield
    configure_serving(None, None, None)


def full_sort_reference(X, Y, users, n, exclude):
    """Dense lexsort oracle: (score desc, id asc), PAD_ITEM past -inf."""
    S = X[users] @ Y.T
    if exclude is not None:
        for pos, user in enumerate(users):
            seen, _ = exclude.row_slice(int(user))
            S[pos, seen] = -np.inf
    B, width = S.shape
    n = min(n, width)
    rows = np.repeat(np.arange(B), width)
    ids = np.tile(np.arange(width), B)
    order = np.lexsort((ids, -S.ravel(), rows)).reshape(B, width)
    take = order[:, :n] - (np.arange(B) * width)[:, None]
    ref_ids = take.astype(np.int64)
    ref_scores = np.take_along_axis(S, take, axis=1)
    ref_ids[~np.isfinite(ref_scores)] = PAD_ITEM
    return ref_ids, ref_scores


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(11)
    m, n_items, k = 220, 350, 12
    # Integer-valued factors: scores are exactly representable and ties
    # are common, so the (score desc, id asc) order is actually exercised.
    X = rng.integers(-3, 4, size=(m, k)).astype(np.float64)
    Y = rng.integers(-3, 4, size=(n_items, k)).astype(np.float64)
    nnz = 5000
    rows = rng.integers(0, m, nnz)
    cols = rng.integers(0, n_items, nnz)
    R = CSRMatrix.from_coo(COOMatrix((m, n_items), rows, cols, np.ones(nnz)))
    return X, Y, R


def tile_bytes_for(width_items: int, block_users: int, itemsize: int = 8) -> int:
    """The budget that yields exactly ``width_items``-wide tiles."""
    return max(1, width_items * block_users * itemsize)


class TestBitwiseParity:
    N = 10

    @pytest.mark.parametrize("width", [1, 7, 350, 350 + 13])
    @pytest.mark.parametrize("user_block", [1, 53, 220])
    def test_matches_full_sort(self, problem, width, user_block):
        X, Y, R = problem
        users = np.arange(X.shape[0])
        ref_ids, ref_scores = full_sort_reference(X, Y, users, self.N, R)
        engine = TopNEngine(
            X, Y,
            tile_bytes=tile_bytes_for(width, min(user_block, users.size)),
            user_block=user_block,
        )
        got = engine.query(users, n=self.N, exclude=R)
        assert np.array_equal(got.items, ref_ids)
        finite = np.isfinite(ref_scores)
        assert np.array_equal(got.scores[finite], ref_scores[finite])
        assert (got.scores[~finite] == -np.inf).all()

    def test_without_exclusion(self, problem):
        X, Y, _ = problem
        users = np.arange(0, X.shape[0], 3)
        ref_ids, ref_scores = full_sort_reference(X, Y, users, self.N, None)
        got = TopNEngine(X, Y, tile_bytes=tile_bytes_for(17, users.size),
                         user_block=users.size).query(users, n=self.N)
        assert np.array_equal(got.items, ref_ids)
        assert np.array_equal(got.scores, ref_scores)

    def test_subset_and_repeated_users(self, problem):
        X, Y, R = problem
        users = np.array([5, 5, 0, 219, 7, 5])
        ref_ids, _ = full_sort_reference(X, Y, users, self.N, R)
        got = TopNEngine(X, Y, tile_bytes=tile_bytes_for(31, users.size),
                         user_block=4).query(users, n=self.N, exclude=R)
        assert np.array_equal(got.items, ref_ids)

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_other_row_widths(self, problem, n):
        X, Y, R = problem
        users = np.arange(X.shape[0])
        ref_ids, _ = full_sort_reference(X, Y, users, n, R)
        got = TopNEngine(X, Y, tile_bytes=tile_bytes_for(64, users.size),
                         user_block=users.size).query(users, n=n, exclude=R)
        assert np.array_equal(got.items, ref_ids)


@st.composite
def topn_cases(draw):
    """Small exact-score problems built to stress the tie logic."""
    m = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 48))
    k = draw(st.integers(1, 3))
    # Factors in {-1, 0, 1}: every score is exact and ties are common.
    X, Y = (
        draw(hnp.arrays(np.int8, shape, elements=st.integers(-1, 1)))
        .astype(np.float64)
        for shape in ((m, k), (n_items, k))
    )
    n = draw(st.integers(1, n_items + 3))
    rows: list[int] = []
    cols: list[int] = []
    for u in range(m):
        profile = draw(st.sampled_from(["empty", "some", "all_but"]))
        if profile == "empty":
            seen: set[int] = set()
        elif profile == "some":
            seen = draw(st.sets(st.integers(0, n_items - 1)))
        else:  # fewer than n unseen items: the row ends in PAD_ITEM
            unseen = draw(st.sets(st.integers(0, n_items - 1),
                                  max_size=min(n, n_items) - 1))
            seen = set(range(n_items)) - unseen
        rows += [u] * len(seen)
        cols += sorted(seen)
    R = CSRMatrix.from_coo(COOMatrix(
        (m, n_items), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), np.ones(len(rows)),
    ))
    exclude = R if draw(st.booleans()) else None
    users = np.array(draw(st.lists(st.integers(0, m - 1), min_size=1,
                                   max_size=12)), dtype=np.int64)
    user_block = draw(st.integers(1, users.size))
    # Half the budgets fit a whole block (one exact pass); the rest
    # stream through the tiles and merges.
    fits = draw(st.booleans())
    width = draw(st.integers(n_items, n_items + 4) if fits
                 else st.integers(1, n_items))
    return X, Y, exclude, users, n, user_block, tile_bytes_for(width, user_block)


class TestFullSortProperty:
    @settings(max_examples=200, deadline=None)
    @given(case=topn_cases())
    def test_engine_and_topn_from_scores_match_full_sort(self, case):
        X, Y, exclude, users, n, user_block, tile_bytes = case
        engine = TopNEngine(X, Y, tile_bytes=tile_bytes, dtype="float64",
                            user_block=user_block)
        single = engine.tile_items(min(user_block, users.size)) >= Y.shape[0]
        event("single pass" if single else "streaming")
        ref_ids, ref_scores = full_sort_reference(X, Y, users, n, exclude)
        finite = np.isfinite(ref_scores)
        got_engine = engine.query(users, n=n, exclude=exclude)
        got_scores = topn_from_scores(
            X[users] @ Y.T, n=n, users=users, exclude=exclude,
            tile_bytes=tile_bytes,
        )
        for got in (got_engine, got_scores):
            assert np.array_equal(got.items, ref_ids)
            assert np.array_equal(got.scores[finite], ref_scores[finite])
            assert (got.scores[~finite] == -np.inf).all()


class TestNonFiniteInput:
    @pytest.mark.parametrize("factor, row, bad", [
        ("X", 7, np.nan), ("Y", 42, np.inf), ("Y", 0, -np.inf),
    ])
    def test_engine_refuses_non_finite_factor(self, problem, factor, row, bad):
        X, Y, _ = problem
        X, Y = X.copy(), Y.copy()
        (X if factor == "X" else Y)[row, 3] = bad
        with pytest.raises(ValueError, match=f"factor {factor}, row {row}"):
            TopNEngine(X, Y)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_float32_overflow_is_non_finite(self, problem):
        X, Y, _ = problem
        X = X.copy()
        X[5, 0] = 1e300  # finite in float64, inf once cast to float32
        TopNEngine(X, Y, dtype="float64")
        with pytest.raises(ValueError, match="factor X, row 5"):
            TopNEngine(X, Y, dtype="float32")

    def test_topn_from_scores_rejects_nan_keeps_neg_inf(self):
        S = np.arange(15, dtype=np.float64).reshape(3, 5)
        S[1, 2] = -np.inf  # the exclusion marker stays legal
        got = topn_from_scores(S, n=5)
        assert got.items[1].tolist() == [4, 3, 1, 0, PAD_ITEM]
        S[2, 4] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            topn_from_scores(S, n=5)


class TestTiesAndEdges:
    def test_all_tied_scores_rank_by_item_id(self):
        """All-ones factors: every item ties, ids must come out ascending."""
        X = np.ones((40, 4))
        Y = np.ones((90, 4))
        engine = TopNEngine(X, Y, tile_bytes=tile_bytes_for(11, 13), user_block=13)
        got = engine.query(np.arange(40), n=7)
        assert np.array_equal(got.items, np.tile(np.arange(7), (40, 1)))

    def test_empty_user_array(self, problem):
        X, Y, R = problem
        got = TopNEngine(X, Y).query(np.array([], dtype=np.int64), n=5, exclude=R)
        assert got.items.shape == (0, 5)
        assert got.scores.shape == (0, 5)
        assert got.lengths.shape == (0,)

    def test_n_larger_than_catalog_clamps(self, problem):
        X, Y, _ = problem
        got = TopNEngine(X, Y).query(np.array([0]), n=10_000)
        assert got.items.shape == (1, Y.shape[0])

    def test_heavy_exclusion_pads_with_sentinel(self):
        """Users with zero or nearly zero unseen items: PAD rows, not junk."""
        rng = np.random.default_rng(3)
        m, n_items = 30, 120
        X = rng.standard_normal((m, 6))
        Y = rng.standard_normal((n_items, 6))
        rows, cols = [], []
        for u in range(m):
            unseen = 0 if u % 3 == 0 else 4  # a third of users saw everything
            seen = rng.choice(n_items, size=n_items - unseen, replace=False)
            rows.extend([u] * seen.size)
            cols.extend(seen.tolist())
        R = CSRMatrix.from_coo(
            COOMatrix((m, n_items), np.array(rows), np.array(cols),
                      np.ones(len(rows)))
        )
        got = TopNEngine(X, Y, tile_bytes=tile_bytes_for(13, m),
                         user_block=m).query(np.arange(m), n=10, exclude=R)
        ref_ids, ref_scores = full_sort_reference(X, Y, np.arange(m), 10, R)
        assert np.array_equal(got.items, ref_ids)
        for u in range(m):
            expect = 0 if u % 3 == 0 else 4
            assert got.lengths[u] == expect
            assert (got.items[u, expect:] == PAD_ITEM).all()
            assert (got.scores[u, expect:] == -np.inf).all()
            assert len(got.row(u)) == expect

    def test_validation_errors(self, problem):
        X, Y, R = problem
        engine = TopNEngine(X, Y)
        with pytest.raises(ValueError):
            engine.query(np.zeros((2, 2), dtype=int), n=3)
        with pytest.raises(ValueError):
            engine.query(np.array([0]), n=0)
        with pytest.raises(IndexError):
            engine.query(np.array([X.shape[0]]), n=3)
        with pytest.raises(ValueError):
            engine.query(np.array([0]), n=3, exclude=CSRMatrix.from_coo(
                COOMatrix((X.shape[0], Y.shape[0] + 1), [0], [0], [1.0])))
        with pytest.raises(ValueError):
            TopNEngine(X, Y[:, :-1])


class TestPrecisionModes:
    def test_f32_agrees_with_f64_on_ml100k_scale(self):
        """Item sets match at ML-100K shape; scores agree to f32 tolerance.

        Scores are compared loosely (float32 rounds), and near-tied
        ranks may swap under rounding — so agreement is on the item
        *sets* per user, allowing the documented rounding slack.
        """
        rng = np.random.default_rng(5)
        m, n_items, k = 943, 1682, 16  # the ML-100K shape
        X = rng.standard_normal((m, k))
        Y = rng.standard_normal((n_items, k))
        users = np.arange(0, m, 2)
        f64 = TopNEngine(X, Y, dtype="float64",
                         tile_bytes=1 << 20).query(users, n=10)
        f32 = TopNEngine(X, Y, dtype="float32",
                         tile_bytes=1 << 20).query(users, n=10)
        same = 0
        for a, b, sa, sb in zip(f64.items, f32.items, f64.scores, f32.scores):
            if set(a.tolist()) == set(b.tolist()):
                same += 1
            np.testing.assert_allclose(sa, sb, rtol=1e-4, atol=1e-4)
        assert same >= 0.99 * users.size

    def test_f32_engine_reports_float64_scores(self, problem):
        X, Y, _ = problem
        got = TopNEngine(X, Y, dtype="float32").query(np.arange(8), n=4)
        assert got.scores.dtype == np.float64

    def test_rejects_unknown_dtype(self, problem):
        X, Y, _ = problem
        with pytest.raises(ValueError):
            TopNEngine(X, Y, dtype="float16")


class TestKnobs:
    def test_tile_items_respects_budget(self, problem):
        X, Y, _ = problem
        engine = TopNEngine(X, Y, tile_bytes=tile_bytes_for(9, 64), user_block=64)
        assert engine.tile_items(64) == 9
        assert engine.tile_items(1) <= Y.shape[0]

    @pytest.mark.parametrize("width", [16, 350])  # 350: one whole-catalog pass
    def test_peak_stays_within_budget_plus_mask(self, problem, width):
        X, Y, R = problem
        budget = tile_bytes_for(width, 55)
        engine = TopNEngine(X, Y, tile_bytes=budget, user_block=55)
        engine.query(np.arange(X.shape[0]), n=10, exclude=R)
        # score buffer within budget; bool mask adds 1 byte per slot
        assert 0 < engine.peak_tile_bytes <= budget + budget // 8

    def test_configure_serving_sets_process_defaults(self, problem):
        X, Y, _ = problem
        configure_serving(tile_bytes=1 << 21, dtype="float32", user_block=77)
        tile, dtype, block = serving_defaults()
        assert (tile, dtype, block) == (1 << 21, "float32", 77)
        engine = TopNEngine(X, Y)
        assert engine.tile_bytes == 1 << 21
        assert engine.dtype_name == "float32"
        assert engine.user_block == 77
        configure_serving(None, None, None)
        assert serving_defaults()[0] == DEFAULT_TILE_BYTES

    def test_env_knobs(self, problem, monkeypatch):
        X, Y, _ = problem
        monkeypatch.setenv("REPRO_SERVE_TILE_BYTES", str(1 << 22))
        monkeypatch.setenv("REPRO_SERVE_DTYPE", "float32")
        monkeypatch.setenv("REPRO_SERVE_USER_BLOCK", "99")
        engine = TopNEngine(X, Y)
        assert engine.tile_bytes == 1 << 22
        assert engine.dtype_name == "float32"
        assert engine.user_block == 99

    def test_auto_consults_autotuner(self, problem, monkeypatch):
        X, Y, _ = problem
        import repro.autotune.serving as auto

        sentinel = auto.ServingDecision(
            tile_bytes=1 << 20, dtype="float32", users_per_sec={},
            n_items=Y.shape[0], k=X.shape[1], n_bucket=512,
        )
        monkeypatch.setattr(auto, "select_serving", lambda n, k: sentinel)
        engine = TopNEngine(X, Y, tile_bytes="auto", dtype="auto")
        assert engine.tile_bytes == 1 << 20
        assert engine.dtype_name == "float32"

    def test_workers_shard_identically(self, problem):
        X, Y, R = problem
        users = np.arange(X.shape[0])
        serial = TopNEngine(X, Y, user_block=32, workers=1).query(
            users, n=10, exclude=R)
        sharded = TopNEngine(X, Y, user_block=32, workers=3).query(
            users, n=10, exclude=R)
        assert np.array_equal(serial.items, sharded.items)
        assert np.array_equal(serial.scores, sharded.scores)


class TestTopNFromScores:
    def test_matches_engine_on_materialized_scores(self, problem):
        X, Y, R = problem
        users = np.arange(60)
        S = X[users] @ Y.T
        got = topn_from_scores(S, n=10, users=users, exclude=R,
                               tile_bytes=tile_bytes_for(23, users.size))
        ref_ids, ref_scores = full_sort_reference(X, Y, users, 10, R)
        assert np.array_equal(got.items, ref_ids)
        finite = np.isfinite(ref_scores)
        assert np.array_equal(got.scores[finite], ref_scores[finite])

    def test_requires_users_for_exclusion(self, problem):
        X, Y, R = problem
        with pytest.raises(ValueError):
            topn_from_scores(np.zeros((2, Y.shape[0])), n=3, exclude=R)


class TestResultContract:
    def test_row_and_lengths(self):
        result = TopNResult(
            items=np.array([[3, 1, PAD_ITEM], [2, 0, 5]]),
            scores=np.array([[2.0, 1.0, -np.inf], [9.0, 8.0, 7.0]]),
        )
        assert result.lengths.tolist() == [2, 3]
        assert result.row(0) == [(3, 2.0), (1, 1.0)]
        assert result.row(1) == [(2, 9.0), (0, 8.0), (5, 7.0)]


class TestExclusionKeyCache:
    def test_attach_prewarms_and_reuses_by_identity(self, problem):
        X, Y, R = problem
        engine = TopNEngine(X, Y)
        engine.attach_exclusion(R)
        keys_a, kd_a = engine._exclusion_keys(R)
        keys_b, kd_b = engine._exclusion_keys(R)
        assert keys_a is keys_b and kd_a is kd_b  # no rebuild per query
        assert not keys_a.flags.writeable

    def test_cache_invalidates_on_new_matrix(self, problem):
        X, Y, R = problem
        engine = TopNEngine(X, Y)
        keys_a, _ = engine._exclusion_keys(R)
        other = R.take_rows(np.arange(R.nrows))  # equal content, new object
        keys_b, _ = engine._exclusion_keys(other)
        assert keys_b is not keys_a
        assert np.array_equal(keys_a, keys_b)
        engine.attach_exclusion(None)
        assert engine._excl_cache is None

    def test_cached_path_matches_oracle_across_queries(self, problem):
        """Steady-state serving: repeated queries reuse the sorted keys
        and stay bitwise-identical to the dense lexsort oracle."""
        X, Y, R = problem
        engine = TopNEngine(X, Y, tile_bytes=tile_bytes_for(29, 64),
                            user_block=64)
        engine.attach_exclusion(R)
        for users in (np.arange(X.shape[0]), np.arange(0, X.shape[0], 7)):
            ref_ids, ref_scores = full_sort_reference(X, Y, users, 10, R)
            got = engine.query(users, n=10, exclude=R)
            assert np.array_equal(got.items, ref_ids)
            finite = np.isfinite(ref_scores)
            assert np.array_equal(got.scores[finite], ref_scores[finite])

    def test_unsorted_column_csr_is_sorted_defensively(self):
        rng = np.random.default_rng(3)
        m, n_items, k = 12, 30, 4
        X = rng.integers(-3, 4, size=(m, k)).astype(np.float64)
        Y = rng.integers(-3, 4, size=(n_items, k)).astype(np.float64)
        # Directly-constructed CSR with descending columns inside a row:
        # legal for CSRMatrix, but the key cache must sort before searching.
        R = CSRMatrix(
            (m, n_items),
            np.ones(3, dtype=np.float32),
            np.array([7, 3, 1]),
            np.concatenate([[0], np.full(m, 3)]),
        )
        engine = TopNEngine(X, Y)
        users = np.arange(m)
        ref_ids, ref_scores = full_sort_reference(X, Y, users, 5, R)
        got = engine.query(users, n=5, exclude=R)
        assert np.array_equal(got.items, ref_ids)
        finite = np.isfinite(ref_scores)
        assert np.array_equal(got.scores[finite], ref_scores[finite])

    def test_int64_keys_when_product_overflows_int32(self):
        rng = np.random.default_rng(4)
        n_items, k = 50_000, 3
        m = 50_000  # nrows * n_items = 2.5e9 > 2**31: int64 path
        users = np.array([0, 1, 49_999])
        X = rng.integers(-2, 3, size=(m, k)).astype(np.float64)
        Y = rng.integers(-2, 3, size=(n_items, k)).astype(np.float64)
        rows = np.repeat(users, 2)
        cols = np.array([5, 11, 0, 49_999, 123, 321])
        R = CSRMatrix.from_coo(COOMatrix(
            (m, n_items), rows, cols, np.ones(rows.size, dtype=np.float32)
        ))
        engine = TopNEngine(X, Y)
        keys, kd = engine._exclusion_keys(R)
        assert kd is np.int64 and keys.dtype == np.int64
        got = engine.query(users, n=4, exclude=R)
        ref_ids, _ = full_sort_reference(X[users], Y, np.arange(3), 4,
                                         R.take_rows(users))
        assert np.array_equal(got.items, ref_ids)
