"""The binned assembly's cached lane plan against the scatter reference.

Every degree bin's padded gather lanes are built once per matrix
(:meth:`CSRMatrix.lane_plan`) and read by every later assembly.  These
tests hold the planned gather to ``scatter_normal_equations`` — weighted
and unweighted, and through ``binned_solve_groups``' dual and primal
groups — on shapes with empty rows, one-entry rows, exact-degree bins
(``growth=1``), tile budgets below the longest row (the segmented path)
and column blocks whose width does not divide ``k``; and they check the
plan itself: its layout, its footprint, that it is read-only and that
it is built once per matrix, executor shards included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sparse.csr as csr_mod
from repro.linalg.normal_equations import (
    DEFAULT_BIN_GROWTH,
    binned_normal_equations,
    binned_solve_groups,
    scatter_normal_equations,
)
from repro.parallel.executor import SweepExecutor
from repro.sparse import CSRMatrix

TOL = 1e-9


@st.composite
def problems(draw):
    """A rating matrix, a column block of a k-wide basis, and a budget.

    Row degrees mix 0 (empty rows), 1 and arbitrary values; the basis
    block ``[start, stop)`` often has a width that does not divide
    ``k``; the tile budget may fall below the longest row.
    """
    k = draw(st.integers(1, 9))
    start = draw(st.integers(0, k - 1))
    stop = draw(st.integers(start + 1, k))
    m = draw(st.integers(1, 14))
    n = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    degrees = [
        min(n, draw(st.sampled_from([0, 1]) | st.integers(0, n))) for _ in range(m)
    ]
    dense = np.zeros((m, n), dtype=np.float32)
    for u, deg in enumerate(degrees):
        cols = rng.choice(n, size=deg, replace=False)
        dense[u, cols] = rng.integers(1, 6, size=deg)
    R = CSRMatrix.from_dense(dense)
    longest = max(degrees)
    tile = draw(
        st.sampled_from([None, 1, 2, max(1, longest - 1), max(1, longest // 2)])
    )
    Y = rng.standard_normal((n, k))[:, start:stop]
    return dict(
        R=R,
        Y=Y,
        tile_nnz=tile,
        growth=draw(st.sampled_from([1.0, DEFAULT_BIN_GROWTH, 2.0])),
        weight=rng.random(R.nnz) * 4.0,
        rhs=rng.standard_normal(R.nnz),
    )


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL)


class TestPlannedGatherMatchesScatter:
    @settings(max_examples=60, deadline=None)
    @given(p=problems())
    def test_unweighted(self, p):
        A, b = binned_normal_equations(
            p["R"], p["Y"], 0.3, tile_nnz=p["tile_nnz"], growth=p["growth"]
        )
        A_ref, b_ref = scatter_normal_equations(p["R"], p["Y"], 0.3)
        _close(A, A_ref)
        _close(b, b_ref)

    @settings(max_examples=60, deadline=None)
    @given(p=problems())
    def test_weighted(self, p):
        kw = dict(nnz_weight=p["weight"], rhs_nnz_value=p["rhs"])
        A, b = binned_normal_equations(
            p["R"], p["Y"], 0.3, tile_nnz=p["tile_nnz"], growth=p["growth"], **kw
        )
        A_ref, b_ref = scatter_normal_equations(p["R"], p["Y"], 0.3, **kw)
        _close(A, A_ref)
        _close(b, b_ref)

    @settings(max_examples=60, deadline=None)
    @given(p=problems())
    def test_solve_groups_dual_and_primal(self, p):
        """Every group's systems solve to the rows' primal solutions."""
        R, Y = p["R"], p["Y"]
        ridge = 0.5
        groups = binned_solve_groups(
            R, Y, ridge, tile_nnz=p["tile_nnz"], rhs_nnz_value=p["rhs"]
        )
        A_ref, b_ref = scatter_normal_equations(
            R, Y, ridge, rhs_nnz_value=p["rhs"]
        )
        covered = []
        for g in groups:
            if g.form == "primal":
                _close(g.A, A_ref[g.rows])
                _close(g.b, b_ref[g.rows])
            X = g.factors(np.linalg.solve(g.A, g.b[..., None])[..., 0])
            _close(X, np.linalg.solve(A_ref[g.rows], b_ref[g.rows][..., None])[..., 0])
            covered.append(g.rows)
        occupied = np.nonzero(R.row_lengths())[0]
        got = np.sort(np.concatenate(covered)) if covered else np.array([], int)
        assert np.array_equal(got, occupied)


class TestLanePlan:
    @pytest.fixture
    def R(self):
        rng = np.random.default_rng(5)
        dense = np.where(rng.random((40, 30)) < 0.3, 3.0, 0.0).astype(np.float32)
        dense[4] = 0.0  # an empty row
        dense[9] = 0.0
        dense[9, 2] = 1.0  # a one-entry row
        dense[0] = 2.0  # a full row
        return CSRMatrix.from_dense(dense)

    def test_lanes_hold_entries_columns_and_sentinels(self, R):
        plan = R.lane_plan()
        assert [lanes.bin for lanes in plan] == list(R.degree_bins())
        for lanes in plan:
            b = lanes.bin
            assert lanes.entries.shape == lanes.cols.shape == (b.rows.size, b.width)
            for r, (start, length) in enumerate(zip(b.starts, b.lengths)):
                real = np.arange(start, start + length)
                assert np.array_equal(lanes.entries[r, :length], real)
                assert np.array_equal(lanes.cols[r, :length], R.col_idx[real])
                assert np.all(lanes.entries[r, length:] == R.nnz)
                assert np.all(lanes.cols[r, length:] == R.ncols)

    def test_int32_footprint_at_most_8_bytes_per_lane(self, R):
        plan = R.lane_plan()
        lanes_total = sum(lanes.entries.size for lanes in plan)
        assert all(lanes.entries.dtype == np.int32 for lanes in plan)
        assert all(lanes.cols.dtype == np.int32 for lanes in plan)
        assert sum(lanes.nbytes for lanes in plan) <= 8 * lanes_total

    def test_cached_and_read_only(self, R):
        plan = R.lane_plan()
        assert R.lane_plan() is plan
        assert R.lane_plan(1.0) is not plan
        for lanes in plan:
            for arr in (lanes.entries, lanes.cols):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        """Record the matrix shape of every plan build."""
        built = []
        real = csr_mod.build_lane_plan

        def counting(bins, col_idx, ncols):
            built.append((col_idx.size, ncols))
            return real(bins, col_idx, ncols)

        monkeypatch.setattr(csr_mod, "build_lane_plan", counting)
        return built

    def test_one_block_per_plan(self, R):
        plan = R.lane_plan()
        block = plan[0].entries.base
        assert block is not None and not block.flags.writeable
        assert all(
            lanes.entries.base is block and lanes.cols.base is block
            for lanes in plan
        )

    def test_built_once_per_matrix(self, R, monkeypatch):
        built = self._count_builds(monkeypatch)
        Y = np.random.default_rng(1).standard_normal((R.ncols, 5))
        w = np.ones(R.nnz)
        for _ in range(3):
            binned_normal_equations(R, Y, 0.1)
            binned_normal_equations(R, Y, 0.1, nnz_weight=w, rhs_nnz_value=w)
        sub = R.occupied_submatrix()[1]
        assert sub is not R
        list(binned_solve_groups(sub, Y, 0.1))
        list(binned_solve_groups(sub, Y, 0.1))
        assert built == [(R.nnz, R.ncols), (sub.nnz, sub.ncols)]

    def test_executor_shards_build_their_own_plan_once(self, R, monkeypatch):
        built = self._count_builds(monkeypatch)
        Y = np.random.default_rng(2).standard_normal((R.ncols, 4))
        with SweepExecutor(2) as ex:
            first = ex.half_sweep(R, Y, 0.1, implicit_alpha=5.0, base_gram=Y.T @ Y)
            second = ex.half_sweep(R, Y, 0.1, implicit_alpha=5.0, base_gram=Y.T @ Y)
        assert np.array_equal(first, second)
        shards = R.row_shards(2)
        assert len(shards) == 2
        assert sorted(built) == sorted((s.nnz, R.ncols) for s in shards)
        for s in shards:
            assert s.matrix._lane_plans
