"""The explicit sweep's dual (n×n) form against the primal k×k reference.

A row whose degree bin is narrower than the system width ``d`` solves
``(Y_Ω Y_Ωᵀ + ρI) α = r`` and returns ``x = Y_Ωᵀ α``; every other row
solves the k×k normal equations.  The push-through identity makes both
the same solution, so the hybrid binned sweep must match the all-primal
oracle (:mod:`tests.oracle`: scatter assembly + Cholesky) to rounding,
for every ridge (ALS-WR's included), subspace block, compute dtype and
shape — empty rows and columns and ``k > min(m, n)`` among them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.kernels import fastpath
from repro.kernels.fastpath import sweep_occupied
from repro.linalg.cholesky import batched_cholesky_solve
from repro.linalg.gaussian import batched_gaussian_solve
from repro.linalg.normal_equations import binned_solve_groups, dual_width
from repro.linalg.solvers import batched_lapack_solve
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture
from repro.sparse import CSRMatrix
from tests.oracle import oracle_sweep

RTOL = 1e-9


@st.composite
def problems(draw):
    """A rating matrix whose degrees straddle the system width ``d``.

    Row degrees are drawn from ``{0, d-1, d, d+1}`` plus arbitrary ones,
    so empty rows, rows on both sides of the dual/primal boundary and
    (with ``n`` up to ``3k``) unrated columns all occur; ``k`` may
    exceed ``min(m, n)``.  Basis entries and ratings sit on a coarse
    dyadic grid, so float32 Gram products are exact and a float32 sweep
    can be held to the float64 tolerance.
    """
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 3 * k + 2))
    blocked = draw(st.booleans()) and k > 1
    if blocked:
        start = draw(st.integers(0, k - 1))
        stop = draw(st.integers(start + 1, k))
    else:
        start, stop = 0, k
    d = stop - start
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    near = [0, max(d - 1, 0), d, d + 1]
    degrees = [
        min(n, draw(st.sampled_from(near) | st.integers(0, n))) for _ in range(m)
    ]
    dense = np.zeros((m, n), dtype=np.float32)
    for u, deg in enumerate(degrees):
        cols = rng.choice(n, size=deg, replace=False)
        dense[u, cols] = rng.integers(1, 6, size=deg)
    Y = rng.integers(-8, 9, size=(n, k)) / 4.0
    R = CSRMatrix.from_dense(dense)
    complement = rng.integers(-8, 9, size=R.nnz) / 4.0 if stop - start < k else None
    return dict(
        R=R,
        Y=Y,
        lam=float(draw(st.sampled_from([0.25, 0.5, 2.0]))),
        weighted=draw(st.booleans()),
        col_block=(start, stop),
        complement=complement,
        tile_nnz=draw(st.sampled_from([None, 3, 64])),
    )


def _corner_case():
    """Empty rows and columns, ``k = 6 > min(m, n) = 4`` and ALS-WR."""
    dense = np.zeros((4, 5), dtype=np.float32)
    dense[0, [0, 2]] = [3.0, 1.0]
    dense[2, [0, 1, 2]] = [5.0, 2.0, 4.0]
    Y = np.arange(-15, 15).reshape(5, 6) / 4.0
    return dict(
        R=CSRMatrix.from_dense(dense), Y=Y, lam=0.5, weighted=True,
        col_block=(0, 6), complement=None, tile_nnz=None,
    )


class TestDualMatchesPrimal:
    @settings(max_examples=120, deadline=None)
    @given(p=problems(), dtype=st.sampled_from(["float64", "float32"]))
    @example(p=_corner_case(), dtype="float64")
    def test_hybrid_matches_the_oracle(self, p, dtype):
        R, Y = p["R"], p["Y"]
        k = Y.shape[1]
        lengths = R.row_lengths()
        event(f"weighted={p['weighted']}")
        event(f"blocked={p['col_block'] != (0, k)}")
        event(f"empty rows={bool((lengths == 0).any())}")
        event(f"empty columns={R.nnz == 0 or np.unique(R.col_idx).size < R.ncols}")
        event(f"k > min(m, n)={k > min(R.shape)}")
        kw = dict(
            weighted=p["weighted"], col_block=p["col_block"],
            complement=p["complement"],
        )
        rows_ref, ref = oracle_sweep(R, Y, p["lam"], **kw)
        rows, got = sweep_occupied(
            R, Y, p["lam"], compute_dtype=dtype, tile_nnz=p["tile_nnz"], **kw
        )
        np.testing.assert_array_equal(rows, rows_ref)
        scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL * scale)

    def test_both_forms_present_around_the_boundary(self):
        # d = 6: degree 5 sits in the [4, 5] bin (dual), degrees 6 and 7
        # in the [6, 7] bin (primal).
        rng = np.random.default_rng(0)
        dense = np.zeros((3, 12))
        for u, deg in enumerate((5, 6, 7)):
            dense[u, rng.choice(12, deg, replace=False)] = rng.integers(1, 6, deg)
        R = CSRMatrix.from_dense(dense)
        groups = binned_solve_groups(R, rng.standard_normal((12, 6)), 0.5)
        forms = {g.form: g.rows.tolist() for g in groups}
        assert forms == {"dual": [0], "primal": [1, 2]}


class TestDualWidth:
    def test_padding_groups(self):
        assert dual_width(64, 64) == 0 and dual_width(73, 64) == 0
        assert [dual_width(w, 64) for w in (1, 13, 17, 28, 36, 58)] == [
            16, 16, 32, 32, 48, 64,
        ]
        # A system narrower than one panel is never padded past d.
        assert dual_width(3, 4) == 4 and dual_width(5, 6) == 6

    def test_padded_lanes_solve_to_exact_zero(self, rng):
        # Degrees 4/5, 8/10 and 11/13 share bins, so lanes are padded both
        # inside a bin's gather and out to the group width.
        dense = np.zeros((8, 20))
        for u, deg in enumerate((4, 5, 8, 9, 10, 11, 13, 2)):
            dense[u, rng.choice(20, deg, replace=False)] = rng.integers(1, 6, deg)
        R = CSRMatrix.from_dense(dense)
        for g in binned_solve_groups(R, rng.standard_normal((20, 32)), 0.7):
            if g.form != "dual":
                continue
            alpha = np.linalg.solve(g.A, g.b[..., None])[..., 0]
            lengths = R.row_lengths()[g.rows]
            pad = np.arange(g.width)[None, :] >= lengths[:, None]
            assert not alpha[pad].any()


class TestObservability:
    def test_one_s3_span_per_group_and_dual_rows_counter(self, rng):
        dense = np.zeros((40, 90))
        for u in range(40):
            deg = int(rng.integers(1, 90))
            dense[u, rng.choice(90, deg, replace=False)] = 1.0 + (u % 5)
        R = CSRMatrix.from_dense(dense)
        Y = rng.standard_normal((90, 64))
        obs_metrics.reset()
        with capture() as tracer:
            sweep_occupied(R, Y, 0.5)
        s3 = [r for r in tracer.records if r.attrs.get("stage") == "S3"]
        groups = list(binned_solve_groups(R, Y, 0.5))
        assert [(r.attrs["form"], r.attrs["k"], r.attrs["batch"]) for r in s3] == [
            (g.form, g.width, g.rows.size) for g in groups
        ]
        assert {r.attrs["form"] for r in s3} == {"dual", "primal"}
        counters = obs_metrics.snapshot()["counters"]
        dual = sum(g.rows.size for g in groups if g.form == "dual")
        assert counters["als.sweep.dual_rows"] == dual
        assert counters["solver.lapack.calls"] == len(groups)
        assert counters["als.sweep.rows"] == 40
        # One S1 span assembles each group; together they cover R.
        s1 = [r for r in tracer.records if r.attrs.get("stage") == "S1"]
        assert len(s1) == len(groups)
        assert sum(r.attrs["nnz"] for r in s1) == R.nnz

    def test_implicit_stays_primal(self, rng):
        R = CSRMatrix.from_dense(
            np.where(rng.random((10, 30)) < 0.2, 2.0, 0.0).astype(np.float32)
        )
        Y = rng.standard_normal((30, 16))
        with capture() as tracer:
            sweep_occupied(R, Y, 0.5, implicit_alpha=10.0, base_gram=Y.T @ Y)
        s3 = [r for r in tracer.records if r.attrs.get("stage") == "S3"]
        assert [(r.attrs["form"], r.attrs["k"]) for r in s3] == [("primal", 16)]


_S3_SOLVES = {
    "cholesky": batched_cholesky_solve,
    "gaussian": batched_gaussian_solve,
    "lapack": batched_lapack_solve,
}


@pytest.mark.parametrize("solver", tuple(_S3_SOLVES))
def test_short_rows_match_per_row_ridge_solution(solver, rng, monkeypatch):
    """Every short row against its own ``np.linalg.solve`` of Eq. 4.

    The sweep solves its groups with ``lapack``; the two reference S3
    solvers are put in its place, so the dual-form groups the sweep
    builds hold for each of them too."""
    monkeypatch.setattr(fastpath, "batched_lapack_solve", _S3_SOLVES[solver])
    dense = np.where(rng.random((12, 20)) < 0.15, rng.integers(1, 6, (12, 20)), 0)
    R = CSRMatrix.from_dense(dense.astype(np.float32))
    Y = rng.standard_normal((20, 16))
    rows, X = sweep_occupied(R, Y, 0.3)
    for u, x in zip(rows, X):
        cols, vals = R.row_slice(int(u))
        Yo = Y[cols]
        ref = np.linalg.solve(Yo.T @ Yo + 0.3 * np.eye(16), Yo.T @ vals)
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)
