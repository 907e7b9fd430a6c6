"""The explicit sweep holds one solve group at a time.

``binned_solve_groups`` yields the primal group and then each dual
bin, by width ascending; ``sweep_occupied`` solves a group, writes its
rows and drops it before the next is assembled.  These tests build a
shard with dual groups of four widths plus primal rows and check that
the previous group's arrays are dead when the next assembly starts,
that the sweep's traced peak stays within the largest group plus a
stated slack, and that each group's S1 span closes before its S3 span
opens.  A second shard puts several bins at one dual width: each bin is
its own group, and the peak stays within the largest bin.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

import repro.kernels.fastpath as fastpath
import repro.linalg.normal_equations as ne
from repro.kernels.fastpath import sweep_occupied
from repro.linalg.normal_equations import binned_solve_groups, tile_bytes_bound
from repro.linalg.solvers import batched_lapack_solve
from repro.obs.spans import capture
from repro.sparse import CSRMatrix

K = 64
TILE = 1024


@pytest.fixture(scope="module")
def shard():
    """Degrees 10/25/40/55 take dual widths 16/32/48/64 at k = 64, and
    degree 90 is primal; the row counts make the groups similar in size."""
    rng = np.random.default_rng(0)
    n = 160
    degrees = np.repeat([10, 25, 40, 55, 90], [300, 120, 60, 40, 40])
    dense = np.zeros((degrees.size, n), dtype=np.float32)
    for u, deg in enumerate(degrees):
        dense[u, rng.choice(n, deg, replace=False)] = rng.integers(1, 6, deg)
    R = CSRMatrix.from_dense(dense)
    Y = rng.standard_normal((n, K))
    return R, Y


def _group_bytes(g) -> int:
    return g.A.nbytes + g.b.nbytes + sum(G.nbytes for _, G in g.parts)


def test_group_order(shard):
    R, Y = shard
    groups = [(g.form, g.width) for g in binned_solve_groups(R, Y, 0.5)]
    assert groups == [
        ("primal", 64), ("dual", 16), ("dual", 32), ("dual", 48), ("dual", 64),
    ]


def test_streamed_sweep_equals_the_groups_solved_at_once(shard):
    R, Y = shard
    rows, X = sweep_occupied(R, Y, 0.5)
    ref = np.empty_like(X)
    for g in list(binned_solve_groups(R, Y, 0.5)):
        ref[g.rows] = g.factors(batched_lapack_solve(g.A, g.b))
    assert np.array_equal(rows, np.arange(R.nrows))
    assert np.array_equal(X, ref)


def test_previous_group_is_dead_when_the_next_is_assembled(shard, monkeypatch):
    R, Y = shard
    solved: list[weakref.ref] = []  # each solved group's A
    gathers: list[tuple[int, weakref.ref]] = []  # (group, a dual bin's G)
    solves_before: list[int] = []  # per assembly step

    def check_previous_groups_dead():
        n = len(solved)
        solves_before.append(n)
        assert all(ref() is None for ref in solved), f"a solved A alive at step {n}"
        assert all(ref() is None for i, ref in gathers if i < n), (
            f"a solved group's gather alive at step {n}"
        )

    def spy_solve(A, b):
        solved.append(weakref.ref(A))
        return batched_lapack_solve(A, b)

    dual_block, gram_tiles = ne._dual_block, ne._gram_tiles

    def spy_dual_block(*args, **kwargs):
        check_previous_groups_dead()
        G = dual_block(*args, **kwargs)
        gathers.append((len(solved), weakref.ref(G)))
        return G

    def spy_gram_tiles(*args, **kwargs):
        check_previous_groups_dead()
        return gram_tiles(*args, **kwargs)

    monkeypatch.setattr(fastpath, "batched_lapack_solve", spy_solve)
    monkeypatch.setattr(ne, "_dual_block", spy_dual_block)
    monkeypatch.setattr(ne, "_gram_tiles", spy_gram_tiles)
    sweep_occupied(R, Y, 0.5)
    # Assembly interleaves with the solves: group i is assembled after
    # i groups were solved (and freed), not all before the first solve.
    assert sorted(set(solves_before)) == [0, 1, 2, 3, 4]
    assert len(solved) == 5
    assert all(ref() is None for ref in solved)
    assert all(ref() is None for _, ref in gathers)


def test_traced_peak_within_largest_group_plus_slack(shard):
    R, Y = shard
    sizes = [_group_bytes(g) for g in binned_solve_groups(R, Y, 0.5, tile_nnz=TILE)]
    # Slack: one tile of primal assembly scratch, the sweep's (m, k)
    # output, and 1 MiB for the solve's answer, the back-projection,
    # the zero-padded basis and index temporaries.
    bound = max(sizes) + tile_bytes_bound(TILE, K) + R.nrows * K * 8 + (1 << 20)
    # The shard's groups together would not fit: holding them all fails.
    assert sum(sizes) > 2 * bound
    sweep_occupied(R, Y, 0.5, tile_nnz=TILE)  # lane plan and caches built
    tracemalloc.start()
    try:
        sweep_occupied(R, Y, 0.5, tile_nnz=TILE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} B over {bound} B"


def test_each_group_assembles_in_its_own_s1_span(shard):
    R, Y = shard
    with capture() as tracer:
        sweep_occupied(R, Y, 0.5)
    stages = sorted(
        (r for r in tracer.records if r.attrs.get("stage") in ("S1", "S3")),
        key=lambda r: r.start,
    )
    assert [r.attrs["stage"] for r in stages] == ["S1", "S3"] * 5
    for s1, s3 in zip(stages[::2], stages[1::2]):
        assert s1.end <= s3.start
        assert s1.attrs["k"] == K
    assert [r.attrs["batch"] for r in stages[1::2]] == [40, 300, 120, 60, 40]
    assert sum(r.attrs["nnz"] for r in stages[::2]) == R.nnz


@pytest.fixture(scope="module")
def binned_shard():
    """Several degree bins per dual width at k = 64: degrees 3, 5, 7, 9
    and 12 (bins [3], [4, 5], [6, 7], [8, 10], [11, 13]) pad to 16, and
    16, 20 and 26 (bins [14, 17], [18, 22], [23, 28]) to 32; degree 90
    is primal."""
    rng = np.random.default_rng(1)
    n = 160
    degrees = np.repeat(
        [3, 5, 7, 9, 12, 16, 20, 26, 90], [100] * 5 + [200] * 3 + [40]
    )
    dense = np.zeros((degrees.size, n), dtype=np.float32)
    for u, deg in enumerate(degrees):
        dense[u, rng.choice(n, deg, replace=False)] = rng.integers(1, 6, deg)
    R = CSRMatrix.from_dense(dense)
    Y = rng.standard_normal((n, K))
    return R, Y


class TestOneGroupPerDualBin:
    def test_one_dual_group_per_bin_in_order(self, binned_shard):
        R, Y = binned_shard
        groups = list(binned_solve_groups(R, Y, 0.5))
        assert [(g.form, g.width, g.rows.size) for g in groups] == [
            ("primal", 64, 40), *[("dual", 16, 100)] * 5, *[("dual", 32, 200)] * 3,
        ]
        dual_bins = [lanes.bin.rows for lanes in R.lane_plan()
                     if ne.dual_width(lanes.bin.width, K)]
        assert [g.rows.tolist() for g in groups[1:]] == [
            rows.tolist() for rows in dual_bins
        ]
        assert all(len(g.parts) == 1 for g in groups[1:])

    def test_each_bins_systems_and_gather_die_before_the_next(
        self, binned_shard, monkeypatch
    ):
        R, Y = binned_shard
        bins: list[tuple[weakref.ref, weakref.ref]] = []  # (K, G) per bin
        dual_block = ne._dual_block

        def spy_dual_block(Yz, lanes, rvals, Kview, r):
            alive = [i for i, refs in enumerate(bins)
                     if any(ref() is not None for ref in refs)]
            assert not alive, f"bin {alive} alive at bin {len(bins)}"
            G = dual_block(Yz, lanes, rvals, Kview, r)
            bins.append((weakref.ref(Kview.base), weakref.ref(G)))
            return G

        monkeypatch.setattr(ne, "_dual_block", spy_dual_block)
        sweep_occupied(R, Y, 0.5)
        assert len(bins) == 8
        assert all(ref() is None for refs in bins for ref in refs)

    def test_traced_peak_within_largest_bin_plus_slack(self, binned_shard):
        R, Y = binned_shard
        groups = list(binned_solve_groups(R, Y, 0.5, tile_nnz=TILE))
        sizes = [_group_bytes(g) for g in groups]
        widest = sum(s for g, s in zip(groups, sizes) if g.width == 32)
        del groups
        # The slack of test_traced_peak_within_largest_group_plus_slack.
        bound = max(sizes) + tile_bytes_bound(TILE, K) + R.nrows * K * 8 + (1 << 20)
        # One group per dual width would not fit: its width-32 group
        # alone is over the bound.
        assert widest > bound
        sweep_occupied(R, Y, 0.5, tile_nnz=TILE)  # lane plan and caches built
        tracemalloc.start()
        try:
            sweep_occupied(R, Y, 0.5, tile_nnz=TILE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak} B over {bound} B"
