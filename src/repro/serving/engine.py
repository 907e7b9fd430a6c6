"""Tiled, memory-bounded batched top-N scoring — the query-side analogue
of the paper's local-memory staging.

Training (PRs 2–3) bounds the working set of every compute unit: rows
are batched by degree, tiles respect an nnz budget, registers hold one
k-strip.  Serving previously did the opposite — ``recommend_top_n_batch``
materialized a dense ``(U, n)`` score matrix and masked seen items in a
per-user Python loop.  This engine applies the same discipline to the
query path:

* **Item tiles.**  A user block is scored against the catalog one item
  tile at a time; the tile width is derived from a *bytes budget* for
  the score buffer (``tile_bytes``, the serving analogue of assembly's
  ``tile_nnz``), so peak scoring scratch is ``O(block · tile)`` instead
  of ``O(U · n)``.  When the whole ``(block, catalog)`` score block fits
  the budget — every request-sized block at the benchmark shapes — the
  block is scored in one GEMM and selected in one exact pass; no tile
  or merge follows.
* **Streaming merge.**  Blocks wider than the budget carry a per-user
  running top-N: each tile's threshold-passing candidates are merged
  against the candidates carried from earlier tiles, so the engine
  never holds more than ``(block, tile)`` scores plus ``(block, 2N)``
  merge candidates.
* **Vectorized exclusion.**  A whole-catalog block writes ``-inf``
  over its seen items straight from the exclusion rows (the CSR
  ``col_idx`` slices, one ``repeat`` for the whole block) — a scatter,
  so the order of columns within a row does not matter.  A tiled block
  masks its bootstrap slice and drops seen candidates by binary search
  against sorted ``user·n_items + item`` keys, built once per
  exclusion matrix on the first tiled query — no per-user Python loop.
* **Deterministic ties.**  Candidates are ordered by ``(score desc,
  item id asc)`` — a total order, so the tiled result is *identical*
  to a naive full-sort reference for every tile size, including exact
  score ties and all-tied (empty-profile) users.  Exact selection
  (:func:`_select_topn`) keeps every score ``>=`` the row's n-th
  largest; only rows where that keeps more than n (a tie at the
  threshold) are repaired, lowest id first.
* **Selectable precision.**  Scores can be computed in float32 (2x the
  effective memory bandwidth, the paper's single-precision kernels) or
  float64 (bit-compatible with the training factors).

The tile budget, precision and user block are the ``serve_tile_bytes``,
``serve_dtype`` and ``serve_user_block`` knobs (:mod:`repro.knobs`).
Each has a fixed default (8 MiB, float64, 1024 users) that the
committed ``BENCH_4.json`` record settled; none is measured at run time,
and ``"auto"`` is a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.knobs import Knob, at_least
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span
from repro.sparse.csr import CSRMatrix

__all__ = [
    "PAD_ITEM",
    "DEFAULT_TILE_BYTES",
    "DEFAULT_USER_BLOCK",
    "SERVE_DTYPES",
    "TopNResult",
    "TopNEngine",
    "topn_from_scores",
    "configure_serving",
    "serving_defaults",
]

#: Item id used to pad result rows when a user has fewer than N
#: recommendable items.  Padded slots carry a score of ``-inf``.
PAD_ITEM = -1

#: Default score-buffer budget per user block (bytes).  8 MB holds a
#: 1024-user x 1024-item float64 tile — L2/L3-resident on current CPUs,
#: versus the ~180 MB dense matrix a full ML-1M batch used to build.
DEFAULT_TILE_BYTES = 8 << 20

#: Default number of users scored per block.
DEFAULT_USER_BLOCK = 1024

SERVE_DTYPES = {"float32": np.float32, "float64": np.float64}

_positive = at_least()


def _validate_dtype(dtype: object) -> str:
    """A score precision (its name or a float dtype) as its name."""
    name = dtype if isinstance(dtype, str) else np.dtype(dtype).name
    if name not in SERVE_DTYPES:
        raise ValueError(
            f"serving dtype must be one of {tuple(SERVE_DTYPES)}, got {dtype!r}"
        )
    return name


SERVE_TILE_BYTES = Knob(
    "serve_tile_bytes", "REPRO_SERVE_TILE_BYTES", DEFAULT_TILE_BYTES, _positive
)
SERVE_DTYPE = Knob("serve_dtype", "REPRO_SERVE_DTYPE", "float64", _validate_dtype)
SERVE_USER_BLOCK = Knob(
    "serve_user_block", "REPRO_SERVE_USER_BLOCK", DEFAULT_USER_BLOCK, _positive
)


def configure_serving(
    tile_bytes: int | None = None,
    dtype: object | None = None,
    user_block: int | None = None,
) -> None:
    """Configure all three serving knobs; ``None`` resets a knob."""
    SERVE_TILE_BYTES.configure(tile_bytes)
    SERVE_DTYPE.configure(dtype)
    SERVE_USER_BLOCK.configure(user_block)


def serving_defaults() -> tuple[int, str, int]:
    """Effective ``(tile_bytes, dtype, user_block)`` of a new engine."""
    return (
        SERVE_TILE_BYTES.resolve(),
        SERVE_DTYPE.resolve(),
        SERVE_USER_BLOCK.resolve(),
    )


@dataclass(frozen=True)
class TopNResult:
    """Batched top-N recommendations, one padded row per queried user.

    ``items[u]`` holds item ids in ``(score desc, item id asc)`` order;
    when a user has fewer than N recommendable items the trailing slots
    are :data:`PAD_ITEM` with a score of ``-inf`` (the *padded* half of
    the contract — the single-user API returns the same items as a
    *truncated* list).
    """

    items: np.ndarray  # (U, N) int64, PAD_ITEM-padded
    scores: np.ndarray  # (U, N) float64, -inf-padded

    @property
    def lengths(self) -> np.ndarray:
        """Recommendable-item count per user (valid prefix length)."""
        return (self.items != PAD_ITEM).sum(axis=1)

    def row(self, u: int) -> list[tuple[int, float]]:
        """Row ``u`` as a truncated ``[(item, score), ...]`` list."""
        keep = self.items[u] != PAD_ITEM
        return [
            (int(i), float(s))
            for i, s in zip(self.items[u][keep], self.scores[u][keep])
        ]


def _merge_topn(
    ids: np.ndarray, scores: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``n`` of ``(ids, scores)`` by ``(score desc, id asc)``.

    ``ids``/``scores`` are ``(B, m)`` with small ``m`` (at most carried-N
    plus one tile's survivors), so a full lexsort is cheap; the composite
    key makes the order total, which is what keeps the streaming merge
    bit-identical to a full sort under exact score ties.
    """
    B, m = ids.shape
    rows = np.repeat(np.arange(B), m)
    order = np.lexsort((ids.ravel(), -scores.ravel(), rows))
    order = order.reshape(B, m) - (np.arange(B) * m)[:, None]
    take = order[:, : min(n, m)]
    return (
        np.take_along_axis(ids, take, axis=1),
        np.take_along_axis(scores, take, axis=1),
    )


def _select_topn(S: np.ndarray, n: int) -> np.ndarray:
    """Columns of each row's exact top-``n``, ascending, ``(B, n)``.

    Order is ``(score desc, column asc)``.  Selection is by threshold:
    with ``cut`` the row's n-th largest score, ``S >= cut`` keeps at
    least n entries per row, and exactly n unless a tie sits at the
    threshold.  That common case costs one comparison and one
    ``flatnonzero`` — no per-row counts.  Only rows that keep more than
    n are repaired: everything strictly above ``cut``, then the
    lowest-column ties up to n (exact duplicates, or a row of ``-inf``
    filler).  O(B·w) with no sort, yet exactly the selection a full
    sort would make.  ``S`` must hold no NaN (the callers' inputs are
    checked); a NaN can leave a row short of n, and the endpoint check
    below keeps that from shifting rows into their neighbours.
    """
    B, w = S.shape
    cut = np.partition(S, w - n, axis=1)[:, w - n, None]
    above = S >= cut
    flat = np.flatnonzero(above)
    if flat.size == B * n:
        # Every row holds exactly n iff each row's first and last slot
        # land in that row; the flat list is row-major, so the slots
        # between them do too.  A single row holds them all.
        if B == 1:
            return flat.reshape(1, n)
        lo = np.arange(0, B * w, w)
        if (flat[::n] >= lo).all() and (flat[n - 1 :: n] < lo + w).all():
            return (flat % w).reshape(B, n)
    counts = np.count_nonzero(above, axis=1)
    if (counts < n).any():
        raise ValueError(f"NaN score in row {int(np.argmax(counts < n))}")
    bad = np.flatnonzero(counts > n)
    strict = S[bad] > cut[bad]
    tied = S[bad] == cut[bad]
    need = n - np.count_nonzero(strict, axis=1)
    above[bad] = strict | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
    return np.nonzero(above)[1].reshape(B, n)


def _tile_survivors(
    S: np.ndarray, t0: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-``n`` of one scored tile, ids ascending."""
    B, w = S.shape
    if w <= n:
        ids = np.broadcast_to(np.arange(t0, t0 + w, dtype=np.int64), (B, w))
        return ids, S
    cols = _select_topn(S, n)
    return cols + t0, np.take_along_axis(S, cols, axis=1)


class TopNEngine:
    """Batched top-N recommendation over fixed factors ``(X, Y)``.

    One engine serves many queries: the item factors are cast to the
    scoring dtype once at construction, and tile geometry is resolved
    once.
    User blocks are independent, so multi-worker engines shard them
    across :class:`repro.parallel.SweepExecutor`'s thread pool (the
    GEMMs drop the GIL).
    """

    def __init__(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        *,
        tile_bytes: int | None = None,
        dtype: object | None = None,
        user_block: int | None = None,
        workers: int | str | None = None,
    ) -> None:
        X = np.asarray(X)
        Y = np.asarray(Y)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
            raise ValueError("X (m, k) and Y (n, k) must share a factor dim")
        self.tile_bytes = SERVE_TILE_BYTES.resolve(tile_bytes)
        self.dtype_name = SERVE_DTYPE.resolve(dtype)
        self.dtype = SERVE_DTYPES[self.dtype_name]
        self.user_block = SERVE_USER_BLOCK.resolve(user_block)
        self._X = np.ascontiguousarray(X, dtype=self.dtype)
        self._Y = np.ascontiguousarray(Y, dtype=self.dtype)
        # A non-finite factor row poisons every score it touches: refuse
        # it here, once, rather than inside every batch that meets it.
        # Checked after the cast so float32 overflow counts too.
        for name, F in (("X", self._X), ("Y", self._Y)):
            bad = ~np.isfinite(F).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"non-finite value in factor {name}, row {int(np.argmax(bad))}"
                )
        from repro.parallel import resolve_workers

        self.workers = resolve_workers(workers)
        self.peak_tile_bytes = 0
        # Single-slot exclusion-key cache for tiled queries, which search
        # the sorted (user·n + item) keys: built on the first tiled query
        # against a CSR and reused until the exclusion changes
        # (identity-keyed; the strong reference keeps ids unambiguous).
        # Whole-catalog blocks read the exclusion rows and never build it.
        self._excl_cache: tuple[CSRMatrix, np.ndarray, type] | None = None

    @classmethod
    def from_model(cls, model, **kwargs) -> "TopNEngine":
        """Engine over a trained :class:`~repro.core.als.ALSModel`."""
        return cls(model.X, model.Y, **kwargs)

    def derive(
        self, X_rows: np.ndarray, rows: np.ndarray | None = None
    ) -> "TopNEngine":
        """A new engine with some user rows changed; this one is untouched.

        ``rows=None`` appends ``X_rows`` as new users (a fold-in);
        otherwise ``X_rows[i]`` replaces user ``rows[i]`` (a rating
        update; ``rows`` ascending).  The configuration and the cast
        ``Y`` are shared, and only the given rows are cast and checked
        for finiteness.  The result holds what a fresh engine over the
        changed factors would hold; like a fresh engine it has no
        exclusion keys until a tiled query builds them.
        """
        X_rows = np.ascontiguousarray(X_rows, dtype=self.dtype)
        if X_rows.ndim != 2 or X_rows.shape[1] != self._X.shape[1]:
            raise ValueError("X_rows must be (rows, k) with the engine's k")
        bad = ~np.isfinite(X_rows).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            row = self.n_users + i if rows is None else int(rows[i])
            raise ValueError(f"non-finite value in factor X, row {row}")
        engine = object.__new__(type(self))
        engine.tile_bytes = self.tile_bytes
        engine.dtype_name, engine.dtype = self.dtype_name, self.dtype
        engine.user_block = self.user_block
        engine.workers = self.workers
        engine.peak_tile_bytes = 0
        engine._Y = self._Y
        if rows is None:
            engine._X = np.concatenate([self._X, X_rows])
        else:
            engine._X = self._X.copy()
            engine._X[rows] = X_rows
        engine._excl_cache = None
        return engine

    @property
    def n_items(self) -> int:
        return self._Y.shape[0]

    @property
    def n_users(self) -> int:
        return self._X.shape[0]

    def tile_items(self, block: int | None = None) -> int:
        """Item-tile width for a ``block``-user score buffer.

        The budget bounds the ``(block, tile)`` score buffer — the
        serving analogue of the assembly's ``tile_nnz`` bound on
        gathered non-zeros.
        """
        block = self.user_block if block is None else max(1, int(block))
        per_row = block * self.dtype().itemsize
        return max(1, min(self.n_items, self.tile_bytes // per_row))

    # ------------------------------------------------------------------
    # exclusion-key cache
    # ------------------------------------------------------------------
    def _exclusion_keys(
        self, exclude: CSRMatrix
    ) -> tuple[np.ndarray, type]:
        """Sorted global ``user·n_items + item`` keys of the exclusion CSR.

        On the tiled path one flat array over *all* exclusion rows
        replaces a per-query ``_seen_pairs`` gather: each user's entries
        occupy the contiguous slice ``row_ptr[u]:row_ptr[u+1]`` and keys
        ascend globally (sorted at build), so both the bootstrap prefix
        and the per-tile candidate filter reduce to ``searchsorted``
        against this one array.  Cached by identity — rebuilding is
        O(nnz), reuse is free.
        """
        cached = self._excl_cache
        if cached is not None and cached[0] is exclude:
            return cached[1], cached[2]
        kd: type = np.int64
        if exclude.nrows * self.n_items < 2**31:
            kd = np.int32  # halves the binary-search traffic
        keys = exclude.expanded_rows().astype(kd) * kd(self.n_items)
        keys += exclude.col_idx.astype(kd)
        if keys.size > 1 and np.any(keys[:-1] >= keys[1:]):
            # Directly constructed CSRs may hold unsorted columns within
            # a row; from_coo/take_rows never do.  Sort once at build.
            keys.sort()
        keys.setflags(write=False)
        self._excl_cache = (exclude, keys, kd)
        return keys, kd

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        users: np.ndarray,
        n: int = 10,
        exclude: CSRMatrix | None = None,
    ) -> TopNResult:
        """Top-``n`` items for each user id in ``users``.

        ``n`` is clamped to the catalog size; users with fewer than
        ``n`` recommendable items get :data:`PAD_ITEM`-padded rows.
        """
        # The span times the whole call: argument checks, every block
        # and the metrics below.
        enabled = is_enabled()
        t_start = perf_counter()
        with span(
            "serve.topn",
            tile_bytes=self.tile_bytes,
            dtype=self.dtype_name,
            workers=self.workers,
        ) as sp:
            users = np.asarray(users, dtype=np.int64)
            if users.ndim != 1:
                raise ValueError("users must be a 1-D index array")
            if n <= 0:
                raise ValueError("n must be positive")
            if exclude is not None and exclude.shape[1] != self.n_items:
                raise ValueError("exclude matrix item dimension mismatch")
            if users.size:
                lo, hi = int(users.min()), int(users.max())
                if lo < 0 or hi >= self.n_users:
                    raise IndexError(
                        f"user index out of range for {self.n_users} users"
                    )
                if exclude is not None and hi >= exclude.nrows:
                    raise IndexError("exclusion row out of range")
            n = min(int(n), self.n_items)
            sp.set(users=int(users.size), n=n)
            if 0 < users.size <= self.user_block:
                items, scores = self._block_topn(self._X[users], n, users, exclude)
            else:
                items, scores = self._blocked_topn(users, n, exclude)
            if enabled:
                seconds = perf_counter() - t_start
                obs_metrics.inc("serve.topn.queries")
                obs_metrics.inc("serve.topn.users", float(users.size))
                obs_metrics.set_gauge("serve.peak_tile_bytes", self.peak_tile_bytes)
                # Per-query latency goes into both histogram flavors: the
                # summary for BENCH reports, the quantile sketch for the
                # p50/p95/p99 a metrics endpoint scrape reports.
                obs_metrics.observe_latency("serve.topn.seconds", seconds)
                if seconds > 0:
                    ups = users.size / seconds
                    # The gauge is last-write-wins; the histogram keeps the
                    # whole multi-batch distribution (min/mean/max).
                    obs_metrics.set_gauge("serve.users_per_sec", ups)
                    obs_metrics.observe("serve.users_per_sec", ups)
            result = TopNResult(items=items, scores=scores)
        return result

    def _blocked_topn(
        self, users: np.ndarray, n: int, exclude: CSRMatrix | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``n`` of more users than one block, block by block."""
        blocks = [
            (lo, min(lo + self.user_block, users.size))
            for lo in range(0, users.size, self.user_block)
        ]
        items = np.full((users.size, n), PAD_ITEM, dtype=np.int64)
        scores = np.full((users.size, n), -np.inf, dtype=np.float64)

        def run_block(bounds: tuple[int, int]) -> None:
            lo, hi = bounds
            block_users = users[lo:hi]
            items[lo:hi], scores[lo:hi] = self._block_topn(
                self._X[block_users], n, block_users, exclude
            )

        if self.workers > 1 and len(blocks) > 1:
            from repro.parallel import SweepExecutor

            with SweepExecutor(self.workers) as executor:
                executor.map(run_block, blocks)
        else:
            for bounds in blocks:
                run_block(bounds)
        return items, scores

    def query_scores(
        self,
        S: np.ndarray,
        n: int = 10,
        users: np.ndarray | None = None,
        exclude: CSRMatrix | None = None,
    ) -> TopNResult:
        """Top-``n`` over an externally computed dense score block.

        The legacy ``score_matrix_fn`` path of ``evaluate_ranking`` lands
        here: scores are already materialized, but exclusion and
        selection still run through the engine's vectorized, tie-
        deterministic machinery (tiled, so selection scratch stays
        bounded even for a full-catalog block).
        """
        return topn_from_scores(
            S, n=n, users=users, exclude=exclude, tile_bytes=self.tile_bytes
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _block_topn(
        self,
        Xb: np.ndarray,
        n: int,
        block_users: np.ndarray,
        exclude: CSRMatrix | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        B = Xb.shape[0]
        tile = self.tile_items(B)
        if tile >= self.n_items:
            return self._whole_block_topn(Xb, n, block_users, exclude)
        # Bootstrap: exact selection over a narrow leading slice seeds
        # the per-user running top-N.  Exact selection costs a few passes
        # per element, so paying it on O(n) items lets every later tile
        # get away with a single comparison against the running threshold.
        w0 = min(tile, max(64, 4 * n))
        # Exclusion comes in two flavors.  A CSRMatrix uses the cached
        # global sorted keys (built once per exclusion matrix, reused
        # across queries): bootstrap entries are the per-user key prefix
        # below ``u·n_items + w0``, recovered with one vectorized
        # searchsorted, and candidate keys are offsets from a per-user
        # base.  Any other row-sliceable exclusion (e.g. the out-of-core
        # ShardedCSR, whose nnz must not be materialized in RAM) takes
        # the legacy per-block ``_seen_pairs`` gather.  Both paths mask
        # and filter the identical (user, item) pairs — results are
        # bitwise the same.
        seen_keys = None
        base_keys = None  # per-block-row key base (cached-global path)
        key_dtype: type = np.int64
        boot_rows = boot_cols = None
        if exclude is not None:
            if isinstance(exclude, CSRMatrix):
                keys_all, kd = self._exclusion_keys(exclude)
                if keys_all.size:
                    key_dtype = kd
                    seen_keys = keys_all
                    base_keys = block_users.astype(kd) * kd(self.n_items)
                    starts = exclude.row_ptr[block_users]
                    ends = np.searchsorted(keys_all, base_keys + kd(w0))
                    lengths = ends - starts
                    total = int(lengths.sum())
                    if total:
                        boot_rows = np.repeat(
                            np.arange(B, dtype=np.int64), lengths
                        )
                        offsets = np.arange(total, dtype=np.int64) - np.repeat(
                            np.cumsum(lengths) - lengths, lengths
                        )
                        # Read the columns back from the sorted keys, not
                        # col_idx: a directly built row may list them in
                        # any order, and only the keys ascend.
                        boot_cols = (
                            keys_all[np.repeat(starts, lengths) + offsets]
                            - base_keys[boot_rows]
                        )
            else:
                excl_rows, excl_cols = _seen_pairs(exclude, block_users)
                if excl_rows.size:
                    in_boot = excl_cols < w0
                    boot_rows = excl_rows[in_boot]
                    boot_cols = excl_cols[in_boot]
                    if B * self.n_items < 2**31:
                        key_dtype = np.int32  # halves binary-search traffic
                    seen_keys = (
                        excl_rows.astype(key_dtype) * key_dtype(self.n_items)
                        + excl_cols.astype(key_dtype)
                    )
        S0 = Xb @ self._Y[:w0].T
        if boot_rows is not None:
            S0[boot_rows, boot_cols] = -np.inf
        # Score block plus the selection's bool mask, as for the tiles.
        peak = S0.nbytes + S0.size
        ids, vals = _tile_survivors(S0, 0, n)
        del S0
        if ids.shape[1] < n:  # catalog slice shorter than n: pad out
            pad = n - ids.shape[1]
            ids = np.concatenate(
                [ids, np.full((B, pad), PAD_ITEM, dtype=np.int64)], axis=1
            )
            vals = np.concatenate(
                [vals, np.full((B, pad), -np.inf, dtype=self.dtype)], axis=1
            )
        # Survivors come out ids-ascending; one stable small-width sort
        # establishes the carried (score desc, id asc) invariant.
        order = np.argsort(-vals, axis=1, kind="stable")
        best_ids = np.take_along_axis(ids, order, axis=1)
        best_scores = np.take_along_axis(vals, order, axis=1)
        # Past the bootstrap, seen items are *not* masked in the score
        # tiles.  Candidates are rare (they must beat the running
        # threshold), so it is far cheaper to drop seen candidates by
        # binary-searching their (row, item) keys against the sorted
        # seen-pair keys (cached-global or per-block, built above) than
        # to scatter -inf over every seen entry of every tile.
        # Per-user running n-th-best score: past the bootstrap, an item
        # can only enter the top-N by *strictly* beating it — carried
        # candidates always have smaller ids (tiles ascend), so under the
        # (score desc, id asc) order an exact tie loses.  That makes one
        # `S > thresh` comparison the whole per-tile filter.
        thresh = best_scores[:, -1].copy()
        score_buf = np.empty((B, tile), dtype=self.dtype)
        mask_buf = np.empty((B, tile), dtype=bool)
        peak = max(peak, score_buf.nbytes + mask_buf.nbytes)
        # Tiles grow geometrically from the bootstrap width up to the
        # budgeted width: the filter threshold is frozen within a tile,
        # so keeping each tile no wider than the prefix it follows bounds
        # the expected candidate spill per tile near n instead of
        # tile/prefix · n (the small-bootstrap blowup).
        t0 = w0
        pend: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        pend_hits = 0
        while t0 < self.n_items:
            w = min(tile, t0, self.n_items - t0)
            t1 = t0 + w
            S = np.matmul(Xb, self._Y[t0:t1].T, out=score_buf[:, :w])
            cand = np.greater(S, thresh[:, None], out=mask_buf[:, :w])
            hits = np.flatnonzero(cand.ravel())
            if hits.size:
                if w & (w - 1) == 0:  # power-of-two tile: shift, not divide
                    rows = hits >> (w.bit_length() - 1)
                    cols = hits & (w - 1)
                else:
                    rows, cols = np.divmod(hits, w)
                ids = cols + t0
                if seen_keys is not None:
                    if base_keys is not None:
                        keys = base_keys[rows] + ids.astype(key_dtype)
                    else:
                        keys = rows.astype(key_dtype) * key_dtype(
                            self.n_items
                        ) + ids.astype(key_dtype)
                    pos = np.searchsorted(seen_keys, keys)
                    np.minimum(pos, seen_keys.size - 1, out=pos)
                    unseen = seen_keys[pos] != keys
                    if not unseen.all():
                        rows = rows[unseen]
                        cols = cols[unseen]
                        ids = ids[unseen]
                if rows.size:
                    pend.append((rows, ids, S[rows, cols]))
                    pend_hits += rows.size
            # Merging has a fixed per-call cost, so sparse late tiles are
            # batched until enough candidates pend (~1 per user).  While
            # tiles are still growing the merge runs every tile — there a
            # fresh threshold prunes the most — and skipping a merge
            # there would also break the ids-ascending invariant (the
            # last, remainder-width tile only *looks* like a growing one).
            growing = w < tile and t1 < self.n_items
            if pend and (growing or pend_hits >= B or t1 >= self.n_items):
                if len(pend) == 1:
                    rows, ids, vals = pend[0]
                else:
                    # Stable sort restores row-major order across tiles;
                    # within a row, earlier tiles (smaller ids) stay first.
                    rows = np.concatenate([p[0] for p in pend])
                    ids = np.concatenate([p[1] for p in pend])
                    vals = np.concatenate([p[2] for p in pend])
                    order = np.argsort(rows, kind="stable")
                    rows = rows[order]
                    ids = ids[order]
                    vals = vals[order]
                _merge_streaming(best_ids, best_scores, rows, ids, vals, n)
                np.copyto(thresh, best_scores[:, -1])
                pend = []
                pend_hits = 0
            t0 = t1
        if peak > self.peak_tile_bytes:
            self.peak_tile_bytes = peak
        best_ids = best_ids.copy()
        best_ids[~np.isfinite(best_scores)] = PAD_ITEM
        return best_ids, best_scores.astype(np.float64)

    def _whole_block_topn(
        self,
        Xb: np.ndarray,
        n: int,
        block_users: np.ndarray,
        exclude: CSRMatrix | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``n`` of a block whose whole score row fits the budget.

        One pass: one GEMM scores the catalog, ``-inf`` lands on the
        block's seen items straight from the exclusion rows (a scatter,
        so the order of columns within a row does not matter), one exact
        threshold selection keeps ``n`` columns per row, and one stable
        sort over those ``n`` orders them.  The survivors come out
        column-ascending, so the stable sort on descending score leaves
        ties in ascending id: the ``(score desc, id asc)`` order of a
        full lexsort, bit for bit.
        """
        S = Xb @ self._Y.T
        if exclude is not None:
            _mask_seen(S, exclude, block_users)
        B, w = S.shape
        peak = S.nbytes + S.size  # score block plus the selection's mask
        if peak > self.peak_tile_bytes:
            self.peak_tile_bytes = peak
        cols = _select_topn(S, n)
        # Flat indices into S and then into the (B, n) survivors: one
        # gather each, where take_along_axis costs a Python wrapper.
        vals = S.ravel()[cols + (np.arange(0, B * w, w))[:, None]]
        order = np.argsort(-vals, axis=1, kind="stable")
        order += np.arange(0, B * n, n)[:, None]
        ids = cols.ravel()[order]
        scores = vals.ravel()[order].astype(np.float64, copy=False)
        ids[~np.isfinite(scores)] = PAD_ITEM
        return ids, scores


def _merge_streaming(
    best_ids: np.ndarray,
    best_scores: np.ndarray,
    rows: np.ndarray,
    ids: np.ndarray,
    vals: np.ndarray,
    n: int,
) -> None:
    """Fold threshold-passing ``(row, id, val)`` entries into the carried
    top-N, in place.

    Only affected rows are touched.  Each affected row's ``n`` carried
    candidates and its new entries are scattered into one dense
    ``(affected, n + max_hits)`` scratch block, laid out so that *column
    index encodes the tie-break order*: carried candidates (columns
    ``< n``) are already sorted by ``(score desc, id asc)`` and always
    have smaller ids than the incoming tile's entries (tiles ascend),
    and new entries land in ascending-id order after them.  Exact top-n
    selection by :func:`_select_topn` (lowest column wins a tie) is then
    identical to the ``(score desc, id asc)`` total order — no
    per-candidate lexsort.

    ``rows`` must be sorted ascending with ids ascending within a row
    (the row-major order ``flatnonzero`` produces).

    Skewed hit lists (one row with far more hits than the rest) are
    merged in row-prefix chunks: the dense scratch width then tracks the
    typical row instead of the outlier, and between chunks the tail is
    re-filtered against the just-tightened thresholds — an outlier row's
    later hits usually stop qualifying once its first chunk lands.
    """
    cap = max(16, n)
    while rows.size:
        # ``rows`` is sorted, so segment structure falls out of one
        # boundary scan — no np.unique (which would re-sort the list).
        boundary = np.empty(rows.size, dtype=bool)
        boundary[0] = True
        np.not_equal(rows[1:], rows[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, rows.size))
        mx = int(counts.max())
        tail = None
        if mx > 2 * cap:
            # np.repeat beats cumsum(boundary) for the per-hit segment
            # offset — no serial dependency chain over the hit list.
            pos = np.arange(rows.size, dtype=np.int64) - np.repeat(starts, counts)
            head = pos < cap
            tail = (rows[~head], ids[~head], vals[~head])
            rows, ids, vals = rows[head], ids[head], vals[head]
            boundary = np.empty(rows.size, dtype=bool)
            boundary[0] = True
            np.not_equal(rows[1:], rows[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            counts = np.diff(np.append(starts, rows.size))
            mx = cap
        aff = rows[starts]
        A = aff.size
        inv = np.repeat(np.arange(A, dtype=np.int64), counts)
        width = n + mx
        dense = np.full((A, width), -np.inf, dtype=best_scores.dtype)
        dense[:, :n] = best_scores[aff]
        pos = np.arange(rows.size, dtype=np.int64) - np.repeat(starts, counts)
        dense[inv, n + pos] = vals
        cols = _select_topn(dense, n)
        sel_scores = np.take_along_axis(dense, cols, axis=1)
        # Ids are reconstructed from the column index instead of being
        # scattered through a second dense block: columns ``< n`` name a
        # carried slot, later columns index the row's slice of ``ids``.
        new_pos = cols - n
        is_new = new_pos >= 0
        sel_ids = np.where(
            is_new,
            ids[starts[:, None] + np.where(is_new, new_pos, 0)],
            best_ids[aff[:, None], np.where(is_new, 0, cols)],
        )
        # The n survivors come out in column order; restore the carried
        # (score desc, id asc) invariant with one stable small-width
        # sort — stability keeps column order (= ascending ids) on ties.
        order = np.argsort(-sel_scores, axis=1, kind="stable")
        best_scores[aff] = np.take_along_axis(sel_scores, order, axis=1)
        best_ids[aff] = np.take_along_axis(sel_ids, order, axis=1)
        if tail is None:
            return
        t_rows, t_ids, t_vals = tail
        keep = t_vals > best_scores[t_rows, -1]
        rows, ids, vals = t_rows[keep], t_ids[keep], t_vals[keep]


def topn_from_scores(
    S: np.ndarray,
    n: int = 10,
    users: np.ndarray | None = None,
    exclude: CSRMatrix | None = None,
    tile_bytes: int | None = None,
) -> TopNResult:
    """Tie-deterministic top-``n`` over a dense ``(users, items)`` block.

    The engine's selection machinery detached from any factor matrices:
    exclusion is applied vectorized from the CSR structure (``users``
    maps block rows to exclusion rows) and selection runs over column
    tiles sized by ``tile_bytes`` so scratch stays bounded even for a
    full-catalog block.
    """
    S = np.array(S, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError("S must be a (users, items) score block")
    nan_rows = np.isnan(S).any(axis=1)
    if nan_rows.any():
        # -inf is legal (the exclusion marker); NaN has no rank.
        raise ValueError(f"NaN score in row {int(np.argmax(nan_rows))}")
    if n <= 0:
        raise ValueError("n must be positive")
    n = min(int(n), S.shape[1])
    tile_bytes = SERVE_TILE_BYTES.resolve(tile_bytes)
    if exclude is not None:
        if users is None:
            raise ValueError("users required to exclude seen items")
        users = np.asarray(users, dtype=np.int64)
        rows, cols = _seen_pairs(exclude, users)
        S[rows, cols] = -np.inf
    B = S.shape[0]
    tile = max(1, min(S.shape[1], int(tile_bytes) // max(1, B * S.itemsize)))
    best_ids = np.full((B, n), PAD_ITEM, dtype=np.int64)
    best_scores = np.full((B, n), -np.inf, dtype=np.float64)
    for t0 in range(0, S.shape[1], tile):
        ids, vals = _tile_survivors(S[:, t0 : t0 + tile], t0, n)
        best_ids, best_scores = _merge_topn(
            np.concatenate([best_ids, ids], axis=1),
            np.concatenate([best_scores, vals], axis=1),
            n,
        )
    best_ids = best_ids.copy()
    best_ids[~np.isfinite(best_scores)] = PAD_ITEM
    return TopNResult(items=best_ids, scores=best_scores)


def _seen_pairs(
    exclude: CSRMatrix, users: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(block_row, item)`` pairs of every seen entry, in one pass.

    Built straight from the CSR ``row_ptr``/``col_idx`` arrays: block
    rows are ``repeat``-expanded by each user's degree and the item ids
    are gathered with one fancy index — the vectorized replacement for
    the old per-user ``row_slice`` loop.
    """
    if users.size and (users.min() < 0 or users.max() >= exclude.nrows):
        raise IndexError("exclusion row out of range")
    starts = exclude.row_ptr[users]
    lengths = exclude.row_ptr[users + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    rows = np.repeat(np.arange(users.size, dtype=np.int64), lengths)
    # Pair j of block row r sits at col_idx[starts[r] + j - (ends[r] - lengths[r])].
    pos = np.arange(total, dtype=np.int64) + (starts - ends + lengths)[rows]
    return rows, exclude.col_idx[pos]


def _mask_seen(S: np.ndarray, exclude: CSRMatrix, users: np.ndarray) -> None:
    """Write ``-inf`` over every seen ``(block row, item)`` of ``S``.

    A one-user block reads its row as one ``col_idx`` slice; larger
    blocks gather their pairs with :func:`_seen_pairs`.  Either way it
    is a scatter, so the order of columns within a row is irrelevant.
    """
    if users.size == 1:
        ptr = exclude.row_ptr
        u = int(users[0])
        S[0, exclude.col_idx[ptr[u] : ptr[u + 1]]] = -np.inf
    else:
        rows, cols = _seen_pairs(exclude, users)
        S[rows, cols] = -np.inf
