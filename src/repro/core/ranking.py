"""Top-N ranking metrics for recommender evaluation.

RMSE measures rating reconstruction; deployed recommenders are judged on
ranking quality.  This module provides the standard set — hit rate,
precision@N, recall@N, NDCG@N — computed against a held-out interaction
set, with the training items excluded from each user's candidate ranking.

Evaluation runs on the tiled serving engine: all evaluated users are
ranked in batched, byte-budgeted item tiles with vectorized exclusion
(:mod:`repro.serving.engine`) instead of the historical one-user-at-a-
time loop over Python sets.  Pass the trained :class:`ALSModel` directly
for the fast factor-scoring path; a legacy ``score_matrix_fn(user)``
callable is still accepted and routed through the same selection
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.als import ALSModel
from repro.serving.engine import TopNEngine, topn_from_scores
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["RankingMetrics", "evaluate_ranking"]


@dataclass(frozen=True)
class RankingMetrics:
    """Aggregate top-N quality over all evaluated users."""

    n: int  # the N of top-N
    users: int  # users with at least one held-out item
    hit_rate: float  # fraction of held-out items recovered in top-N
    precision: float  # mean per-user |top-N ∩ held-out| / N
    recall: float  # mean per-user |top-N ∩ held-out| / |held-out|
    ndcg: float  # mean per-user normalized DCG@N

    def __str__(self) -> str:
        return (
            f"top-{self.n} over {self.users} users: HR {self.hit_rate:.3f}, "
            f"P {self.precision:.3f}, R {self.recall:.3f}, NDCG {self.ndcg:.3f}"
        )


def _dcg(relevances: np.ndarray) -> float:
    if relevances.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, relevances.size + 2))
    return float(relevances @ discounts)


def _held_out_csr(test: COOMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(users, indptr, cols)`` of the deduplicated held-out items.

    ``users`` are the evaluated users (ascending); ``cols[indptr[i]:
    indptr[i+1]]`` are user ``users[i]``'s held-out items, sorted.
    """
    if test.row.size == 0:
        raise ValueError("test set is empty")
    pairs = np.unique(
        np.stack([np.asarray(test.row, dtype=np.int64),
                  np.asarray(test.col, dtype=np.int64)]),
        axis=1,
    )
    rows, cols = pairs[0], pairs[1]
    users, counts = np.unique(rows, return_counts=True)
    indptr = np.zeros(users.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return users, indptr, cols


def evaluate_ranking(
    scorer,
    train: CSRMatrix,
    test: COOMatrix,
    n: int = 10,
    engine: TopNEngine | None = None,
) -> RankingMetrics:
    """Evaluate top-N quality of a scoring model.

    ``scorer`` is either a trained factor model — :class:`ALSModel` or
    :class:`~repro.core.implicit.ImplicitModel`, scored through the
    tiled engine (the fast path) — or a legacy callable
    ``score_matrix_fn(user) -> np.ndarray`` returning the user's scores
    over all items (e.g. ``lambda u: model.Y @ model.X[u]``).  Training
    items are masked out of each ranking; every user with held-out items
    is evaluated.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if train.shape != test.shape:
        raise ValueError("train and test must share a shape")
    users, held_indptr, held_cols = _held_out_csr(test)

    n_catalog = train.shape[1]
    top_n = min(n, n_catalog)
    if isinstance(scorer, ALSModel):
        if engine is None:
            engine = TopNEngine.from_model(scorer)
        result = engine.query(users, n=top_n, exclude=train)
    else:
        block = engine.user_block if engine is not None else 1024
        tile_bytes = engine.tile_bytes if engine is not None else None
        rows = []
        for lo in range(0, users.size, block):
            block_users = users[lo : lo + block]
            S = np.stack(
                [
                    np.asarray(scorer(int(u)), dtype=np.float64)
                    for u in block_users
                ]
            )
            rows.append(
                topn_from_scores(
                    S, n=top_n, users=block_users, exclude=train,
                    tile_bytes=tile_bytes,
                )
            )
        result = rows[0] if len(rows) == 1 else _concat_results(rows)

    # Membership of each recommended id in its user's held-out set, in
    # one vectorized pass: (user, item) pairs collapse to unique integer
    # keys on an (n_catalog + 1)-wide grid; PAD_ITEM maps to the
    # never-held column ``n_catalog`` so padding scores zero relevance.
    held_lengths = np.diff(held_indptr)
    width = n_catalog + 1
    user_rows = np.repeat(np.arange(users.size, dtype=np.int64), held_lengths)
    held_keys = user_rows * width + held_cols
    ids = result.items.copy()
    ids[ids < 0] = n_catalog
    query_keys = (
        np.arange(users.size, dtype=np.int64)[:, None] * width + ids
    )
    rel = np.isin(query_keys, held_keys).astype(np.float64)

    got = rel.sum(axis=1)
    discounts = 1.0 / np.log2(np.arange(2, top_n + 2, dtype=np.float64))
    ideal_prefix = np.cumsum(discounts)
    dcgs = rel @ discounts
    ideals = ideal_prefix[np.minimum(held_lengths, top_n) - 1]
    return RankingMetrics(
        n=n,
        users=int(users.size),
        hit_rate=float(got.sum() / held_lengths.sum()),
        precision=float(np.mean(got / n)),
        recall=float(np.mean(got / held_lengths)),
        ndcg=float(np.mean(dcgs / ideals)),
    )


def _concat_results(rows):
    from repro.serving.engine import TopNResult

    return TopNResult(
        items=np.concatenate([r.items for r in rows], axis=0),
        scores=np.concatenate([r.scores for r in rows], axis=0),
    )
