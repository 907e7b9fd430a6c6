"""Core ALS library: the user-facing matrix-factorization API.

Implements Algorithm 1 of the paper (explicit-feedback ALS with the
regularized squared loss of Eq. 2), plus the two classic extensions the
surrounding literature uses: ALS-WR's weighted-λ regularization (Zhou et
al. [3]) and implicit-feedback ALS (the "can incorporate implicit
ratings" property the paper's introduction credits ALS with).
"""

from repro.core.als import ALSConfig, ALSModel, IterationStats, train_als
from repro.core.init import init_factors
from repro.core.loss import regularized_loss, rmse, mae
from repro.core.predict import (
    predict_entries,
    predict_rating,
    recommend_top_n,
    recommend_top_n_batch,
)
from repro.core.ranking import RankingMetrics, evaluate_ranking
from repro.core.alswr import train_als_wr
from repro.core.implicit import (
    ImplicitConfig,
    ImplicitModel,
    implicit_half_sweep,
    train_implicit_als,
)
from repro.core.subspace import (
    BLOCK_SCHEDULES,
    make_blocks,
    pass_cost,
    resolve_block_size,
    subspace_iteration,
    validate_block_size,
)

__all__ = [
    "BLOCK_SCHEDULES",
    "make_blocks",
    "pass_cost",
    "resolve_block_size",
    "subspace_iteration",
    "validate_block_size",
    "ALSConfig",
    "ALSModel",
    "IterationStats",
    "train_als",
    "init_factors",
    "regularized_loss",
    "rmse",
    "mae",
    "predict_entries",
    "predict_rating",
    "recommend_top_n",
    "recommend_top_n_batch",
    "RankingMetrics",
    "evaluate_ranking",
    "train_als_wr",
    "ImplicitConfig",
    "ImplicitModel",
    "implicit_half_sweep",
    "train_implicit_als",
]
