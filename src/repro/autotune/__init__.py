"""Code-variant selection (§III-D + the paper's stated future work).

``search`` implements the paper's empirical approach: run every variant ×
work-group size on the target execution context and keep the fastest.
``selector`` implements the machine-learning approach the paper proposes
as future work: learn the best configuration from (device, dataset)
features so new contexts don't need an exhaustive sweep.
``serving`` applies the measure-then-pick loop to the query path (top-N
tile size and scoring precision).
"""

from repro.autotune.search import SearchResult, exhaustive_search, WS_CANDIDATES
from repro.autotune.features import context_features, FEATURE_NAMES
from repro.autotune.selector import VariantSelector, train_default_selector
from repro.autotune.serving import (
    ServingDecision,
    measure_serving,
    select_serving,
    cached_serving_decisions,
    clear_serving_cache,
)
from repro.autotune.sharding import (
    ShardingDecision,
    measure_sharding,
    select_sharding,
    cached_sharding_decisions,
    clear_sharding_cache,
)
from repro.autotune.blocks import (
    BlockDecision,
    block_candidates,
    measure_blocks,
    select_block_size,
    cached_block_decisions,
    clear_block_cache,
)

__all__ = [
    "BlockDecision",
    "block_candidates",
    "measure_blocks",
    "select_block_size",
    "cached_block_decisions",
    "clear_block_cache",
    "ShardingDecision",
    "measure_sharding",
    "select_sharding",
    "cached_sharding_decisions",
    "clear_sharding_cache",
    "ServingDecision",
    "measure_serving",
    "select_serving",
    "cached_serving_decisions",
    "clear_serving_cache",
    "SearchResult",
    "exhaustive_search",
    "WS_CANDIDATES",
    "context_features",
    "FEATURE_NAMES",
    "VariantSelector",
    "train_default_selector",
]
