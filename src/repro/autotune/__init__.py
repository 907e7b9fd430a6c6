"""Code-variant selection (§III-D + the paper's stated future work).

``search`` implements the paper's empirical approach: run every variant ×
work-group size on the target execution context and keep the fastest.
``selector`` implements the machine-learning approach the paper proposes
as future work: learn the best configuration from (device, dataset)
features so new contexts don't need an exhaustive sweep.  The host-side
knobs (:mod:`repro.knobs`) are not measured at run time: each has a
fixed default settled by a committed BENCH record.
"""

from repro.autotune.search import SearchResult, exhaustive_search, WS_CANDIDATES
from repro.autotune.features import context_features, FEATURE_NAMES
from repro.autotune.selector import VariantSelector, train_default_selector

__all__ = [
    "SearchResult",
    "exhaustive_search",
    "WS_CANDIDATES",
    "context_features",
    "FEATURE_NAMES",
    "VariantSelector",
    "train_default_selector",
]
