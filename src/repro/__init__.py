"""repro — Efficient and Portable ALS Matrix Factorization (IPDPSW'17).

A full Python reproduction of Chen et al., "Efficient and Portable ALS
Matrix Factorization for Recommender Systems": the ALS solver, its 8
thread-batched code variants, the SAC15 and cuMF comparators, and an
OpenCL-style simulator of the paper's three devices (Xeon E5-2670,
Tesla K20c, Xeon Phi 31SP) that reproduces every table and figure of the
evaluation.

Quickstart::

    import repro

    problem = repro.generate_ratings(repro.MOVIELENS10M.scaled(1 / 256))
    model = repro.train_als(problem, repro.ALSConfig(k=10, lam=0.1))
    print(model.history[-1].train_rmse)

    solver = repro.PortableALS(repro.NVIDIA_TESLA_K20C)
    print(solver.simulate_spec(repro.NETFLIX))
"""

from repro.api import Recommender
from repro.core import (
    ALSConfig,
    ALSModel,
    IterationStats,
    train_als,
    train_als_wr,
    ImplicitConfig,
    ImplicitModel,
    train_implicit_als,
    regularized_loss,
    rmse,
    mae,
    predict_rating,
    predict_entries,
    recommend_top_n,
    init_factors,
    evaluate_ranking,
    recommend_top_n_batch,
    BLOCK_SCHEDULES,
    make_blocks,
    subspace_iteration,
)
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    CSCMatrix,
    ShardStore,
    ShardedCSR,
    configure_sharding,
)
from repro.datasets import (
    DatasetSpec,
    MOVIELENS1M,
    MOVIELENS10M,
    NETFLIX,
    YAHOO_R1,
    YAHOO_R4,
    TABLE_I,
    dataset_by_name,
    generate_ratings,
    generate_ratings_chunked,
    degree_sequences,
    planted_problem,
    train_test_split,
    load_ratings,
    save_ratings,
    iter_rating_file,
    build_shard_store,
    build_store_from_rating_file,
)
from repro.clsim import (
    DeviceSpec,
    DeviceKind,
    INTEL_XEON_E5_2670_X2,
    NVIDIA_TESLA_K20C,
    INTEL_XEON_PHI_31SP,
    ALL_DEVICES,
    device_by_name,
    OptFlags,
)
from repro.kernels import Variant, all_variants, recommended_variant
from repro.solvers import PortableALS, Sac15Baseline, CuMF, SimulatedRun
from repro.autotune import exhaustive_search, VariantSelector, train_default_selector
from repro.extensions import SGDConfig, train_sgd, CCDConfig, train_ccd
from repro.serving import TopNEngine, TopNResult, configure_serving
from repro import obs

__version__ = "1.0.0"

__all__ = [
    # core
    "ALSConfig",
    "ALSModel",
    "IterationStats",
    "train_als",
    "train_als_wr",
    "ImplicitConfig",
    "ImplicitModel",
    "train_implicit_als",
    "regularized_loss",
    "rmse",
    "mae",
    "predict_rating",
    "predict_entries",
    "recommend_top_n",
    "init_factors",
    "Recommender",
    "evaluate_ranking",
    "recommend_top_n_batch",
    "BLOCK_SCHEDULES",
    "make_blocks",
    "subspace_iteration",
    # sparse
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "ShardStore",
    "ShardedCSR",
    "configure_sharding",
    # datasets
    "DatasetSpec",
    "MOVIELENS1M",
    "MOVIELENS10M",
    "NETFLIX",
    "YAHOO_R1",
    "YAHOO_R4",
    "TABLE_I",
    "dataset_by_name",
    "generate_ratings",
    "generate_ratings_chunked",
    "degree_sequences",
    "planted_problem",
    "train_test_split",
    "load_ratings",
    "save_ratings",
    "iter_rating_file",
    "build_shard_store",
    "build_store_from_rating_file",
    # simulator
    "DeviceSpec",
    "DeviceKind",
    "INTEL_XEON_E5_2670_X2",
    "NVIDIA_TESLA_K20C",
    "INTEL_XEON_PHI_31SP",
    "ALL_DEVICES",
    "device_by_name",
    "OptFlags",
    # kernels / solvers / autotune
    "Variant",
    "all_variants",
    "recommended_variant",
    "PortableALS",
    "Sac15Baseline",
    "CuMF",
    "SimulatedRun",
    "exhaustive_search",
    "VariantSelector",
    "train_default_selector",
    "SGDConfig",
    "train_sgd",
    "CCDConfig",
    "train_ccd",
    # serving
    "TopNEngine",
    "TopNResult",
    "configure_serving",
    # observability
    "obs",
    "__version__",
]
