"""Datasets: Table I catalog, synthetic generators, loaders and splits."""

from repro.datasets.catalog import (
    EXTRA_DATASETS,
    MOVIELENS1M,
    MOVIELENS10M,
    NETFLIX,
    TABLE_I,
    YAHOO_R1,
    YAHOO_R4,
    DatasetSpec,
    dataset_by_name,
)
from repro.datasets.loaders import (
    RatingFile,
    iter_rating_file,
    load_ratings,
    save_ratings,
)
from repro.datasets.planted import PlantedProblem, planted_problem
from repro.datasets.shardio import build_shard_store, build_store_from_rating_file
from repro.datasets.splits import TrainTestSplit, train_test_split
from repro.datasets.synthetic import (
    degree_sequences,
    generate_ratings,
    generate_ratings_chunked,
    zipf_degrees,
)

__all__ = [
    "DatasetSpec",
    "MOVIELENS1M",
    "MOVIELENS10M",
    "EXTRA_DATASETS",
    "NETFLIX",
    "YAHOO_R1",
    "YAHOO_R4",
    "TABLE_I",
    "dataset_by_name",
    "RatingFile",
    "iter_rating_file",
    "load_ratings",
    "save_ratings",
    "build_shard_store",
    "build_store_from_rating_file",
    "PlantedProblem",
    "planted_problem",
    "TrainTestSplit",
    "train_test_split",
    "degree_sequences",
    "generate_ratings",
    "generate_ratings_chunked",
    "zipf_degrees",
]
