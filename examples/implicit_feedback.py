"""Implicit-feedback recommendation on play-count-style data.

The paper credits ALS with handling implicit ratings (§I, citing Koren
et al.); this example builds synthetic listen counts with community
structure, trains implicit ALS, and measures top-10 ranking quality
(hit rate / NDCG) on held-out interactions against a popularity baseline.

    python examples/implicit_feedback.py
"""

from __future__ import annotations

import numpy as np

import repro


def synthetic_playcounts(
    m: int = 400, n: int = 250, communities: int = 5, seed: int = 3
) -> repro.COOMatrix:
    """Play counts where users mostly interact inside their community."""
    rng = np.random.default_rng(seed)
    user_comm = rng.integers(0, communities, size=m)
    item_comm = rng.integers(0, communities, size=n)
    affinity = np.where(user_comm[:, None] == item_comm[None, :], 0.25, 0.01)
    mask = rng.random((m, n)) < affinity
    counts = np.where(mask, rng.geometric(0.2, size=(m, n)), 0).astype(np.float32)
    return repro.COOMatrix.from_dense(counts)


def main() -> None:
    counts = synthetic_playcounts()
    split = repro.train_test_split(counts, test_fraction=0.2, seed=0)
    print(f"interactions: {split.train.nnz} train / {split.test.nnz} test")

    model = repro.train_implicit_als(
        split.train, repro.ImplicitConfig(k=16, lam=0.1, alpha=20.0, iterations=8)
    )
    print("implicit objective per iteration:",
          " ".join(f"{v:.0f}" for v in model.losses()))

    R_train = repro.CSRMatrix.from_coo(split.train)
    als_metrics = repro.evaluate_ranking(model.score, R_train, split.test, n=10)
    # Popularity baseline: everyone gets the globally hottest items.
    item_counts = np.bincount(
        split.train.col, minlength=split.train.shape[1]
    ).astype(float)
    pop_metrics = repro.evaluate_ranking(
        lambda u: item_counts, R_train, split.test, n=10
    )
    print(f"implicit ALS : {als_metrics}")
    print(f"popularity   : {pop_metrics}")


if __name__ == "__main__":
    main()
