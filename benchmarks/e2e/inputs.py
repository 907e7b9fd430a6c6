"""Benchmark-owned input generation: ratings files, held-out splits, traffic.

Everything here depends on NumPy only, never on ``repro``, so a change to
``repro.datasets.synthetic`` or ``save_ratings`` cannot change what the
benchmark feeds the program.  The same ``(shape, seed)`` always yields
byte-identical files; :func:`sha256_file` records that in the output.

The ratings carry planted structure, so held-out RMSE and recall measure
whether training still works rather than fitting noise:

* user activity and item popularity follow shifted Zipf weights with the
  catalogue exponents 0.75 (users) and 0.95 (items);
* users and items belong to one of ``clusters`` taste groups; a user
  draws most items from its own group, by popularity within it;
* a rating is ``3 + user bias + item bias + taste affinity + noise``,
  where the affinity is high inside the user's group, rounded to the
  half-step scale 0.5–5.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Shape",
    "RatingsSplit",
    "make_ratings",
    "write_tsv",
    "sha256_file",
    "poisson_schedule",
    "user_ranking",
    "zipf_users",
]

USER_ALPHA = 0.75
ITEM_ALPHA = 0.95
MIN_USER_DEGREE = 10
TEST_SHARE = 0.2


@dataclass(frozen=True)
class Shape:
    """Users, items and target ratings of one synthetic catalogue."""

    name: str
    m: int
    n: int
    nnz: int
    clusters: int = 16
    in_cluster: float = 0.75  # share of a user's items drawn from its group


@dataclass(frozen=True)
class RatingsSplit:
    """A generated catalogue split 80/20 per user (every user keeps ≥1
    training rating, and every held-out item also appears in training).

    Indices are 0-based; the TSV writer adds 1 to form the file IDs.
    """

    shape: Shape
    train_users: np.ndarray
    train_items: np.ndarray
    train_values: np.ndarray
    test_users: np.ndarray
    test_items: np.ndarray
    test_values: np.ndarray


def _zipf_weights(count: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    w = (ranks + 0.002 * count) ** -alpha
    return rng.permutation(w / w.sum())


def _degrees(m: int, nnz: int, rng: np.random.Generator) -> np.ndarray:
    """User degrees ∝ Zipf weights, each at least ``MIN_USER_DEGREE``."""
    extra = max(0, nnz - MIN_USER_DEGREE * m)
    deg = MIN_USER_DEGREE + np.floor(_zipf_weights(m, USER_ALPHA, rng) * extra)
    return deg.astype(np.int64)


def _draw(cdf: np.ndarray, pool: np.ndarray, count: int, rng) -> np.ndarray:
    return pool[np.minimum(np.searchsorted(cdf, rng.random(count)), pool.size - 1)]


def _pick_items(shape: Shape, deg, pop, user_group, item_group, rng):
    """``(users, items)`` with exactly ``deg[u]`` distinct items per user.

    Draws with replacement at 1.5× the degree, removes repeats, then keeps
    a random ``deg[u]`` of each user's distinct items; a second round
    tops up the few users left short.
    """
    m, n = shape.m, shape.n
    everyone = np.arange(n, dtype=np.int64)
    group_pools = [np.flatnonzero(item_group == g) for g in range(shape.clusters)]
    need = deg.copy()
    have = np.zeros(0, dtype=np.int64)  # keys u * n + i already chosen
    for _ in range(4):
        want = np.ceil(need * 1.5).astype(np.int64) + (need > 0)
        users = np.repeat(np.arange(m, dtype=np.int64), want)
        own = rng.random(users.size) < shape.in_cluster
        items = _draw(np.cumsum(pop), everyone, users.size, rng)
        for g, pool in enumerate(group_pools):
            sel = np.flatnonzero(own & (user_group[users] == g))
            w = pop[pool]
            items[sel] = _draw(np.cumsum(w / w.sum()), pool, sel.size, rng)
        fresh = np.setdiff1d(np.unique(users * n + items), have)
        fresh = fresh[rng.permutation(fresh.size)]
        fresh = fresh[np.argsort(fresh // n, kind="stable")]
        owner = fresh // n
        starts = np.searchsorted(owner, np.arange(m))
        rank = np.arange(fresh.size) - starts[owner]
        have = np.concatenate([have, fresh[rank < need[owner]]])
        need = deg - np.bincount(have // n, minlength=m)
        if not need.any():
            break
    have.sort()
    return have // n, have % n


def make_ratings(shape: Shape, seed: int) -> RatingsSplit:
    """Generate one catalogue and its row-covered 80/20 split.

    Group sizes and taste directions are fixed (balanced groups, one
    orthogonal direction each); the seed moves only which users and
    items land where and the sampling noise, so quality metrics differ
    little from seed to seed.
    """
    rng = np.random.default_rng([seed, shape.m, shape.n, shape.nnz])
    m, n, c = shape.m, shape.n, shape.clusters
    deg = np.minimum(_degrees(m, shape.nnz, rng), n // 4)
    pop = _zipf_weights(n, ITEM_ALPHA, rng)
    user_group = rng.permutation(np.arange(m) % c)
    item_group = rng.permutation(np.arange(n) % c)
    users, items = _pick_items(shape, deg, pop, user_group, item_group, rng)

    taste = 2.0 * np.eye(c)
    user_vec = taste[user_group] + rng.normal(0.0, 0.3, (m, c))
    item_vec = taste[item_group] + rng.normal(0.0, 0.3, (n, c))
    affinity = np.einsum("ej,ej->e", user_vec[users], item_vec[items])
    raw = (
        3.0
        + rng.normal(0.0, 0.3, m)[users]
        + rng.normal(0.0, 0.3, n)[items]
        + 0.3 * affinity
        + rng.normal(0.0, 0.4, users.size)
    )
    values = np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0).astype(np.float32)

    # Row-covered split: hold out ~20% of each user's ratings, never the
    # user's first (in random order) rating, so every test user trains.
    order = rng.permutation(users.size)
    order = order[np.argsort(users[order], kind="stable")]
    first = np.ones(order.size, dtype=bool)
    first[1:] = users[order][1:] != users[order][:-1]
    test = np.zeros(users.size, dtype=bool)
    test[order] = (~first) & (rng.random(order.size) < TEST_SHARE)
    trained_items = np.zeros(n, dtype=bool)
    trained_items[items[~test]] = True
    test &= trained_items[items]
    return RatingsSplit(
        shape, users[~test], items[~test], values[~test],
        users[test], items[test], values[test],
    )


def write_tsv(path: str | Path, users, items, values) -> None:
    """Write ``user\\titem\\trating`` lines with 1-based IDs.

    Ratings are half-steps, so each formats exactly through a lookup
    table; the whole file is built in one string and written once.
    """
    half = np.round(np.asarray(values, dtype=np.float64) * 2.0).astype(np.int64)
    if np.any(np.abs(half / 2.0 - values) > 1e-6) or half.min() < 0:
        raise ValueError("write_tsv expects non-negative half-step ratings")
    labels = np.array([f"{h / 2:g}" for h in range(int(half.max()) + 1)])
    u = (np.asarray(users) + 1).astype(str)
    i = (np.asarray(items) + 1).astype(str)
    text = "\n".join(map("\t".join, zip(u, i, labels[half])))
    Path(path).write_text(text + "\n", encoding="utf-8")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    rng = np.random.default_rng([seed, 0x5C4ED])
    count = int(rate * seconds * 1.2) + 64
    t = np.cumsum(rng.exponential(1.0 / rate, count))
    while t[-1] < seconds:  # astronomically rare; keep the schedule exact
        t = np.concatenate([t, t[-1] + np.cumsum(rng.exponential(1.0 / rate, count))])
    return t[t < seconds]


def user_ranking(m: int, seed: int) -> np.ndarray:
    """User ids from most to least popular: one fixed order per run."""
    return np.random.default_rng([seed, 0x2F1]).permutation(m)


def zipf_users(ranking: np.ndarray, count: int, s: float, seed: int) -> np.ndarray:
    """``count`` user ids whose popularity rank is Zipf(``s``) distributed
    (``s=0``: uniform), mapped through ``ranking``."""
    rng = np.random.default_rng([seed, 0x2F2])
    m = ranking.size
    if s == 0:
        return ranking[rng.integers(0, m, count)]
    w = np.arange(1, m + 1, dtype=np.float64) ** -s
    ranks = np.searchsorted(np.cumsum(w / w.sum()), rng.random(count))
    return ranking[np.minimum(ranks, m - 1)]
