"""A non-finite basis row fails loudly in both forms of the explicit solve.

Rows with fewer ratings than ``k`` solve the dual n×n system and the
rest the primal k×k one; a NaN or inf in a basis row must raise
:class:`CholeskyError` from ``fit``, ``fold_in_users`` and
``update_ratings`` whichever form its raters take, never come back as
NaN factors.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.als as als_module
from repro.api import Recommender
from repro.linalg import CholeskyError
from repro.sparse import COOMatrix

K = 8
POISON = 0  # the basis row (item) the fault lands in
SHORT, LONG = 3, 2 * K  # degrees on either side of the dual/primal boundary


def _ratings(poison_degree: int) -> COOMatrix:
    """Users 0..19 rate 12 items each, never item ``POISON``; user 20
    rates it among ``poison_degree`` items, so only that row's system
    touches the poisoned basis row."""
    rng = np.random.default_rng(4)
    n = 40
    rows, cols = [], []
    for u in range(20):
        items = rng.choice(np.arange(1, n), 12, replace=False)
        rows += [u] * 12
        cols += items.tolist()
    items = [POISON] + rng.choice(np.arange(1, n), poison_degree - 1, replace=False).tolist()
    rows += [20] * poison_degree
    cols += items
    vals = rng.integers(1, 6, len(rows)).astype(np.float32)
    return COOMatrix((21, n), np.array(rows), np.array(cols), vals)


def _fitted(poison_degree: int) -> Recommender:
    return Recommender(k=K, lam=0.5, iterations=2, seed=1).fit(_ratings(poison_degree))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("degree", [SHORT, LONG], ids=["dual", "primal"])
class TestNonFiniteBasisRaises:
    def test_fit(self, bad, degree, monkeypatch):
        real = als_module.init_factors

        def poisoned(*args, **kwargs):
            X, Y = real(*args, **kwargs)
            Y[POISON, 0] = bad
            return X, Y

        monkeypatch.setattr(als_module, "init_factors", poisoned)
        with pytest.raises(CholeskyError):
            _fitted(degree)

    def test_fold_in_users(self, bad, degree):
        rec = _fitted(SHORT)
        rec.model.Y[POISON, 1] = bad
        rng = np.random.default_rng(9)
        items = np.concatenate(
            [[POISON], rng.choice(np.arange(1, 40), degree - 1, replace=False)]
        )
        new = COOMatrix(
            (1, 40), np.zeros(degree, dtype=np.int64), items,
            np.full(degree, 4.0, dtype=np.float32),
        )
        X_before = np.array(rec.model.X)
        with pytest.raises(CholeskyError):
            rec.fold_in_users(new)
        assert np.array_equal(rec.model.X, X_before)

    def test_update_ratings(self, bad, degree):
        rec = _fitted(degree)
        rec.model.Y[POISON, 2] = bad
        # Re-rate one of user 20's other items: only its row is re-solved,
        # and its system reads the poisoned basis row.
        ratings = _ratings(degree)
        item = int(ratings.col[(ratings.row == 20) & (ratings.col != POISON)][0])
        update = COOMatrix(
            (21, 40), np.array([20]), np.array([item]),
            np.array([5.0], dtype=np.float32),
        )
        X_before = np.array(rec.model.X)
        with pytest.raises(CholeskyError):
            rec.update_ratings(update)
        assert np.array_equal(rec.model.X, X_before)


def test_finite_basis_trains_both_forms():
    """The fixtures themselves are sound: without the fault every form
    solves to finite factors."""
    for degree in (SHORT, LONG):
        rec = _fitted(degree)
        assert np.isfinite(rec.model.X).all() and np.isfinite(rec.model.Y).all()
