"""Tests for Algorithm 1's error-rate stopping criterion and validation
tracking."""

from __future__ import annotations

import pytest

from repro.core import ALSConfig, train_als, train_als_wr
from repro.datasets import planted_problem, train_test_split


@pytest.fixture(scope="module")
def split():
    problem = planted_problem(m=80, n=60, rank=3, density=0.3, seed=6)
    return train_test_split(problem.ratings, test_fraction=0.2, seed=0)


class TestEarlyStopping:
    """Run for ``train_als``; :class:`TestEarlyStoppingALSWR` reruns every
    case for ``train_als_wr``, which shares the driver's stopping rule."""

    trainer = staticmethod(train_als)

    def test_stops_before_budget_on_loose_tol(self, split):
        model = self.trainer(split.train, ALSConfig(k=3, iterations=50, tol=0.05))
        assert len(model.history) < 50

    def test_tight_tol_uses_full_budget(self, split):
        model = self.trainer(split.train, ALSConfig(k=3, iterations=4, tol=1e-12))
        assert len(model.history) == 4

    def test_zero_tol_disables(self, split):
        model = self.trainer(split.train, ALSConfig(k=3, iterations=6, tol=0.0))
        assert len(model.history) == 6

    def test_stopping_point_satisfies_criterion(self, split):
        tol = 0.02
        model = self.trainer(split.train, ALSConfig(k=3, iterations=50, tol=tol))
        losses = model.losses()
        # Every consumed iteration but the last improved by ≥ tol.
        for prev, cur in zip(losses[:-2], losses[1:-1]):
            assert (prev - cur) / prev >= tol
        assert (losses[-2] - losses[-1]) / losses[-2] < tol

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            ALSConfig(tol=-0.1)
        with pytest.raises(ValueError, match="track_loss"):
            ALSConfig(tol=0.1, track_loss=False)


class TestEarlyStoppingALSWR(TestEarlyStopping):
    trainer = staticmethod(train_als_wr)


class TestValidationTracking:
    def test_validation_rmse_recorded(self, split):
        model = train_als(
            split.train, ALSConfig(k=3, iterations=4), validation=split.test
        )
        assert all(s.validation_rmse is not None for s in model.history)
        assert model.history[-1].validation_rmse < model.history[0].validation_rmse

    def test_absent_by_default(self, split):
        model = train_als(split.train, ALSConfig(k=3, iterations=2))
        assert all(s.validation_rmse is None for s in model.history)
