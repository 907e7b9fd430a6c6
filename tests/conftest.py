"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import knobs
from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture(autouse=True)
def _reset_knobs():
    """No test sees or leaks a configured knob value."""
    knobs.reset()
    yield
    knobs.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_rating_matrix(
    rng: np.random.Generator,
    m: int = 24,
    n: int = 18,
    density: float = 0.25,
) -> CSRMatrix:
    """A small random rating matrix with ratings in [1, 5]."""
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.integers(1, 6, size=(m, n)).astype(np.float32), 0.0)
    return CSRMatrix.from_dense(dense.astype(np.float32))


@pytest.fixture
def small_ratings(rng: np.random.Generator) -> CSRMatrix:
    return random_rating_matrix(rng)


@pytest.fixture
def paper_fig2_matrix() -> COOMatrix:
    """The 4×4 example of Fig. 2: 5 ratings out of 16 cells."""
    dense = np.array(
        [
            [1.0, 0.0, 0.0, 2.0],
            [0.0, 3.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [4.0, 0.0, 5.0, 0.0],
        ],
        dtype=np.float32,
    )
    return COOMatrix.from_dense(dense)
