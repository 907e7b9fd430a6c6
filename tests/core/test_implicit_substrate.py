"""Parity and bounded-memory tests for implicit ALS on the tiled substrate.

The implicit half-sweep now rides the degree-binned, nnz-tile-budgeted
weighted assembly; the legacy scatter kernel stays as the reference
(:mod:`tests.oracle`).  These tests pin the contract:

* binned-weighted matches the scatter oracle to 1e-10, per half-sweep
  and end-to-end through ``train_implicit_als``;
* ``workers=N`` reproduces the serial result **bitwise**;
* peak assembly scratch respects ``tile_bytes_bound(..., weighted=True)``
  — no ``(nnz, k, k)`` intermediate survives;
* the ``als.implicit.s1/s2/s3`` spans are emitted;
* config knobs validate like :class:`ALSConfig`'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ImplicitConfig, train_implicit_als
from repro.core.implicit import implicit_half_sweep
from repro.linalg import scatter_normal_equations, tile_bytes_bound
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture
from repro.sparse import COOMatrix, CSRMatrix
from tests.oracle import oracle_fit, oracle_half_sweep


def _skewed_counts(rng: np.random.Generator, m: int = 48, n: int = 30) -> CSRMatrix:
    """Interaction counts with heavy rows, empty rows and a degree skew."""
    mask = rng.random((m, n)) < 0.2
    mask[0] = rng.random(n) < 0.9  # heavy user
    mask[1] = False  # cold-start user
    dense = np.where(mask, rng.integers(1, 8, size=(m, n)), 0).astype(np.float32)
    return CSRMatrix.from_dense(dense)


class TestHalfSweepParity:
    def test_binned_matches_scatter_reference(self, rng):
        R = _skewed_counts(rng)
        Y = rng.standard_normal((R.ncols, 7))
        ref = oracle_half_sweep(R, Y, 0.1, implicit_alpha=25.0)
        out = implicit_half_sweep(R, Y, 0.1, 25.0)
        np.testing.assert_allclose(out, ref, atol=1e-10, rtol=0)

    def test_tiny_tile_budget_matches_untiled(self, rng):
        R = _skewed_counts(rng)
        Y = rng.standard_normal((R.ncols, 5))
        full = implicit_half_sweep(R, Y, 0.1, 10.0)
        tiled = implicit_half_sweep(R, Y, 0.1, 10.0, tile_nnz=16)
        np.testing.assert_allclose(tiled, full, atol=1e-10, rtol=0)

    def test_parallel_bitwise_equals_serial(self, rng):
        R = _skewed_counts(rng, m=64)
        Y = rng.standard_normal((R.ncols, 6))
        serial = implicit_half_sweep(R, Y, 0.1, 40.0)
        for workers in (2, 5):
            par = implicit_half_sweep(R, Y, 0.1, 40.0, workers=workers)
            assert np.array_equal(par, serial)

    def test_rejects_nonpositive_alpha(self, rng):
        R = _skewed_counts(rng, m=8, n=6)
        with pytest.raises(ValueError):
            implicit_half_sweep(R, rng.standard_normal((6, 2)), 0.1, 0.0)


class TestEndToEndParity:
    def _counts(self, rng) -> COOMatrix:
        mask = rng.random((36, 24)) < 0.25
        dense = np.where(mask, rng.integers(1, 6, size=(36, 24)), 0)
        return COOMatrix.from_dense(dense.astype(np.float32))

    def test_training_binned_matches_scatter(self, rng):
        counts = self._counts(rng)
        out = train_implicit_als(
            counts, ImplicitConfig(k=4, iterations=3, alpha=20.0, seed=3)
        )
        X, Y = oracle_fit(counts, k=4, iterations=3, seed=3, implicit_alpha=20.0)
        np.testing.assert_allclose(out.X, X, atol=1e-10, rtol=0)
        np.testing.assert_allclose(out.Y, Y, atol=1e-10, rtol=0)

    def test_training_parallel_bitwise(self, rng):
        counts = self._counts(rng)
        kw = dict(k=4, iterations=3, alpha=20.0, seed=3)
        serial = train_implicit_als(counts, ImplicitConfig(**kw))
        par = train_implicit_als(counts, ImplicitConfig(workers=4, **kw))
        assert np.array_equal(par.X, serial.X)
        assert np.array_equal(par.Y, serial.Y)
        assert par.losses() == serial.losses()

    def test_model_shape_and_k(self, rng):
        counts = self._counts(rng)
        model = train_implicit_als(counts, ImplicitConfig(k=4, iterations=1))
        assert model.shape == counts.shape
        assert model.k == 4


class TestBoundedMemoryAndSpans:
    def test_peak_tile_gauge_respects_weighted_bound(self, rng):
        R = _skewed_counts(rng, m=80, n=40)
        Y = rng.standard_normal((R.ncols, 8))
        tile_nnz = 64
        with capture():
            obs_metrics.reset()
            implicit_half_sweep(R, Y, 0.1, 30.0, tile_nnz=tile_nnz)
            snap = obs_metrics.snapshot()
        peak = snap["gauges"]["assembly.implicit.peak_tile_bytes"]
        assert 0 < peak <= tile_bytes_bound(tile_nnz, 8, weighted=True)

    def test_no_dense_nnz_k_k_intermediate(self, rng):
        """The binned path's scratch must not scale with nnz·k² — a budget
        of 32 nnz on a 2000-nnz matrix keeps peak bytes far below the
        scatter kernel's (nnz, k, k) tensor."""
        rng2 = np.random.default_rng(9)
        mask = rng2.random((100, 80)) < 0.25
        dense = np.where(mask, rng2.integers(1, 5, size=(100, 80)), 0)
        R = CSRMatrix.from_dense(dense.astype(np.float32))
        k = 16
        Y = rng2.standard_normal((R.ncols, k))
        with capture():
            obs_metrics.reset()
            implicit_half_sweep(R, Y, 0.1, 10.0, tile_nnz=32)
            peak = obs_metrics.snapshot()["gauges"][
                "assembly.implicit.peak_tile_bytes"
            ]
        scatter_tensor_bytes = R.nnz * k * k * 8
        assert peak < scatter_tensor_bytes / 10

    def test_implicit_spans_emitted(self, rng):
        R = _skewed_counts(rng, m=16, n=10)
        Y = rng.standard_normal((R.ncols, 3))
        with capture() as tracer:
            implicit_half_sweep(R, Y, 0.1, 5.0)
        names = {r.name for r in tracer.records}
        # Binned S2 runs fused inside the S1 span.
        assert {"als.implicit.s1", "als.implicit.s3"} <= names
        assert "als.implicit.s2" not in names
        # The weighted scatter reference times S2 on its own.
        w = np.ones(R.nnz)
        with capture() as tracer:
            scatter_normal_equations(R, Y, 0.1, nnz_weight=w, rhs_nnz_value=w)
        names = {r.name for r in tracer.records}
        assert names == {"als.implicit.s1", "als.implicit.s2"}

    def test_explicit_spans_unchanged(self, rng):
        """The weighted kernels must not rename the explicit path's spans."""
        from repro.kernels.fastpath import fast_half_sweep

        R = _skewed_counts(rng, m=16, n=10)
        Y = rng.standard_normal((R.ncols, 3))
        with capture() as tracer:
            fast_half_sweep(R, Y, 0.1)
            scatter_normal_equations(R, Y, 0.1)
        names = {r.name for r in tracer.records}
        assert {"als.s1.gram", "als.s2.rhs", "als.s3.solve"} <= names
        assert not any(n.startswith("als.implicit") for n in names)


class TestConfigKnobs:
    def test_accepts_substrate_knobs(self):
        cfg = ImplicitConfig(tile_nnz=1024, assembly_dtype="float32", workers=2)
        assert cfg.tile_nnz == 1024
        assert cfg.workers == 2

    @pytest.mark.parametrize(
        "kw",
        [
            {"tile_nnz": 0},
            {"tile_nnz": "many"},
            {"assembly_dtype": "float16"},
            {"assembly_dtype": "int8"},
            {"workers": 0},
            {"workers": "sometimes"},
        ],
    )
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            ImplicitConfig(**kw)
