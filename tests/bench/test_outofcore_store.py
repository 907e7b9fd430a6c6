"""The outofcore workload leaves no temporary shard store behind."""

from __future__ import annotations

import tempfile

import pytest

from repro.bench.workloads import outofcore

TINY = dict(scale=1 / 2048, k=4, iterations=1, shard_bytes=1 << 20, seed=3)


@pytest.fixture
def tmpdir_is(tmp_path, monkeypatch):
    """Point ``TMPDIR`` (and the cached ``tempfile.tempdir``) at ``tmp_path``."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return tmp_path


def test_temporary_store_is_removed(tmpdir_is):
    record = outofcore.run_benchmark(**TINY)
    assert record["nnz"] > 0
    assert record["sharded"]["losses"]
    assert list(tmpdir_is.iterdir()) == []


def test_temporary_store_is_removed_on_failure(tmpdir_is, monkeypatch):
    monkeypatch.setattr(outofcore, "launch_phase", lambda *a, **kw: (1, None))
    with pytest.raises(RuntimeError, match="in-RAM phase failed"):
        outofcore.run_benchmark(**TINY)
    assert list(tmpdir_is.iterdir()) == []


def test_given_store_is_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(outofcore, "launch_phase", lambda *a, **kw: (1, None))
    store = tmp_path / "store"
    with pytest.raises(RuntimeError):
        outofcore.run_benchmark(store=str(store), **TINY)
    assert (store / "meta.json").exists()
