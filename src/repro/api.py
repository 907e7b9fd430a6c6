"""High-level recommender facade.

Wraps dataset handling, training, evaluation, recommendation and model
persistence behind one object — the interface a downstream application
would actually use, with the paper's machinery underneath.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
from numpy.lib.format import open_memmap

from repro.core.als import ALSConfig, ALSModel, IterationStats, ratings_views, train_als
from repro.core.alswr import train_als_wr
from repro.core.implicit import ImplicitConfig, ImplicitModel, train_implicit_als
from repro.core.loss import mae, rmse
from repro.core.predict import predict_entries, recommend_top_n
from repro.obs.spans import span
from repro.serving.engine import TopNEngine, TopNResult
from repro.serving.foldin import as_new_rows_csr, fold_in_factors
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = ["Recommender"]

#: Rows copied per chunk when writing factor checkpoints — bounds the
#: transient footprint of ``save`` to one chunk instead of a full second
#: copy of the factors (the ``.npz`` writer's compression buffer).
_SAVE_CHUNK_ROWS = 1 << 16

_ALGORITHMS = {"als": train_als, "als-wr": train_als_wr, "implicit": train_implicit_als}
_CONFIGS = {"als": ALSConfig, "als-wr": ALSConfig, "implicit": ImplicitConfig}
#: Config keys older checkpoints hold for the retired assembly/S3 variants.
_RETIRED_CONFIG_KEYS = ("assembly", "solver", "cholesky")


def _check_finite(source, X: np.ndarray, Y: np.ndarray) -> None:
    """Raise naming the first factor row holding a NaN or an infinity.

    Reads the factors in row chunks, so a memory-mapped model pages
    through once without being held.
    """
    for name, F in (("X", X), ("Y", Y)):
        for a in range(0, F.shape[0], _SAVE_CHUNK_ROWS):
            bad = ~np.isfinite(F[a:a + _SAVE_CHUNK_ROWS]).all(axis=1)
            if bad.any():
                raise ValueError(
                    f"{source}: non-finite value in factor {name}, "
                    f"row {a + int(np.argmax(bad))}"
                )


class Recommender:
    """Train-once, query-many recommender over explicit ratings.

    >>> rec = Recommender(k=10, lam=0.1, iterations=5)
    >>> rec.fit(ratings)                        # COOMatrix
    >>> rec.predict([0, 1], [5, 9])
    >>> rec.recommend(user=0, n_items=10)
    >>> rec.save("model.npz"); Recommender.load("model.npz")
    """

    def __init__(
        self,
        k: int = 10,
        lam: float = 0.1,
        iterations: int = 5,
        algorithm: str = "als",
        seed: int = 0,
        alpha: float = 40.0,
        block_size: int | None = None,
        block_schedule: str | None = None,
    ) -> None:
        if algorithm not in _ALGORITHMS:
            known = ", ".join(sorted(_ALGORITHMS))
            raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}")
        knobs: dict = {}
        if block_size is not None:
            knobs["block_size"] = block_size
        if block_schedule is not None:
            knobs["block_schedule"] = block_schedule
        if algorithm == "implicit":
            knobs["alpha"] = alpha
        self.config: ALSConfig = _CONFIGS[algorithm](
            k=k, lam=lam, iterations=iterations, seed=seed, **knobs
        )
        self.algorithm = algorithm
        self._model: ALSModel | None = None
        self._train_csr: CSRMatrix | ShardedCSR | None = None
        self._engine: TopNEngine | None = None
        # (Y, YᵀY) of the implicit fold-in: one Gramian per item basis.
        self._gram: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, ratings: COOMatrix | CSRMatrix | ShardStore) -> "Recommender":
        """Train the factor model on observed ratings.

        An in-RAM input is converted to CSR exactly once; the same view
        feeds the trainer and the ``exclude_seen`` filter of
        ``recommend``.  A :class:`ShardStore` trains out of core and its
        memory-mapped row view serves the exclusion filter (per-user
        gathers touch only the pages holding those rows).

        Raises :class:`ValueError` naming the factor and the row when
        training leaves a NaN or an infinity in ``X`` or ``Y``; the
        recommender then keeps its previous model.
        """
        with span("recommender.fit", algorithm=self.algorithm, k=self.config.k):
            if isinstance(ratings, ShardStore):
                train, view = ratings, ratings.rows
            else:
                _, csr = ratings_views(ratings)
                train = view = csr
            model = _ALGORITHMS[self.algorithm](train, self.config)
            _check_finite("fit", model.X, model.Y)
            self._model = model
            self._train_csr = view
            self._engine = None  # factors changed; rebuild lazily
            self._gram = None
        return self

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    @property
    def model(self) -> ALSModel:
        if self._model is None:
            raise RuntimeError("call fit() first")
        return self._model

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def predict(self, users, items) -> np.ndarray:
        """Predicted ratings for parallel user/item index arrays."""
        with span("recommender.predict"):
            return predict_entries(self.model, np.asarray(users), np.asarray(items))

    def engine(self, **kwargs) -> TopNEngine:
        """The tiled top-N serving engine over the trained factors.

        Built lazily on first query and reused (item factors are cast to
        the scoring dtype once); pass knobs (``tile_bytes``, ``dtype``,
        ``user_block``, ``workers``) to rebuild with a new configuration.
        """
        if kwargs or self._engine is None:
            self._engine = TopNEngine.from_model(self.model, **kwargs)
        return self._engine

    def recommend(
        self, user: int, n_items: int = 10, exclude_seen: bool = True
    ) -> list[tuple[int, float]]:
        """Top-N items for a user, excluding training items by default.

        Truncated when the user has fewer than ``n_items`` unseen items
        (see :mod:`repro.core.predict` for the contract).
        """
        with span("recommender.recommend", n_items=n_items):
            exclude = self._train_csr if exclude_seen else None
            return recommend_top_n(
                self.model, user, n_items=n_items, exclude=exclude,
                engine=self.engine(),
            )

    def recommend_batch(
        self, users, n_items: int = 10, exclude_seen: bool = True
    ) -> TopNResult:
        """Top-N for many users at once, through the tiled engine.

        Returns a :class:`~repro.serving.engine.TopNResult` whose rows
        are padded with ``-1`` for users with fewer than ``n_items``
        unseen items.
        """
        with span("recommender.recommend_batch", n_items=n_items):
            exclude = self._train_csr if exclude_seen else None
            return self.engine().query(
                np.asarray(users), n=n_items, exclude=exclude
            )

    def evaluate_ranking(self, test: COOMatrix, n: int = 10):
        """Top-N ranking quality against a held-out split (engine-backed)."""
        from repro.core.ranking import evaluate_ranking

        if self._train_csr is None:
            raise RuntimeError(
                "ranking evaluation needs the training matrix; fit() this "
                "recommender rather than loading a persisted model"
            )
        with span("recommender.evaluate_ranking", n=n):
            return evaluate_ranking(
                self.model, self._train_csr, test, n=n, engine=self.engine()
            )

    def evaluate(self, ratings: COOMatrix) -> dict[str, float]:
        """RMSE/MAE on a rating set (e.g. the held-out split)."""
        with span("recommender.evaluate"):
            model = self.model
            return {
                "rmse": rmse(ratings, model.X, model.Y),
                "mae": mae(ratings, model.X, model.Y),
            }

    # ------------------------------------------------------------------
    # incremental fold-in / online updates
    # ------------------------------------------------------------------
    def _fold_in(self, R_new: CSRMatrix, basis: np.ndarray) -> np.ndarray:
        """:func:`fold_in_factors` with this recommender's knobs; an
        implicit fold-in against the item basis reuses its Gramian."""
        gram = None
        if self.algorithm == "implicit" and basis is self.model.Y:
            if self._gram is None or self._gram[0] is not basis:
                # The expression implicit_half_sweep uses, so fold-in
                # stays bitwise equal to a fresh half-sweep.
                Y = np.ascontiguousarray(basis, dtype=np.float64)
                self._gram = (basis, Y.T @ Y)
            gram = self._gram[1]
        return fold_in_factors(
            R_new, basis, self.config.lam, self.algorithm,
            getattr(self.config, "alpha", None), gram=gram,
        )

    def _foldin_train_matrix(self) -> CSRMatrix | None:
        if isinstance(self._train_csr, ShardedCSR):
            raise ValueError(
                "fold-in over an out-of-core (sharded) training matrix is "
                "not supported; train in RAM or serve a loaded checkpoint"
            )
        return self._train_csr

    def fold_in_users(self, ratings: COOMatrix | CSRMatrix) -> np.ndarray:
        """Append new users without retraining — one batched half-sweep solve.

        ``ratings`` rows index the *new* users (0..h-1) and columns the
        existing items.  Each new user's factors are exactly the k×k
        ridge system a half-sweep solves per row, so they are assembled
        through the binned kernels and solved as one batched S3 call
        (:mod:`repro.serving.foldin`) and appended to ``model.X``; the
        item factors and every existing user row are untouched.  The
        training matrix gains the new rows (O(new nnz)) so
        ``exclude_seen`` keeps working.  Returns the assigned global
        user ids.
        """
        model = self.model
        train = self._foldin_train_matrix()
        n_items = int(model.Y.shape[0])
        R_new = as_new_rows_csr(ratings, n_items)
        with span("recommender.fold_in_users", rows=R_new.nrows, nnz=R_new.nnz):
            X_new = self._fold_in(R_new, model.Y)
            m_old = int(model.X.shape[0])
            model.X = np.concatenate(
                [np.asarray(model.X, dtype=np.float64), X_new], axis=0
            )
            if train is None:
                # Loaded checkpoint: no training matrix persisted — the
                # existing users have no exclusion rows, the new ones do.
                train = CSRMatrix(
                    (m_old, n_items),
                    np.zeros(0, dtype=np.float32),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(m_old + 1, dtype=np.int64),
                )
            self._train_csr = train.append_rows(R_new)
            self._engine = None  # row count changed; rebuild lazily
        return np.arange(m_old, m_old + R_new.nrows)

    def fold_in_items(self, ratings: COOMatrix | CSRMatrix) -> np.ndarray:
        """Append new items: the transpose of :meth:`fold_in_users`.

        ``ratings`` rows index the *new* items and columns the existing
        users; the new item factors solve against the fixed user factors
        and append to ``model.Y``.  The training matrix is rebuilt with
        the widened column space (O(total nnz) — column appends cannot
        reuse the row-major layout).  Returns the new global item ids.
        """
        model = self.model
        train = self._foldin_train_matrix()
        m_users = int(model.X.shape[0])
        R_new = as_new_rows_csr(ratings, m_users)
        with span("recommender.fold_in_items", rows=R_new.nrows, nnz=R_new.nnz):
            Y_new = self._fold_in(R_new, model.X)
            n_old = int(model.Y.shape[0])
            model.Y = np.concatenate(
                [np.asarray(model.Y, dtype=np.float64), Y_new], axis=0
            )
            if train is not None:
                rows = np.concatenate([train.expanded_rows(), R_new.col_idx])
                cols = np.concatenate(
                    [train.col_idx, n_old + R_new.expanded_rows()]
                )
                vals = np.concatenate([train.value, R_new.value])
                self._train_csr = CSRMatrix.from_coo(COOMatrix(
                    (train.nrows, n_old + R_new.nrows), rows, cols, vals
                ))
            self._engine = None
            self._gram = None
        return np.arange(n_old, n_old + R_new.nrows)

    def update_ratings(self, updates: COOMatrix) -> np.ndarray:
        """Merge new/changed ratings of *existing* users; re-solve only
        their rows.

        ``updates`` entries address existing (user, item) coordinates;
        a duplicate coordinate overwrites the stored rating (last write
        wins, the same reconciliation rule as dataset loading).  The
        affected users' factor rows are recomputed through the fold-in
        path — each comes back bitwise-equal to the same row of a fresh
        serial float64 half-sweep over the merged matrix — and every
        other row is untouched.  Requires the training matrix (``fit``
        in RAM; a loaded checkpoint has none).  Returns the affected
        user ids.
        """
        model = self.model
        train = self._foldin_train_matrix()
        if train is None:
            raise RuntimeError(
                "update_ratings needs the training matrix; fit() this "
                "recommender rather than loading a persisted model"
            )
        if not isinstance(updates, COOMatrix):
            raise TypeError("updates must be a COOMatrix of (user, item, rating)")
        if updates.shape[0] > train.nrows or updates.shape[1] > train.ncols:
            raise ValueError(
                f"updates shape {updates.shape} exceeds the training matrix "
                f"{(train.nrows, train.ncols)}; use fold_in_users/"
                "fold_in_items for new entities"
            )
        with span("recommender.update_ratings", nnz=updates.nnz):
            affected, rows = train.merged_rows(updates)
            merged = train.replace_rows(affected, rows)
            X_rows = self._fold_in(rows, model.Y)
            X = np.array(model.X, dtype=np.float64, copy=True)
            X[affected] = X_rows
            model.X = X
            self._train_csr = merged
            self._engine = None
        return affected

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Persist factors, hyper-parameters and the training history.

        The default format is a checkpoint *directory* — ``X.npy`` and
        ``Y.npy`` written through :func:`numpy.lib.format.open_memmap`
        in row chunks (peak transient memory is one chunk, and memmapped
        factors stream disk-to-disk without ever being resident), plus a
        ``meta.json`` sidecar.  A ``path`` ending in ``.npz`` selects
        the legacy single-file compressed envelope instead, which
        materializes a second copy of the factors while compressing.

        Every algorithm shares the same envelope: ``X``/``Y`` factor
        arrays plus JSON metadata whose ``algorithm`` field selects the
        config and model types, and whose ``history`` is the
        per-iteration :class:`IterationStats` (an implicit model's
        ``loss`` is the exact implicit objective, its ``train_rmse``
        null; a checkpoint keeps the history it was saved with).
        """
        model = self.model
        meta = {
            "algorithm": self.algorithm,
            "config": asdict(self.config),
            "history": [asdict(stats) for stats in model.history],
        }
        if str(path).endswith(".npz"):
            np.savez_compressed(
                path,
                X=np.asarray(model.X),
                Y=np.asarray(model.Y),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
            return
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for name, arr in (("X", model.X), ("Y", model.Y)):
            dst = open_memmap(
                directory / f"{name}.npy", mode="w+",
                dtype=arr.dtype, shape=arr.shape,
            )
            for a in range(0, arr.shape[0], _SAVE_CHUNK_ROWS):
                b = min(a + _SAVE_CHUNK_ROWS, arr.shape[0])
                dst[a:b] = arr[a:b]
            dst.flush()
            del dst
        # meta.json is written last: a directory holding factor files but
        # no metadata is an interrupted save, and load() rejects it.
        (directory / "meta.json").write_text(json.dumps(meta))

    @classmethod
    def load(
        cls, path: str | os.PathLike, mmap_mode: str | None = None
    ) -> "Recommender":
        """Restore a saved recommender (query-ready; training data is not
        persisted, so ``recommend`` defaults to no exclusion).

        Directory checkpoints (the :meth:`save` default) support
        ``mmap_mode="r"``: the factors stay on disk and pages fault in
        as queries touch them, so a model larger than RAM can serve.
        Legacy ``.npz`` files load eagerly and reject ``mmap_mode``
        (a zip member cannot be mapped).

        Raises :class:`ValueError` — not a bare ``KeyError`` — when the
        file is missing envelope entries, names an unknown algorithm,
        holds factors whose shapes disagree with the stored config, or
        holds a non-finite factor value (the message names the factor
        and the row).  The check reads the factors in row chunks, so a
        memory-mapped load pages them through once without holding them.
        """
        p = Path(path)
        if p.is_dir():
            meta_path = p / "meta.json"
            missing = [
                f.name for f in (meta_path, p / "X.npy", p / "Y.npy")
                if not f.is_file()
            ]
            if missing:
                raise ValueError(
                    f"{path}: not a Recommender checkpoint directory — "
                    f"missing {', '.join(missing)}"
                )
            meta = json.loads(meta_path.read_text())
            X = np.load(p / "X.npy", mmap_mode=mmap_mode)
            Y = np.load(p / "Y.npy", mmap_mode=mmap_mode)
        else:
            if mmap_mode is not None:
                raise ValueError(
                    "mmap_mode requires a directory checkpoint; "
                    f"{path} is a legacy .npz file (members of a zip "
                    "archive cannot be memory-mapped)"
                )
            with np.load(path) as data:
                missing = [
                    key for key in ("X", "Y", "meta") if key not in data.files
                ]
                if missing:
                    raise ValueError(
                        f"{path}: not a Recommender checkpoint — missing "
                        f"{', '.join(missing)} "
                        f"(has: {', '.join(data.files) or 'nothing'})"
                    )
                meta = json.loads(bytes(data["meta"].tobytes()).decode())
                X = data["X"]
                Y = data["Y"]
        algorithm = meta.get("algorithm")
        if algorithm not in _ALGORITHMS:
            known = ", ".join(sorted(_ALGORITHMS))
            raise ValueError(
                f"{path}: unknown algorithm {algorithm!r}; known: {known}"
            )
        cfg = meta.get("config")
        if not isinstance(cfg, dict) or "k" not in cfg:
            raise ValueError(f"{path}: meta block lacks a config with 'k'")
        k = cfg["k"]
        if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != k or Y.shape[1] != k:
            raise ValueError(
                f"{path}: factor shapes {X.shape}/{Y.shape} do not match "
                f"the stored config (k={k})"
            )
        _check_finite(path, X, Y)
        # Files written before history persistence lack the key; they
        # load with an empty history, as before.
        history = meta.get("history", [])
        if history and not isinstance(history[0], dict):
            # Older implicit files: a float loss per iteration, plus the
            # structured `stats` list when it was recorded.
            history = meta.get("stats") or [
                {"iteration": i + 1, "loss": float(h), "train_rmse": None}
                for i, h in enumerate(history)
            ]
        # Retired code-variant toggles: older files store them, and none
        # of them changes what the stored factors mean.
        cfg = {k: v for k, v in cfg.items() if k not in _RETIRED_CONFIG_KEYS}
        rec = cls(algorithm=algorithm)
        rec.config = _CONFIGS[algorithm](**cfg)  # every persisted knob
        model_type = ImplicitModel if algorithm == "implicit" else ALSModel
        rec._model = model_type(
            X=X, Y=Y, config=rec.config,
            history=[IterationStats(**stats) for stats in history],
        )
        return rec
