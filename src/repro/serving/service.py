"""The long-lived serving layer: micro-batching, caching, hot-swap.

:class:`RecommendService` turns the query *library* (``TopNEngine``)
into a query *system*.  The paper's central idea — amortize fixed cost
over many independent k-sized problems — applies to serving verbatim:

* **Micro-batch coalescing.**  Requests are queued, and a worker
  serves whatever is queued (up to ``max_batch`` users) as *one*
  batched ``query()`` call, so tile setup, exclusion lookup and the
  GEMM launch amortize exactly like the paper's thread batching
  amortizes per-row solve overhead.  The worker is work-conserving: it
  never waits for a batch to fill while requests are queued, and an
  idle worker serves the first arrival at once.  After answering a
  batch it yields the interpreter until the callers it just answered
  stop resubmitting, so a closed loop of B clients still forms batches
  of B.  Requests for different ``n`` coalesce too: the batch queries
  ``max(n)`` and each caller gets its prefix (top-n is a prefix of
  top-n_max under the engine's total order).
* **LRU result cache.**  Answers are cached per ``(generation, user,
  n)`` and served on :meth:`submit` without touching the engine.
  Invalidation is explicit.  Item fold-in and hot-swap advance the
  generation and clear the cache.  A rating update advances the
  generation, carries every entry of an unaffected user forward to it
  and drops the affected users' entries: an unaffected user's ``X``
  row, the item factors and its exclusion row are unchanged, so the
  carried answer is exactly what the new state serves.  *User* fold-in
  keeps both — appended rows provably cannot change any existing
  user's result.
* **Incremental writes.**  :meth:`fold_in_users`,
  :meth:`update_ratings` and :meth:`fold_in_items` delegate to the
  recommender (one batched k×k S3 solve through the binned kernels —
  see :mod:`repro.serving.foldin`), then atomically install the new
  state.  A user fold-in or a rating update derives it from the served
  one (:meth:`~repro.serving.engine.TopNEngine.derive`: only the
  changed rows are cast and checked); an item fold-in rebuilds it.  No
  retrain, no downtime.
* **Atomic hot-swap.**  All mutable state lives in one immutable
  :class:`ModelState`; workers read the reference once per batch, so a
  request is served *entirely* from one generation — pre-swap or
  post-swap, never a torn mixture.  :meth:`hot_swap` builds the new
  state completely (engine constructed and its factors checked) before
  the single reference assignment that publishes it.

:class:`ServiceEndpoint` exposes the service over stdlib HTTP (the
pattern of :mod:`repro.obs.endpoint`): ``GET /recommend?user=U&n=N``,
``/healthz``, ``/stats``, and ``/metrics`` — with ``?window=1`` serving
*per-interval* latency percentiles via the quantile sketches' windowed
snapshots.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler
from time import perf_counter

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.endpoint import MetricsEndpoint
from repro.obs.spans import is_enabled, span
from repro.serving.engine import TopNEngine
from repro.sparse.csr import CSRMatrix

__all__ = [
    "ModelState",
    "ServeResult",
    "ServiceStats",
    "RecommendService",
    "ServiceEndpoint",
]


@dataclass(frozen=True)
class ModelState:
    """Everything one request needs, swapped as a single reference.

    Immutable by construction: a worker reads ``service._state`` once
    per batch and serves the whole batch from that snapshot, so there is
    no window in which a request can observe the engine of one model and
    the exclusion matrix of another.
    """

    generation: int
    engine: TopNEngine
    exclude: CSRMatrix | None  # row-sliceable exclusion (None = no filter)


@dataclass(frozen=True)
class ServeResult:
    """One answered request."""

    user: int
    n: int
    recommendations: tuple  # ((item, score), ...) truncated like row()
    generation: int
    cached: bool


class ServiceStats:
    """Always-on plain counters (the obs registry is gated; these are
    what the bench and the ``/stats`` endpoint read unconditionally)."""

    __slots__ = (
        "_lock", "requests", "cache_hits", "cache_misses", "batches",
        "batched_users", "folded_users", "folded_items", "updated_users",
        "swaps", "refused_swaps", "errors", "cache_carried", "cache_dropped",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches = 0
        self.batched_users = 0
        self.folded_users = 0
        self.folded_items = 0
        self.updated_users = 0
        self.swaps = 0
        self.refused_swaps = 0
        self.errors = 0
        # Result-cache entries each rating update carried to its new
        # generation, and those it dropped (affected users, stale ones).
        self.cache_carried = 0
        self.cache_dropped = 0

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, d in deltas.items():
                setattr(self, name, getattr(self, name) + d)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            out = {
                name: getattr(self, name)
                for name in self.__slots__
                if name != "_lock"
            }
        batches = out["batches"]
        out["mean_batch_size"] = out["batched_users"] / batches if batches else 0.0
        return out


class _Request:
    __slots__ = ("user", "n", "future", "t_submit")

    def __init__(self, user: int, n: int, future: Future, t_submit: float):
        self.user = user
        self.n = n
        self.future = future
        self.t_submit = t_submit


class RecommendService:
    """Worker-pool request loop over a :class:`TopNEngine`.

    ``recommender`` is a fitted :class:`repro.api.Recommender` (duck
    typed: anything with ``model``, ``_train_csr``, ``algorithm`` and
    the fold-in methods serves).  Each worker serves what is queued, up
    to ``max_batch`` requests per engine call; ``max_batch=1`` is the
    "unbatched" baseline of the serving benchmark.  ``cache_size=0``
    disables the result cache.  A request whose future is cancelled
    before its batch forms is dropped unscored.
    """

    def __init__(
        self,
        recommender,
        *,
        max_batch: int = 32,
        cache_size: int = 4096,
        workers: int = 1,
        exclude_seen: bool = True,
        engine_kwargs: dict | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._rec = recommender
        self.max_batch = int(max_batch)
        self.cache_size = int(cache_size)
        self.exclude_seen = bool(exclude_seen)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._n_workers = int(workers)
        self.stats = ServiceStats()
        self._cache: OrderedDict[tuple, ServeResult] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._qcond = threading.Condition()
        self._stopping = False
        self._running = False
        self._threads: list[threading.Thread] = []
        # Serializes every model mutation (fold-in, update, swap); reads
        # never take it — they see either the old or the new state.
        self._mutate_lock = threading.Lock()
        # The recommender's (X, training matrix) the served state was
        # built from: a write derives the next state from the served one
        # only when the recommender still holds exactly these.
        self._basis: tuple = (None, None)
        self._install_state(0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def generation(self) -> int:
        return self._state.generation

    def start(self) -> "RecommendService":
        if self._running:
            return self
        self._stopping = False
        self._running = True
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            for i in range(self._n_workers)
        ]
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Drain the queue and stop the workers (no request is lost)."""
        if not self._running:
            return
        with self._qcond:
            self._stopping = True
            self._qcond.notify_all()
        for t in self._threads:
            t.join(timeout=30.0)
        self._threads = []
        self._running = False

    def __enter__(self) -> "RecommendService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, user: int, n: int = 10) -> Future:
        """Enqueue one request; the future resolves to a :class:`ServeResult`.

        Cache hits resolve immediately without touching the queue.
        """
        user = int(user)
        n = int(n)
        if n <= 0:
            raise ValueError("n must be positive")
        state = self._state
        if not 0 <= user < state.engine.n_users:
            raise IndexError(
                f"user {user} out of range for {state.engine.n_users} users"
            )
        self.stats.bump(requests=1)
        future: Future = Future()
        cached = self._cache_get(state.generation, user, n)
        if cached is not None:
            self.stats.bump(cache_hits=1)
            if is_enabled():
                obs_metrics.inc("service.requests")
                obs_metrics.inc("service.cache_hits")
                obs_metrics.observe_latency("service.request.seconds", 0.0)
            future.set_result(
                ServeResult(user, n, cached.recommendations, state.generation, True)
            )
            return future
        self.stats.bump(cache_misses=1)
        with self._qcond:
            if not self._running or self._stopping:
                raise RuntimeError("RecommendService is not running")
            self._queue.append(_Request(user, n, future, perf_counter()))
            depth = len(self._queue)
            self._qcond.notify()
        if is_enabled():
            obs_metrics.inc("service.requests")
            obs_metrics.inc("service.cache_misses")
            obs_metrics.set_gauge("service.queue_depth", depth)
        return future

    def recommend(
        self, user: int, n: int = 10, timeout: float | None = 30.0
    ) -> list[tuple[int, float]]:
        """Blocking convenience wrapper: ``[(item, score), ...]``."""
        return list(self.submit(user, n).result(timeout).recommendations)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while (batch := self._next_batch()) is not None:
            if batch:
                try:
                    self._serve_batch(batch)
                except Exception as exc:  # fail this batch, keep serving
                    self.stats.bump(errors=1)
                    for req in batch:
                        if not req.future.done():
                            req.future.set_exception(exc)
                self._yield_to_answered()

    def _next_batch(self) -> list[_Request] | None:
        """Block while the queue is empty, then take up to ``max_batch``.

        Returns the requests still wanted: each future moves to running
        here, and one its caller cancelled is dropped unscored.
        """
        with self._qcond:
            while not self._queue:
                if self._stopping:
                    return None
                self._qcond.wait()
            take = min(len(self._queue), self.max_batch)
            batch = [self._queue.popleft() for _ in range(take)]
            if self._queue:
                self._qcond.notify()
        return [r for r in batch if r.future.set_running_or_notify_cancel()]

    def _yield_to_answered(self) -> None:
        """Let the callers just answered resubmit before the next batch.

        Without this the worker pops the next batch before they run
        again, and a closed loop of B clients forms batches of ~B/2.
        Yield while each yield brings new requests; stop at the first
        that brings none, or once a full batch is queued.  The queue
        length is read unlocked: it only decides when to stop yielding.
        """
        depth = len(self._queue)
        while depth < self.max_batch:
            time.sleep(0)
            queued = len(self._queue)
            if queued <= depth:
                return
            depth = queued

    def _serve_batch(self, batch: list[_Request]) -> None:
        # ONE state read serves the whole batch: generation, engine and
        # exclusion are a consistent snapshot even mid-hot-swap.
        state = self._state
        users = np.fromiter((r.user for r in batch), dtype=np.int64)
        n_max = max(r.n for r in batch)
        result = state.engine.query(users, n=n_max, exclude=state.exclude)
        done = perf_counter()
        # One conversion each hands out the whole batch as Python values
        # (what TopNResult.row gives, without a per-element int/float).
        items = result.items.tolist()
        scores = result.scores.tolist()
        lengths = result.lengths.tolist()
        for pos, req in enumerate(batch):
            keep = min(req.n, lengths[pos])
            row = tuple(zip(items[pos][:keep], scores[pos][:keep]))
            res = ServeResult(req.user, req.n, row, state.generation, False)
            self._cache_put(state.generation, req.user, req.n, res)
            req.future.set_result(res)
        self.stats.bump(batches=1, batched_users=len(batch))
        if is_enabled():
            obs_metrics.inc("service.batches")
            obs_metrics.observe("service.batch_size", len(batch))
            obs_metrics.set_gauge("service.generation", state.generation)
            with self._qcond:
                depth = len(self._queue)
            obs_metrics.set_gauge("service.queue_depth", depth)
            for req in batch:
                obs_metrics.observe_latency(
                    "service.request.seconds", done - req.t_submit
                )

    # ------------------------------------------------------------------
    # result cache
    # ------------------------------------------------------------------
    def _cache_get(self, gen: int, user: int, n: int) -> ServeResult | None:
        if self.cache_size <= 0:
            return None
        key = (gen, user, n)
        with self._cache_lock:
            res = self._cache.get(key)
            if res is not None:
                self._cache.move_to_end(key)
            return res

    def _cache_put(self, gen: int, user: int, n: int, res: ServeResult) -> None:
        if self.cache_size <= 0:
            return
        with self._cache_lock:
            self._cache[(gen, user, n)] = res
            self._cache.move_to_end((gen, user, n))
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            entries = len(self._cache)
        if is_enabled():
            obs_metrics.set_gauge("service.cache_entries", entries)

    def cache_entries(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    def invalidate_user(self, user: int) -> int:
        """Drop every cached result of one user (any n, any generation)."""
        user = int(user)
        with self._cache_lock:
            dead = [k for k in self._cache if k[1] == user]
            for k in dead:
                del self._cache[k]
        return len(dead)

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
        if is_enabled():
            obs_metrics.set_gauge("service.cache_entries", 0)

    # ------------------------------------------------------------------
    # model mutation: fold-in, rating updates, hot-swap
    # ------------------------------------------------------------------
    def fold_in_users(self, ratings) -> np.ndarray:
        """Fold new users in (no retrain) and serve them immediately.

        The generation does **not** advance: the item factors and every
        existing user row are bitwise-untouched, so cached results stay
        valid — the served state gains the appended rows.  Returns the
        new global user ids.
        """
        with self._mutate_lock:
            new_users = self._write(self._rec.fold_in_users, ratings, "append")
        self.stats.bump(folded_users=int(new_users.size))
        if is_enabled():
            obs_metrics.inc("service.folded_users", float(new_users.size))
        return new_users

    def fold_in_items(self, ratings) -> np.ndarray:
        """Fold new items in; the catalog changed, so invalidate.

        Any user's top-N may now include a new item, so the generation
        advances and the cache is cleared.  Returns the new item ids.
        """
        with self._mutate_lock:
            new_items = self._rec.fold_in_items(ratings)
            self._install_state(self._state.generation + 1)
            self.clear_cache()
        self.stats.bump(folded_items=int(new_items.size))
        if is_enabled():
            obs_metrics.inc("service.folded_items", float(new_items.size))
        return new_items

    def update_ratings(self, updates) -> np.ndarray:
        """Fold new/changed ratings of existing users into the model.

        Re-solves only the affected users' rows (batched, as a
        half-sweep solves them) and merges the entries into the
        exclusion matrix.  The generation advances.  Every cached entry
        of an unaffected user is carried forward to the new generation
        (its ``X`` row, ``Y`` and exclusion row are unchanged, so the
        answer is exactly what the new state serves), and the affected
        users' entries are dropped.  A batch that read the pre-update
        state and finishes after the install caches its answers under
        the old generation, which no request reads again — so a response
        still comes wholly from one state.  Returns the affected user
        ids.
        """
        with self._mutate_lock:
            users = self._write(self._rec.update_ratings, updates, "rows")
        self.stats.bump(updated_users=int(users.size))
        if is_enabled():
            obs_metrics.inc("service.updated_users", float(users.size))
        return users

    def hot_swap(self, source, mmap_mode: str | None = None) -> int:
        """Atomically replace the served model; returns the new generation.

        ``source`` is a checkpoint path (directory or ``.npz``, loaded
        via :meth:`repro.api.Recommender.load`) or an already-fitted
        recommender.  The new state is built *completely* — engine
        constructed, exclusion keys attached — before the single
        reference assignment that publishes it, and in-flight batches
        keep the old state object, so every response comes wholly from
        the pre- or the post-swap model.  The cache is cleared (the
        generation bump alone already makes old entries unreachable).

        A model that fails to load (a corrupt checkpoint, a non-finite
        factor), is unfitted, or that the engine refuses (non-finite or
        mismatched factors) raises ``ValueError`` and counts in
        ``stats.refused_swaps``; nothing is published, so the old model
        and generation keep serving.
        """
        try:
            if isinstance(source, (str, os.PathLike)):
                from repro.api import Recommender

                source = Recommender.load(source, mmap_mode=mmap_mode)
            if not getattr(source, "is_fitted", False):
                raise ValueError("hot_swap needs a fitted recommender or checkpoint")
            with self._mutate_lock:
                gen = self._install_state(self._state.generation + 1, source)
                self._rec = source
                self.clear_cache()
        except ValueError:
            self.stats.bump(refused_swaps=1)
            if is_enabled():
                obs_metrics.inc("service.refused_swaps")
            raise
        self.stats.bump(swaps=1)
        if is_enabled():
            obs_metrics.inc("service.swaps")
        return gen

    def _write(self, write, payload, mode: str) -> np.ndarray:
        """Apply a user-row write to the recommender and install the
        state derived from the served one.

        ``write`` is the recommender's ``fold_in_users`` (``mode``
        ``"append"``: rows appended, the generation kept) or
        ``update_ratings`` (``"rows"``: rows replaced, the generation
        advanced and the cache carried).  A state the engine refuses (a
        non-finite new row) rolls the recommender back and raises
        ``ValueError``; the served state and generation stay.  Returns
        the written user ids.
        """
        rec, old = self._rec, self._state
        generation = old.generation + (mode == "rows")
        before = (rec.model.X, rec._train_csr, rec._engine)
        rows = write(payload)
        if before[0] is not self._basis[0] or before[1] is not self._basis[1]:
            mode = "rebuild"  # the recommender changed outside this service
        with span("service.install", mode=mode):
            try:
                if mode == "rebuild":
                    state = self._build_state(generation)
                else:
                    exclude = rec._train_csr if self.exclude_seen else None
                    engine = old.engine.derive(
                        rec.model.X[rows], rows=None if mode == "append" else rows
                    )
                    state = ModelState(generation, engine, exclude)
            except ValueError:
                rec.model.X, rec._train_csr, rec._engine = before
                raise
            # Under the cache lock, so no request reads the new state
            # before its carried entries are in place.
            with self._cache_lock:
                self._publish(state, rec)
                if mode == "rows":
                    self._carry_cache(old.generation, rows)
                elif generation != old.generation:
                    self._cache.clear()
        return rows

    def _carry_cache(self, old_gen: int, users: np.ndarray) -> None:
        """Re-key every entry of ``old_gen`` whose user is not in
        ``users`` to the current generation; drop the rest.  The caller
        holds the cache lock."""
        gen = self._state.generation
        affected = set(users.tolist())
        carried: OrderedDict[tuple, ServeResult] = OrderedDict()
        for (g, user, n), res in self._cache.items():
            if g == old_gen and user not in affected:
                carried[(gen, user, n)] = res
        dropped = len(self._cache) - len(carried)
        self._cache = carried
        self.stats.bump(cache_carried=len(carried), cache_dropped=dropped)
        if is_enabled():
            obs_metrics.inc("service.cache_carried", float(len(carried)))
            obs_metrics.inc("service.cache_dropped", float(dropped))
            obs_metrics.set_gauge("service.cache_entries", len(carried))

    def _build_state(self, generation: int, rec=None) -> ModelState:
        rec = self._rec if rec is None else rec
        exclude = rec._train_csr if self.exclude_seen else None
        engine = TopNEngine.from_model(rec.model, **self._engine_kwargs)
        return ModelState(generation=generation, engine=engine, exclude=exclude)

    def _install_state(self, generation: int, rec=None) -> int:
        """Build a state from scratch and publish it (start-up, item
        fold-in, hot-swap).  It is built completely — the engine refuses
        non-finite factors — before publishing, so a failed build leaves
        the served state untouched."""
        rec = self._rec if rec is None else rec
        with span("service.install", mode="rebuild"):
            self._publish(self._build_state(generation, rec), rec)
        return generation

    def _publish(self, state: ModelState, rec) -> None:
        self._state = state  # the atomic swap point
        self._basis = (rec.model.X, rec._train_csr)
        if is_enabled():
            obs_metrics.set_gauge("service.generation", state.generation)


class ServiceEndpoint(MetricsEndpoint):
    """Stdlib HTTP front of a :class:`RecommendService`.

    ``GET /recommend?user=U&n=N`` answers through the service's request
    loop (coalescing and cache included) and ``/stats`` serves the
    service's counters as JSON.  Everything else — the lifecycle,
    ``/metrics`` (with ``?window=1``) and ``/healthz``, here extended
    with the model generation and cache size — is
    :class:`repro.obs.endpoint.MetricsEndpoint`.
    """

    endpoints = ("/recommend", "/metrics", "/healthz", "/stats")
    default_path = "/recommend"
    thread_name = "repro-serve-endpoint"

    def __init__(
        self,
        service: RecommendService,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        default_n: int = 10,
        timeout: float = 30.0,
    ):
        super().__init__(registry, host, port)
        self.service = service
        self.default_n = int(default_n)
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {
            **super()._health(),
            "status": "ok" if self.service.running else "stopped",
            "generation": self.service.generation,
            "cache_entries": self.service.cache_entries(),
        }

    def _route(
        self, request: BaseHTTPRequestHandler, path: str, params: dict
    ) -> bool:
        if path == "/recommend":
            self._handle_recommend(request, params)
        elif path == "/stats":
            self._respond_json(request, 200, self.service.stats.snapshot())
        else:
            return False
        return True

    def _handle_recommend(
        self, request: BaseHTTPRequestHandler, params: dict
    ) -> None:
        try:
            user = int(params["user"][0])
            n = int(params.get("n", [self.default_n])[0])
        except (KeyError, ValueError, IndexError):
            self._respond_json(request, 400, {
                "status": "bad request",
                "error": "usage: /recommend?user=<int>[&n=<int>]",
            })
            return
        try:
            res = self.service.submit(user, n).result(self.timeout)
        except IndexError as exc:
            self._respond_json(request, 404, {
                "status": "unknown user", "error": str(exc)})
            return
        except (ValueError, RuntimeError) as exc:
            self._respond_json(request, 400, {
                "status": "bad request", "error": str(exc)})
            return
        self._respond_json(request, 200, {
            "user": res.user,
            "n": res.n,
            "items": [int(i) for i, _ in res.recommendations],
            "scores": [float(s) for _, s in res.recommendations],
            "generation": res.generation,
            "cached": res.cached,
        })
