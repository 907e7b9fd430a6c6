"""The long-lived serving layer: micro-batching, caching, hot-swap.

:class:`RecommendService` turns the query *library* (``TopNEngine``)
into a query *system*.  The paper's central idea — amortize fixed cost
over many independent k-sized problems — applies to serving verbatim:

* **Micro-batch coalescing.**  Requests are queued and a worker merges
  every request that arrives within ``batch_window`` seconds (or up to
  ``max_batch`` users) into *one* batched ``query()`` call, so tile
  setup, exclusion lookup and the GEMM launch amortize exactly like the
  paper's thread batching amortizes per-row solve overhead.  Requests
  for different ``n`` coalesce too: the batch queries ``max(n)`` and
  each caller gets its prefix (top-n is a prefix of top-n_max under the
  engine's total order).
* **LRU result cache.**  Answers are cached per ``(generation, user,
  n)`` and served on :meth:`submit` without touching the engine.
  Invalidation is explicit: rating updates and item fold-in/hot-swap
  advance the generation (old entries become unreachable) and clear the
  cache; *user* fold-in keeps both — appended rows provably cannot
  change any existing user's result.
* **Incremental fold-in.**  :meth:`fold_in_users` /
  :meth:`fold_in_items` delegate to the recommender's fold-in (one
  batched k×k S3 solve through the binned kernels — see
  :mod:`repro.serving.foldin`), then atomically install a new engine.
  No retrain, no downtime.
* **Atomic hot-swap.**  All mutable state lives in one immutable
  :class:`ModelState`; workers read the reference once per batch, so a
  request is served *entirely* from one generation — pre-swap or
  post-swap, never a torn mixture.  :meth:`hot_swap` builds the new
  state completely (engine constructed, exclusion keys attached) before
  the single reference assignment that publishes it.

:class:`ServiceEndpoint` exposes the service over stdlib HTTP (the
pattern of :mod:`repro.obs.endpoint`): ``GET /recommend?user=U&n=N``,
``/healthz``, ``/stats``, and ``/metrics`` — with ``?window=1`` serving
*per-interval* latency percentiles via the quantile sketches' windowed
snapshots.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.endpoint import PROMETHEUS_CONTENT_TYPE
from repro.obs.exporter import render_prometheus
from repro.obs.spans import is_enabled
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
        "swaps", "refused_swaps", "errors",
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
    the fold-in methods serves).  ``max_batch=1`` or ``batch_window=0``
    disables coalescing beyond draining what is already queued — the
    "unbatched" baseline of the serving benchmark; ``cache_size=0``
    disables the result cache.
    """

    def __init__(
        self,
        recommender,
        *,
        max_batch: int = 32,
        batch_window: float = 0.002,
        cache_size: int = 4096,
        workers: int = 1,
        exclude_seen: bool = True,
        engine_kwargs: dict | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._rec = recommender
        self.max_batch = int(max_batch)
        self.batch_window = float(batch_window)
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
        self._state = self._build_state(0)

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
                ServeResult(user, n, cached.recommendations, cached.generation, True)
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
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._serve_batch(batch)
            except BaseException as exc:  # keep the worker alive
                self.stats.bump(errors=1)
                for req in batch:
                    if not req.future.done():
                        req.future.set_exception(exc)

    def _next_batch(self) -> list[_Request] | None:
        """Pop one request, then coalesce until the window or cap closes."""
        with self._qcond:
            while not self._queue:
                if self._stopping:
                    return None
                self._qcond.wait()
            batch = [self._queue.popleft()]
            if self.max_batch > 1 and self.batch_window > 0:
                deadline = time.monotonic() + self.batch_window
                while len(batch) < self.max_batch:
                    if self._queue:
                        batch.append(self._queue.popleft())
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._stopping:
                        break
                    self._qcond.wait(timeout=remaining)
            else:
                while len(batch) < self.max_batch and self._queue:
                    batch.append(self._queue.popleft())
            if self._queue:
                self._qcond.notify()
        return batch

    def _serve_batch(self, batch: list[_Request]) -> None:
        # ONE state read serves the whole batch: generation, engine and
        # exclusion are a consistent snapshot even mid-hot-swap.
        state = self._state
        users = np.fromiter((r.user for r in batch), dtype=np.int64)
        n_max = max(r.n for r in batch)
        result = state.engine.query(users, n=n_max, exclude=state.exclude)
        done = perf_counter()
        for pos, req in enumerate(batch):
            row = tuple(result.row(pos)[: req.n])
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
        valid — only the engine/exclusion snapshot is rebuilt to cover
        the appended rows.  Returns the new global user ids.
        """
        with self._mutate_lock:
            new_users = self._rec.fold_in_users(ratings)
            self._install_state(self._state.generation)
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

        Re-solves only the affected users' rows (one batched k×k solve)
        and merges the entries into the exclusion matrix.  The
        generation advances — affected users' cached entries (and any
        result computed concurrently from the pre-update snapshot)
        become unreachable.  Returns the affected user ids.
        """
        with self._mutate_lock:
            users = self._rec.update_ratings(updates)
            self._install_state(self._state.generation + 1)
            self.clear_cache()
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

        A model the engine refuses (non-finite or mismatched factors) raises
        ``ValueError`` and counts in ``stats.refused_swaps``; nothing is
        published, so the old model and generation keep serving.
        """
        if isinstance(source, (str, os.PathLike)):
            from repro.api import Recommender

            source = Recommender.load(source, mmap_mode=mmap_mode)
        if not getattr(source, "is_fitted", False):
            raise ValueError("hot_swap needs a fitted recommender or checkpoint")
        with self._mutate_lock:
            try:
                gen = self._install_state(self._state.generation + 1, source)
            except ValueError:
                self.stats.bump(refused_swaps=1)
                if is_enabled():
                    obs_metrics.inc("service.refused_swaps")
                raise
            self._rec = source
            self.clear_cache()
        self.stats.bump(swaps=1)
        if is_enabled():
            obs_metrics.inc("service.swaps")
        return gen

    def _build_state(self, generation: int, rec=None) -> ModelState:
        rec = self._rec if rec is None else rec
        exclude = rec._train_csr if self.exclude_seen else None
        engine = TopNEngine.from_model(rec.model, **self._engine_kwargs)
        if isinstance(exclude, CSRMatrix):
            engine.attach_exclusion(exclude)  # pre-warm the sorted keys
        return ModelState(generation=generation, engine=engine, exclude=exclude)

    def _install_state(self, generation: int, rec=None) -> int:
        # Build completely (the engine refuses non-finite factors) before
        # publishing: a failed build leaves the served state untouched.
        state = self._build_state(generation, rec)
        self._state = state  # the atomic swap point
        if is_enabled():
            obs_metrics.set_gauge("service.generation", generation)
        return generation


class ServiceEndpoint:
    """Stdlib HTTP front of a :class:`RecommendService`.

    ``GET /recommend?user=U&n=N`` answers through the service's request
    loop (coalescing and cache included); ``/metrics`` serves the obs
    registry in Prometheus text format, with ``?window=1`` swapping the
    quantile summaries for delta-since-last-scrape windows; ``/healthz``
    and ``/stats`` are JSON.  Same lifecycle as
    :class:`repro.obs.endpoint.MetricsEndpoint` (daemon thread,
    ``port=0`` = ephemeral).
    """

    def __init__(
        self,
        service: RecommendService,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        default_n: int = 10,
        timeout: float = 30.0,
    ):
        self.service = service
        self.registry = registry or obs_metrics.get_registry()
        self.host = host
        self.default_n = int(default_n)
        self.timeout = float(timeout)
        self._requested_port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    def url(self, path: str = "/recommend") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "ServiceEndpoint":
        if self._server is not None:
            return self
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                endpoint._handle(self)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # request logs do not belong on the service's stderr

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None
        self._started_at = None

    def __enter__(self) -> "ServiceEndpoint":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(request.path)
        path = parsed.path
        params = parse_qs(parsed.query)
        if path == "/recommend":
            self._handle_recommend(request, params)
        elif path == "/metrics":
            windowed = params.get("window", ["0"])[0] in ("1", "true", "yes")
            source = (
                self.registry.window_snapshot() if windowed else self.registry
            )
            body = render_prometheus(source).encode("utf-8")
            self._respond(request, 200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/healthz":
            uptime = (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            self._respond_json(request, 200, {
                "status": "ok" if self.service.running else "stopped",
                "pid": os.getpid(),
                "uptime_seconds": round(uptime, 3),
                "generation": self.service.generation,
                "cache_entries": self.service.cache_entries(),
            })
        elif path == "/stats":
            self._respond_json(request, 200, self.service.stats.snapshot())
        else:
            self._respond_json(request, 404, {
                "status": "not found", "path": path,
                "endpoints": ["/recommend", "/metrics", "/healthz", "/stats"],
            })

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

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler, code: int, ctype: str, body: bytes
    ) -> None:
        request.send_response(code)
        request.send_header("Content-Type", ctype)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)

    def _respond_json(
        self, request: BaseHTTPRequestHandler, code: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._respond(request, code, "application/json; charset=utf-8", body)
