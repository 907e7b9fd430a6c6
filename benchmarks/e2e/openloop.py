"""Open-loop load: a precomputed Poisson schedule, timed from due times.

``repro.serving.loadgen.run_open_loop`` times each request from its
actual ``submit()``.  When the service stalls, the dispatcher stalls
with it (cache hits resolve inside ``submit()``), every later request
is sent late, and its latency looks short.  Here each request is timed
from the moment it was *due*, so a stall is charged to every request it
delays, and the dispatcher's own lateness is reported as generator lag.

One dispatcher thread sends every request; results arrive through
future callbacks, which record the completion time on whichever thread
resolves the future.
"""

from __future__ import annotations

import ctypes
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

__all__ = ["PhaseResult", "run_phase", "Staircase", "quantile_ms"]


def quantile_ms(seconds: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of a seconds array, in milliseconds."""
    if seconds.size == 0:
        return float("nan")
    ranked = np.sort(seconds)
    return float(ranked[min(ranked.size - 1, math.ceil(q * ranked.size) - 1)] * 1e3)


@dataclass
class PhaseResult:
    """Per-request outcome of one open-loop phase.

    Times are ``perf_counter`` seconds; ``done`` is NaN for a request
    that never resolved.  Futures are not kept: the completion callback
    records whether the answer was cached, failed, or malformed.
    """

    rate: float
    users: np.ndarray
    due: np.ndarray
    sent: np.ndarray  # submit() entry
    submitted: np.ndarray  # submit() return
    done: np.ndarray
    queued: np.ndarray  # bool: submit() returned a future not already resolved
    cached: np.ndarray  # bool: answered from the result cache
    failed: np.ndarray  # bool: raised, errored, unresolved or malformed
    malformed: int  # answers the ``inspect`` check rejected
    backlog_at_end: int  # requests outstanding when dispatch ended
    aborted: bool  # dispatch stopped early because the backlog ran away

    @property
    def count(self) -> int:
        return int(self.due.size)

    @property
    def ok(self) -> np.ndarray:
        return ~self.failed

    @property
    def latency(self) -> np.ndarray:
        """Due → resolved, seconds, for requests that succeeded."""
        return (self.done - self.due)[self.ok]

    @property
    def lag(self) -> np.ndarray:
        return self.sent - self.due

    def summary(self) -> dict:
        lat = self.latency
        return {
            "rate": self.rate,
            "sent": self.count,
            "succeeded": int(self.ok.sum()),
            "failed": int(self.failed.sum()),
            "malformed": self.malformed,
            "p50_ms": quantile_ms(lat, 0.5),
            "p99_ms": quantile_ms(lat, 0.99),
            "beyond_p99": int(lat.size - math.ceil(0.99 * lat.size)),
            "lag_p99_ms": quantile_ms(self.lag, 0.99),
            "backlog_at_end": self.backlog_at_end,
            "aborted": self.aborted,
        }


PR_SET_TIMERSLACK, PR_GET_TIMERSLACK = 29, 30

#: The dispatcher wakes this long before a request is due and yields
#: the interpreter until then: with a 1 ns timer slack, 99% of sleeps
#: on a 2-core VM end less than this late.
EARLY_S = 100e-6


@contextmanager
def precise_sleep():
    """Set the calling thread's timer slack to 1 ns for the block (Linux).

    Linux lets a sleep end up to the thread's timer slack late, 50 µs by
    default, so that wake-ups can be merged; a sleep of a few hundred
    microseconds ends ~70 µs late at the median on a 2-core VM, and 16 µs
    with 1 ns.  The dispatcher sleeps before almost every request, and a
    request answered from the cache takes about 50 µs, so the default
    would make the load generator most of what is measured.  Threads
    inherit the slack of the thread that starts them; the service's
    threads start before the block and keep the default.
    """
    if not sys.platform.startswith("linux"):
        yield
        return
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong]
    prctl.restype = ctypes.c_long
    previous = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    try:
        yield
    finally:
        if previous > 0:
            prctl(PR_SET_TIMERSLACK, previous, 0, 0, 0)


def run_phase(
    submit,
    users: np.ndarray,
    schedule: np.ndarray,
    *,
    rate: float,
    n: int = 10,
    drain_timeout: float = 10.0,
    abort_backlog: int | None = None,
    inspect=None,
) -> PhaseResult:
    """Send ``users[i]`` at ``t0 + schedule[i]`` through ``submit(user, n)``.

    ``submit`` returns a future of an answer with a ``cached`` flag.  The
    dispatcher sleeps until ``EARLY_S`` before each due time, yields until
    it, and sends at once when behind.  With ``abort_backlog`` it stops
    sending once that many requests are outstanding (an overload probe
    has failed by then; sending more only lengthens the drain).  A request fails when ``submit`` raises, its
    future holds an exception, ``inspect(answer)`` is false, or it is
    unresolved ``drain_timeout`` seconds after dispatch ends.
    """
    count = int(schedule.size)
    due = np.full(count, np.nan)
    sent = np.full(count, np.nan)
    submitted = np.full(count, np.nan)
    done = np.full(count, np.nan)
    queued = np.zeros(count, dtype=bool)
    cached = np.zeros(count, dtype=bool)
    failed = np.zeros(count, dtype=bool)
    bad = np.zeros(count, dtype=bool)
    resolved: list = []  # list.append is atomic: callbacks run on any thread

    def on_done(i: int):
        def record(fut) -> None:
            done[i] = perf_counter()  # before the checks: they are not the service's time
            if fut.exception() is not None:
                failed[i] = True
            else:
                answer = fut.result()
                cached[i] = answer.cached
                bad[i] = inspect is not None and not inspect(answer)
            resolved.append(i)
        return record

    aborted = False
    sent_n = 0
    with precise_sleep():
        t0 = perf_counter() + 0.002
        for i in range(count):
            due_i = t0 + schedule[i]
            wait = due_i - perf_counter()
            if wait > EARLY_S:
                time.sleep(wait - EARLY_S)
            while perf_counter() < due_i:
                time.sleep(0)  # lets the service's threads take the interpreter
            if abort_backlog is not None and sent_n - len(resolved) > abort_backlog:
                aborted = True
                break
            due[i] = due_i
            sent[i] = perf_counter()
            sent_n += 1
            try:
                fut = submit(int(users[i]), n)
            except Exception:
                submitted[i] = perf_counter()
                failed[i] = True
                resolved.append(i)
                continue
            submitted[i] = perf_counter()
            queued[i] = not fut.done()
            fut.add_done_callback(on_done(i))
    backlog = sent_n - len(resolved)
    deadline = perf_counter() + drain_timeout
    while len(resolved) < sent_n and perf_counter() < deadline:
        time.sleep(0.002)
    cut = slice(0, sent_n)
    failed = failed[cut] | bad[cut] | np.isnan(done[cut])
    return PhaseResult(
        rate=rate, users=np.asarray(users[cut]), due=due[cut], sent=sent[cut],
        submitted=submitted[cut], done=done[cut], queued=queued[cut],
        cached=cached[cut], failed=failed, malformed=int(bad[cut].sum()),
        backlog_at_end=backlog, aborted=aborted,
    )


class Staircase:
    """Up-down search for the highest rate that meets a latency limit.

    The first probe runs at ``start``.  A passing probe multiplies the
    rate by the current step, a failing one divides by it.  The step
    starts at 2 and takes its square root at every reversal (a pass
    after a fail or a fail after a pass), down to ``min_step``, so the
    probes settle into an oscillation around the limit.

    A bisection narrows its range for good on every probe, so one probe
    failed by a stall of the host moves its answer a long way.  Here a
    wrong step costs one step, which the next probes take back.  The
    estimate is the geometric mean of the rates probed after the first
    reversal; NaN (which marks the run incorrect) when there was none.
    """

    def __init__(self, start: float, min_step: float = 2 ** 0.125):
        self.rate = float(start)
        self.step = 2.0
        self.min_step = min_step
        self.reversals = 0
        self.trials: list[tuple[float, bool, float, int]] = []  # rate, passed, p99, reversals

    def next_rate(self) -> float:
        return self.rate

    def record(self, rate: float, passed: bool, p99_ms: float) -> None:
        if self.trials and self.trials[-1][1] != passed:
            self.reversals += 1
            self.step = max(math.sqrt(self.step), self.min_step)
        self.trials.append((rate, passed, p99_ms, self.reversals))
        self.rate = rate * self.step if passed else rate / self.step

    def result(self) -> float:
        settled = [t[0] for t in self.trials if t[3] >= 1]
        if not settled:
            return math.nan
        return math.exp(sum(math.log(r) for r in settled) / len(settled))
