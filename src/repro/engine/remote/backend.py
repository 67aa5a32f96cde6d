"""The ``"remote"`` execution backend: evaluations over a worker fleet.

:class:`RemoteBackend` is the fourth :class:`ExecutionBackend`.  It owns
an in-process :class:`~repro.engine.remote.coordinator.Coordinator` that
workers (``repro worker`` daemons, possibly on other machines) register
with, and dispatches every evaluation through it.  The recovery story is
the process backend's, verbatim: each submitted evaluation is wrapped in
a :class:`_RemoteEvalFuture` that owns the task's retry/deadline state,
resolves infrastructure failures (a dead worker's
:class:`WorkerCrashError`) through the backend's
:class:`~repro.engine.faults.RetryPolicy`, quarantines poison tasks as
``failure_kind="worker_crash"`` entries, and scores blown deadlines as
``failure_kind="timeout"`` — so surviving records of a crash-and-recover
run are bit-for-bit identical to a no-fault run, exactly as on one box.

Capacity is *elastic*: ``n_workers`` is a property computed from the
live fleet (sum of advertised cores), so the engine's LPT heuristic and
the async driver's in-flight depth track workers joining and leaving
mid-search.  With no worker connected the backend reports capacity 1
and submitted tasks simply queue until one registers.

Known follow-up (documented in ROADMAP): workers are not respawned by
the coordinator — a sticky ``crash`` chaos fault can exhaust the fleet.
Operators restart workers; elastic membership folds them back in.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.engine.backends import (
    ExecutionBackend,
    _trace_retry,
    _validate_eval_timeout,
)
from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    TRANSIENT_ERROR_TYPES,
    EvaluationTimeoutError,
    RetryPolicy,
    failure_entry,
    strip_fault,
)
from repro.engine.remote.coordinator import Coordinator
from repro.engine.remote.protocol import format_address, parse_address
from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry

#: default coordinator bind: loopback, ephemeral port
DEFAULT_COORDINATOR = "127.0.0.1:0"


class _RemoteEvalFuture:
    """Future for one remotely dispatched evaluation.

    The remote twin of ``_RecoveringEvalFuture``: wraps the
    coordinator's transport future and owns retry/deadline state, so
    :meth:`result` never raises on an infrastructure failure — a dead
    worker resolves to a retried attempt or a ``failure_kind`` entry.
    The deadline covers queue time plus run time, measured from
    submission.
    """

    __slots__ = ("_backend", "_evaluator", "_item", "_state", "_inner",
                 "_attempt", "_deadline", "_entry", "_user_cancelled",
                 "__weakref__")

    def __init__(self, backend, evaluator, item) -> None:
        self._backend = backend
        self._evaluator = evaluator
        self._item = item
        self._attempt = 1
        self._entry = None
        self._user_cancelled = False
        self._state = backend._coordinator.submit(
            evaluator, item, eval_timeout=backend.eval_timeout)
        self._inner = self._state.future
        self._reset_deadline()

    def _reset_deadline(self) -> None:
        timeout = self._backend.eval_timeout
        self._deadline = (None if timeout is None
                          else time.monotonic() + timeout)

    def _remaining(self) -> float | None:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def done(self) -> bool:
        if self._entry is not None or self._inner.done():
            return True
        remaining = self._remaining()
        return remaining is not None and remaining <= 0

    def cancel(self) -> bool:
        cancelled = self._inner.cancel()
        if cancelled:
            self._user_cancelled = True
            self._backend._coordinator.discard(self._state)
        return cancelled

    def cancelled(self) -> bool:
        return self._user_cancelled

    def running(self) -> bool:
        return self._entry is None and self._inner.running()

    def result(self, timeout=None):
        # ``timeout`` mirrors the Future interface; the evaluation
        # deadline (backend.eval_timeout) is what actually bounds this.
        while True:
            if self._entry is not None:
                return self._entry
            remaining = self._remaining()
            # A task that finished in time keeps its record even when it is
            # collected late (e.g. behind a hung sibling): only a task
            # still running at its deadline is expired.
            if (remaining is not None and remaining <= 0
                    and not self._inner.done()):
                return self._expire()
            try:
                entry = self._inner.result(timeout=remaining)
            except FuturesTimeoutError:
                return self._expire()
            except CancelledError:
                if self._user_cancelled:
                    raise
                # resolved as cancelled by the coordinator's close path
                return self._expire()
            except EvaluationTimeoutError:
                # the worker itself reported a blown soft deadline
                get_registry().counter("engine.eval_timeouts").inc()
                self._backend.last_crash = {
                    "kind": FAILURE_KIND_TIMEOUT, "time": time.time(),
                    "fingerprint": self._evaluator.fingerprint()[:12]}
                self._entry = failure_entry(FAILURE_KIND_TIMEOUT)
                return self._entry
            except TRANSIENT_ERROR_TYPES as error:
                # a dead worker (WorkerCrashError from the coordinator)
                # or an error relayed from inside a live worker
                if self._retry_or_quarantine(error):
                    return self._entry
            else:
                self._entry = entry
                return entry

    def _expire(self) -> dict:
        """Deadline blown coordinator-side: forget the lease, score it."""
        get_registry().counter("engine.eval_timeouts").inc()
        self._backend._coordinator.discard(self._state)
        self._backend.last_crash = {
            "kind": FAILURE_KIND_TIMEOUT, "time": time.time(),
            "fingerprint": self._evaluator.fingerprint()[:12]}
        self._entry = failure_entry(FAILURE_KIND_TIMEOUT)
        return self._entry

    def _retry_or_quarantine(self, error) -> bool:
        """True when resolved (quarantined); False when resubmitted."""
        policy = self._backend.retry_policy
        if not policy.should_retry(self._attempt, error):
            get_registry().counter("engine.quarantined_tasks").inc()
            self._entry = failure_entry(FAILURE_KIND_CRASH)
            return True
        get_registry().counter("engine.retries").inc()
        _trace_retry(self._evaluator, self._attempt, type(error).__name__)
        policy.sleep(self._attempt)
        self._attempt += 1
        self._item = strip_fault(self._item)
        self._state = self._backend._coordinator.submit(
            self._evaluator, self._item,
            eval_timeout=self._backend.eval_timeout)
        self._inner = self._state.future
        self._reset_deadline()
        return False


class RemoteBackend(ExecutionBackend):
    """Dispatch evaluations to registered remote workers.

    Parameters
    ----------
    n_workers:
        Optional *cap* on the concurrency the backend reports.  Unlike
        the pooled backends this is not a pool size — live capacity is
        the fleet's advertised core total; the cap only bounds what the
        engine sees.  ``None``/``-1`` means uncapped.
    coordinator:
        ``"host:port"`` to bind the coordinator on (default loopback,
        ephemeral port).  Workers connect with
        ``repro worker --coordinator host:port``.
    worker_timeout:
        Seconds of heartbeat silence before a worker is declared dead.
    """

    name = "remote"

    def __init__(self, n_workers: int | None = None, *,
                 eval_timeout: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 coordinator: str | None = None,
                 worker_timeout: float | None = None) -> None:
        # No super().__init__: n_workers is a live property here, not a
        # fixed pool size.  The rest of the base contract is replicated.
        if n_workers in (None, -1):
            self._worker_cap = None
        else:
            n_workers = int(n_workers)
            if n_workers < 1:
                raise ValidationError(
                    f"n_workers must be at least 1, got {n_workers}")
            self._worker_cap = n_workers
        self.eval_timeout = _validate_eval_timeout(eval_timeout)
        self.retry_policy = (RetryPolicy() if retry_policy is None
                             else retry_policy)
        self.last_crash: dict | None = None
        bind = parse_address(coordinator or DEFAULT_COORDINATOR)
        self._coordinator = Coordinator(
            bind, worker_timeout=worker_timeout,
            on_worker_death=self._note_worker_death)

    # ------------------------------------------------------------ capacity
    @property
    def n_workers(self) -> int:
        """Live fleet capacity: total advertised cores, capped, >= 1.

        The floor of 1 keeps dispatch heuristics sane while the fleet is
        empty — tasks queue at the coordinator until a worker joins.
        """
        cores = self._coordinator.total_cores
        if self._worker_cap is not None:
            cores = min(cores, self._worker_cap)
        return max(1, cores)

    @property
    def coordinator_address(self) -> str:
        """The ``host:port`` workers should connect to."""
        return format_address(self._coordinator.address)

    @property
    def worker_count(self) -> int:
        """Number of live registered workers."""
        return self._coordinator.worker_count

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers registered; False on timeout."""
        return self._coordinator.wait_for_workers(count, timeout)

    def drop_worker(self, worker_id=None):
        """Forcibly disconnect a worker (the chaos ``drop_worker`` fault)."""
        return self._coordinator.drop_worker(worker_id)

    def _note_worker_death(self, worker_id, lost_fingerprints) -> None:
        fingerprint = lost_fingerprints[0][:12] if lost_fingerprints else None
        self.last_crash = {"kind": FAILURE_KIND_CRASH, "time": time.time(),
                           "fingerprint": fingerprint}

    # ------------------------------------------------------------- dispatch
    def map(self, fn, items: list) -> list:
        # Generic fan-out stays inline: only *evaluations* are
        # distributed (arbitrary callables are not worth a pickle round
        # trip, and most map() users are tiny metadata transforms).
        return [fn(item) for item in items]

    def submit(self, fn, item) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(item))
        except BaseException as error:  # parity with Future semantics
            future.set_exception(error)
        return future

    def submit_evaluation(self, evaluator, item) -> _RemoteEvalFuture:
        return _RemoteEvalFuture(self, evaluator, item)

    def run_evaluations(self, evaluator, work: list) -> list:
        # Dispatch everything first (the fleet runs items concurrently),
        # then collect positionally — input order in, input order out.
        futures = [self.submit_evaluation(evaluator, item) for item in work]
        return [future.result() for future in futures]

    def wait_any(self, futures) -> None:
        # Same contract as the process backend: bound the wait by the
        # nearest evaluation deadline so a dead-silent fleet can never
        # block the driver past a deadline.
        pending = [future for future in futures if not future.done()]
        if not pending:
            return
        timeout = None
        inner = []
        for future in pending:
            if isinstance(future, _RemoteEvalFuture):
                remaining = future._remaining()
                if remaining is not None:
                    timeout = (remaining if timeout is None
                               else min(timeout, remaining))
                inner.append(future._inner)
            else:
                inner.append(future)
        if timeout is not None:
            timeout = max(0.0, timeout)
        wait(inner, timeout=timeout, return_when=FIRST_COMPLETED)

    def close(self) -> None:
        self._coordinator.close()

    def __repr__(self) -> str:
        return (f"RemoteBackend(coordinator={self.coordinator_address!r}, "
                f"workers={self.worker_count}, n_workers={self.n_workers})")
