"""The ``"remote"`` execution backend: evaluations over a worker fleet.

:class:`RemoteBackend` is the fourth :class:`ExecutionBackend`.  It owns
an in-process :class:`~repro.engine.remote.coordinator.Coordinator` that
workers (``repro worker`` daemons, possibly on other machines) register
with, and dispatches every evaluation through it.

Recovery is the shared fault layer of :mod:`repro.engine.backends`: each
evaluation is a :class:`~repro.engine.backends.RecoveringFuture`, and
this backend only supplies its primitives — an attempt is a coordinator
lease (``Coordinator.submit``), ending one forgets the lease
(``Coordinator.discard``), and two raw outcomes are remote-specific: a
worker that reports a blown deadline itself keeps its lease and yields a
``failure_kind="timeout"`` record, as does a task the coordinator's close
path cancelled.  A dead worker's :class:`WorkerCrashError` is retried
under the backend's :class:`~repro.engine.faults.RetryPolicy` and a
poison task quarantined as ``failure_kind="worker_crash"`` — so surviving
records of a crash-and-recover run are bit-for-bit identical to a
no-fault run, exactly as on one box.

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

from concurrent.futures import CancelledError, Future

from repro.engine.backends import ExecutionBackend, RecoveringFuture
from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    EvaluationTimeoutError,
)
from repro.engine.remote.coordinator import Coordinator
from repro.engine.remote.protocol import format_address, parse_address

#: default coordinator bind: loopback, ephemeral port
DEFAULT_COORDINATOR = "127.0.0.1:0"


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
                 coordinator: str | None = None,
                 worker_timeout: float | None = None, **options) -> None:
        super().__init__(n_workers, **options)
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
        self._note_failure(FAILURE_KIND_CRASH,
                           lost_fingerprints[0] if lost_fingerprints else None)

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

    def submit_evaluation(self, evaluator, item) -> RecoveringFuture:
        return RecoveringFuture(self, evaluator, item)

    def _start_attempt(self, evaluator, item):
        state = self._coordinator.submit(evaluator, item,
                                         eval_timeout=self.eval_timeout)
        return state, state.future

    def _end_attempt(self, evaluator, state, *, expired: bool) -> None:
        self._coordinator.discard(state)  # a late result is dropped
        if expired:
            self._note_failure(FAILURE_KIND_TIMEOUT, evaluator.fingerprint())

    def _lost_attempt(self, evaluator, state, error):
        if isinstance(error, CancelledError):
            # Only the coordinator's close path cancels a task the caller
            # did not: it will never run, so forget it and score it as
            # timed out.
            self._coordinator.discard(state)
            return EvaluationTimeoutError("coordinator closed with this "
                                          "task queued")
        return error

    def run_evaluations(self, evaluator, work: list) -> list:
        # Dispatch everything first (the fleet runs items concurrently),
        # then collect positionally — input order in, input order out.
        futures = [self.submit_evaluation(evaluator, item) for item in work]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._coordinator.close()

    def __repr__(self) -> str:
        return (f"RemoteBackend(coordinator={self.coordinator_address!r}, "
                f"workers={self.worker_count}, n_workers={self.n_workers})")
