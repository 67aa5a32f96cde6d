"""Unit suite for the distributed ``"remote"`` backend (PR-10 tentpole).

Exercises the wire protocol (address specs, blob/message framing), fleet
lifecycle (registration, elastic capacity, graceful vs ungraceful
death), batch equality against the serial backend, the recovery paths
(in-flight loss to a dropped worker, sticky-fault quarantine, blown
deadlines, heartbeat-miss detection), and the shared persistent-cache
result substrate.  The bit-for-bit search-level matrix lives in
``tests/engine/test_determinism.py``; this file pins the mechanisms that
matrix relies on.

All fleets here are in-process loopback workers
(:func:`repro.engine.remote.start_loopback`) talking over real TCP
sockets on ephemeral ports, so every test crosses the actual wire.
"""

import socket
import time

import numpy as np
import pytest

from repro.core import PipelineEvaluator
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import ChaosBackend, EvalTask, ExecutionEngine, RetryPolicy
from repro.engine.backends import make_backend
from repro.engine.remote import (
    RemoteBackend,
    RemoteProtocolError,
    RemoteWorker,
    format_address,
    parse_address,
    start_loopback,
)
from repro.engine.remote.protocol import (
    PROTOCOL_VERSION,
    dump_blob,
    load_blob,
    read_message,
    send_message,
)
from repro.exceptions import ValidationError
from repro.io.evalcache import open_eval_cache
from repro.models.linear import LogisticRegression
from repro.telemetry.metrics import get_registry

#: zero-sleep policy so recovery paths run at full speed under test
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _reset_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _counter(name):
    return get_registry().counter(name).value


def _gauge(name):
    return get_registry().gauge(name).value


def _make_evaluator(cache_dir=None):
    X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                               random_state=7)
    X = distort_features(X, random_state=7)
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=40), random_state=0,
        cache_dir=cache_dir,
    )


def _sample_tasks(n=5):
    # Distinct specs only, same rationale as tests/engine/test_faults.py:
    # duplicate tasks alias dispatch groups and blur index targeting.
    space = SearchSpace(max_length=3)
    rng = np.random.default_rng(0)
    pipelines: list = []
    seen: set = set()
    while len(pipelines) < n:
        for pipeline in space.sample_pipelines(n, rng):
            if pipeline.spec() not in seen and len(pipelines) < n:
                seen.add(pipeline.spec())
                pipelines.append(pipeline)
    return [EvalTask(pipeline) for pipeline in pipelines]


def _rows(records):
    return [(r.pipeline.spec(), round(r.fidelity, 6), r.accuracy,
             r.iteration, r.failure_kind) for r in records]


def _reference_rows(n=5):
    engine = ExecutionEngine("serial")
    try:
        return _rows(engine.run(_make_evaluator(), _sample_tasks(n)))
    finally:
        engine.close()


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Fleet:
    """Context manager around :func:`start_loopback` with full teardown."""

    def __init__(self, size=2, **backend_options):
        # ``size`` is the fleet headcount; ``n_workers`` stays free for
        # the backend's capacity-cap option of the same name
        self.size = size
        self.backend_options = backend_options
        self.backend = None
        self.workers = []

    def __enter__(self):
        self.backend, self.workers = start_loopback(
            self.size, **self.backend_options)
        return self.backend

    def __exit__(self, *exc):
        self.backend.close()
        for worker in self.workers:
            worker.stop()


# --------------------------------------------------------------- protocol
class TestProtocol:
    def test_parse_address_variants(self):
        assert parse_address(("10.0.0.9", 80)) == ("10.0.0.9", 80)
        assert parse_address("box.example:1234") == ("box.example", 1234)
        assert parse_address(":8080") == ("127.0.0.1", 8080)
        assert parse_address("9000") == ("127.0.0.1", 9000)
        assert parse_address("0.0.0.0:0") == ("0.0.0.0", 0)

    def test_parse_address_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_address("box:not-a-port")
        with pytest.raises(ValidationError):
            parse_address("box:70000")
        with pytest.raises(ValidationError):
            parse_address(("box", -1))

    def test_format_address_round_trips(self):
        assert format_address(("127.0.0.1", 9000)) == "127.0.0.1:9000"
        assert parse_address(format_address(("h", 5))) == ("h", 5)

    def test_blob_round_trip(self):
        payload = {"accuracy": 0.5, "spec": (("scaler", "standard"),)}
        blob = dump_blob(payload)
        assert isinstance(blob, str)
        assert load_blob(blob) == payload

    def test_message_round_trip_and_eof(self):
        left, right = socket.socketpair()
        rfile = right.makefile("rb")
        try:
            send_message(left, {"type": "heartbeat", "seq": 3})
            assert read_message(rfile) == {"type": "heartbeat", "seq": 3}
            left.close()
            assert read_message(rfile) is None  # EOF, not an exception
        finally:
            rfile.close()
            right.close()

    @pytest.mark.parametrize("line", [
        b"not json at all\n",       # unparseable
        b"[1, 2, 3]\n",             # parseable, not an object
        b'{"untyped": true}\n',     # object without a "type"
    ])
    def test_malformed_messages_raise(self, line):
        left, right = socket.socketpair()
        rfile = right.makefile("rb")
        try:
            left.sendall(line)
            with pytest.raises(RemoteProtocolError):
                read_message(rfile)
        finally:
            rfile.close()
            right.close()
            left.close()


# -------------------------------------------------------------- lifecycle
class TestFleetLifecycle:
    def test_loopback_fleet_registers_and_closes_gracefully(self):
        with _Fleet(2) as backend:
            assert backend.worker_count == 2
            assert backend.n_workers == 2
            host, port = parse_address(backend.coordinator_address)
            assert host == "127.0.0.1" and port > 0
            assert _gauge("engine.remote_workers") == 2
        # shutdown was graceful on both sides: no death counters
        assert _counter("engine.worker_crashes") == 0
        assert _counter("engine.worker_heartbeat_misses") == 0

    def test_capacity_is_elastic_and_capped(self):
        with _Fleet(2, cores_each=2, n_workers=3) as backend:
            assert backend.worker_count == 2
            # fleet advertises 4 cores; the cap bounds what the engine sees
            assert backend.n_workers == 3

    def test_empty_fleet_queues_rather_than_fails(self):
        backend = RemoteBackend()
        try:
            assert backend.worker_count == 0
            assert backend.n_workers == 1  # dispatch-heuristic floor
            assert not backend.wait_for_workers(1, timeout=0.1)
            assert backend.drop_worker() is None  # nothing to drop
        finally:
            backend.close()

    def test_n_workers_cap_validation(self):
        with pytest.raises(ValidationError, match="n_workers"):
            RemoteBackend(n_workers=0)

    def test_make_backend_resolves_remote(self):
        backend = make_backend("remote", worker_timeout=5.0)
        try:
            assert isinstance(backend, RemoteBackend)
        finally:
            backend.close()

    def test_remote_options_rejected_for_local_backends(self):
        with pytest.raises(ValidationError, match="remote"):
            make_backend("serial", remote_coordinator="127.0.0.1:0")

    def test_worker_rejects_bad_crash_mode(self):
        with pytest.raises(ValueError, match="crash_mode"):
            RemoteWorker("127.0.0.1:0", crash_mode="explode")

    def test_worker_gives_up_on_unreachable_coordinator(self):
        # a bound-then-closed socket yields a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = RemoteWorker(("127.0.0.1", port), connect_timeout=0.3)
        assert worker.run() == 1


# --------------------------------------------------------- batch equality
class TestBatchEquality:
    def test_remote_batch_matches_serial(self):
        reference = _reference_rows(5)
        with _Fleet(2) as backend:
            engine = ExecutionEngine(backend)
            rows = _rows(engine.run(_make_evaluator(), _sample_tasks(5)))
        assert rows == reference


# ---------------------------------------------------------------- recovery
class TestRecovery:
    def test_in_flight_loss_retries_on_survivor(self):
        # Task 0 carries a 1s delay fault and leases to worker 0 (lowest
        # id, least loaded).  Task 1's dispatch index fires drop_worker,
        # which disconnects worker 0 *while task 0 is in flight*: its
        # future fails with WorkerCrashError, the non-sticky delay is
        # stripped, and the retry lands on the survivor.
        with _Fleet(2, retry_policy=FAST_RETRY) as backend:
            chaos = ChaosBackend(backend, "delay@0:1.0,drop_worker@1")
            evaluator = _make_evaluator()
            tasks = _sample_tasks(2)
            slow = chaos.submit_evaluation(
                evaluator, (tasks[0].pipeline, tasks[0].fidelity))
            assert _wait_until(lambda: slow.running(), timeout=5.0)
            clean = chaos.submit_evaluation(
                evaluator, (tasks[1].pipeline, tasks[1].fidelity))
            assert clean.result().get("failure_kind") is None
            recovered = slow.result()
            assert recovered.get("failure_kind") is None
            assert recovered["accuracy"] is not None
            assert backend.worker_count == 1
        assert _counter("engine.retries") >= 1
        assert _counter("engine.worker_crashes") == 1
        assert _counter("engine.worker_heartbeat_misses") == 1

    def test_sticky_fault_quarantines_poison_task(self):
        reference = _reference_rows(3)
        with _Fleet(2, retry_policy=FAST_RETRY) as backend:
            engine = ExecutionEngine(ChaosBackend(backend, "error@1!"))
            rows = _rows(engine.run(_make_evaluator(), _sample_tasks(3)))
        assert rows[0] == reference[0]
        assert rows[2] == reference[2]
        spec, fidelity, accuracy, _, failure_kind = rows[1]
        assert failure_kind == "worker_crash"
        assert accuracy == 0.0  # failure entries score zero
        # exhausted FAST_RETRY: 2 resubmissions, then quarantine
        assert _counter("engine.retries") == 2
        assert _counter("engine.quarantined_tasks") == 1

    def test_blown_deadline_scores_as_timeout(self):
        # 3 workers so the clean tasks never queue behind the hang: the
        # deadline covers queue time, so a 2-worker fleet could blow it
        # on an innocent task that waited for a busy slot.  The margin
        # between the deadline and a clean evaluation is deliberately
        # wide — a loaded CI box must never time an innocent task out.
        reference = _reference_rows(3)
        with _Fleet(3, eval_timeout=2.0,
                    retry_policy=FAST_RETRY) as backend:
            engine = ExecutionEngine(ChaosBackend(backend, "delay@1:6.0"))
            rows = _rows(engine.run(_make_evaluator(), _sample_tasks(3)))
        assert rows[0] == reference[0]
        assert rows[2] == reference[2]
        assert rows[1][4] == "timeout"
        assert _counter("engine.eval_timeouts") >= 1
        assert _counter("engine.quarantined_tasks") == 0

    def test_finished_task_collected_after_its_deadline_keeps_its_record(
            self, clock_ahead):
        # A task that finished in time but is collected after its
        # deadline (queued behind a hung sibling) keeps its real record:
        # the coordinator-side clock jumps past the deadline only once
        # the result has already arrived.
        from repro.engine.remote import backend as remote_backend

        task = _sample_tasks(1)[0]
        with _Fleet(1, eval_timeout=60.0,
                    retry_policy=FAST_RETRY) as backend:
            future = backend.submit_evaluation(
                _make_evaluator(), (task.pipeline, task.fidelity))
            assert _wait_until(future.done, timeout=50.0)
            clock_ahead(remote_backend, 120.0)
            entry = future.result()
        assert entry.get("failure_kind") is None
        assert entry["accuracy"] == _reference_rows(1)[0][2]
        assert _counter("engine.eval_timeouts") == 0

    def test_abrupt_worker_death_is_counted_and_survivable(self):
        reference = _reference_rows(4)
        backend, workers = start_loopback(2, retry_policy=FAST_RETRY)
        try:
            # stop() slams the socket shut without a goodbye — the
            # coordinator must observe an ungraceful death
            workers[0].stop()
            assert _wait_until(lambda: backend.worker_count == 1)
            assert _counter("engine.worker_crashes") == 1
            engine = ExecutionEngine(backend)
            rows = _rows(engine.run(_make_evaluator(), _sample_tasks(4)))
        finally:
            backend.close()
            for worker in workers:
                worker.stop()
        assert rows == reference

    def test_heartbeat_silence_kills_registration(self):
        backend = RemoteBackend(worker_timeout=0.3)
        sock = None
        try:
            sock = socket.create_connection(
                parse_address(backend.coordinator_address), timeout=5.0)
            send_message(sock, {"type": "register", "cores": 1, "pid": 0,
                                "version": PROTOCOL_VERSION})
            rfile = sock.makefile("rb")
            reply = read_message(rfile)
            assert reply["type"] == "registered"
            assert backend.wait_for_workers(1, timeout=5.0)
            # never heartbeat: the monitor must declare this worker dead
            assert _wait_until(lambda: backend.worker_count == 0)
            assert _counter("engine.worker_heartbeat_misses") == 1
            assert _counter("engine.worker_crashes") == 1
            rfile.close()
        finally:
            if sock is not None:
                sock.close()
            backend.close()


# --------------------------------------------------- shared result substrate
class TestSharedCacheSubstrate:
    def test_workers_publish_to_shared_cache(self, tmp_path):
        tasks = _sample_tasks(3)
        backend, workers = start_loopback(2)
        engine = ExecutionEngine(backend)
        try:
            first = _rows(engine.run(_make_evaluator(cache_dir=tmp_path),
                                     tasks))
        finally:
            engine.close()
            for worker in workers:
                worker.stop()
        # every successful result landed in the persistent substrate,
        # keyed by the evaluator fingerprint all fleet members share
        evaluator = _make_evaluator(cache_dir=tmp_path)
        disk = open_eval_cache(tmp_path, evaluator.fingerprint(),
                               max_index_entries=evaluator.cache_size)
        for task in tasks:
            key = evaluator.cache_key(task.pipeline, task.fidelity)
            assert disk.get(key) is not None
        # a second fleet mounting the same root reproduces the rows
        backend, workers = start_loopback(2)
        engine = ExecutionEngine(backend)
        try:
            second = _rows(engine.run(evaluator, tasks))
        finally:
            engine.close()
            for worker in workers:
                worker.stop()
        assert second == first
