"""Chaos suite for the fault-tolerance layer (PR-9 acceptance).

Covers the failure taxonomy and :class:`RetryPolicy` (bounded, seeded,
deterministic), the :class:`FaultPlan` spec grammar, the inline recovery
envelope on the serial/thread backends, the real crash-recovery and
timeout-watchdog paths on the process backend, and the acceptance
matrix: a fault plan with a worker kill and a hang fed into a
process-backend search completes with surviving records bit-for-bit
identical to a no-fault run, budgets never overshooting, and the
``engine.*`` failure counters matching the plan.

Tests that genuinely kill pool workers are marked ``slow`` (the CI chaos
smoke step opts into them); one compact process crash-recovery test
stays in the tier-1 default selection.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import PipelineEvaluator
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import (
    ChaosBackend,
    EvalTask,
    EvaluationTimeoutError,
    ExecutionEngine,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    SerialFuture,
    TransientEvaluationError,
    WorkerCrashError,
    classify_failure,
    is_transient,
)
from repro.engine.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    FaultInjection,
    failure_entry,
    strip_fault,
    unwrap_work_item,
)
from repro.exceptions import ValidationError
from repro.models.linear import LogisticRegression
from repro.search import make_search_algorithm
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


def _make_evaluator():
    X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                               random_state=7)
    X = distort_features(X, random_state=7)
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=40), random_state=0
    )


def _sample_tasks(n=5):
    # Distinct specs only: a duplicate task aliases its twin's dispatch
    # group, which would fan one injected fault out to several records
    # and make index-targeted assertions ambiguous.
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
    """Rows of a clean engineless run over the same tasks."""
    engine = ExecutionEngine("serial")
    try:
        return _rows(engine.run(_make_evaluator(), _sample_tasks(n)))
    finally:
        engine.close()


def _chaos_engine(inner, plan):
    return ExecutionEngine(ChaosBackend(inner, plan))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError, match="base_delay"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValidationError, match="jitter"):
            RetryPolicy(jitter=-0.5)
        with pytest.raises(ValidationError, match="attempt"):
            RetryPolicy().delay(0)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.5, max_delay=1.0, jitter=0.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0  # 0.5 * 2 hits the cap
        assert policy.delay(3) == 1.0

    def test_jitter_is_seeded_and_bounded(self):
        first = RetryPolicy(base_delay=0.2, jitter=0.1, seed=9)
        second = RetryPolicy(base_delay=0.2, jitter=0.1, seed=9)
        other = RetryPolicy(base_delay=0.2, jitter=0.1, seed=10)
        delays = [first.delay(n) for n in (1, 2, 3)]
        assert delays == [second.delay(n) for n in (1, 2, 3)]
        assert delays != [other.delay(n) for n in (1, 2, 3)]
        for attempt, delay in enumerate(delays, start=1):
            base = 0.2 * 2 ** (attempt - 1)
            assert base <= delay <= base * 1.1

    def test_should_retry_respects_attempts_and_taxonomy(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)
        assert policy.should_retry(1, WorkerCrashError("boom"))
        assert policy.should_retry(1, TransientEvaluationError("flaky"))
        assert not policy.should_retry(1, EvaluationTimeoutError("late"))
        assert not policy.should_retry(1, ValueError("bug"))

    def test_taxonomy_helpers(self):
        assert is_transient(WorkerCrashError("boom"))
        assert not is_transient(EvaluationTimeoutError("late"))
        assert classify_failure(OSError("pipe")) == "transient"
        assert classify_failure(KeyError("bug")) == "permanent"

    def test_failure_entry_shape(self):
        entry = failure_entry(FAILURE_KIND_CRASH)
        assert entry == {"accuracy": 0.0, "prep_time": 0.0, "train_time": 0.0,
                         "failed": True, "failure_kind": FAILURE_KIND_CRASH}
        with pytest.raises(ValidationError, match="failure kind"):
            failure_entry("oom")


class TestFaultPlan:
    def test_spec_round_trips(self):
        spec = "crash@1,error@4,delay@6:30,crash@8!"
        plan = FaultPlan.from_spec(spec)
        assert plan.to_spec() == spec
        assert len(plan) == 4
        assert plan.counts() == {"crash": 2, "error": 1, "delay": 1}
        assert plan.fault_at(6) == InjectedFault("delay", delay=30.0)
        assert plan.fault_at(8).sticky
        assert plan.fault_at(0) is None

    @pytest.mark.parametrize("spec", [
        "crash",              # no @index
        "crash@x",            # non-integer index
        "oom@2",              # unknown kind
        "delay@3",            # delay without a duration
        "crash@3:5",          # duration on a non-delay fault
        "delay@2:soon",       # non-numeric duration
        "crash@1,error@1",    # duplicate index
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            FaultPlan.from_spec(spec)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError, match=">= 0"):
            FaultPlan({-1: InjectedFault("crash")})
        with pytest.raises(ValidationError, match="InjectedFault"):
            FaultPlan({0: "crash"})

    def test_random_plans_are_seeded(self):
        kwargs = dict(crash_rate=0.2, error_rate=0.2, delay_rate=0.1,
                      delay=5.0)
        plan = FaultPlan.random(7, 50, **kwargs)
        assert plan.to_spec() == FaultPlan.random(7, 50, **kwargs).to_spec()
        assert len(plan) > 0
        with pytest.raises(ValidationError, match="at most 1.0"):
            FaultPlan.random(0, 10, crash_rate=0.8, error_rate=0.4)

    def test_injection_primitives(self):
        pair = ("pipeline", 1.0)
        wrapped = FaultInjection(pair, InjectedFault("error"))
        assert unwrap_work_item(wrapped) == (pair, wrapped.fault)
        assert unwrap_work_item(pair) == (pair, None)
        assert strip_fault(wrapped) == pair  # non-sticky faults fire once
        sticky = FaultInjection(pair, InjectedFault("crash", sticky=True))
        assert strip_fault(sticky) is sticky


class TestChaosBackendWiring:
    def test_refuses_nesting_and_non_backends(self):
        inner = ChaosBackend(SerialBackend(), FaultPlan())
        with pytest.raises(ValidationError, match="nest"):
            ChaosBackend(inner, FaultPlan())
        with pytest.raises(ValidationError, match="ExecutionBackend"):
            ChaosBackend("serial", FaultPlan())

    def test_settings_delegate_to_the_wrapped_backend(self):
        inner = SerialBackend()
        chaos = ChaosBackend(inner, "error@0")
        chaos.eval_timeout = 1.5
        chaos.retry_policy = FAST_RETRY
        assert inner.eval_timeout == 1.5
        assert inner.retry_policy is FAST_RETRY
        assert chaos.n_workers == 1
        assert chaos.last_crash is None

    def test_make_backend_applies_options_to_instances(self):
        backend = make_backend(SerialBackend(), eval_timeout=2.0,
                               retry_policy=FAST_RETRY)
        assert backend.eval_timeout == 2.0
        assert backend.retry_policy is FAST_RETRY
        with pytest.raises(ValidationError, match="eval_timeout"):
            make_backend("serial", eval_timeout=-1.0)


class TestContextWiring:
    def test_chaos_spec_normalized_and_validated(self):
        context = ExecutionContext(chaos=" delay@3:30 , crash@1! ")
        assert context.chaos == "crash@1!,delay@3:30"
        assert "chaos=" in context.describe()
        with pytest.raises(ValidationError):
            ExecutionContext(chaos="oom@1")
        with pytest.raises(ValidationError, match="eval_timeout"):
            ExecutionContext(eval_timeout=0.0)

    def test_build_engine_wraps_in_chaos(self):
        context = ExecutionContext(chaos="error@1", eval_timeout=2.5)
        engine = context.build_engine()
        try:
            assert isinstance(engine.backend, ChaosBackend)
            assert isinstance(engine.backend.inner, SerialBackend)
            assert engine.backend.eval_timeout == 2.5
            assert engine.backend.plan.to_spec() == "error@1"
        finally:
            engine.close()

    def test_from_env_reads_timeout_and_chaos(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_CHAOS", "error@0")
        context = ExecutionContext.from_env()
        assert context.eval_timeout == 1.5
        assert context.chaos == "error@0"
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "soon")
        with pytest.raises(ValidationError, match="REPRO_EVAL_TIMEOUT"):
            ExecutionContext.from_env()


class TestSerialFutureTimeout:
    def test_timeout_argument_rejected(self):
        future = SerialFuture(lambda item: item, 1)
        with pytest.raises(ValidationError, match="cannot honor a timeout"):
            future.result(timeout=0.1)
        assert future.result() == 1
        assert future.result(timeout=None) == 1


class TestThreadBackendSubmitRace:
    def test_concurrent_submits_build_exactly_one_pool(self, monkeypatch):
        import repro.engine.backends as backends_module

        created = []
        real_pool = backends_module.ThreadPoolExecutor

        class CountingPool(real_pool):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(backends_module, "ThreadPoolExecutor",
                            CountingPool)
        backend = ThreadBackend(n_workers=2)
        barrier = threading.Barrier(8)
        futures = []

        def submit():
            barrier.wait()
            futures.append(backend.submit(lambda item: item, 1))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert len(created) == 1
            assert [future.result() for future in futures] == [1] * 8
        finally:
            backend.close()


class TestInlineChaosRecovery:
    """Serial/thread backends: the guarded envelope retries in-process."""

    @pytest.mark.parametrize("make_inner", [
        lambda: SerialBackend(retry_policy=FAST_RETRY),
        lambda: ThreadBackend(n_workers=2, retry_policy=FAST_RETRY),
    ], ids=["serial", "thread"])
    def test_transient_faults_converge_to_the_clean_run(self, make_inner):
        engine = _chaos_engine(make_inner(), "error@0,crash@3")
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        assert _rows(records) == _reference_rows()
        assert _counter("engine.retries") == 2
        assert _counter("engine.worker_crashes") == 1
        assert _counter("engine.quarantined_tasks") == 0

    def test_sticky_crash_quarantines_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(SerialBackend(retry_policy=policy),
                               "crash@1!")
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        reference = _reference_rows()
        rows = _rows(records)
        # Serial dispatch order is submission order: index 1 is tasks[1].
        assert rows[1][2] == 0.0
        assert rows[1][4] == FAILURE_KIND_CRASH
        assert [r for i, r in enumerate(rows) if i != 1] \
            == [r for i, r in enumerate(reference) if i != 1]
        assert _counter("engine.worker_crashes") == policy.max_attempts
        assert _counter("engine.retries") == policy.max_attempts - 1
        assert _counter("engine.quarantined_tasks") == 1

    def test_soft_deadline_marks_slow_evaluations(self):
        inner = SerialBackend(eval_timeout=1.0, retry_policy=FAST_RETRY)
        engine = _chaos_engine(inner, "delay@1:1.3")
        try:
            records = engine.run(_make_evaluator(), _sample_tasks(3))
        finally:
            engine.close()
        rows = _rows(records)
        assert rows[1][2] == 0.0
        assert rows[1][4] == FAILURE_KIND_TIMEOUT
        assert [row[4] for i, row in enumerate(rows) if i != 1] == [None, None]
        assert _counter("engine.eval_timeouts") == 1
        assert _counter("engine.retries") == 0

    def test_failure_records_are_never_cached(self):
        evaluator = _make_evaluator()
        engine = _chaos_engine(
            SerialBackend(retry_policy=RetryPolicy(max_attempts=1)),
            "crash@0!",
        )
        try:
            first = engine.run(evaluator, _sample_tasks(1))
            assert first[0].failure_kind == FAILURE_KIND_CRASH
            # The chaos plan is spent (index 0 fired); a rerun on the same
            # evaluator must re-evaluate for real, not replay the failure.
            second = engine.run(evaluator, _sample_tasks(1))
        finally:
            engine.close()
        assert second[0].failure_kind is None
        assert second[0].accuracy > 0.0

    def test_same_plan_twice_is_bit_for_bit_identical(self):
        def run_once():
            engine = _chaos_engine(SerialBackend(retry_policy=FAST_RETRY),
                                   "crash@1!,error@3")
            try:
                return _rows(engine.run(_make_evaluator(), _sample_tasks()))
            finally:
                engine.close()

        assert run_once() == run_once()


def _make_problem():
    X, y = make_classification(n_samples=120, n_features=6, class_sep=2.0,
                               random_state=3)
    X = distort_features(X, random_state=3)
    return AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=40), space=SearchSpace(max_length=3),
        random_state=0, name="faults/lr",
    )


def _search_rows(result):
    return [(t.pipeline.spec(), round(t.fidelity, 6), t.accuracy,
             t.iteration, t.failure_kind) for t in result.trials]


class TestBudgetsUnderFaults:
    def _search(self, engine, max_trials=8):
        problem = _make_problem()
        problem.evaluator.set_engine(engine)
        searcher = make_search_algorithm("rs", random_state=0, batch_size=4)
        try:
            return searcher.search(problem, max_trials=max_trials)
        finally:
            if engine is not None:
                engine.close()

    def test_recovered_search_matches_the_clean_run_exactly(self):
        reference = self._search(None)
        chaotic = self._search(
            _chaos_engine(SerialBackend(retry_policy=FAST_RETRY),
                          "crash@2,error@5")
        )
        assert len(chaotic) == 8  # the trial budget never overshoots
        assert _search_rows(chaotic) == _search_rows(reference)
        assert chaotic.best_accuracy == reference.best_accuracy

    def test_quarantined_trials_consume_budget_without_overshoot(self):
        reference = self._search(None)
        chaotic = self._search(
            _chaos_engine(SerialBackend(retry_policy=FAST_RETRY), "crash@2!")
        )
        rows = _search_rows(chaotic)
        assert len(rows) == 8
        failed = [row for row in rows if row[4] is not None]
        assert [row[4] for row in failed] == [FAILURE_KIND_CRASH]
        assert [row for row in rows if row[4] is None] \
            == [row for i, row in enumerate(_search_rows(reference))
                if rows[i][4] is None]
        assert _counter("engine.quarantined_tasks") == 1


class TestProcessRecovery:
    """Real pool workers, really killed; the compact case stays tier-1."""

    def test_crash_recovery_reproduces_the_clean_batch(self):
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=FAST_RETRY), "crash@1"
        )
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        assert _rows(records) == _reference_rows()
        assert _counter("engine.worker_crashes") == 1
        assert _counter("engine.retries") >= 1
        assert _counter("engine.quarantined_tasks") == 0

    def test_finished_task_collected_after_its_deadline_keeps_its_record(
            self, clock_ahead):
        # The engine collects in submission order, so a task can finish
        # in time yet be collected after its deadline (queued behind a
        # hung sibling).  Its real record must survive, and the pool must
        # not be discarded for a deadline nobody missed.
        from repro.engine import backends

        task = _sample_tasks(1)[0]
        backend = ProcessBackend(n_workers=1, eval_timeout=60.0,
                                 retry_policy=FAST_RETRY)
        try:
            future = backend.submit_evaluation(
                _make_evaluator(), (task.pipeline, task.fidelity))
            give_up = time.monotonic() + 50.0
            while not future.done() and time.monotonic() < give_up:
                time.sleep(0.02)
            assert future.done()  # finished well inside its 60 s deadline
            clock_ahead(backends, 120.0)
            entry = future.result()
        finally:
            backend.close()
        assert entry.get("failure_kind") is None
        assert entry["accuracy"] == _reference_rows(1)[0][2]
        assert _counter("engine.eval_timeouts") == 0
        assert _counter("engine.worker_crashes") == 0

    @pytest.mark.slow
    def test_async_futures_survive_a_worker_kill(self):
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=FAST_RETRY), "crash@0"
        )
        evaluator = _make_evaluator()
        try:
            pending = engine.submit_tasks(evaluator, _sample_tasks())
            records = [record for _, record
                       in engine.as_completed(evaluator, pending)]
        finally:
            engine.close()
        assert sorted(_rows(records)) == sorted(_reference_rows())
        assert _counter("engine.worker_crashes") == 1

    @pytest.mark.slow
    def test_sticky_crash_quarantines_for_real(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=policy), "crash@1!"
        )
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        rows = _rows(records)
        failed = [row for row in rows if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_CRASH)]
        surviving = {row for row in rows if row[4] is None}
        assert surviving == {row for row in _reference_rows()
                             if row[0] != failed[0][0]}
        assert _counter("engine.quarantined_tasks") == 1

    @pytest.mark.slow
    def test_watchdog_kills_hung_evaluations(self):
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, eval_timeout=1.0,
                           retry_policy=FAST_RETRY),
            "delay@1:30",
        )
        start = time.monotonic()
        try:
            records = engine.run(_make_evaluator(), _sample_tasks(4))
        finally:
            engine.close()
        assert time.monotonic() - start < 20.0  # nowhere near the 30s hang
        rows = _rows(records)
        failed = [row for row in rows if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_TIMEOUT)]
        surviving = {row for row in rows if row[4] is None}
        assert surviving == {row for row in _reference_rows(4)
                             if row[0] != failed[0][0]}
        assert _counter("engine.eval_timeouts") == 1

    @pytest.mark.slow
    def test_acceptance_matrix_kill_plus_hang_search(self):
        """ISSUE acceptance: >=1 kill + >=1 hang through a process search.

        The run completes, surviving records are bit-for-bit identical to
        the no-fault run, the hung trial carries ``failure_kind``, the
        trial budget never overshoots, and the failure counters match the
        plan (one kill, one hang).
        """
        def search(engine, max_trials=8):
            problem = _make_problem()
            problem.evaluator.set_engine(engine)
            searcher = make_search_algorithm("rs", random_state=0,
                                             batch_size=4)
            try:
                return searcher.search(problem, max_trials=max_trials)
            finally:
                if engine is not None:
                    engine.close()

        reference = _search_rows(search(None))
        plan = "crash@1,delay@3:30!"
        results = []
        for _ in range(2):  # same plan twice -> identical records
            get_registry().reset()
            engine = _chaos_engine(
                ProcessBackend(n_workers=2, eval_timeout=1.5,
                               retry_policy=FAST_RETRY),
                plan,
            )
            results.append(_search_rows(search(engine)))
            assert _counter("engine.worker_crashes") == 1
            assert _counter("engine.eval_timeouts") == 1
        first, second = results
        assert first == second
        assert len(first) == 8  # budget: exactly max_trials, no overshoot
        failed = [row for row in first if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_TIMEOUT)]
        surviving = {row for row in first if row[4] is None}
        assert surviving == {row for row in reference
                             if row[0] != failed[0][0]}
