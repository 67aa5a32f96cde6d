"""SessionManager: admission, lifecycle, durability, observability.

Everything here drives the manager directly (no sockets); the HTTP layer
is a thin translation tested separately in ``test_http.py``.  The core
acceptance test is restart-resume: kill a manager mid-search, build a new
one on the same state dir, and the resumed session's accuracies must be
bit-for-bit identical to a run that was never interrupted.
"""

import threading
import time

import pytest

from repro.core.context import ExecutionContext
from repro.exceptions import ValidationError
from repro.serve import AdmissionError, SessionManager, UnknownSessionError
from repro.serve.manager import normalize_spec
from repro.telemetry.metrics import get_registry

#: tiny-but-real search spec every test submits (blood is the smallest
#: registry dataset; scale 0.5 keeps one trial well under a second)
SPEC = {"dataset": "blood", "max_trials": 4, "seed": 3, "scale": 0.5}


def _wait_for(condition, *, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def _wait_settled(manager, session_id, *, timeout=60.0):
    _wait_for(
        lambda: manager.status(session_id)["status"]
        not in ("queued", "running"),
        timeout=timeout, message=f"{session_id} to settle",
    )
    return manager.status(session_id)


@pytest.fixture
def manager(tmp_path):
    built = SessionManager(state_dir=tmp_path / "state", max_sessions=2)
    yield built
    built.shutdown()


@pytest.fixture(autouse=True)
def _reset_registry():
    get_registry().reset()
    yield
    get_registry().reset()


class TestSpecValidation:
    def test_defaults_filled_in(self):
        spec = normalize_spec({"dataset": "blood"})
        assert spec["model"] == "lr"
        assert spec["algorithm"] == "rs"
        assert spec["tenant"] == "default"
        assert spec["max_trials"] == 20

    def test_unknown_fields_refused(self):
        with pytest.raises(ValidationError, match="unknown submission"):
            normalize_spec({"dataset": "blood", "dataste": "typo"})

    def test_dataset_required(self):
        with pytest.raises(ValidationError, match="dataset"):
            normalize_spec({})

    def test_execution_resources_not_submittable(self):
        with pytest.raises(ValidationError, match="owned by"):
            normalize_spec({"dataset": "blood",
                            "context": {"n_jobs": 8, "backend": "process"}})

    def test_submit_rejects_unknown_dataset_eagerly(self, manager):
        with pytest.raises(Exception, match="nope"):
            manager.submit({"dataset": "nope"})
        assert manager.sessions() == []


class TestLifecycle:
    def test_submit_runs_to_done(self, manager):
        session_id = manager.submit(SPEC)
        final = _wait_settled(manager, session_id)
        assert final["status"] == "done"
        assert final["trials"] == SPEC["max_trials"]
        assert final["result"]["best_accuracy"] is not None
        assert len(final["result"]["accuracies"]) == SPEC["max_trials"]

    def test_trial_events_stream_in_order(self, manager):
        session_id = manager.submit(SPEC)
        _wait_settled(manager, session_id)
        chunk = manager.events(session_id, after=0)
        kinds = [event["kind"] for event in chunk["events"]]
        assert kinds.count("trial") == SPEC["max_trials"]
        assert kinds[-1] == "status"
        assert [event["seq"] for event in chunk["events"]] \
            == list(range(len(kinds)))
        # Long-poll continuation: nothing new after the end.
        again = manager.events(session_id, after=chunk["next"], timeout=0.1)
        assert again["events"] == []
        assert again["status"] == "done"

    def test_unknown_session_raises(self, manager):
        with pytest.raises(UnknownSessionError):
            manager.status("no-such-session")
        with pytest.raises(UnknownSessionError):
            manager.events("no-such-session")

    def test_queued_session_waits_for_a_slot(self, tmp_path):
        manager = SessionManager(state_dir=tmp_path / "state", max_sessions=1)
        try:
            first = manager.submit({**SPEC, "max_trials": 8})
            second = manager.submit(SPEC)
            statuses = {view["session_id"]: view["status"]
                        for view in manager.sessions()}
            assert statuses[second] == "queued"
            final = _wait_settled(manager, second)
            assert final["status"] == "done"
            assert _wait_settled(manager, first)["status"] == "done"
        finally:
            manager.shutdown()

    def test_pause_before_start_and_resume(self, tmp_path):
        manager = SessionManager(state_dir=tmp_path / "state", max_sessions=1)
        try:
            blocker = manager.submit({**SPEC, "max_trials": 8})
            queued = manager.submit(SPEC)
            view = manager.pause(queued)
            assert view["status"] == "paused"
            # A paused session never grabs the slot the blocker frees.
            _wait_settled(manager, blocker)
            assert manager.status(queued)["status"] == "paused"
            manager.resume(queued)
            assert _wait_settled(manager, queued)["status"] == "done"
        finally:
            manager.shutdown()

    def test_cancel_refunds_the_tenant_quota(self, tmp_path):
        manager = SessionManager(state_dir=tmp_path / "state", max_sessions=1,
                                 tenant_quota=10)
        try:
            blocker = manager.submit({**SPEC, "max_trials": 6,
                                      "tenant": "acme"})
            queued = manager.submit({**SPEC, "tenant": "acme"})
            # 6 + 4 consumed: a further submission for acme is refused ...
            with pytest.raises(AdmissionError, match="acme"):
                manager.submit({**SPEC, "tenant": "acme"})
            # ... and other tenants are unaffected.
            other = manager.submit({**SPEC, "tenant": "other"})
            # Cancelling the queued session refunds its 4 trials.
            assert manager.cancel(queued)["status"] == "cancelled"
            retry = manager.submit({**SPEC, "tenant": "acme"})
            for session_id in (blocker, other, retry):
                assert _wait_settled(manager, session_id)["status"] == "done"
        finally:
            manager.shutdown()

    def test_failed_session_reports_not_raises(self, manager):
        # vehicle-lr would be fine; an impossible model makes the worker
        # fail after admission (model names are resolved at build time).
        session_id = manager.submit({**SPEC, "model": "no-such-model"})
        final = _wait_settled(manager, session_id)
        assert final["status"] == "failed"
        assert "no-such-model" in final["error"]
        assert manager.healthz()["sessions"]["failed"] == 1


class TestDurability:
    def test_restart_resumes_bit_for_bit(self, tmp_path):
        spec = {**SPEC, "max_trials": 8}
        # Reference: the same submission, never interrupted.
        reference = SessionManager(state_dir=tmp_path / "ref",
                                   checkpoint_every=2)
        try:
            ref_id = reference.submit(spec)
            expected = _wait_settled(reference, ref_id)["result"]["accuracies"]
        finally:
            reference.shutdown()

        # A chaos delay pins the fourth evaluation for a few seconds so the
        # kill deterministically lands mid-search (cached repeat trials can
        # otherwise finish the whole run before shutdown takes effect).
        # Delays change timing only, never results.
        first = SessionManager(
            state_dir=tmp_path / "state", checkpoint_every=2,
            base_context=ExecutionContext(chaos="delay@3:2.5"),
        )
        session_id = first.submit(spec)
        _wait_for(lambda: (first.status(session_id)["trials"] or 0) >= 3,
                  message="a few trials before the kill")
        first.shutdown()
        interrupted = first.status(session_id)
        assert interrupted["status"] == "interrupted"
        assert interrupted["trials"] < spec["max_trials"]

        second = SessionManager(state_dir=tmp_path / "state",
                                checkpoint_every=2)
        try:
            assert session_id in [view["session_id"]
                                  for view in second.sessions()]
            final = _wait_settled(second, session_id)
            assert final["status"] == "done"
            assert final["result"]["accuracies"] == expected
        finally:
            second.shutdown()

    def test_terminal_sessions_recover_as_terminal(self, tmp_path):
        first = SessionManager(state_dir=tmp_path / "state")
        session_id = first.submit(SPEC)
        _wait_settled(first, session_id)
        first.shutdown()

        second = SessionManager(state_dir=tmp_path / "state")
        try:
            view = second.status(session_id)
            assert view["status"] == "done"
            assert view["result"]["best_accuracy"] is not None
        finally:
            second.shutdown()

    def test_recovered_tenant_usage_still_counts(self, tmp_path):
        first = SessionManager(state_dir=tmp_path / "state", max_sessions=1,
                               tenant_quota=10)
        blocker = first.submit({**SPEC, "max_trials": 6, "tenant": "acme"})
        queued = first.submit({**SPEC, "tenant": "acme"})
        first.shutdown()

        second = SessionManager(state_dir=tmp_path / "state", max_sessions=1,
                                tenant_quota=10)
        try:
            # The recovered in-flight sessions re-consume acme's quota.
            with pytest.raises(AdmissionError):
                second.submit({**SPEC, "tenant": "acme"})
            for session_id in (blocker, queued):
                assert _wait_settled(second, session_id)["status"] == "done"
        finally:
            second.shutdown()


class TestObservability:
    def test_healthz_counts_sessions_by_state(self, manager):
        assert manager.healthz()["sessions"] == {}
        session_id = manager.submit(SPEC)
        _wait_settled(manager, session_id)
        health = manager.healthz()
        assert health["status"] == "ok"
        assert health["sessions"] == {"done": 1}
        assert health["max_sessions"] == 2

    def test_metrics_carry_per_session_heartbeats(self, manager):
        first = manager.submit(SPEC)
        second = manager.submit({**SPEC, "seed": 5})
        for session_id in (first, second):
            _wait_settled(manager, session_id)
        metrics = manager.metrics()
        assert set(metrics["sessions"]) == {first, second}
        for session_id in (first, second):
            heartbeat = metrics["sessions"][session_id]["heartbeat"]
            assert heartbeat["session_id"] == session_id
            assert heartbeat["trials"] == SPEC["max_trials"]
        assert "registry" in metrics

    def test_concurrent_sessions_keep_separate_results(self, manager):
        # Two concurrent sessions over one shared manager: distinct
        # heartbeats above, and per-session determinism here.
        solo = SessionManager(state_dir=None, max_sessions=1)
        try:
            solo_id = solo.submit(SPEC)
            expected = _wait_settled(solo, solo_id)["result"]["accuracies"]
        finally:
            solo.shutdown()

        first = manager.submit(SPEC)
        second = manager.submit({**SPEC, "seed": 9})
        accuracies = {
            session_id: _wait_settled(manager, session_id)["result"]
            ["accuracies"]
            for session_id in (first, second)
        }
        assert accuracies[first] == expected
        assert accuracies[second] != expected  # different seed, own stream


class TestFairScheduling:
    """Weighted fair queueing replaces FIFO for free session slots."""

    @staticmethod
    def _record(tenant, max_trials=4):
        from types import SimpleNamespace
        return SimpleNamespace(spec={"tenant": tenant,
                                     "max_trials": max_trials})

    @classmethod
    def _drain(cls, scheduler, queued):
        queued = list(queued)
        order = []
        while queued:
            choice = scheduler.take(queued)
            queued.remove(choice)
            order.append(choice.spec["tenant"])
        return order

    def test_weights_must_be_positive(self):
        from repro.serve.manager import _FairScheduler
        with pytest.raises(ValidationError, match="> 0"):
            _FairScheduler({"acme": 0})
        with pytest.raises(ValidationError, match="> 0"):
            _FairScheduler({"acme": -1.5})

    def test_flooding_tenant_cannot_starve_a_light_one(self):
        from repro.serve.manager import _FairScheduler
        scheduler = _FairScheduler()
        queued = [self._record("heavy") for _ in range(10)]
        queued.append(self._record("light"))
        order = self._drain(scheduler, queued)
        # equal weights: the light tenant's single session starts after
        # at most one of the flooder's, not behind all ten
        assert "light" in order[:2]

    def test_weights_scale_the_share(self):
        from repro.serve.manager import _FairScheduler
        scheduler = _FairScheduler({"gold": 2.0, "bronze": 1.0})
        queued = ([self._record("gold", 1) for _ in range(12)]
                  + [self._record("bronze", 1) for _ in range(12)])
        order = self._drain(scheduler, queued)
        # over any early window, gold gets ~2x the starts
        window = order[:9]
        assert window.count("gold") == 6
        assert window.count("bronze") == 3

    def test_schedule_is_deterministic(self):
        from repro.serve.manager import _FairScheduler
        queued = [self._record(tenant, cost)
                  for tenant, cost in (("a", 4), ("b", 2), ("a", 1),
                                       ("c", 8), ("b", 3), ("c", 1))]
        first = self._drain(_FairScheduler({"b": 1.5}), list(queued))
        second = self._drain(_FairScheduler({"b": 1.5}), list(queued))
        assert first == second

    def test_per_tenant_queue_stays_fifo(self):
        from repro.serve.manager import _FairScheduler
        scheduler = _FairScheduler()
        cheap_later = self._record("acme", 1)
        pricey_first = self._record("acme", 9)
        # only the head of a tenant's queue is eligible: the cheap later
        # submission must not jump its own tenant's earlier one
        assert scheduler.take([pricey_first, cheap_later]) is pricey_first

    def test_manager_weighted_no_starvation(self, tmp_path):
        manager = SessionManager(state_dir=tmp_path / "state",
                                 max_sessions=1,
                                 tenant_weights={"light": 2.0})
        # Hold heavy sessions at their first trial: the blocker until every
        # submission is queued, the flood until the light session's outcome
        # has been read.  Without the holds a fast search lets the blocker
        # (or a started flood session) finish before the light session is
        # queued or observed, and the statuses depend on timing.
        all_queued, light_read = threading.Event(), threading.Event()
        on_trial = manager._on_trial

        def held_on_trial(record, session, trial):
            if record.spec["tenant"] == "heavy":
                gate = all_queued if record.spec["max_trials"] == 6 else light_read
                assert gate.wait(timeout=60.0)
            on_trial(record, session, trial)

        manager._on_trial = held_on_trial
        try:
            assert manager.tenant_weights == {"light": 2.0}
            blocker = manager.submit({**SPEC, "max_trials": 6,
                                      "tenant": "heavy"})
            flood = [manager.submit({**SPEC, "tenant": "heavy"})
                     for _ in range(3)]
            light = manager.submit({**SPEC, "tenant": "light"})
            all_queued.set()
            assert _wait_settled(manager, light)["status"] == "done"
            # the light session finished while the flood still waits:
            # under FIFO it would have been last
            statuses = [manager.status(session_id)["status"]
                        for session_id in flood]
            light_read.set()
            assert statuses.count("queued") >= 2
            for session_id in [blocker, *flood]:
                assert _wait_settled(manager, session_id)["status"] == "done"
        finally:
            all_queued.set()
            light_read.set()
            manager.shutdown()


class TestEngineView:
    def test_engineless_manager_reports_serial(self, manager):
        view = manager.engine_view()
        assert view["backend"] == "serial"
        assert view["n_workers"] == 1
        assert view["inflight"] == 0
        assert manager.healthz()["engine"] == view
        assert manager.metrics()["engine"] == view

    def test_pooled_backend_reports_capacity(self, tmp_path):
        manager = SessionManager(
            state_dir=tmp_path / "state",
            base_context=ExecutionContext(backend="thread", n_jobs=2),
        )
        try:
            view = manager.engine_view()
            assert view["backend"] == "thread"
            assert view["n_workers"] == 2
            assert "workers" not in view  # no membership notion
        finally:
            manager.shutdown()

    def test_remote_backend_reports_live_membership(self, tmp_path):
        manager = SessionManager(
            state_dir=tmp_path / "state",
            base_context=ExecutionContext(backend="remote"),
        )
        try:
            view = manager.engine_view()
            assert view["backend"] == "remote"
            # a fleet nobody joined yet: operators see 0 live workers
            # well before throughput would reveal it
            assert view["workers"] == 0
            assert view["n_workers"] == 1  # dispatch-heuristic floor
            assert manager.healthz()["engine"]["workers"] == 0
        finally:
            manager.shutdown()
