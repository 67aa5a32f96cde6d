"""serve-open: an in-process ``repro serve`` driven open-loop over HTTP.

``SessionManager`` plus ``build_server`` on a loopback ephemeral port,
with the default serial shared engine, a shared persistent cache root
and the default ``max_sessions``/``checkpoint_every``.  A client in this
process drives it through ``ServeClient`` from one thread, in two phases,
each on a freshly booted server over the same cache root:

* paced: an open loop at a fixed rate below the knee, each session timed
  from the moment it was due, so a stall also delays the sessions behind
  it; the generator's lateness is reported;
* burst: three bursts in turn, each submitting its sessions at once, for
  capacity: trials completed over the bursts' total time.

Sessions are small (10 trials) over 3 tenants, 4 algorithms and 6 small
datasets.  About a third repeat the (dataset, algorithm, seed) of a
session that has finished by then -- one due at least ``REPEAT_GAP``
submissions earlier in the paced phase, any paced one in the burst -- so
the shared cache answers them.  The sequence of searches is fixed and the
seed sets each session's tenant: drawing the searches, or their order,
from the seed moves the latency median by more than a run averages out.

The benchmark process -- server and client -- is pinned to one core while
it measures.  The program runs every session as a thread under one
interpreter lock; left free to move those threads between the two cores,
the scheduler made the latency median swing by a quarter from one run to
the next.
"""

from __future__ import annotations

import collections
import os
import random
import threading
import time

from harness import DispatchMarks, Pass, median, peak_rss_mb, percentile

NAME = "serve-open"
#: two session threads (max_sessions) and the client thread
LANES = 3
IMPORTS = ("repro.serve", "repro.serve.http", "repro.serve.client",
           "repro.core.problem")

DATASETS = ("blood", "heart", "vehicle", "australian", "ionosphere", "wine")
ALGORITHMS = ("rs", "tevo_h", "tpe", "pbt")
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
TRIALS = 10
#: chance a session that can repeat does; about a third of all sessions
REPEAT_SHARE = 0.5
#: a paced repeat copies a session due this many submissions earlier
#: (3 s at the paced rate, several times a session's run time)
REPEAT_GAP = 6
#: sessions per second in the paced phase: well below the knee (the
#: burst capacity), so a slower machine still does not queue
PACED_RATE = 2.0
#: share of the run's seconds given to the paced phase; the burst is
#: sized to take about the rest
PACED_SHARE = 0.7
#: sessions per second the bursts are sized for over their share of the
#: run: about their capacity on a 2-core box, so they fill that share
BURST_RATE = 9.0
BURSTS = 3
#: seconds between status polls while waiting for a session.  Polling,
#: not long-polling: a waiting long-poll wakes on every event of every
#: session and takes the interpreter lock from the sessions each time.
POLL_S = 0.05
#: a session still in flight this long after the wait began has hung
WAIT_TIMEOUT_S = 60.0
#: extra server boots, each with one single-trial session, so set-up
#: time is a median of several samples
SETUP_PROBES = 5
PROBE = {"dataset": DATASETS[0], "algorithm": "rs", "max_trials": 1,
         "tenant": "probe"}


def _searches(rng, count, finished) -> list:
    """``count`` (dataset, algorithm, seed) keys; with probability
    ``REPEAT_SHARE`` a key repeats one of ``finished(position)``."""
    keys = []
    for position in range(count):
        earlier = finished(position, keys)
        if earlier and rng.random() < REPEAT_SHARE:
            keys.append(rng.choice(earlier))
        else:
            keys.append((rng.choice(DATASETS), rng.choice(ALGORITHMS),
                         rng.randrange(10_000)))
    return keys


def prepare(bench):
    rng = random.Random(NAME)
    paced = _searches(
        rng, round(PACED_RATE * PACED_SHARE * bench.seconds),
        lambda position, keys: keys[:max(0, position - REPEAT_GAP)])
    burst = _searches(
        rng, round(BURST_RATE * (1 - PACED_SHARE) * bench.seconds),
        lambda position, keys: paced)
    tenants = bench.rng(NAME)
    return {phase: [{"dataset": dataset, "algorithm": algorithm,
                     "seed": seed, "max_trials": TRIALS,
                     "tenant": tenants.choice(TENANTS)}
                    for dataset, algorithm, seed in keys]
            for phase, keys in (("paced", paced), ("burst", burst))}


class _Server:
    """A booted ``repro serve`` on an ephemeral loopback port."""

    def __init__(self, bench, cache_root) -> None:
        from repro.core.context import ExecutionContext
        from repro.serve import SessionManager
        from repro.serve.client import ServeClient
        from repro.serve.http import build_server

        self.manager = SessionManager(
            base_context=ExecutionContext(cache_dir=str(cache_root)),
            state_dir=bench.scratch("serve-state"))
        self.server = build_server(self.manager)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()
        self.client = ServeClient(
            f"127.0.0.1:{self.server.server_address[1]}", timeout=30.0)

    def close(self) -> None:
        self.server.shutdown()
        self.manager.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30.0)


def _wait(client, session_id) -> dict:
    """Poll until the session leaves its in-flight states."""
    deadline = time.monotonic() + WAIT_TIMEOUT_S
    while True:
        status = client.status(session_id)
        if status["status"] not in ("queued", "running"):
            return status
        if time.monotonic() > deadline:
            return {**status, "status": f"hung: {status['status']}"}
        time.sleep(POLL_S)


def _phase(bench, result, marks, cache_root, specs, rate):
    """Boot a server, submit ``specs`` (paced at ``rate``, or all at once
    when ``rate`` is None), then wait for every session.

    Sessions are timed by the server's own completion stamps, so waiting
    after the last submission delays no measurement.  Returns rows of
    (due time, spec, session id or None, final status), the generator's
    lateness per submission, each session's events, and the phase's
    start and end.
    """
    from repro.exceptions import ReproError

    boot = time.time()
    server = _Server(bench, cache_root)
    client = server.client
    rows = []
    submitted = []
    start = time.time()
    late = []
    for index, spec in enumerate(specs):
        due = start if rate is None else start + index / rate
        pause = due - time.time()
        if pause > 0:
            time.sleep(pause)
        late.append(time.time() - due)
        result.attempted += 1
        try:
            submitted.append((due, spec, client.submit(spec)["session_id"]))
        except ReproError as error:
            rows.append((due, spec, None, {"status": f"refused: {error}"}))
    for due, spec, session_id in submitted:
        try:
            status = _wait(client, session_id)
        except ReproError as error:
            status = {"status": f"error: {error}"}
        rows.append((due, spec, session_id, status))
    end = time.time()
    dispatched = marks.first_per_process(boot, end)
    if dispatched:
        result.setup.append(dispatched[0] - boot)
    events = {}
    for _due, _spec, session_id, _status in rows:
        if session_id is not None:
            events[session_id] = client.events(session_id)["events"]
    server.close()
    result.windows.append((boot, end))
    result.failed += sum(row[3]["status"] != "done" for row in rows)
    return rows, late, events, start, end


def _probe(bench, result, marks) -> None:
    """Boot a server, run one single-trial session, sample set-up time."""
    boot = time.time()
    server = _Server(bench, bench.scratch("probe-cache"))
    try:
        result.attempted += 1
        session_id = server.client.submit(PROBE)["session_id"]
        done = _wait(server.client, session_id)["status"] == "done"
    finally:
        server.close()
    dispatched = marks.first_per_process(boot, time.time())
    if done and dispatched:
        result.setup.append(dispatched[0] - boot)
    else:
        result.failed += 1


def measure(bench, inputs) -> Pass:
    from repro.io.evalcache import cache_stats

    result = Pass(outputs=[])
    marks = DispatchMarks(bench.scratch("marks") / "dispatch")
    cache_root = bench.scratch("serve-cache")
    # Threads inherit the affinity of the thread that starts them: the
    # server's and the sessions' threads all run on this one core.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        for _ in range(SETUP_PROBES):
            _probe(bench, result, marks)
        paced, late, paced_events, _start, _end = _phase(
            bench, result, marks, cache_root, inputs["paced"], PACED_RATE)
        bursts = [_phase(bench, result, marks, cache_root,
                         inputs["burst"][offset::BURSTS], None)
                  for offset in range(BURSTS)]
    finally:
        os.sched_setaffinity(0, cores)
        marks.close()
    result.peak_rss_mb = peak_rss_mb()
    result.latencies = [status["updated"] - due
                        for due, _spec, _id, status in paced
                        if status["status"] == "done"]
    burst = []
    burst_events: dict = {}
    burst_s = 0.0
    sessions = 0
    for rows, _late, events, start, end in bursts:
        finished = [row[3] for row in rows if row[3]["status"] == "done"]
        burst_s += max((status["updated"] for status in finished),
                       default=end) - start
        result.trials += sum(status["trials"] for status in finished)
        sessions += len(finished)
        burst += rows
        burst_events.update(events)
    result.rates.append(result.trials / burst_s)
    result.outputs = [(spec, status) for _due, spec, _id, status
                      in paced + burst]
    result.extra.update({
        "session_latency_p50_s": (median(result.latencies), "s",
                                  len(result.latencies)),
        "session_latency_p90_s": (percentile(result.latencies, 0.9), "s",
                                  len(result.latencies)),
        "sessions_per_s": (sessions / burst_s, "1/s", sessions),
        "generator_late_ms": (1e3 * max(late), "ms", len(late)),
    })
    stats = cache_stats(cache_root)
    result.layer.update(
        late=late,
        statuses={session_id: status for _due, _spec, session_id, status
                  in paced + burst if session_id is not None},
        checkpoints=sum(event.get("kind") == "checkpoint"
                        for found in (paced_events, burst_events)
                        for events in found.values() for event in events),
        entries=sum(row["entries"] for row in stats),
        disk_mb=sum(row["bytes"] for row in stats) / 1e6)
    return result


def check(bench, inputs, passes) -> list:
    """Every session is done with its spec's serial best accuracy."""
    from repro.core.problem import AutoFPProblem
    from repro.search import make_search_algorithm
    from repro.search.session import SearchSession

    expected = {}
    checks = []
    for run in passes:
        for spec, status in run.outputs:
            key = (spec["dataset"], spec["algorithm"], spec["seed"])
            if key not in expected:
                dataset, algorithm, seed = key
                problem = AutoFPProblem.from_registry(dataset, "lr",
                                                      random_state=seed)
                expected[key] = SearchSession(
                    problem, make_search_algorithm(algorithm,
                                                   random_state=seed),
                ).run(max_trials=TRIALS).best_accuracy
            checks.append((status.get("status") == "done"
                           and status.get("best_accuracy") == expected[key],
                           f"session {key}: {status.get('status')} best "
                           f"{status.get('best_accuracy')} vs serial "
                           f"{expected[key]}"))
    return checks


def layer_metrics(by_name, own, counters, traced) -> dict:
    layer = traced.layer
    starts = collections.defaultdict(list)
    for span in by_name["core.problem.build"]:
        thread = span["attrs"]["tid"]
        if thread.startswith("repro-serve-"):
            starts[thread[len("repro-serve-"):]].append(span["ts"])
    queued, running = [], []
    for session_id, status in layer["statuses"].items():
        if session_id in starts and status["status"] == "done":
            began = min(starts[session_id])
            queued.append(began - status["created"])
            running.append(status["updated"] - began)
    return {
        "io.evalcache.entries": layer["entries"],
        "io.evalcache.disk_mb": layer["disk_mb"],
        "serve.submit_ms_p50": 1e3 * median(
            [span["dur"] for span in by_name["serve.submit"]]),
        "serve.queue_wait_s_p50": median(queued),
        "serve.run_s_p50": median(running),
        "serve.checkpoints": layer["checkpoints"],
        "serve.generator_late_ms": 1e3 * max(layer["late"]),
    }
