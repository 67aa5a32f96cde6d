"""fleet-remote: one async rs search over two ``repro worker`` subprocesses.

Each unit boots a fresh fleet -- two real worker daemons of one core
each, dialing an in-process coordinator (``backend="remote"``) -- builds
the problem, and runs a 150-trial asynchronous random search on a small
dataset, so each evaluation costs tens of milliseconds and dispatch over
the wire is a large share of it.  (On a smaller dataset, with evaluations
of a few milliseconds, the fleet's throughput follows the machine's
scheduling jitter more than the program.)  Subprocess workers, not
in-thread loopback ones: those share this process's interpreter lock and
run slower than serial.  The seed sets the problem's seed (its train/validation split); the
search's seed stays fixed, since the proposed pipelines' cost varies more
between search seeds than a run can average out.
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import time

from harness import Pass, median, peak_rss_mb, repeat

NAME = "fleet-remote"
#: two workers plus this process proposing and collecting
LANES = 3
IMPORTS = ("repro.engine.remote", "repro.search.session",
           "repro.core.problem")

DATASET = "madeline"
TRIALS = 150
WORKERS = 2
BOOT_TIMEOUT_S = 60.0
#: nominal seconds per fleet boot plus search on a 2-core box
UNIT_S = 5.0
INFRA_FAILURES = ("timeout", "worker_crash")


def prepare(bench):
    return {"problem_seed": bench.rng("fleet-remote").randrange(10_000),
            "search_seed": 0}


def _problem(inputs, context=None):
    from repro.core.problem import AutoFPProblem

    return AutoFPProblem.from_registry(
        DATASET, "lr", random_state=inputs["problem_seed"], context=context)


def _multiset(result) -> collections.Counter:
    return collections.Counter(
        (repr(trial.pipeline.spec()), trial.accuracy, trial.fidelity)
        for trial in result.trials)


def _spawn_worker(bench, address):
    spawned = time.time()
    if bench.trace_dir is None:
        command = ["-m", "repro", "worker"]
    else:
        command = [str(bench.root / "perfbench" / "launch.py"), "worker"]
    proc = subprocess.Popen(
        [sys.executable, *command, "--coordinator", address, "--cores", "1"],
        cwd=bench.root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=bench.child_env(PERFBENCH_SPAWN_TS=repr(spawned)))
    return proc, spawned


def measure(bench, inputs) -> Pass:
    from repro.core.context import ExecutionContext
    from repro.engine import ExecutionEngine
    from repro.engine.remote import RemoteBackend
    from repro.search import make_search_algorithm
    from repro.search.session import SearchSession
    from repro.telemetry.metrics import get_registry

    registry = get_registry()
    before = {name: registry.counter(name).value
              for name in ("engine.retries", "engine.worker_crashes")}
    result = Pass(outputs=[])
    layer = result.layer
    layer.update(boot_s=[], search_windows=[], home_pid=os.getpid())
    context = ExecutionContext(async_mode=True)

    def unit():
        start = time.time()
        backend = RemoteBackend()
        workers = [_spawn_worker(bench, backend.coordinator_address)
                   for _ in range(WORKERS)]
        try:
            result.attempted += WORKERS
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            registered = 0
            while registered < WORKERS and time.monotonic() < deadline:
                if backend.wait_for_workers(registered + 1, timeout=0.005):
                    registered += 1
                    layer["boot_s"].append(time.time() - workers[0][1])
            if registered < WORKERS:
                result.failed += WORKERS - registered
                return
            problem = _problem(inputs, context)
            problem.evaluator.set_engine(ExecutionEngine(backend))
            problem.baseline_accuracy()
            session = SearchSession(
                problem, make_search_algorithm(
                    "rs", random_state=inputs["search_seed"]),
                context=context)
            dispatched = time.time()
            found = session.run(max_trials=TRIALS)
            done = time.time()
        finally:
            backend.close()
            for proc, _spawned in workers:
                try:
                    code = proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    code = proc.wait()
                result.failed += code != 0
        result.setup.append(dispatched - start)
        result.trials += len(found)
        result.rates.append(len(found) / (done - dispatched))
        result.latencies.append(done - dispatched)
        result.attempted += len(found)
        result.failed += sum(trial.failure_kind in INFRA_FAILURES
                             for trial in found.trials)
        result.windows.append((start, time.time()))
        layer["search_windows"].append((dispatched, done))
        result.outputs.append(_multiset(found))

    repeat(bench.seconds, UNIT_S, unit)
    result.peak_rss_mb = peak_rss_mb()
    layer["retries"] = registry.counter("engine.retries").value \
        - before["engine.retries"]
    layer["worker_crashes"] = registry.counter("engine.worker_crashes").value \
        - before["engine.worker_crashes"]
    layer["inflight_max"] = registry.gauge("engine.inflight").high_water
    return result


def check(bench, inputs, passes) -> list:
    """The fleet's record multiset equals a serial run's (order may differ)."""
    from repro.search import make_search_algorithm
    from repro.search.session import SearchSession

    problem = _problem(inputs)
    expected = _multiset(SearchSession(
        problem, make_search_algorithm(
            "rs", random_state=inputs["search_seed"])).run(max_trials=TRIALS))
    checks = []
    for run in passes:
        for found in run.outputs:
            missing = expected - found
            extra = found - expected
            checks.append((not missing and not extra,
                           f"fleet records differ from serial: "
                           f"{sum(missing.values())} missing, "
                           f"{sum(extra.values())} unexpected"))
    return checks


def layer_metrics(by_name, own, counters, traced) -> dict:
    layer = traced.layer
    home = layer["home_pid"]
    worker_spans = [span for name, found in by_name.items()
                    if not name.startswith("cli.")
                    for span in found if span["pid"] != home]
    busy = sum(own[span["attrs"]["id"]] for span in worker_spans)
    in_workers = _by_unit(worker_spans)
    resolves = _by_unit(by_name["engine.resolve"])
    roundtrips, overheads, waits = [], [], []
    # A task's submit and resolve share its pipeline's unit id, and so do
    # the prep and train spans of the worker that evaluated it.
    for unit, submits in _by_unit(by_name["engine.submit"]).items():
        for submit, resolve in zip(submits, resolves[unit]):
            end = resolve["ts"] + resolve["dur"]
            remote = [span for span in in_workers[unit]
                      if submit["ts"] <= span["ts"] <= end]
            if not remote:
                continue  # answered by the cache, never dispatched
            roundtrip = end - submit["ts"]
            roundtrips.append(roundtrip)
            overheads.append(roundtrip - sum(own[span["attrs"]["id"]]
                                             for span in remote))
            waits.append(min(span["ts"] for span in remote) - submit["ts"])
    search_s = sum(end - start for start, end in layer["search_windows"])
    return {
        "engine.busy_share": busy / (search_s * WORKERS),
        "engine.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "engine.inflight_max": layer["inflight_max"],
        "engine.retries": layer["retries"],
        "engine.remote.boot_s": median(layer["boot_s"]),
        "engine.remote.roundtrip_ms_p50": 1e3 * median(roundtrips),
        "engine.remote.overhead_ms_per_task": (
            1e3 * sum(overheads) / len(overheads) if overheads else 0.0),
        "engine.remote.worker_crashes": layer["worker_crashes"],
    }


def _by_unit(spans) -> dict:
    """Unit id -> its spans, earliest first."""
    grouped = collections.defaultdict(list)
    for span in sorted(spans, key=lambda s: s["ts"]):
        grouped[span["attrs"]["unit"]].append(span)
    return grouped
