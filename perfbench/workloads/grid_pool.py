"""grid-pool: the paper's benchmark grid on a 2-worker process pool.

4 registry datasets x {rs, tevo_h, tpe, hyperband} x lr through
``run_experiment``, two pool workers, a fresh persistent cache root and a
64 MiB prefix cache.  A second, warm pass over the same cache root
follows each cold pass; a run repeats the (cold, warm) pair while time
is left.  The seed sets the order in which the datasets' cells arrive
at the pool, after the first dataset, which stays first so that every
run's set-up (the first cells' dataset load, problem build and baseline)
builds the same problem.  The grid's own base seed stays fixed: the
searched pipelines, and with them a pass's cost, vary more between base
seeds than a run can average out.  Each dataset's cells arrive longest
(hyperband) first, so no ordering ends a pass on a long cell running
alone.
"""

from __future__ import annotations

import time

from harness import DispatchMarks, Pass, median, peak_rss_mb, repeat

NAME = "grid-pool"
#: two pool workers plus this process collecting their cells
LANES = 3
IMPORTS = ("repro.experiments.runner", "repro.core.context")

DATASETS = ("blood", "heart", "vehicle", "wine")
ALGORITHMS = ("hyperband", "tevo_h", "tpe", "rs")
MAX_TRIALS = 15
WORKERS = 2
PREFIX_CACHE_BYTES = 64 << 20
#: nominal seconds per (cold, warm) cycle on a 2-core box
CYCLE_S = 4.5
#: failure kinds that mean the infrastructure, not the pipeline, failed
INFRA_FAILURES = ("timeout", "worker_crash")


def prepare(bench):
    from repro.experiments.config import ExperimentConfig

    first, *rest = DATASETS
    bench.rng(NAME).shuffle(rest)
    return ExperimentConfig(datasets=(first, *rest), models=("lr",),
                            algorithms=ALGORITHMS, max_trials=MAX_TRIALS)


def _summary(outcome) -> dict:
    return {scenario.dataset: (scenario.baseline_accuracy,
                               dict(scenario.accuracies))
            for scenario in outcome.scenarios}


def measure(bench, config) -> Pass:
    from repro.core.context import ExecutionContext
    from repro.experiments.runner import run_experiment
    from repro.io.evalcache import cache_stats
    from repro.telemetry.metrics import get_registry

    result = Pass(outputs=[])
    marks = DispatchMarks(bench.scratch("marks") / "dispatch")
    retries = get_registry().counter("engine.retries").value
    layer = result.layer
    layer.update(pass_starts=[], pass_walls=[], warm_pass_s=[],
                 cells=len(config.datasets) * len(config.algorithms))
    warm_trials = 0
    warm_s = 0.0

    def grid_pass(context):
        start = time.time()
        outcome = run_experiment(config, context=context)
        end = time.time()
        layer["pass_starts"].append(start)
        layer["pass_walls"].append(end - start)
        records = [trial for search in outcome.results.values()
                   for trial in search.trials]
        result.attempted += len(records)
        result.failed += sum(trial.failure_kind in INFRA_FAILURES
                             for trial in records)
        return outcome, start, end, len(records)

    def cycle():
        nonlocal warm_trials, warm_s
        root = bench.scratch("cache")
        context = ExecutionContext(backend="process", n_jobs=WORKERS,
                                   cache_dir=str(root),
                                   prefix_cache_bytes=PREFIX_CACHE_BYTES)
        cold, start, end, trials = grid_pass(context)
        # Each pool worker sets up its first cell on its own: one sample
        # per worker.
        dispatched = marks.first_per_process(start, end)
        if dispatched:
            result.setup.extend(mark - start for mark in dispatched)
            result.trials += trials
            result.rates.append(trials / (end - dispatched[0]))
        else:
            result.failed += 1
        # run_experiment returns the grid only once every cell is done:
        # the caller waits for the whole cold pass.
        result.latencies.append(end - start)
        if not layer.get("cache_stats"):
            layer["cache_stats"] = cache_stats(root)
        warm, warm_start, warm_end, trials = grid_pass(context)
        warm_trials += trials
        warm_s += warm_end - warm_start
        layer["warm_pass_s"].append(warm_end - warm_start)
        result.windows.append((start, warm_end))
        result.outputs.append((_summary(cold), _summary(warm),
                               warm.uncached_evaluations))

    try:
        repeat(bench.seconds, CYCLE_S, cycle)
    finally:
        marks.close()
    result.peak_rss_mb = peak_rss_mb()
    layer["retries"] = get_registry().counter("engine.retries").value - retries
    result.extra["warm_trials_per_s"] = (warm_trials / warm_s, "1/s",
                                         warm_trials)
    return result


def check(bench, config, passes) -> list:
    """Scenarios equal the serial backend's; warm passes evaluate nothing."""
    from repro.core.context import ExecutionContext
    from repro.experiments.runner import run_experiment

    expected = _summary(run_experiment(config, context=ExecutionContext()))
    checks = []
    for run in passes:
        for cold, warm, uncached in run.outputs:
            checks.append((cold == expected,
                           f"cold pass scenarios {cold} vs serial {expected}"))
            checks.append((warm == expected,
                           f"warm pass scenarios {warm} vs serial {expected}"))
            checks.append((uncached == 0,
                           f"warm pass ran {uncached} uncached evaluations"))
    return checks


def layer_metrics(by_name, own, counters, traced) -> dict:
    layer = traced.layer
    cells = by_name["experiments.cell"]
    starts = layer["pass_starts"]
    cold = [(start, start + wall) for start, wall
            in zip(starts[0::2], layer["pass_walls"][0::2])]
    waits = []
    for span in cells:
        submitted = max((start for start in starts if start <= span["ts"]),
                        default=span["ts"])
        waits.append(span["ts"] - submitted)
    cold_cells = [span["dur"] for span in cells
                  if any(start <= span["ts"] <= end for start, end in cold)]
    stats = layer.get("cache_stats") or []
    return {
        "io.evalcache.entries": sum(row["entries"] for row in stats),
        "io.evalcache.disk_mb": sum(row["bytes"] for row in stats) / 1e6,
        "io.evalcache.warm_pass_s": median(layer["warm_pass_s"]),
        "experiments.cell_latency_p50_s": median(cold_cells),
        "engine.busy_share": (sum(s["dur"] for s in cells)
                              / (sum(layer["pass_walls"]) * WORKERS)),
        "engine.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "engine.inflight_max": layer["cells"],
        "engine.retries": layer["retries"],
    }
