"""Per-layer metrics of the traced run, computed from its spans.

Layer names are the program's modules.  A span's *self time* is its
duration minus the time its child spans cover, so a layer's total never
counts the same second twice: an evaluation answered by a cache runs no
prep or train span at all, whatever timings its cached record carries.
Workload modules add the metrics of the layers only they exercise
(``layer_metrics``); everywhere else those layers did no work and read 0.
"""

from __future__ import annotations

import collections

from harness import median

#: per-layer metric -> (unit, end-to-end metric it should move)
METRICS = {
    "cli.interpreter_s": ("s", "setup_s"),
    "cli.import_s": ("s", "setup_s"),
    "datasets.load_s": ("s", "setup_s"),
    "core.problem.build_s": ("s", "setup_s"),
    "core.problem.baseline_s": ("s", "setup_s"),
    "search.propose_s": ("s", "trials_per_s"),
    "search.propose_share": ("ratio", "trials_per_s"),
    "core.evaluation.lookups": ("count", "trials_per_s"),
    "core.evaluation.lru_hit_ratio": ("ratio", "trials_per_s"),
    "core.evaluation.evals": ("count", "trials_per_s"),
    "preprocessing.prep_s": ("s", "trials_per_s"),
    "preprocessing.prep_ms_per_eval": ("ms", "trials_per_s"),
    "models.train_s": ("s", "trials_per_s"),
    "models.train_ms_per_eval": ("ms", "trials_per_s"),
    "io.evalcache.entries": ("count", "trials_per_s"),
    "io.evalcache.disk_mb": ("MB", "peak_rss_mb"),
    "io.evalcache.warm_pass_s": ("s", "trials_per_s"),
    "experiments.cell_latency_p50_s": ("s", "latency_p50_s"),
    "engine.busy_share": ("ratio", "trials_per_s"),
    "engine.queue_wait_s": ("s", "latency_p50_s"),
    "engine.inflight_max": ("count", "trials_per_s"),
    "engine.retries": ("count", "trials_per_s"),
    "engine.remote.boot_s": ("s", "setup_s"),
    "engine.remote.roundtrip_ms_p50": ("ms", "trials_per_s"),
    "engine.remote.overhead_ms_per_task": ("ms", "trials_per_s"),
    "engine.remote.worker_crashes": ("count", "trials_per_s"),
    "serve.submit_ms_p50": ("ms", "latency_p50_s"),
    "serve.queue_wait_s_p50": ("s", "latency_p50_s"),
    "serve.run_s_p50": ("s", "latency_p50_s"),
    "serve.checkpoints": ("count", "latency_p50_s"),
    "serve.generator_late_ms": ("ms", "latency_p50_s"),
    "trace.unattributed_share": ("ratio", "none"),
    "trace.overhead_share": ("ratio", "none"),
}


def span_count(metric: str, spans) -> int:
    """Spans of the layer a metric belongs to (all spans for trace.*)."""
    layer = metric.rsplit(".", 1)[0]
    if layer == "trace":
        return len(spans)
    return sum(span["name"].startswith(layer + ".") for span in spans)


def self_times(spans) -> dict:
    """Span id -> self seconds (duration minus its children's)."""
    covered: collections.Counter = collections.Counter()
    for span in spans:
        parent = span["attrs"]["parent"]
        if parent is not None:
            covered[parent] += span["dur"]
    return {span["attrs"]["id"]: max(0.0, span["dur"] - covered[span["attrs"]["id"]])
            for span in spans}


def covered_seconds(intervals, windows) -> float:
    """Seconds of ``windows`` that at least one interval covers."""
    total = 0.0
    for w_start, w_end in windows:
        clipped = sorted((max(start, w_start), min(end, w_end))
                         for start, end in intervals
                         if end > w_start and start < w_end)
        reach = w_start
        for start, end in clipped:
            if end > reach:
                total += end - max(start, reach)
                reach = end
    return total


def compute(workload, spans, counters, untraced, traced) -> tuple[dict, list]:
    """Per-layer metrics plus the trace's self-check results."""
    by_name = collections.defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    own = self_times(spans)

    def self_sum(name):
        return sum(own[span["attrs"]["id"]] for span in by_name[name])

    def durations(name):
        return [span["dur"] for span in by_name[name]]

    lookups = counters.get("core.evaluation.lookups", 0)
    hits = counters.get("core.evaluation.hits", 0)
    disk_hits = counters.get("io.evalcache.hits", 0)
    evals = lookups - hits
    prep_s = self_sum("preprocessing.prep")
    train_s = self_sum("models.train")
    run_s = sum(durations("search.run"))
    propose_s = counters.get("search.propose_s", 0.0)
    metrics = {name: 0.0 for name in METRICS}
    metrics.update({
        "cli.interpreter_s": median(durations("cli.interpreter")),
        "cli.import_s": median(durations("cli.import")),
        "datasets.load_s": self_sum("datasets.load"),
        "core.problem.build_s": self_sum("core.problem.build"),
        "core.problem.baseline_s": sum(durations("core.problem.baseline")),
        "search.propose_s": propose_s,
        "search.propose_share": propose_s / run_s if run_s else 0.0,
        "core.evaluation.lookups": lookups,
        "core.evaluation.lru_hit_ratio": ((hits - disk_hits) / lookups
                                          if lookups else 0.0),
        "core.evaluation.evals": evals,
        "preprocessing.prep_s": prep_s,
        "preprocessing.prep_ms_per_eval": 1e3 * prep_s / evals if evals else 0.0,
        "models.train_s": train_s,
        "models.train_ms_per_eval": 1e3 * train_s / evals if evals else 0.0,
    })
    metrics.update(workload.layer_metrics(by_name, own, counters, traced))

    windows = traced.windows
    wall = sum(end - start for start, end in windows)
    intervals = [(span["ts"], span["ts"] + span["dur"]) for span in spans]
    metrics["trace.unattributed_share"] = \
        1.0 - covered_seconds(intervals, windows) / wall
    metrics["trace.overhead_share"] = \
        1.0 - median(traced.rates) / median(untraced.rates)

    # Self-check: the layers' self times, summed, cannot exceed the wall
    # time of every lane that could have been working.  A double count
    # (say, cached records' copied timings) breaks this.
    total_self = sum(own.values())
    limit = wall * workload.LANES
    checks = [(total_self <= limit,
               f"trace self-check: layer self time {total_self:.3f}s "
               f"<= wall {wall:.3f}s x {workload.LANES} lanes")]
    return metrics, checks
