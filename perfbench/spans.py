"""Spans recorded around calls into the program, for the traced run.

The traced run never edits the program: it replaces public entry points
(dataset loading, problem building, pipeline fitting, model training,
cache lookups, engine dispatch, the serve client) with wrappers that time
each call.  A :class:`Recorder` keeps every span in memory -- name, start,
end, the span that caused it, and the id of the trial, cell, session or
invocation it belongs to -- and writes them once, at the end of the
process (or of each grid cell in a forked pool worker), as JSON lines in
the format ``repro.telemetry.tracing.read_trace`` reads, so
``to_chrome_trace`` exports them unchanged.

Counter lines (``{"counter": ..., "value": ...}``) share the files; the
trace reader skips them because they carry no ``ts``/``dur``.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: environment variable naming the directory a traced child writes to
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self, sink_dir) -> None:
        self.sink_dir = Path(sink_dir)
        self.active = True
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked pool worker starts with a copy of the parent's buffers;
        # the parent writes those itself, so the child starts empty.
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: list = []
        self._counters: collections.Counter = collections.Counter()
        self._flushes = 0

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_unit(self, unit) -> None:
        """Tag later spans of this thread with ``unit`` (trial, cell, ...)."""
        self._local.unit = unit

    def begin(self, name: str, unit=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if unit is None:
            unit = getattr(self._local, "unit", None) \
                or (parent["unit"] if parent else None)
        span = {"name": name, "id": f"{self._pid}:{next(self._ids)}",
                "parent": parent["id"] if parent else None, "unit": unit,
                "tid": threading.current_thread().name, "start": time.time()}
        stack.append(span)
        return span

    def end(self, span) -> None:
        span["end"] = time.time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if self.active:
            with self._lock:
                self._spans.append(span)

    def add(self, name: str, start: float, end: float, *, unit=None) -> None:
        """Record a span measured by other means (e.g. across processes)."""
        if self.active:
            with self._lock:
                self._spans.append({
                    "name": name, "id": f"{self._pid}:{next(self._ids)}",
                    "parent": None, "unit": unit,
                    "tid": threading.current_thread().name, "start": start,
                    "end": end})

    def count(self, name: str, value: float = 1) -> None:
        if self.active:
            with self._lock:
                self._counters[name] += value

    # --------------------------------------------------------------- output
    def flush(self) -> None:
        """Append the buffered spans and counters to this process's file."""
        with self._lock:
            spans, self._spans = self._spans, []
            counters, self._counters = self._counters, collections.Counter()
            self._flushes += 1
            flush_id = self._flushes
        if not spans and not counters:
            return
        lines = []
        for span in spans:
            lines.append({
                "name": span["name"], "ts": span["start"],
                "dur": span["end"] - span["start"], "pid": self._pid,
                "attrs": {"id": span["id"], "parent": span["parent"],
                          "unit": span["unit"],
                          "tid": span["tid"]}})
        for name, value in counters.items():
            lines.append({"counter": name, "value": value, "pid": self._pid})
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        path = self.sink_dir / f"spans-{self._pid}-{flush_id}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines),
                        encoding="utf-8")


def read_spans(sink_dir) -> tuple[list, dict]:
    """All spans and summed counters written under ``sink_dir``."""
    spans: list = []
    counters: collections.Counter = collections.Counter()
    for path in sorted(Path(sink_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "counter" in record:
                counters[record["counter"]] += record["value"]
            else:
                spans.append(record)
    return spans, dict(counters)


def spec_id(pipeline) -> str:
    """A short id for the evaluations of one pipeline spec."""
    return hashlib.blake2b(repr(pipeline.spec()).encode(),
                           digest_size=6).hexdigest()


# ------------------------------------------------------------------ wrappers
def _timed(recorder: Recorder, name: str, fn, *, unit=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name, unit=unit(args) if unit else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _patch_method(recorder, owner: type, attr: str, name: str, **options):
    raw = owner.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr,
                classmethod(_timed(recorder, name, raw.__func__, **options)))
    else:
        setattr(owner, attr,
                _timed(recorder, name, getattr(owner, attr), **options))


def _patch_function(recorder, module, attr: str, name: str, **options):
    """Replace ``module.attr`` and every loaded ``repro`` module's alias."""
    original = getattr(module, attr)
    wrapper = _timed(recorder, name, original, **options)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") \
                and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap the program's public entry points so calls record spans."""
    import repro.datasets.registry as registry
    import repro.experiments.runner as runner
    from repro.core.evaluation import PipelineEvaluator
    from repro.core.pipeline import FittedPipeline, Pipeline
    from repro.core.problem import AutoFPProblem
    from repro.engine import ExecutionEngine
    from repro.io.evalcache import PersistentEvalCache
    from repro.models.registry import get_classifier_class
    from repro.search.session import SearchSession
    from repro.serve.client import ServeClient

    _patch_function(recorder, registry, "load_dataset", "datasets.load")
    _patch_method(recorder, AutoFPProblem, "from_registry",
                  "core.problem.build")
    _patch_method(recorder, AutoFPProblem, "from_arrays",
                  "core.problem.build")
    _patch_method(recorder, AutoFPProblem, "baseline_accuracy",
                  "core.problem.baseline")

    def count_proposals(args, result):
        # The session stamps every record with its share of the seconds
        # its proposal batch took (TrialRecord.pick_time).
        session = args[0]
        recorder.count("search.propose_s",
                       sum(trial.pick_time for trial in session.result.trials))

    _patch_method(recorder, SearchSession, "run", "search.run",
                  after=count_proposals)

    def count_lookup(args, entry):
        recorder.count("core.evaluation.lookups")
        if entry is not None:
            recorder.count("core.evaluation.hits")

    _patch_method(recorder, PipelineEvaluator, "cache_lookup",
                  "core.evaluation.lookup", after=count_lookup)

    def count_disk(args, entry):
        if entry is not None:
            recorder.count("io.evalcache.hits")

    _patch_method(recorder, PersistentEvalCache, "get", "io.evalcache.read",
                  after=count_disk)
    for attr in ("put", "put_many"):
        _patch_method(recorder, PersistentEvalCache, attr,
                      "io.evalcache.write")

    def pipeline_unit(args):
        # Each worker thread evaluates one task at a time: tag the thread
        # with the task's pipeline so its train spans join the same unit.
        unit = spec_id(args[0])
        recorder.set_unit(unit)
        return unit

    _patch_method(recorder, Pipeline, "fit_transform_from",
                  "preprocessing.prep", unit=pipeline_unit)
    _patch_method(recorder, FittedPipeline, "transform_from",
                  "preprocessing.prep")
    model = get_classifier_class("lr")
    for attr in ("fit", "predict"):
        _patch_method(recorder, model, attr, "models.train")

    def task_unit(args):
        task = args[2]
        return spec_id(task.pipeline) if hasattr(task, "pipeline") else None

    _patch_method(recorder, ExecutionEngine, "submit_task", "engine.submit",
                  unit=task_unit)
    _patch_method(recorder, ExecutionEngine, "resolve_task", "engine.resolve",
                  unit=lambda args: spec_id(args[2].task.pipeline))
    _patch_method(recorder, ExecutionEngine, "run", "engine.run")

    def cell_unit(args):
        _config, dataset, model_name, algorithm, repeat = args[0]
        return f"{dataset}/{model_name}/{algorithm}/{repeat}"

    _patch_function(recorder, runner, "_run_cell", "experiments.cell",
                    unit=cell_unit, after=lambda args, result: recorder.flush())
    _patch_method(recorder, ServeClient, "submit", "serve.submit")
