"""What every workload shares: its inputs, its scratch space, one pass.

A workload module exposes ``NAME``, ``LANES`` (how many processes or
threads can work at once, for the trace self-check), ``IMPORTS`` (the
program's modules it hosts in the benchmark's own process) and four
functions:

* ``prepare(bench)`` -- generate the inputs from the seed (not timed);
* ``measure(bench, inputs)`` -- one timed :class:`Pass`;
* ``check(bench, inputs, passes)`` -- compare every pass's outputs with
  a serial in-process reference computed here, outside the timed region;
* ``layer_metrics(...)`` -- the per-layer metrics only it exercises
  (see :mod:`layers`).

Why each workload was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from spans import TRACE_DIR_ENV


@dataclass
class Bench:
    """One benchmark invocation: seed, run length, checkout paths."""

    root: Path
    seed: int
    seconds: float
    work: Path
    #: set while the traced pass runs; children write their spans here
    trace_dir: Path | None = None

    @property
    def src(self) -> Path:
        return self.root / "src"

    def rng(self, salt: str) -> random.Random:
        """A generator for one kind of input, fixed by the seed."""
        return random.Random(f"{self.seed}:{salt}")

    def child_env(self, **extra) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.work)
        env.pop(TRACE_DIR_ENV, None)
        if self.trace_dir is not None:
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        env.update(extra)
        return env

    def scratch(self, name: str) -> Path:
        """A new empty directory under this run's scratch space."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.work))


@dataclass
class Pass:
    """The measurements of one timed pass of a workload."""

    #: seconds from a unit's start to its first trial dispatched
    setup: list = field(default_factory=list)
    #: trials completed per second after set-up, one rate per unit of
    #: identical work, and the trials they total
    rates: list = field(default_factory=list)
    trials: int = 0
    #: seconds a user waited for each unit of work
    latencies: list = field(default_factory=list)
    #: (start, end) wall-clock windows of the timed work
    windows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: workload-specific figures printed with the end-to-end metrics:
    #: name -> (value, unit, sample count)
    extra: dict = field(default_factory=dict)
    #: workload-specific inputs to the per-layer metrics
    layer: dict = field(default_factory=dict)
    #: what ``check`` compares against the reference
    outputs: object = None

    def end_to_end(self) -> dict:
        return {
            "setup_s": (median(self.setup), "s", len(self.setup)),
            "trials_per_s": (median(self.rates), "1/s", self.trials),
            "latency_p50_s": (median(self.latencies), "s",
                              len(self.latencies)),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
        }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, share: float) -> float:
    """The ``share`` quantile by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def process_start_time() -> float:
    """Wall-clock time this interpreter was started (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    with open("/proc/uptime", encoding="ascii") as handle:
        uptime = float(handle.read().split()[0])
    age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.time() - age


def environment(seed: int) -> dict:
    """What the result depends on besides the code: machine and inputs."""
    # Versions from package metadata: importing numpy here would add to
    # the benchmark process's memory on workloads that never import it.
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


class DispatchMarks:
    """Times at which searches start dispatching trials, in any process.

    Wraps ``SearchSession.run``: every call appends the process id and the
    wall-clock time to ``path`` before the search starts.  Process-pool
    workers forked after the wrap inherit it, so a grid's first dispatch
    is seen even though it happens in a worker.  The cost is one small
    append per search.
    """

    def __init__(self, path: Path) -> None:
        from repro.search.session import SearchSession

        self.path = path
        run = SearchSession.run

        def run_marked(session, *args, **kwargs):
            descriptor = os.open(self.path,
                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(descriptor,
                         f"{os.getpid()} {time.time()!r}\n".encode())
            finally:
                os.close(descriptor)
            return run(session, *args, **kwargs)

        SearchSession.run = run_marked
        self._restore = lambda: setattr(SearchSession, "run", run)

    def first_per_process(self, start: float, end: float) -> list:
        """Each process's first mark in ``[start, end]``, earliest first."""
        if not self.path.exists():
            return []
        first: dict = {}
        for line in self.path.read_text(encoding="ascii").splitlines():
            pid, mark = line.split()
            if start <= float(mark) <= end:
                first[pid] = min(float(mark), first.get(pid, float(mark)))
        return sorted(first.values())

    def close(self) -> None:
        self._restore()


def repeat(seconds: float, nominal_s: float, unit) -> None:
    """Run ``unit()`` as many times as fit ``seconds`` at ``nominal_s`` each.

    The count depends on the run length only, never on how fast the
    program is, so two commits measure the same work.
    """
    for _ in range(max(1, round(seconds / nominal_s))):
        unit()
