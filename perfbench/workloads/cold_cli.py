"""cold-cli: fresh-interpreter ``repro search`` invocations, default flags.

Each invocation starts a new interpreter, exactly as a user at a shell
does: serial engine, no disk cache, no prefix cache.  The invocations
cycle over a fixed list of one search per algorithm family of the paper
-- random (rs), evolution (tevo_h), surrogate (smac) and bandit
(hyperband) -- each on its own registry dataset with model ``lr`` and
otherwise default flags.  The seed sets the order of the cycle.  Only
whole cycles are measured, so every run weighs the four families the
same; the searches themselves are fixed because their cost varies more
between search seeds than a run can average out.
"""

from __future__ import annotations

import io
import subprocess
import sys
import time

from harness import Pass, peak_rss_mb, repeat
from launch import DISPATCH_MARK

NAME = "cold-cli"
LANES = 1
IMPORTS: tuple = ()

#: (algorithm, dataset) per family; lr is the CLI's default model
CYCLE = (("rs", "blood"), ("tevo_h", "heart"), ("smac", "vehicle"),
         ("hyperband", "wine"))
#: an invocation still running after this long has hung
INVOCATION_TIMEOUT_S = 60.0
#: nominal seconds per cycle on a 2-core box, for the cycle count: two
#: cycles (eight invocations) at the default run length of 15 s
CYCLE_S = 7.5


def prepare(bench):
    plan = list(CYCLE)
    bench.rng("cold-cli").shuffle(plan)
    return plan


def _argv(algorithm, dataset):
    return ["search", "--dataset", dataset, "--algorithm", algorithm]


def _parse(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return {"trials": int(fields.get("trials", -1)),
            "best": fields.get("best acc")}


def measure(bench, plan) -> Pass:
    result = Pass(outputs=[])
    launcher = str(bench.root / "perfbench" / "launch.py")
    cycle = {"trials": 0, "busy_s": 0.0}

    def invoke(algorithm, dataset):
        spawned = time.time()
        result.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, launcher, *_argv(algorithm, dataset)],
                cwd=bench.root, capture_output=True, text=True,
                timeout=INVOCATION_TIMEOUT_S,
                env=bench.child_env(PERFBENCH_SPAWN_TS=repr(spawned)))
        except subprocess.TimeoutExpired:
            result.failed += 1
            result.outputs.append(((algorithm, dataset), "hung", {}, ""))
            return
        exited = time.time()
        result.windows.append((spawned, exited))
        result.latencies.append(exited - spawned)
        marks = [float(line.split()[-1]) for line in proc.stderr.splitlines()
                 if line.startswith(DISPATCH_MARK)]
        parsed = _parse(proc.stdout)
        result.outputs.append(((algorithm, dataset), proc.returncode,
                               parsed, proc.stderr[-2000:]))
        if proc.returncode != 0 or not marks:
            result.failed += 1
            return
        result.setup.append(marks[0] - spawned)
        result.trials += parsed["trials"]
        cycle["trials"] += parsed["trials"]
        cycle["busy_s"] += exited - marks[0]

    def run_cycle():
        cycle.update(trials=0, busy_s=0.0)
        for algorithm, dataset in plan:
            invoke(algorithm, dataset)
        if cycle["busy_s"]:
            result.rates.append(cycle["trials"] / cycle["busy_s"])

    repeat(bench.seconds, CYCLE_S, run_cycle)
    result.peak_rss_mb = peak_rss_mb()
    return result


def check(bench, plan, passes) -> list:
    """Exit status, trial count and best accuracy vs in-process runs."""
    from repro.cli import main

    expected = {}
    for algorithm, dataset in plan:
        out = io.StringIO()
        code = main(_argv(algorithm, dataset), out=out)
        expected[(algorithm, dataset)] = (code, _parse(out.getvalue()))
    checks = []
    for run in passes:
        for key, code, parsed, stderr in run.outputs:
            ok = (code, parsed) == expected[key]
            detail = f"{key}: exit {code} {parsed} vs {expected[key]}"
            if not ok and code != 0:
                detail += f"\n{stderr}"
            checks.append((ok, detail))
    return checks


def layer_metrics(by_name, own, counters, traced) -> dict:
    return {}
