"""The repository's benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/workloads``): ``cold-cli`` (fresh-interpreter
``repro search``), ``grid-pool`` (the paper grid on a 2-process pool,
cold then warm persistent cache), ``fleet-remote`` (an async search over
two ``repro worker`` subprocesses) and ``serve-open`` (an in-process
``repro serve`` driven open-loop, paced then burst).

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics: ``setup_s``, ``trials_per_s``, ``latency_p50_s`` and
``peak_rss_mb``.  With ``--trace 1`` the workload runs once untraced and
once with spans recorded around the program's public entry points, and
the per-layer metrics of :mod:`layers` are reported.  Every run compares
the program's outputs with a serial in-process reference.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
give each metric with its sample count, the workload-specific figures,
the environment stamp and any failed check.  Scratch files live under
``.perfbench/`` in the checkout; the traced run's spans are kept there
as ``traces/<workload>-seed<n>.jsonl`` (``repro trace export --chrome``
reads them).
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(metrics: dict, title: str) -> dict:
    """Print ``name value unit (n=...) [note]`` lines; return the JSON
    metrics."""
    print(f"{title}:")
    out = {}
    for name, (value, unit, samples, *note) in metrics.items():
        print(f"  {name:<34} {value:>12.6g} {unit:<6} (n={samples})",
              *note)
        out[name] = {"value": value, "unit": unit}
    return out


def traced_pass(bench, workload, inputs, started, imports):
    """Measure ``workload`` again with every span recorded; returns the
    pass, its spans and its counters."""
    import harness
    import spans

    trace_dir = bench.work / "spans"
    recorder = spans.Recorder(trace_dir)
    if workload.IMPORTS:
        recorder.add("cli.interpreter", harness.process_start_time(),
                     started)
        recorder.add("cli.import", *imports)
    spans.install(recorder)
    bench.trace_dir = trace_dir
    try:
        traced = workload.measure(bench, inputs)
    finally:
        recorder.flush()
        recorder.active = False
        bench.trace_dir = None
    return (traced, *spans.read_spans(trace_dir))


def main(argv) -> int:
    started = time.time()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in declared["workloads"]}
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    # Everything the program and its children write goes to the checkout.
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    bench = harness.Bench(root=ROOT, seed=args.seed, seconds=args.seconds,
                          work=work)
    try:
        print("environment: " + json.dumps(harness.environment(args.seed)))
        # A fresh checkout has no bytecode: compile it here, outside every
        # timed region, instead of in the first timed interpreter.
        compileall.compile_dir(ROOT / "src", quiet=1)
        # A workload that hosts the program in this process pays for its
        # imports here; its traced run reports them as this process's
        # cli.import span.
        import_start = time.time()
        for module in workload.IMPORTS:
            importlib.import_module(module)
        imports = (import_start, time.time())
        inputs = workload.prepare(bench)
        untraced = workload.measure(bench, inputs)
        passes = [untraced]
        if args.trace:
            traced, found, counters = traced_pass(bench, workload, inputs,
                                                  started, imports)
            passes.append(traced)
        checks = workload.check(bench, inputs, passes)

        print(f"workload: {workload.NAME} -- {why[workload.NAME]}")
        report(untraced.end_to_end(), "end-to-end (untraced)")
        if untraced.extra:
            report(untraced.extra, "workload figures (untraced)")
        if args.trace:
            values, trace_checks = layers.compute(workload, found, counters,
                                                  untraced, traced)
            checks += trace_checks
            metrics = report(
                {name: (values[name], unit, layers.span_count(name, found),
                        f"-> {moves}")
                 for name, (unit, moves) in layers.METRICS.items()},
                "per-layer (traced; n = spans of the layer; -> the "
                "end-to-end metric it should move)")
            kept = scratch_root / "traces"
            kept.mkdir(exist_ok=True)
            trace_file = kept / f"{workload.NAME}-seed{args.seed}.jsonl"
            trace_file.write_text("".join(
                json.dumps(span) + "\n" for span in found), encoding="utf-8")
            print(f"trace: {trace_file.relative_to(ROOT)} ({len(found)} spans)")
        else:
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit, _n)
                       in untraced.end_to_end().items()}
        names = [entry["name"] for entry
                 in declared["per_layer" if args.trace else "end_to_end"]]
        if sorted(metrics) != sorted(names):
            print("error: the metrics measured differ from BENCHMARK.json's",
                  file=sys.stderr)
            return 1
        failures = [detail for ok, detail in checks if not ok]
        for detail in failures:
            print(f"CHECK FAILED: {detail}")
        print(f"checks: {len(checks) - len(failures)}/{len(checks)} passed")
        attempted = sum(run.attempted for run in passes)
        failed = sum(run.failed for run in passes)
        print(f"failed_frac: {failed}/{attempted}")
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
