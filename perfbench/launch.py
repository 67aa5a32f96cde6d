"""Run one ``repro`` CLI command in a fresh interpreter, as ``python -m repro``.

Usage: ``python perfbench/launch.py <repro command and flags>`` with
``PYTHONPATH`` pointing at the checkout's ``src`` and
``PERFBENCH_SPAWN_TS`` holding the wall-clock time the parent started
this process.

It behaves exactly like ``python -m repro`` and adds two things the
parent cannot see from outside:

* the moment the first trial is dispatched (entry to
  ``SearchSession.run``), written to stderr as ``PERFBENCH dispatch <t>``;
* with ``PERFBENCH_TRACE_DIR`` set, the traced run's spans: interpreter
  start, ``import repro.cli``, and every wrapped call, written to that
  directory when the command returns.
"""

import time

STARTED = time.time()

import os  # noqa: E402  (the start time above must come first)
import sys  # noqa: E402

DISPATCH_MARK = "PERFBENCH dispatch"


def main(argv) -> int:
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    import_start = time.time()
    import repro.cli
    from repro.search.session import SearchSession
    imported = time.time()

    recorder = None
    if trace_dir:
        import spans

        recorder = spans.Recorder(trace_dir)
        recorder.add("cli.interpreter",
                     float(os.environ["PERFBENCH_SPAWN_TS"]), STARTED)
        recorder.add("cli.import", import_start, imported)
        spans.install(recorder)

    run = SearchSession.run
    marked = []

    def run_marked(self, *args, **kwargs):
        if not marked:
            marked.append(time.time())
            print(f"{DISPATCH_MARK} {marked[0]!r}", file=sys.stderr,
                  flush=True)
        return run(self, *args, **kwargs)

    SearchSession.run = run_marked
    try:
        return repro.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
