"""Start-up import hygiene: what the CLI and workers load, and when.

Every ``repro`` command, ``repro worker`` and pool worker pays for the
modules ``repro.cli`` imports, so scipy (over a second of import time)
must stay off that graph.  Searches must also not import third-party or
numpy submodules on their first evaluation: a forked pool worker would
otherwise pay that import inside its first trial instead of inheriting
it from the parent.  Each check runs in a fresh interpreter so modules
already loaded by the test session cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
import repro.cli
import repro.engine.remote.worker
after_import = set(sys.modules)

from repro.core.problem import AutoFPProblem
from repro.search import make_search_algorithm

problem = AutoFPProblem.from_registry("blood", "lr", scale=0.4,
                                      random_state=0)
problem.baseline_accuracy()
for name in ("rs", "tevo_h", "smac", "hyperband"):
    make_search_algorithm(name, random_state=0).search(problem, max_trials=5)
new = set(sys.modules) - after_import
print(json.dumps({
    "scipy_after_import": sorted(m for m in after_import
                                 if m.split(".")[0] == "scipy"),
    "new_foreign": sorted(m for m in new if m.split(".")[0] != "repro"),
}))
"""


def _probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_cli_and_worker_imports_skip_scipy_and_searches_import_nothing_new():
    report = _probe()
    assert report["scipy_after_import"] == []
    assert report["new_foreign"] == []
