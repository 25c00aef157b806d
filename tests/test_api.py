"""The public API: every exported name exists, and a run reaches the
numpy-backed code through ``config.run_transient`` and
``config.measure_scenario`` alone. The demos, which import from the
package, run in ``tests/test_docs.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import xtalksim

SRC = Path(xtalksim.__file__).resolve().parent.parent


def test_all_names_resolve():
    assert [name for name in xtalksim.__all__
            if not hasattr(xtalksim, name)] == []


# wraps the two seam functions with counters, runs a 2-segment shield
# once and prints the names the run added to config and the call counts
SEAM = """
import json
from xtalksim import config

before = set(vars(config))
calls = dict.fromkeys(("run_transient", "measure_scenario"), 0)
for name, original in [(name, getattr(config, name)) for name in calls]:
    def counted(*args, name=name, original=original):
        calls[name] += 1
        return original(*args)
    setattr(config, name, counted)
result, _, _ = config.run_scenario(config.apply_set_overrides(
    config.preset_config("shield"),
    ["sim.n_segments=2", "sim.dt=1e-9", "sim.t_end=4e-7"]))
print(json.dumps({"added": sorted(set(vars(config)) - before),
                  "calls": calls, "measured": sorted(result.measurements)}))
"""


def test_run_calls_numpy_code_through_two_config_functions(tmp_path):
    # perfbench --trace 1 times the engine and the measurements by
    # wrapping these two attributes; a run that bound names of its own
    # into config, or called past the two, would hide from it. A fresh
    # interpreter, since this process has run scenarios already.
    proc = subprocess.run([sys.executable, "-c", SEAM], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {
        "added": [], "calls": {"run_transient": 1, "measure_scenario": 1},
        "measured": ["aggressor", "victim"]}
