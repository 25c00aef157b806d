"""Import hygiene: no command loads scipy, OpenSSL loads on the first
transient, and yaml on the first config file or --set.

Each case runs in a fresh interpreter, because this test process has
already imported scipy (through tests/_reference.py).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xtalksim

SRC = Path(xtalksim.__file__).resolve().parent.parent

# runs a CLI command, then prints its exit code and the loaded modules;
# with a leading "--no-scipy" every scipy import fails
SCRIPT = """
import json, sys
if sys.argv[1:2] == ["--no-scipy"]:
    sys.modules["scipy"] = None
    del sys.argv[1]
from xtalksim import cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
loaded = sorted(k for k, m in sys.modules.items() if m is not None)
print(json.dumps({"rc": rc, "modules": loaded}))
"""


def _fresh(tmp_path, *argv: str, no_scipy: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    args = (["--no-scipy"] if no_scipy else []) + (
        [json.dumps(list(argv))] if argv else [])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    (),
    ("extract", "--preset", "shield"),
    ("export-netlist", "--preset", "shield-3taps", "--out", "deck"),
], ids=["import", "extract", "export-netlist"])
def test_commands_without_a_transient_skip_scipy_and_openssl(tmp_path, argv):
    out = _fresh(tmp_path, *argv)
    assert out["rc"] == (0 if argv else None)
    assert "scipy" not in out["modules"]
    assert "_hashlib" not in out["modules"]
    # a bare --preset reads no YAML
    assert "yaml" not in out["modules"]


@pytest.mark.parametrize("no_scipy", [False, True],
                         ids=["scipy-installed", "scipy-missing"])
def test_run_needs_no_scipy(tmp_path, no_scipy):
    out = _fresh(tmp_path, "run", "--preset", "no-shield",
                 "--set", "sim.dt=1e-9", "--set", "sim.t_end=4e-7",
                 "--out", "run", no_scipy=no_scipy)
    assert out["rc"] == 0
    assert "scipy" not in out["modules"]
