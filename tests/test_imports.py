"""Import hygiene: scipy.linalg and OpenSSL load on the first transient,
and yaml on the first config file or --set.

Each case runs in a fresh interpreter, because this test process has
already imported scipy (through tests/_reference.py and the runs).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xtalksim

SRC = Path(xtalksim.__file__).resolve().parent.parent

# runs a CLI command, then prints its exit code and the loaded modules
SCRIPT = """
import json, sys
from xtalksim import cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _fresh(tmp_path, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    args = [json.dumps(list(argv))] if argv else []
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


def test_first_transient_loads_scipy_linalg(tmp_path):
    out = _fresh(tmp_path, "run", "--preset", "no-shield",
                 "--set", "sim.dt=1e-9", "--set", "sim.t_end=4e-7",
                 "--out", "run")
    assert out["rc"] == 0
    assert "scipy.linalg" in out["modules"]
