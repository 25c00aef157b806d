"""Import hygiene: no command loads scipy or OpenSSL, numpy loads on
the first transient and no earlier, and yaml on the first config file
or --set. Without numpy, run refuses a bad config as usual and names
numpy for a good one.

Each case runs in a fresh interpreter, because this test process has
already imported numpy and scipy (through tests/_reference.py).
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
# each leading "--no-<module>" makes every import of that module fail
SCRIPT = """
import json, sys
while sys.argv[1:2] and sys.argv[1].startswith("--no-"):
    sys.modules[sys.argv.pop(1)[len("--no-"):]] = None
from xtalksim import cli
try:
    rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
except SystemExit as exc:               # --help
    rc = exc.code
loaded = sorted(k for k, m in sys.modules.items() if m is not None)
print(json.dumps({"rc": rc, "modules": loaded}))
"""


def _fresh(tmp_path, *argv: str, without: tuple[str, ...] = ()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    args = [f"--no-{module}" for module in without] + (
        [json.dumps(list(argv))] if argv else [])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            "stderr": proc.stderr}


@pytest.mark.parametrize("argv", [
    (),
    ("extract", "--preset", "shield"),
    ("export-netlist", "--preset", "shield-3taps", "--out", "deck"),
], ids=["import", "extract", "export-netlist"])
def test_commands_without_a_transient_skip_scipy_and_openssl(tmp_path, argv):
    out = _fresh(tmp_path, *argv)
    assert out["rc"] == (0 if argv else None)
    assert "numpy" not in out["modules"]
    assert "scipy" not in out["modules"]
    assert "_hashlib" not in out["modules"]
    # a bare --preset reads no YAML
    assert "yaml" not in out["modules"]


@pytest.mark.parametrize("argv, rc", [
    ((), None),
    (("--help",), 0),
    (("extract", "--preset", "shield"), 0),
    (("export-netlist", "--preset", "shield-3taps", "--out", "deck"), 0),
    (("extract", "--preset", "shield", "--set", "sim.bogus=1"), 1),
], ids=["import", "help", "extract", "export-netlist", "refusal"])
def test_describing_a_circuit_needs_no_numpy(tmp_path, argv, rc):
    out = _fresh(tmp_path, *argv, without=("numpy",))
    assert out["rc"] == rc
    assert "numpy" not in out["modules"]


@pytest.mark.parametrize("no_scipy", [False, True],
                         ids=["scipy-installed", "scipy-missing"])
def test_run_needs_no_scipy(tmp_path, no_scipy):
    out = _fresh(tmp_path, "run", "--preset", "no-shield",
                 "--set", "sim.dt=1e-9", "--set", "sim.t_end=4e-7",
                 "--out", "run", without=("scipy",) if no_scipy else ())
    assert out["rc"] == 0
    assert "scipy" not in out["modules"]
    assert "numpy" in out["modules"]
    # the run's fingerprint is a CRC-32, so no run maps OpenSSL
    assert "_hashlib" not in out["modules"]


@pytest.mark.parametrize("sets, message", [
    ((), "error: run needs numpy, which is not installed"),
    (("--set", "sim.dt=1"), "error: need 0 < dt < t_end"),
], ids=["good-config", "refused-config"])
def test_run_without_numpy_exits_1(tmp_path, sets, message):
    # the config is resolved before numpy is imported, so a refusal
    # reads as one with numpy installed
    out = _fresh(tmp_path, "run", "--preset", "shield", *sets, "--out", "run",
                 without=("numpy",))
    assert out["rc"] == 1
    assert message in out["stderr"]
    assert "Traceback" not in out["stderr"]
    assert not (tmp_path / "run").exists()
