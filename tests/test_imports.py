"""Import hygiene: no command loads scipy or OpenSSL, numpy loads on
the first transient and no earlier, and yaml on the first config file
or --set / --values entry that is not a plain decimal number. Without
numpy, run refuses a bad config as usual and names numpy for a good
one. The package import, extract and export-netlist load no
dataclasses or inspect; the import loads no typing and builds no parser.

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
CONFIGS = SRC.parent / "configs"

# runs a CLI command, then prints its exit code and the loaded modules;
# each leading "--no-<module>" makes every import of that module fail,
# and json loads only after the modules are listed
SCRIPT = """
import sys
argv = sys.argv[1:]
while argv[:1] and argv[0].startswith("--no-"):
    sys.modules[argv.pop(0)[len("--no-"):]] = None
from xtalksim import cli
try:
    rc = cli.main(argv) if argv else None
except SystemExit as exc:               # --help
    rc = exc.code
loaded = sorted(k for k, m in sys.modules.items() if m is not None)
import json
print(json.dumps({"rc": rc, "modules": loaded}))
"""


def _fresh(tmp_path, *argv: str, without: tuple[str, ...] = ()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    args = [f"--no-{module}" for module in without] + list(argv)
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
    # a bare --preset reads no YAML, the writers of run and sweep
    # import what they write with, and the records generate no code
    assert not {"numpy", "scipy", "_hashlib", "yaml", "json", "csv",
                "datetime", "fractions", "dataclasses",
                "inspect"} & set(out["modules"])


SHORT = ("--set", "sim.dt=1e-9", "--set", "sim.t_end=4e-7")


@pytest.mark.parametrize("argv, reads_yaml", [
    (("extract", "--preset", "shield",
      "--set", "geometry.separation_um=1.5"), False),
    (("export-netlist", "--preset", "shield", "--set", "sim.n_segments=24",
      "--set", "stimulus.rise_time_s=2e-7", "--out", "deck"), False),
    (("run", "--preset", "no-shield", *SHORT, "--out", "run"), False),
    (("sweep", "--preset", "shield-3taps", "--axis", "n_segments",
      "--values", "12,24", *SHORT, "--out", "sweep"), False),
    (("extract", "--config", str(CONFIGS / "shield.yaml")), True),
    (("extract", "--preset", "shield", "--set", "output.formats=[csv]"),
     True),
], ids=["extract", "export-netlist", "run", "sweep", "config-file",
        "yaml-value"])
def test_plain_numbers_on_the_command_line_read_no_yaml(tmp_path, argv,
                                                         reads_yaml):
    out = _fresh(tmp_path, *argv)
    assert out["rc"] == 0
    assert ("yaml" in out["modules"]) is reads_yaml


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
    # the labels are checked against the network before numpy is needed
    (("--set", "output.nodes=[bogus]"),
     "error: output.nodes: labels not in the network: ['bogus']"),
], ids=["good-config", "refused-config", "bad-label"])
def test_run_without_numpy_exits_1(tmp_path, sets, message):
    # the config is resolved before numpy is imported, so a refusal
    # reads as one with numpy installed
    out = _fresh(tmp_path, "run", "--preset", "shield", *sets, "--out", "run",
                 without=("numpy",))
    assert out["rc"] == 1
    assert message in out["stderr"]
    assert "Traceback" not in out["stderr"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("code, printed", [
    ("import sys, xtalksim.cli; print('typing' in sys.modules)", "False"),
    ("from xtalksim import cli; print(cli.build_parser.cache_info().currsize)",
     "0"),
], ids=["no-typing", "no-parser"])
def test_import_is_lean(tmp_path, code, printed):
    # -S: no site, whose .pth files may import typing themselves
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == printed
