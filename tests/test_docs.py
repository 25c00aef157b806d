"""The README's examples and the demos, run as written in a temporary
directory: each ``xtalksim`` line of a ``sh`` block through ``cli.main``,
each ``python`` block by ``exec`` and each demo in a fresh interpreter."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from xtalksim import cli

ROOT = Path(__file__).resolve().parent.parent
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.M | re.S)
COMMANDS = [line for lang, body in FENCES if lang == "sh"
            for line in body.splitlines() if line.startswith("xtalksim ")]
PYTHON = [body for lang, body in FENCES if lang == "python"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # --config paths resolve through the link; output stays in tmp_path
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)


def test_readme_has_examples():
    # an empty parameter list would skip the tests below in silence
    assert COMMANDS and PYTHON and DEMOS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command(workdir, line):
    assert cli.main(shlex.split(line)[1:]) == 0


@pytest.mark.parametrize("source", PYTHON)
def test_readme_python(workdir, source):
    exec(source, {})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
