"""The README's examples and the demos, run as written in a temporary
directory: each ``xtalksim`` line of a ``sh`` block through ``cli.main``,
each ``python`` block by ``exec`` and each demo in a fresh interpreter.
Each figure that README "Shield taps and the inductive floor" quotes is
measured by the program and compared at the digits printed there."""

import functools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from _reference import rc_step_max_error
from xtalksim import cli, config
from xtalksim.config import apply_set_overrides, preset_config, run_scenario
from xtalksim.extraction import mutual_inductance_bracket
from xtalksim.network import LineSpec, TapSchedule, TerminationSpec

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
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


def test_readme_config_table_states_every_key():
    """README "Config blocks" gives each key of a block, or of a scenario
    list's entry, under the kind it is read as: config._KEYS, and the
    ``float`` fields of an entry's record as numbers."""
    assert "| Block | Number | Integer | String | Its own rule |" in README
    rows = re.findall(r"^\| `([\w.]+)(?:\[\w+\])?` \|(.*)\|$", README, re.M)
    table = {block: {key: kind for kind, cell in zip((float, int, str, None),
                                                     cells.split("|"))
                     for key in re.findall(r"`(\w+)`", cell)}
             for block, cells in rows}
    records = {"scenario.lines": LineSpec, "scenario.terminations":
               TerminationSpec, "scenario.taps": TapSchedule}
    assert table == {**config._KEYS, **{
        block: {name: float if kind == "float" else None
                for name, kind in cls.__annotations__.items()}
        for block, cls in records.items()}}


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


@functools.cache
def _peak_mv(preset: str, *sets: str) -> float:
    """The far-end victim peak, in mV, of ``preset`` with ``--set sets``."""
    result, _, _ = run_scenario(apply_set_overrides(preset_config(preset),
                                                    list(sets)))
    return result.measurements["victim"].peak_v * 1e3


def _cut_percent() -> float:
    """How much less the victim peak is with the shield than without."""
    return 100 * (1 - _peak_mv("shield") / _peak_mv("no-shield"))


# overrides.m_total = 0 on every pair removes every mutual inductance
NO_M = ("overrides.m_total={aggressor:shield: 0, aggressor:victim: 0, "
        "shield:victim: 0}")
NO_M_PAIR = "overrides.m_total={aggressor:victim: 0}"
# An override states what extraction gives at the default geometry, and
# the preset's 8.21 uH aggressor-victim value is scaled by the override
# over the formula value there, so this one puts exactly 7.51 uH on it.
M_751 = ("overrides.m_total={aggressor:victim: "
         f"{7.51 * mutual_inductance_bracket(5000.0, 1.0) / 8.21!r}}}")
TAPS = [f"scenario.tap_count={count}" for count in range(12)]
FLOOR = "against {} mV without a shield ({}% less with the shield alone)"
NO_M_SERIES = ("falls strictly with tap count: {}, {}, {}, {}, {} and {} mV "
               "at 0, 1, 2, 3, 5 and 11 taps, against {} mV for no-shield")
M_751_SERIES = "the 0/1/3-tap peaks are {}, {} and {} mV"

# Each figure of the section: the README text around it, with {} for
# each number in that text, and which {} is the figure; the format that
# prints the figure at the README's digits; what measures it, and its
# arguments (a preset and its --set list for a victim peak).
FIGURES = {
    "shield": ("it is {} mV with end ties only", 0, ".2f",
               _peak_mv, ("shield",)),
    "shield-1-tap": ("{} mV with one tap", 0, ".2f",
                     _peak_mv, ("shield", TAPS[1])),
    "shield-2-taps": ("{} mV with two", 0, ".2f",
                      _peak_mv, ("shield", TAPS[2])),
    "shield-3-taps": ("{} mV with three", 0, ".2f",
                      _peak_mv, ("shield", TAPS[3])),
    "shield-5-taps": ("{} mV with five", 0, ".2f",
                      _peak_mv, ("shield", TAPS[5])),
    "no-shield": (FLOOR, 0, ".2f", _peak_mv, ("no-shield",)),
    "shield-cut": (FLOOR, 1, ".0f", _cut_percent, ()),
    "no-m-shield": (NO_M_SERIES, 0, ".2f", _peak_mv, ("shield", NO_M)),
    "no-m-1-tap": (NO_M_SERIES, 1, ".2f", _peak_mv, ("shield", NO_M, TAPS[1])),
    "no-m-2-taps": (NO_M_SERIES, 2, ".2f", _peak_mv, ("shield", NO_M, TAPS[2])),
    "no-m-3-taps": (NO_M_SERIES, 3, ".2f", _peak_mv, ("shield", NO_M, TAPS[3])),
    "no-m-5-taps": (NO_M_SERIES, 4, ".2f", _peak_mv, ("shield", NO_M, TAPS[5])),
    "no-m-11-taps": (NO_M_SERIES, 5, ".0f",
                     _peak_mv, ("shield", NO_M, TAPS[11])),
    "no-m-no-shield": (NO_M_SERIES, 6, ".2f",
                       _peak_mv, ("no-shield", NO_M_PAIR)),
    "m-7.51": (M_751_SERIES, 0, ".2f", _peak_mv, ("shield", M_751)),
    "m-7.51-1-tap": (M_751_SERIES, 1, ".2f",
                     _peak_mv, ("shield", M_751, TAPS[1])),
    "m-7.51-3-taps": (M_751_SERIES, 2, ".2f",
                      _peak_mv, ("shield", M_751, TAPS[3])),
    "rc-trapezoidal": ("1e-3 for trapezoidal (which gives {})", 0, ".1e",
                       rc_step_max_error, ("trapezoidal", 0.01)),
    "rc-backward-euler": ("backward Euler (which gives {})", 0, ".3e",
                          rc_step_max_error, ("backward-euler", 0.01)),
}
SECTION = " ".join(README.split("### Shield taps and the inductive floor")[1]
                   .split("\n#")[0].split())
NUMBER = r"(-?[0-9.]+(?:e-?[0-9]+)?)"


def _printed(value: float, spec: str) -> str:
    """``value`` as the README prints it: ``spec``, with a plain exponent."""
    mantissa, e, exponent = format(value, spec).partition("e")
    return mantissa + (f"e{int(exponent)}" if e else "")


@pytest.mark.parametrize("text, slot, spec, measure, args", FIGURES.values(),
                         ids=FIGURES)
def test_readme_figure(text, slot, spec, measure, args):
    found = re.findall(re.escape(text).replace(re.escape("{}"), NUMBER),
                       SECTION)
    assert len(found) == 1, f"{text!r} matches {len(found)} times"
    quoted = found[0][slot] if isinstance(found[0], tuple) else found[0]
    assert _printed(measure(*args), spec) == quoted
