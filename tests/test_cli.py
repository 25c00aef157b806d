"""Config documents, file formats, sweeps, and the command-line layer."""

import gc
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import xtalksim
from xtalksim import config as config_module
from xtalksim.cli import build_parser, main
from xtalksim.config import (DEFAULT_GEOMETRY, DEFAULT_OVERRIDES,
                             DEFAULT_SIM, DEFAULT_STIMULUS, SETTLE_TOLERANCE,
                             SWEEP_AXES, _MAX_RUN_BYTES,
                             ToolkitConfig, _check_run_size, _load_yaml, _pin,
                             apply_set_overrides,
                             config_from_mapping,
                             extraction_report, load_config, parse_scalar,
                             preset_config, resolve, resolve_stimulus,
                             run_scenario, run_sweep, settle_warning,
                             summary_filename,
                             sweep_filename, waveforms_filename,
                             write_summary_json, write_sweep_csv,
                             write_waveforms_csv)
from xtalksim.engine import WaveformSet, run_transient
from xtalksim.errors import ParameterError
from xtalksim.extraction import (PAPER_LITERAL, TABLE_COMPAT,
                                 InterconnectGeometry, coupling_capacitance,
                                 extract_all)
from xtalksim.inputs import SimConfig, run_footprint
from xtalksim.network import (PRESET_NAMES,
                              STOCK_COUPLING_CAP_ADJACENT_F, build_ladder,
                              preset_tables)

approx = pytest.approx

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# enough window for every measurement to be found, cheap enough to run
# freely; a run warns that it ends before the response settles
SHORT = ["sim.dt=1e-9", "sim.t_end=4e-7"]

EXPLICIT_PAIR = {
    "name": "pair",
    "lines": [
        {"name": "a", "role": "aggressor", "r_total": 300.0,
         "l_total": 70e-6, "c_total": 120e-12},
        {"name": "v", "role": "victim", "r_total": 400.0,
         "l_total": 80e-6, "c_total": 130e-12},
    ],
    "couplings": [{"pair": ["a", "v"], "m_total": 6e-6, "cm_total": 50e-12}],
}


def short_preset(name: str, *extra: str):
    return apply_set_overrides(preset_config(name), [*SHORT, *extra])


A, V = EXPLICIT_PAIR["lines"]
(AV,) = EXPLICIT_PAIR["couplings"]


def _pair(**scenario) -> dict:
    """A config document: EXPLICIT_PAIR with some scenario keys replaced."""
    return {"scenario": dict(EXPLICIT_PAIR, **scenario),
            "sim": {"dt": 1e-9, "t_end": 4e-7}}


def _repeated_key(key: str, text: str, column: int) -> str:
    """pyyaml's message for a mapping that repeats ``key``."""
    return (f"found repeated key '{key}'\n  in \"<unicode string>\", line 1, "
            f"column {column}:\n    {text}\n{' ' * (column + 3)}^")


FLOAT_MAX = sys.float_info.max

# an integer of 5000 digits, over Python's limit for reading one
HUGE_INT = "1" + "0" * 4999


def _over_digit_limit(digits: str) -> str:
    """Python's message for an integer over its digit limit."""
    with pytest.raises(ValueError) as info:
        int(digits)
    return str(info.value)


def _nested_aliases(levels: int) -> str:
    """A YAML list of ``levels`` lists of nine: nine ones, then nine
    aliases of the list before, so the last holds 9**levels ones."""
    lists = ["&a0 [" + ", ".join(["1"] * 9) + "]"]
    lists += [f"&a{k} [" + ", ".join([f"*a{k - 1}"] * 9) + "]"
              for k in range(1, levels)]
    return "[" + ", ".join(lists) + "]"


# 384 bytes that expand to 6.1 million values once read
ALIAS_BOMB = ("scenario: {preset: shield}\n"
              f"output: {{nodes: {_nested_aliases(7)}}}\n")
EXPANDS = "its aliases expand it past 1000000 values"
# 333 bytes of six levels, 672,612 values, under the bound: a refusal that
# printed every entry of output.nodes was a 1.9 MB line
SIX_LEVELS = ("scenario: {preset: shield}\n"
              f"output: {{nodes: {_nested_aliases(6)}}}\n")
# the six levels as one entry, whose repr is 1.9 MB
SIX_LEVELS_IN_ONE = ("scenario: {preset: shield}\n"
                     f"output: {{nodes: [{_nested_aliases(6)}]}}\n")


def _nested_lists(levels: int) -> list:
    """The value that _nested_aliases(levels) reads as."""
    lists = [[1] * 9]
    for _ in range(1, levels):
        lists.append([lists[-1]] * 9)
    return lists


def _cut(value) -> str:
    """``value`` as a refusal echoes one over 200 characters long."""
    text = repr(value)
    return f"{text[:200]}... ({len(text) - 200} more characters)"


# lists nested past yaml's recursion, written out or through aliases
NESTS = "it nests deeper than 64 levels"
DEEP_LIST = "[" * 490 + "x" + "]" * 490
ALIAS_CHAIN = ("scenario: {preset: shield}\noutput: {nodes: ["
               + ", ".join(["&a0 [x]"] + [f"&a{k} [*a{k - 1}]"
                                          for k in range(1, 600)]) + "]}\n")

TAPS = "--preset shield --axis tap_count --values"
TOO_LARGE = "the run would hold about {} GiB, over the 4 GiB limit"
NOT_A_NUMBER = "{} must be a number, got 'lots'"
NEEDS_SHIELD = "geometry.{} needs a shielded preset (a line with role shield)"
# the shield preset with a PWL drive, whose points follow
PWL = ("--preset shield --set stimulus.kind=pwl --set stimulus.samples=null "
       "--set stimulus.rise_time_s=null --set 'stimulus.points=")
AFTER_DRIVE = ("sim.t_end=1e-07 ends before the drive's last change at "
               "2e-07 s; measurements need the settled drive, so end the "
               "window at or after it")

# Every refusal of the command line is a row of REFUSALS or of the four
# tables after it: (command, arguments, config, exit code, message). The
# arguments are a shell line, {cfg} the config file's path; the config is
# YAML text, bytes written as they are, a mapping written as JSON, or None
# for no file; the message is all that follows "error: ", with {cfg} for
# the path.
REFUSALS = {
    # usage errors exit 1 like config errors
    "run-neither-flag": (
        "run", "", None, 1, "give exactly one of --config or --preset"),
    "run-both-flags": (
        "run", "--preset no-shield --config {cfg}", None, 1,
        "give exactly one of --config or --preset"),
    "run-set-without-value": (
        "run", "--preset no-shield --set sim.dt", None, 1,
        "--set needs key=value, got 'sim.dt'"),
    "run-unknown-preset": (
        "run", "--preset ghost", None, 1,
        "argument --preset: invalid choice: 'ghost' (choose from "
        "'no-shield', 'shield', 'shield-3taps')"),
    "sweep-one-value": (
        "sweep", f"{TAPS} 3", None, 1,
        "a sweep needs at least two axis values"),
    "sweep-non-number-value": (
        "sweep", f"{TAPS} 1,2x", None, 1,
        "--values entries must be numbers, got '2x'"),
    "sweep-bool-value": (
        "sweep", f"{TAPS} 0,true", None, 1,
        "--values entries must be numbers, got 'true'"),
    # quoted digits are a string, as they are for --set
    "sweep-single-quoted-value": (
        "sweep", f"""{TAPS} "0,'1'" """, None, 1,
        "--values entries must be numbers, got \"'1'\""),
    "sweep-double-quoted-value": (
        "sweep", f"""{TAPS} '0,"1e0"'""", None, 1,
        "--values entries must be numbers, got '\"1e0\"'"),
    # and so are digits with an explicit string tag
    "sweep-str-tagged-value": (
        "sweep", f"{TAPS} '!!str 12,24'", None, 1,
        "--values entries must be numbers, got '!!str 12'"),
    # an integer over Python's digit limit, as a value on the command
    # line or in a file
    "export-netlist-set-over-the-digit-limit": (
        "export-netlist", f"--preset shield --set sim.n_segments={HUGE_INT}",
        None, 1, "--set sim.n_segments: " + _over_digit_limit(HUGE_INT)),
    "sweep-value-over-the-digit-limit": (
        "sweep", f"{TAPS} 1,{HUGE_INT}", None, 1,
        "--values: " + _over_digit_limit(HUGE_INT)),
    "export-netlist-config-over-the-digit-limit": (
        "export-netlist", "--config {cfg}",
        f"scenario: {{preset: shield}}\nsim: {{n_segments: {HUGE_INT}}}\n",
        1, "config parse error in {cfg}: " + _over_digit_limit(HUGE_INT)),
    # the output block is read before any sweep row runs
    "sweep-unknown-output-key": (
        "sweep", f"--set output.bogus=1 {TAPS} 0,1", None, 1,
        "output block: unknown key(s) bogus; allowed: directory, formats, "
        "nodes"),
    "sweep-bad-output-nodes": (
        "sweep", f"--set output.nodes=5 {TAPS} 0,1", None, 1,
        "output.nodes must be 'all', 'ends', or a list of node labels, "
        "got 5"),
    # a name that YAML reads as no string is refused, not written as a
    # Python repr ("{'a': 1}/shield.cir", "True/", "['a', 'b'].cir") or
    # taken for no name ("custom")
    "export-netlist-mapping-output-directory": (
        "export-netlist", "--preset shield --set 'output.directory={a: 1}'",
        None, 1, "output.directory must be a string, got {'a': 1}"),
    "run-bool-output-directory": (
        "run", "--preset shield --set output.directory=true", None, 1,
        "output.directory must be a string, got True"),
    "sweep-number-output-directory": (
        "sweep", f"--set output.directory=5 {TAPS} 0,1", None, 1,
        "output.directory must be a string, got 5"),
    "export-netlist-list-scenario-name": (
        "export-netlist", "--config {cfg}", _pair(name=["a", "b"]), 1,
        "scenario.name must be a string, got ['a', 'b']"),
    "run-number-scenario-name": (
        "run", "--config {cfg}", _pair(name=0), 1,
        "scenario.name must be a string, got 0"),
    "run-missing-config": (
        "run", "--config {cfg}", None, 3,
        "[Errno 2] No such file or directory: '{cfg}'"),
    # YAML is UTF-8: a Latin-1 byte is a parse error, not a traceback
    **{f"{command}-config-not-utf-8": (
        command, "--config {cfg}", b"# \xff\nscenario: {preset: shield}\n", 1,
        "config parse error in {cfg}: 'utf-8' codec can't decode byte 0xff "
        "in position 2: invalid start byte")
       for command in ("extract", "run")},
    # a reader copies an aliased node once per reference, so the value
    # is refused before any copy of it is made
    **{f"{command}-nested-aliases": (
        command, "--config {cfg}", ALIAS_BOMB, 1,
        "config parse error in {cfg}: " + EXPANDS)
       for command in ("extract", "export-netlist", "run")},
    "extract-set-nested-aliases": (
        "extract", f"--preset shield --set 'output.nodes={_nested_aliases(7)}'",
        None, 1, "--set output.nodes: " + EXPANDS),
    # yaml composes and the readers copy a node by recursion: a document
    # nested past the bound is refused before either recursion runs out
    "extract-config-nested-490-deep": (
        "extract", "--config {cfg}", f"output: {{nodes: {DEEP_LIST}}}\n", 1,
        "config parse error in {cfg}: " + NESTS),
    **{f"{command}-set-nested-600-deep": (
        command, "--preset shield --set 'output.nodes="
                 + "[" * 600 + "x" + "]" * 600 + "'", None, 1,
        "--set output.nodes: " + NESTS)
       for command in ("extract", "export-netlist")},
    # 600 aliases, each of a list holding the one before: each is written
    # four levels down, and the last reads over 600 deep
    "extract-aliases-nested-600-deep": (
        "extract", "--config {cfg}", ALIAS_CHAIN, 1,
        "config parse error in {cfg}: " + NESTS),
    # a label is a string, and a refusal echoes at most 200 characters
    # of a value, so neither refusal reaches 1 KB
    "run-output-node-of-six-levels": (
        "run", "--config {cfg}", SIX_LEVELS, 1,
        "output.nodes[0] must be a string, got [1, 1, 1, 1, 1, 1, 1, 1, 1]"),
    "extract-output-node-of-six-levels-in-one": (
        "extract", "--config {cfg}", SIX_LEVELS_IN_ONE, 1,
        "output.nodes[0] must be a string, got "
        + _cut(_nested_lists(6))),
    "run-output-node-not-a-string": (
        "run", "--preset shield --set 'output.nodes=[victim_2, [a, b], 3]'",
        None, 1, "output.nodes[1] must be a string, got ['a', 'b']"),
    # a node inside itself expands without end
    "export-netlist-alias-inside-itself": (
        "export-netlist", "--config {cfg}",
        "scenario: {preset: shield}\noutput: {nodes: &a [*a]}\n", 1,
        "config parse error in {cfg}: " + EXPANDS),
    # YAML would keep the later dt, and the deck said .tran 1e-10
    "export-netlist-repeated-config-key": (
        "export-netlist", "--config {cfg}",
        "sim: {dt: 5e-11, t_end: 2.4e-6, dt: 1e-10}\n", 1,
        "config parse error in {cfg} at line 1, column 33: "
        + _repeated_key("dt", "sim: {dt: 5e-11, t_end: 2.4e-6, dt: 1e-10}",
                        33)),
    # C/dt overflows to inf, so the step matrices come out non-finite
    "run-non-finite-step-matrices": (
        "run", "--config {cfg}",
        _pair(couplings=[], lines=[dict(A, c_total=1.0e308), V]), 2,
        "non-finite step matrices P, q (theta=0.5, dt=1e-09 s)"),
    "run-bool-for-a-number": (
        "run", "--preset shield --set sim.t_end=true", None, 1,
        "sim.t_end must be a number, got True"),
    "run-sim-without-t_end": (
        "run", "--config {cfg}",
        "scenario: {preset: shield}\nsim: {dt: 1e-9}\n", 1,
        "sim block needs dt and t_end"),
    # the scenario's description: lines, couplings, terminations, taps
    "run-repeated-line-name": (
        "run", "--config {cfg}", _pair(lines=[A, dict(V, name="a")],
                                       couplings=[]),
        1, "line names must be unique"),
    "run-negative-cm_total": (
        "run", "--config {cfg}",
        _pair(couplings=[dict(AV, cm_total=-1e-12)]),
        1, "coupling ('a', 'v'): cm_total must be >= 0, got -1e-12"),
    "run-termination-for-unknown-line": (
        "run", "--config {cfg}",
        _pair(terminations={"zz": {"driver_resistance_ohm": 1.0}}), 1,
        "termination names unknown line 'zz'"),
    "run-termination-for-a-shield": (
        "run", "--config {cfg}",
        _pair(lines=[A, V, dict(A, name="s", role="shield")],
              terminations={"s": {"driver_resistance_ohm": 1.0}}), 1,
        "line 's' is a shield; its ends are ground ties, not terminations"),
    **{f"run-{case}-without-shield": (
        "run", argv, config, 1, "a tap schedule needs a line with role shield")
       for case, argv, config in (
           ("tap_count", "--preset no-shield --set scenario.tap_count=1",
            None),
           ("tie_resistance_ohm",
            "--preset no-shield --set scenario.tie_resistance_ohm=5", None),
           ("taps", "--config {cfg}",
            _pair(taps={"tie_resistance_ohm": 5.0})))},
    # overrides, read in the formula units
    "run-unknown-override-key": (
        "run", "--preset shield --set overrides.g_total=1", None, 1,
        "overrides block: unknown key(s) g_total; allowed: c_total, "
        "cm_total, l_total, m_total, r_total"),
    "run-override-naming-unknown-line": (
        "run", "--preset shield --set 'overrides.l_total={ghost: 80}'", None,
        1, "overrides.l_total names unknown line 'ghost'"),
    "run-pair-override-naming-unknown-line": (
        "run", "--preset shield --set 'overrides.m_total={aggressor:ghost: "
               "5.0}'", None, 1,
        "overrides.m_total pair 'aggressor:ghost' names unknown line "
        "'ghost'"),
    "run-override-in-henries": (
        "run", "--preset shield --set "
               "'overrides.m_total={aggressor:victim: 7.51e-6}'", None, 1,
        "overrides.m_total[aggressor:victim] = 7.51e-06 is read in uH, the "
        "unit of the formula values, not H; for 7.51e-06 H write 7.51"),
    # --set may pass through mappings only; the preset's r_total: 500
    # became {aggressor: 50}, which moved the other lines in silence
    "run-set-through-a-scalar": (
        "run", "--preset shield --set overrides.r_total.aggressor=50", None,
        1, "overrides.r_total holds 500.0, not a mapping, so "
           "overrides.r_total.aggressor cannot be set; set the whole value "
           "instead"),
    **{f"run-non-finite-{field}": (
        "run", f"--preset shield --set {field}=.nan", None, 1, message)
       for field, message in {
           "scenario.tie_resistance_ohm": "tie_resistance_ohm must be finite "
                                          "and >= 0, got nan",
           "stimulus.delay_s": "stimulus delay_s must be finite, got nan",
           "stimulus.rise_time_s": "stimulus rise_time_s must be finite and "
                                   ">= 0, got nan",
           "stimulus.amplitude_v": "stimulus amplitude_v must be finite, "
                                   "got nan",
       }.items()},
    # the kind is read before the preset's smooth-edge keys are checked
    "export-netlist-unknown-stimulus-kind": (
        "export-netlist", "--preset shield --set stimulus.kind=bogus", None,
        1, "unknown stimulus kind 'bogus'"),
    **{f"run-{key}-without-shield": (
        "run", f"--preset no-shield --set geometry.{key}=2.0", None, 1,
        NEEDS_SHIELD.format(key))
       for key in ("shield_width_scale", "shield_separation_um")},
    # refused at once, before one tap position is made
    "export-netlist-tap-count-beyond-segments": (
        "export-netlist",
        "--preset shield --set scenario.tap_count=1000000000", None, 1,
        "scenario.tap_count=1000000000: taps at i/(tap_count+1) land on "
        "interior nodes only when tap_count <= sim.n_segments - 1 = 11"),
    # a pair named twice, where the later value used to win in silence
    "run-pair-override-named-twice": (
        "run", "--preset shield --set 'overrides.m_total={aggressor:victim: "
               "5.0, victim:aggressor: 6.0}'", None, 1,
        "overrides.m_total names pair aggressor:victim twice, as "
        "'aggressor:victim' and 'victim:aggressor'"),
    "run-same-pair-key-twice": (
        "run", "--preset shield --set 'overrides.m_total={aggressor:victim: "
               "5.0, aggressor:victim: 6.0}'", None, 1,
        "--set overrides.m_total: unparseable value '{aggressor:victim: 5.0, "
        "aggressor:victim: 6.0}': " + _repeated_key(
            "aggressor:victim",
            "{aggressor:victim: 5.0, aggressor:victim: 6.0}", 25)),
    # the deck came out with no K cards at all
    "export-netlist-coupling-pair-given-twice": (
        "export-netlist", "--config {cfg}",
        _pair(couplings=[AV, {"pair": ["v", "a"], "cm_total": 10e-12}]), 1,
        "scenario.couplings[1] gives pair a:v again, after "
        "scenario.couplings[0]; give each pair one entry"),
    "run-coupling-naming-unknown-line": (
        "run", "--config {cfg}",
        _pair(couplings=[{"pair": ["a", "zz"], "m_total": 6e-6}]), 1,
        "coupling pair ('a', 'zz') does not name two distinct known lines"),
    # the deck would lose a breakpoint the engine keeps
    "run-delay-merging-breakpoints": (
        "run", "--preset shield --set stimulus.kind=step --set "
               "stimulus.samples=null --set stimulus.rise_time_s=null --set "
               "stimulus.delay_s=100", None, 1,
        "stimulus delay_s=100.0 merges the breakpoints at t=0.0 and "
        "t=1e-15: both fall at 100.0 s"),
    # the window: whole steps that reach the drive's last change
    "run-window-not-whole-steps": (
        "run", "--preset shield --set sim.dt=3e-10 --set sim.t_end=1e-9",
        None, 1, "t_end=1e-09 is not a whole number of dt=3e-10 steps "
                 "(3.33333333)"),
    **{f"{command}-window-ending-before-the-drive": (
        command, "--preset no-shield --set sim.t_end=1e-7", None, 1,
        AFTER_DRIVE) for command in ("run", "export-netlist")},
    # a kept label is checked against the network resolve builds: the
    # deck was written, and a run without numpy named numpy
    **{f"{command}-unknown-output-node": (
        command, "--preset shield --set 'output.nodes=[bogus]'", None, 1,
        "output.nodes: labels not in the network: ['bogus']")
       for command in ("run", "export-netlist")},
    # the first five unknown labels, and a count of the rest
    "run-many-unknown-output-nodes": (
        "run", "--preset shield --set 'output.nodes=["
               + ", ".join(f"x{i}" for i in range(40)) + "]'", None, 1,
        "output.nodes: labels not in the network: ['x0', 'x1', 'x2', 'x3', "
        "'x4'] and 35 more"),
    # a breakpoint scaled or shifted past the largest float: the deck
    # printed PWL(0 0 1e-07 inf), and a run diverged after a raw numpy
    # warning
    **{f"{command}-overflowing-breakpoint": (
        command, f"{PWL}[[0, 0], [1e-7, 10]]' --set stimulus.amplitude_v="
                 "1e308", None, 1,
        "stimulus amplitude_v=1e+308 takes the point (1e-07, 10.0) to "
        "(1e-07, inf), past the largest float")
       for command in ("run", "export-netlist")},
    "export-netlist-overflowing-delay": (
        "export-netlist", f"{PWL}[[0, 0], [1e308, 1]]' --set "
                          "stimulus.delay_s=1e308", None, 1,
        "stimulus delay_s=1e+308 takes the point (1e+308, 1.0) to "
        "(inf, 1.0), past the largest float"),
    # the geometry block is checked once, against every key it may hold
    "extract-unknown-geometry-key": (
        "extract", "--preset shield --set geometry.bogus=1", None, 1,
        "geometry block: unknown key(s) bogus; allowed: coefficients, "
        "eps_rel, height_um, lam, length_um, separation_um, "
        "sheet_res_ohm_sq, shield_separation_um, shield_width_scale, "
        "thickness_um, width_um"),
    # a key YAML cannot hash, and a pair override that makes k >= 1
    "export-netlist-unhashable-config-key": (
        "export-netlist", "--config {cfg}",
        "scenario: {preset: shield}\nsim: {[1, 2]: 3}\n", 1,
        "config parse error in {cfg} at line 2, column 7: while constructing "
        "a mapping\n  in \"<unicode string>\", line 2, column 6:\n    sim: "
        "{[1, 2]: 3}\n         ^\nfound unhashable key\n  in \"<unicode "
        "string>\", line 2, column 7:\n    sim: {[1, 2]: 3}\n          ^"),
    "run-pair-override-past-k-of-1": (
        "run", "--preset shield --set 'overrides.m_total={aggressor:victim: "
               "100}'", None, 1,
        "inductive coupling k = 1.20134 >= 1 for pair aggressor-victim; the "
        "pair inductance matrix would not be positive definite"),
    # a run too large to hold, refused before anything is built
    "export-netlist-too-large-samples": (
        "export-netlist", "--preset shield --set stimulus.samples=1e12", None,
        1, "stimulus.samples: " + TOO_LARGE.format("2.38e+05")),
    "export-netlist-too-large-n_segments": (
        "export-netlist", "--preset shield --set sim.n_segments=1e9", None, 1,
        "sim.n_segments: " + TOO_LARGE.format("1.34e+12")),
    "run-too-large-dt": (
        "run", "--preset shield --set sim.dt=1e-20", None, 1,
        "sim.dt: " + TOO_LARGE.format("1.43e+07")),
    # n_segments squared passes the largest float; from about 3e307 the
    # unknowns themselves are inf, and the estimate must not read inf * 0
    **{f"{command}-n_segments-{value}": (
        command, f"--preset shield --set sim.n_segments={value}", None, 1,
        "sim.n_segments: " + TOO_LARGE.format("inf"))
       for value in ("1e200", "1e308")
       for command in ("run", "export-netlist", "extract")},
    # each block read by its reader: a value, a block or an entry of the
    # wrong kind
    "run-fractional-n_segments": (
        "run", "--preset shield --set sim.n_segments=12.5", None, 1,
        "sim.n_segments must be an integer, got 12.5"),
    # a method is a name: a number is refused as one, not as a method
    "run-number-for-a-method": (
        "run", "--preset shield --set sim.method=5", None, 1,
        "sim.method must be a string, got 5"),
    **{f"run-{key}-{value}": (
        "run", f"--preset shield --set geometry.{key}={value}", None, 1,
        f"geometry block: {key} must be > 0")
       for key, value in (("shield_width_scale", 0),
                          ("shield_separation_um", -1))},
    "run-sim-block-not-a-mapping": (
        "run", "--config {cfg}", "scenario: {preset: shield}\nsim: 5\n", 1,
        "config block 'sim' must be a mapping, got int"),
    "run-no-scenario-block": (
        "run", "--config {cfg}", "sim: {dt: 1e-9, t_end: 4e-7}\n", 1,
        "config has no scenario block"),
    "run-config-unknown-preset": (
        "run", "--config {cfg}", "scenario: {preset: bogus}\n", 1,
        "unknown scenario preset 'bogus'; choose one of no-shield, shield, "
        "shield-3taps"),
    "run-no-lines": (
        "run", "--config {cfg}", _pair(lines=[]), 1,
        "scenario.lines must be a non-empty list"),
    "run-couplings-not-a-list": (
        "run", "--config {cfg}", _pair(couplings=5), 1,
        "scenario.couplings must be a list"),
    "run-coupling-pair-of-one-name": (
        "run", "--config {cfg}",
        _pair(couplings=[{"pair": ["a"], "m_total": 6e-6}]), 1,
        "scenario.couplings[0] needs pair: [line_a, line_b]"),
    "run-zero-c_total": (
        "run", "--config {cfg}", _pair(lines=[dict(A, c_total=0), V]), 1,
        "scenario.lines[0]: line 'a': c_total must be > 0"),
    "run-negative-pair-override": (
        "run", "--preset shield --set 'overrides.m_total={aggressor:victim: "
               "-1}'", None, 1,
        "m_total[aggressor-victim] must be positive and finite, got -1.0 "
        "(drop the pair instead of setting 0)"),
    "run-pwl-points-not-pairs": (
        "run", "--config {cfg}",
        "scenario: {preset: shield}\nstimulus: {kind: pwl, points: [1, 2]}\n",
        1, "stimulus.points must be a list of [time, value] pairs"),
    "run-nan-pwl-point": (
        "run", "--config {cfg}", "scenario: {preset: shield}\nstimulus: "
        "{kind: pwl, points: [[0, 0], [.nan, 1]]}\n", 1,
        "pwl points must be finite"),
    # a network the construction check refuses, or a name the deck or
    # the output files cannot carry: run writes nothing, export-netlist
    # no deck
    **{f"{command}-{case}": (command, "--config {cfg}", config, 1, message)
       for command in ("run", "export-netlist")
       for case, config, message in (
           ("zero-ohm-driver",
            _pair(terminations={"a": {"driver_resistance_ohm": 0.0}}),
            "scenario.terminations[a]: driver_resistance_ohm must be finite "
            "and > 0, got 0.0"),
           # every shield node reaches ground; the 0-ohm loop through the
           # two end ties is what leaves the DC currents unset
           ("zero-resistance-shield-loop",
            _pair(lines=[A, V, dict(A, name="s", role="shield",
                                    r_total=0.0)]),
            "Ls_12 closes a loop of zero-resistance inductors, whose DC "
            "current nothing sets"),
           ("coupling-k-of-1.07",
            _pair(couplings=[dict(AV, m_total=80e-6)]),
            "Ka_v_1: |M|/sqrt(Li*Lj) = 1.069 is not < 1, the inductance "
            "matrix is not positive definite"),
           ("line-name-not-a-string",
            _pair(couplings=[], lines=[dict(A, name=5), V]),
            "scenario.lines[0]: line name must be a string, got 5"),
           ("line-name-with-whitespace",
            _pair(couplings=[], lines=[dict(A, name="agg one"), V]),
            "node label 'agg one_src' is empty or holds whitespace or a "
            "non-printable character; a deck card cannot carry it"),
       )},
}
# Rows that keep the test names and case ids they had before the table:
# a value that is not a number, or not of the shape its reader takes
NON_NUMBER = {
    f"{entry}-{field}": ("run", argv, config, 1, NOT_A_NUMBER.format(field))
    for entry, field, argv, config in (
        ("lines", "scenario.lines[0].r_total", "--config {cfg}",
         _pair(lines=[dict(A, r_total="lots"), V])),
        ("couplings", "scenario.couplings[0].cm_total", "--config {cfg}",
         _pair(couplings=[dict(AV, cm_total="lots")])),
        ("terminations", "scenario.terminations[a].load_capacitance_f",
         "--config {cfg}",
         _pair(terminations={"a": {"load_capacitance_f": "lots"}})),
        *(("set", key, f"--preset shield --set {key}=lots", None)
          for key in ("geometry.width_um", "geometry.shield_width_scale",
                      "overrides.r_total", "scenario.tie_resistance_ohm",
                      "stimulus.amplitude_v", "sim.dt")))}
WRONG_SHAPE = {
    **{f"{edit}-{edit.partition('=')[0]}": (
        "run", f"--preset shield --set {edit}", None, 1, message)
       for edit, message in {
           "overrides.m_total=5": "overrides.m_total must be a mapping of "
                                  "'a:b' pairs to values, got 5",
           "overrides.cm_total=[1]": "overrides.cm_total must be a mapping "
                                     "of 'a:b' pairs to values, got [1]",
           "output.formats=5": "output.formats must be a list, got 5",
           "output.formats=[[1]]": "output.formats: unknown format(s) "
                                   "[[1]]; allowed: ('csv', 'json')",
           "geometry.coefficients=[1]": "geometry.coefficients: unknown "
                                        "coefficient set [1]; available: "
                                        "paper-literal, table-compat",
       }.items()},
    **{case: ("run", "--config {cfg}", config, 1, message)
       for case, config, message in (
           ("edit5-scenario.taps.fractions", _pair(taps={"fractions": "abc"}),
            "scenario.taps.fractions must be a list, got 'abc'"),
           ("edit6-scenario.taps.fractions", _pair(taps={"fractions": 0.5}),
            "scenario.taps.fractions must be a list, got 0.5"),
           ("edit7-scenario.taps.fractions[0]",
            _pair(taps={"fractions": ["abc"]}),
            "scenario.taps.fractions[0] must be a number, got 'abc'"),
           ("edit8-scenario.lines[1]",
            _pair(lines=[A, {k: V[k] for k in V if k != "c_total"}]),
            "scenario.lines[1] block: missing key(s) c_total; required: "
            "c_total, l_total, name, r_total, role"),
           ("edit9-scenario.lines[1]", _pair(lines=[A, dict(V, bogus=1)]),
            "scenario.lines[1] block: unknown key(s) bogus; allowed: "
            "c_total, l_total, name, r_total, role"),
           ("edit10-scenario.terminations[a]",
            _pair(terminations={"a": {"bogus": 1}}),
            "scenario.terminations[a] block: unknown key(s) bogus; allowed: "
            "driver_resistance_ohm, load_capacitance_f, source_ref"))},
}
# the name builds the file names and the deck's title comment
SCENARIO_NAMES = {
    f"{command}-{name}": (
        command, "--config {cfg}", _pair(name=name), 1,
        f"scenario name {name!r} names the output files and the deck title, "
        f"so it may hold no '/', '\\' or non-printable character")
    for command in ("run", "export-netlist")
    for name in ("../escaped", "a\\b", "two\nlines", "bell\x07")}
# extract reads every block with the reader a run uses
EXTRACT = {
    label: ("extract", f"--preset shield --set {edit}", None, 1, message)
    for label, edit, message in (
        ("scenario", "scenario.bogus=1", "scenario block: unknown key(s) "
         "bogus; allowed: couplings, lines, name, preset, tap_count, taps, "
         "terminations, tie_resistance_ohm"),
        ("stimulus", "stimulus.kind=nope", "unknown stimulus kind 'nope'"),
        ("sim", "sim.bogus=1", "sim block: unknown key(s) bogus; allowed: "
         "dt, method, n_segments, t_end"),
        ("output-formats", "output.formats=[xml]", "output.formats: unknown "
         "format(s) ['xml']; allowed: ('csv', 'json')"),
        ("output-nodes", "output.nodes=5", "output.nodes must be 'all', "
         "'ends', or a list of node labels, got 5"),
        ("run-size", "stimulus.samples=1e12",
         "stimulus.samples: " + TOO_LARGE.format("2.38e+05")))}
# every run refusal of exit 1: a config a run refuses is refused as it is
# by export-netlist, and by a run without numpy
RUN_REFUSALS = {name: row
                for table in (REFUSALS, NON_NUMBER, WRONG_SHAPE, SCENARIO_NAMES)
                for name, row in table.items()
                if row[0] == "run" and row[3] == 1}


def _row_argv(directory: Path, command, argv, config) -> tuple[list, Path]:
    """A row's command line, with its config written to directory/cfg.yaml
    and --out one level under directory/out; returns (argv, cfg path)."""
    directory.mkdir(exist_ok=True)
    cfg, out = directory / "cfg.yaml", directory / "out"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    elif config is not None:
        cfg.write_text(config if isinstance(config, str)
                       else json.dumps(config))
    args = [arg.replace("{cfg}", str(cfg)) for arg in shlex.split(argv)]
    return [command, *args, "--out", str(out / "deep")], cfg


def _refusal_test(rows: dict):
    """A test that runs each row of ``rows`` and checks its refusal."""
    @pytest.mark.parametrize("command, argv, config, code, message",
                             rows.values(), ids=rows)
    def test(self, tmp_path, capsys, command, argv, config, code, message):
        args, cfg = _row_argv(tmp_path, command, argv, config)
        # --out one level down: neither directory may be made
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no raw numpy warning first
            rc = main(args)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert (rc, captured.err) == (
            code, f"error: {message.replace('{cfg}', str(cfg))}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
    return test


# runs each command line of the JSON list on stdin with numpy blocked, and
# prints [exit code, stdout, stderr] of each
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from xtalksim.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def refused_without_numpy(tmp_path_factory):
    """name -> (exit code, stdout, stderr, config path, whether --out was
    made) of each RUN_REFUSALS row, all run by one interpreter in which
    numpy cannot be imported."""
    root = tmp_path_factory.mktemp("without-numpy")
    calls = [_row_argv(root / str(i), *row[:3])
             for i, row in enumerate(RUN_REFUSALS.values())]
    src = str(Path(xtalksim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY],
                          input=json.dumps([argv for argv, _ in calls]),
                          cwd=root, env=env, capture_output=True, text=True,
                          check=True)
    return {name: (*result, str(cfg), (root / str(i) / "out").exists())
            for i, (name, result, (_, cfg)) in enumerate(
                zip(RUN_REFUSALS, json.loads(proc.stdout), calls))}


class TestConfigDocuments:
    test_non_number_field_exits_1_naming_it = _refusal_test(NON_NUMBER)
    test_wrong_shape_exits_1_naming_it = _refusal_test(WRONG_SHAPE)

    def test_checked_in_configs_match_presets(self):
        for name in PRESET_NAMES:
            cfg = load_config(CONFIG_DIR / f"{name}.yaml")
            assert cfg.to_mapping() == preset_config(name).to_mapping(), name

    def test_yaml_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario:\n  preset: [unclosed\n")
        with pytest.raises(ParameterError, match=r"line \d+, column \d+"):
            load_config(bad)

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("\n")
        with pytest.raises(ParameterError, match="empty"):
            load_config(empty)

    def test_dotless_exponents_read_as_numbers(self, tmp_path):
        # YAML 1.1 reads "3e2" and "76e-15" as strings
        cfg = tmp_path / "pair.yaml"
        cfg.write_text(
            "scenario:\n"
            "  name: pair\n"
            "  lines:\n"
            "    - {name: a, role: aggressor, r_total: 3e2, l_total: 7e-5,"
            " c_total: 12e-11}\n"
            "    - {name: v, role: victim, r_total: 4e2, l_total: 8e-5,"
            " c_total: 13e-11}\n"
            "  couplings:\n"
            "    - {pair: [a, v], m_total: 6e-6, cm_total: 5e-11}\n"
            "  terminations:\n"
            "    a: {driver_resistance_ohm: 5e1, load_capacitance_f: 76e-15}\n"
            "sim: {dt: 1e-9, t_end: 4e-7}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        params = json.loads(
            (tmp_path / summary_filename("pair")).read_text())["params"]
        assert params["lines"]["a"] == {"role": "aggressor", "r_total": 300.0,
                                        "l_total": 7e-5, "c_total": 12e-11}
        assert params["couplings"] == [
            {"pair": ["a", "v"], "m_total": 6e-6, "cm_total": 5e-11}]
        assert params["terminations"]["a"] == {
            "driver_resistance_ohm": 50.0, "source_ref": "stimulus",
            "load_capacitance_f": 76e-15}

    @pytest.mark.parametrize("assignment", [
        "sim.t_end=true", "sim.n_segments=true", "overrides.r_total=true",
        "overrides.m_total={aggressor:victim: true}",
    ])
    def test_bool_is_not_a_number(self, assignment):
        # resolve only: a run of sim.t_end=true read as 1 s is 2e10 steps
        cfg = apply_set_overrides(preset_config("shield"), [assignment])
        with pytest.raises(ParameterError, match="must be a number, got True"):
            resolve(cfg)

    def test_missing_block_is_a_copy_of_its_default(self):
        cfg = ToolkitConfig(scenario={"preset": "shield"})
        assert cfg.sim == DEFAULT_SIM
        cfg.sim["dt"] = 1.0
        assert DEFAULT_SIM["dt"] == 5e-11

    def test_null_is_a_key_not_set(self, tmp_path):
        cfg = tmp_path / "nulls.yaml"
        cfg.write_text("scenario: {preset: shield, tap_count: null}\n"
                       "stimulus: {kind: ramp, samples: null}\n"
                       "output: {directory: null}\n")
        direct = ToolkitConfig(scenario={"preset": "shield", "tap_count": None},
                               stimulus={"kind": "ramp", "samples": None},
                               output={"directory": None})
        assert load_config(cfg) == direct
        assert direct.stimulus == {"kind": "ramp"}
        assert resolve(direct).output["directory"] == "out"

    def test_merge_key_merges_and_a_written_key_wins(self, tmp_path):
        cfg = tmp_path / "merged.yaml"
        cfg.write_text("scenario: {preset: shield}\nsim: {<<: {dt: 1.0e-10, "
                       "t_end: 2.4e-6}, dt: 5.0e-11}\n")
        assert main(["export-netlist", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
        assert ".tran 5e-11 2.4e-06\n" in (tmp_path / "shield.cir").read_text()

    def test_an_anchor_used_once_is_read(self, tmp_path):
        plain, anchored = tmp_path / "plain.yaml", tmp_path / "anchored.yaml"
        plain.write_text("scenario: {preset: shield}\n"
                         "output: {nodes: [v1_0, v1_0]}\n")
        anchored.write_text("scenario: &s {preset: shield}\n"
                            "output: {nodes: [&n v1_0, *n]}\n")
        assert load_config(anchored) == load_config(plain)

    @pytest.mark.parametrize("levels", [64, 65])
    def test_a_value_may_nest_64_levels(self, levels):
        # each value is a level: in [[x]], x lies three levels deep, and in
        # [&a0 [x], &a1 [*a0]] four, through the alias
        written = "[" * (levels - 1) + "x" + "]" * (levels - 1)
        aliased = "[" + ", ".join(["&a0 [x]"] + [
            f"&a{k} [*a{k - 1}]" for k in range(1, levels - 2)]) + "]"
        for raw in (written, aliased):
            if levels <= 64:
                assert parse_scalar(raw, "--set v") == yaml.safe_load(raw)
            else:
                with pytest.raises(ParameterError, match=r"^--set v: it "
                                   r"nests deeper than 64 levels$"):
                    parse_scalar(raw, "--set v")

    def test_a_bare_format_is_a_list_of_one(self):
        cfg = apply_set_overrides(preset_config("shield"),
                                  ["output.formats=csv"])
        assert cfg.output["formats"] == "csv"
        assert resolve(cfg).output["formats"] == ("csv",)

    def test_unknown_block_rejected(self):
        with pytest.raises(ParameterError, match="unknown config block"):
            config_from_mapping({"scenari": {"preset": "shield"}})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ParameterError, match="unknown scenario preset"):
            preset_config("shielded")

    def test_set_overrides(self):
        cfg = preset_config("shield")
        out = apply_set_overrides(cfg, ["sim.dt=1e-10",
                                        "scenario.tap_count=2",
                                        "output.formats=[csv]"])
        assert out.sim["dt"] == approx(1e-10)
        assert out.scenario == {"preset": "shield", "tap_count": 2}
        assert out.output["formats"] == ["csv"]
        assert cfg.sim["dt"] == approx(5e-11)     # original untouched

    def test_set_override_validation(self):
        cfg = preset_config("shield")
        with pytest.raises(ParameterError, match="key=value"):
            apply_set_overrides(cfg, ["sim.dt"])
        with pytest.raises(ParameterError, match="must start with a config block"):
            apply_set_overrides(cfg, ["dt=1e-10"])
        with pytest.raises(ParameterError, match="must start with a config block"):
            apply_set_overrides(cfg, ["simulation.dt=1e-10"])

    def test_line_table_leaves_unnamed_lines_at_the_formula(self, tmp_path):
        # a table replaces the preset's r_total: 500 as a whole, so the
        # lines it does not name take the sheet formula's 125 ohm
        assert main(["run", "--preset", "shield", *_sets(), "--set",
                     "overrides.r_total={aggressor: 50}", "--out",
                     str(tmp_path)]) == 0
        params = json.loads(
            (tmp_path / summary_filename("shield")).read_text())["params"]
        assert {name: line["r_total"] for name, line
                in params["lines"].items()} == approx(
            {"aggressor": 50.0, "shield": 125.0, "victim": 125.0})

    @pytest.mark.parametrize("assignment", [
        "stimulus.amplitude_v=2",
        "overrides.c_total=134.41e-12",
        "sim.n_segments=24",
    ])
    def test_set_on_missing_block_starts_from_default(self, tmp_path,
                                                      assignment):
        # a --set on a block the config lacks keeps the block's other
        # defaults, as a sweep row does
        path = tmp_path / "scenario-only.yaml"
        path.write_text("scenario: {preset: shield}\n")
        bare = resolve(apply_set_overrides(load_config(path), [assignment]))
        full = resolve(apply_set_overrides(preset_config("shield"),
                                           [assignment]))
        assert bare.params == full.params
        assert bare.stimulus == full.stimulus


# The command-line values where parse_scalar's int()/float() shortcut
# and the YAML 1.1 resolvers could part: octal, hex, "_", sexagesimal,
# a point with no digit before it, signed zeros, an overflow to inf, and
# whitespace that is not an ASCII space; values Python cannot build, an
# integer over its digit limit and a date past the month's end; and
# digits in quotes, in a block scalar or with a string tag, which stay
# a string
EDGE_SCALARS = ("010", "0x1A", "1_000", "1:30", ".5", "+.5", "1.", "-0",
                "-0.0", "1e400", "\t12", "12\n", HUGE_INT, "2001-02-30",
                "'2024'", '"1e-10"', "|\n  12", "!!str 2024", "!!str 1e-10")


def _yaml_reading(raw: str):
    """What parse_scalar gives for ``raw`` read by YAML alone, then a
    string that YAML read from a plain (unquoted) scalar with no tag
    taken as an int or float; ParameterError for a refusal."""
    import yaml
    try:
        value = _load_yaml(raw)
    except (yaml.YAMLError, ValueError):
        return ParameterError
    scalar = next((e for e in yaml.parse(raw)
                   if isinstance(e, yaml.ScalarEvent)), None)
    if (isinstance(value, str) and scalar.style is None
            and scalar.tag is None):
        for kind in (int, float):
            try:
                return kind(value)
            except ValueError:
                pass
    return value


def _assert_reads_as_yaml(raw: str) -> None:
    try:
        value = parse_scalar(raw, "--set x")
    except ParameterError:
        value = ParameterError
    # the repr tells -0.0 from 0.0 and lets nan equal itself
    expected = _yaml_reading(raw)
    assert (type(value), repr(value)) == (type(expected), repr(expected))


class TestParseScalar:
    """parse_scalar reads a plain decimal number without yaml; every
    value gives what the YAML reading gives, in type, value, sign of
    zero, and refusal."""

    @pytest.mark.parametrize("raw", EDGE_SCALARS, ids=lambda raw: (
        "5000-digits" if raw == HUGE_INT else repr(raw)))
    def test_edge_values_read_as_yaml(self, raw):
        _assert_reads_as_yaml(raw)

    @given(st.one_of(
        st.text(alphabet="0123456789+-.eE_ \t\n\r\x0b\xa0\u0663",
                max_size=10),
        st.from_regex(r" {0,2}[-+]?[0-9]{1,4}(\.[0-9]{0,3})?"
                      r"([eE][-+]?[0-9]{1,3})? {0,2}", fullmatch=True)))
    @settings(max_examples=300, deadline=None)
    def test_strings_read_as_yaml(self, raw):
        _assert_reads_as_yaml(raw)


class TestResolve:
    def test_ends_node_policy(self):
        resolved = resolve(preset_config("shield"))
        assert resolved.sim.output_nodes == (
            "aggressor_src", "aggressor_12", "shield_12",
            "victim_src", "victim_12")
        assert resolved.roles == {"source": "aggressor_src",
                                  "aggressor": "aggressor_12",
                                  "victim": "victim_12"}

    def test_all_and_explicit_node_policies(self):
        cfg = apply_set_overrides(preset_config("no-shield"),
                                  ["output.nodes=all"])
        assert resolve(cfg).sim.output_nodes == "all"
        cfg = apply_set_overrides(preset_config("no-shield"),
                                  ['output.nodes=[victim_12]'])
        # the measured nodes follow the user's list
        assert resolve(cfg).sim.output_nodes == (
            "victim_12", "aggressor_src", "aggressor_12")
        with pytest.raises(ParameterError, match="output.nodes"):
            resolve(apply_set_overrides(preset_config("no-shield"),
                                        ["output.nodes=some"]))

    def test_window_must_reach_the_drive_last_change(self):
        # the drive's last change is its last breakpoint of a new value,
        # shifted by delay_s: a flat tail may be cut, the edge may not
        def window(t_end, delay_s=0.0):
            return config_from_mapping({
                "scenario": {"preset": "no-shield"},
                "stimulus": {"kind": "pwl", "delay_s": delay_s,
                             "points": [[0, 0], [1e-7, 1], [3e-7, 1]]},
                "sim": {"dt": 1e-9, "t_end": t_end}})

        assert resolve(window(1e-7)).sim.t_end == 1e-7
        with pytest.raises(ParameterError, match=r"^sim\.t_end=2e-07 ends "
                           r"before the drive's last change at 2\.5e-07 s"):
            resolve(window(2e-7, delay_s=1.5e-7))
        with pytest.raises(ParameterError, match=r"^sim\.t_end=9\.9e-08 "):
            resolve(window(9.9e-8))

    def test_a_drive_of_amplitude_0_fits_any_window(self):
        # its breakpoints never change value, so no window ends before the
        # last change, though this one ends inside the 200 ns edge
        resolved = resolve(short_preset("no-shield", "stimulus.amplitude_v=0",
                                        "sim.t_end=1e-7"))
        assert resolved.sim.t_end == 1e-7
        assert {v for _, v in resolved.stimulus.breakpoints} == {0.0}

    def test_sim_block_needs_dt_and_t_end(self):
        cfg = config_from_mapping({"scenario": {"preset": "shield"},
                                   "sim": {"dt": 1e-9}})
        with pytest.raises(ParameterError, match="dt and t_end"):
            resolve(cfg)

    def test_scenario_form_conflicts(self):
        with pytest.raises(ParameterError, match="exactly one"):
            resolve(config_from_mapping({"scenario": {}}))
        with pytest.raises(ParameterError, match="exactly one"):
            resolve(config_from_mapping({"scenario": {
                "preset": "shield", "lines": []}}))
        with pytest.raises(ParameterError, match="conflicts"):
            resolve(config_from_mapping({"scenario": {
                "preset": "shield", "taps": {"fractions": [0.5]}}}))
        with pytest.raises(ParameterError, match="preset form"):
            resolve(config_from_mapping({"scenario": {
                "tap_count": 1,
                "lines": [{"name": "a", "role": "aggressor", "r_total": 1.0,
                           "l_total": 1e-6, "c_total": 1e-12}]}}))

    def test_stimulus_block_validation(self):
        with pytest.raises(ParameterError, match="samples is only valid"):
            resolve(config_from_mapping({"scenario": {"preset": "shield"},
                                         "stimulus": {"kind": "ramp",
                                                      "samples": 4}}))
        with pytest.raises(ParameterError, match="points are only valid"):
            resolve(config_from_mapping({"scenario": {"preset": "shield"},
                                         "stimulus": {"kind": "smooth-edge",
                                                      "points": [[0, 0]]}}))

    def test_rise_time_only_for_kinds_with_a_rise(self):
        for kind, extra in (("step", {}),
                            ("pwl", {"points": [[0, 0], [1e-9, 1]]})):
            with pytest.raises(ParameterError, match="rise_time_s is not used"):
                resolve_stimulus({"kind": kind, "rise_time_s": 5.0, **extra})
        assert resolve_stimulus({"kind": "ramp", "rise_time_s": 5.0}
                                ).points == ((0.0, 0.0), (5.0, 1.0))

    def test_explicit_lines_scenario(self):
        cfg = config_from_mapping({"scenario": {
            "name": "pair",
            "lines": [
                {"name": "a", "role": "aggressor", "r_total": 500.0,
                 "l_total": 83.24e-6, "c_total": 134.41e-12},
                {"name": "v", "role": "victim", "r_total": 500.0,
                 "l_total": 83.24e-6, "c_total": 134.41e-12},
            ],
            "couplings": [{"pair": ["a", "v"], "m_total": 8.21e-6,
                           "cm_total": 69.5e-12}],
        }, "sim": {"dt": 1e-9, "t_end": 4e-7}})
        resolved = resolve(cfg)
        assert resolved.network.scenario == "pair"
        assert resolved.roles["victim"] == "v_12"
        assert resolved.params["couplings"] == [
            {"pair": ["a", "v"], "m_total": 8.21e-6, "cm_total": 69.5e-12}]

    def test_shield_termination_is_refused(self):
        shield = {"name": "s", "role": "shield", "r_total": 500.0,
                  "l_total": 83.24e-6, "c_total": 134.41e-12}
        scenario = dict(EXPLICIT_PAIR, lines=[*EXPLICIT_PAIR["lines"], shield],
                        terminations={"s": {"driver_resistance_ohm": 1.0}})
        with pytest.raises(ParameterError, match="'s' is a shield"):
            resolve(config_from_mapping({
                "scenario": scenario, "sim": {"dt": 1e-9, "t_end": 4e-7}}))

    def test_taps_block_without_shield_is_refused(self):
        # with no fractions the tie resistance would have nothing to tie
        scenario = dict(EXPLICIT_PAIR, taps={"tie_resistance_ohm": 5.0})
        with pytest.raises(ParameterError,
                           match="a tap schedule needs a line with role shield"):
            resolve(config_from_mapping({
                "scenario": scenario, "sim": {"dt": 1e-9, "t_end": 4e-7}}))

    def test_summary_echoes_the_stimulus_numbers_as_read(self, tmp_path):
        # YAML 1.1 reads a dotless 2e-7 as a string, and "1" is quoted: the
        # run reads both as numbers, and the summary echoes those numbers,
        # as it does the preset's
        cfg = tmp_path / "spelled.yaml"
        cfg.write_text('scenario: {preset: shield}\n'
                       'stimulus: {kind: smooth-edge, amplitude_v: "1", '
                       'rise_time_s: 2e-7, delay_s: 0, samples: 64.0}\n')
        echoes = []
        for source in (["--config", str(cfg)], ["--preset", "shield"]):
            out = tmp_path / source[0].strip("-")
            assert main(["run", *source, *_sets(), "--set",
                         "output.formats=[json]", "--out", str(out)]) == 0
            summary = json.loads((out / "shield_summary.json").read_text())
            echoes.append(json.dumps(summary["params"]["stimulus"],
                                     sort_keys=True))
        assert echoes[0] == echoes[1] == json.dumps(DEFAULT_STIMULUS,
                                                    sort_keys=True)

    def test_missing_stimulus_block_echoes_what_ran(self):
        resolved = resolve(config_from_mapping({
            "scenario": {"preset": "shield"},
            "sim": {"dt": 1e-9, "t_end": 4e-7}}))
        assert resolved.params["stimulus"] == DEFAULT_STIMULUS
        assert resolved.stimulus == resolve_stimulus(resolved.params["stimulus"])



class TestGeometryMapping:
    """Every command maps geometry and overrides through one rule."""

    @pytest.mark.parametrize("axis, preset, values", [
        ("tap_count", "shield", [0, 1]),
        ("n_segments", "no-shield", [6, 12]),
        ("separation", "no-shield", [1.0, 2.5]),
        ("shield_width_scale", "shield", [1.0, 2.0]),
    ])
    def test_sweep_row_is_run_with_one_key_set(self, axis, preset, values):
        cfg = short_preset(preset)
        rows = run_sweep(cfg, axis, values)
        for row, value in zip(rows, values):
            assert row["error"] == ""
            result, _, _ = run_scenario(apply_set_overrides(
                cfg, [f"{SWEEP_AXES[axis]}={value}"]))
            assert row["victim_peak_v"] == result.measurements["victim"].peak_v
            assert row["aggressor_delay_s"] == result.measurements["aggressor"].delay
            assert row["victim_delay_s"] == result.measurements["victim"].delay

    @staticmethod
    def formulas():
        g = InterconnectGeometry()
        return extract_all({"aggressor": g, "victim": g},
                           {("aggressor", "victim"): 1.0})

    def test_pin_scalar_and_dict_overrides(self):
        out = _pin(self.formulas(), {"r_total": 500.0,
                                     "l_total": {"victim": 80.0}})
        assert out.r_total == {"aggressor": 500.0, "victim": 500.0}
        assert out.l_total["victim"] == approx(80.0)
        assert out.l_total["aggressor"] == approx(83.24046010856293, rel=1e-12)

    def test_pin_string_pair_override_and_drop(self):
        out = _pin(self.formulas(),
                   {"m_total": {"victim:aggressor": 7.0},
                    "cm_total": {("aggressor", "victim"): 0.0}})
        assert out.m_total[("aggressor", "victim")] == approx(7.0)
        assert out.cm_total == {}

    @pytest.mark.parametrize("block, match", [
        ({"g_total": 1.0}, r"overrides block: unknown key\(s\) g_total"),
        ({"l_total": {"shield": 80.0}},
         "overrides.l_total names unknown line 'shield'"),
        ({"m_total": {"aggressor:shield": 7.0}},
         "overrides.m_total pair 'aggressor:shield' names unknown line "
         "'shield'"),
        ({"m_total": {"aggressor": 7.0}},
         "overrides.m_total pair key 'aggressor' is not of the form 'a:b'"),
        ({"l_total": 8.3e-5}, r"overrides.l_total = 8.3e-05 is read in uH"),
        ({"cm_total": {"aggressor:victim": -1e-12}},
         r"cm_total\[aggressor-victim\] must be positive"),
    ], ids=["unknown-key", "unknown-line", "unknown-pair-line",
            "bad-pair-key", "henries", "negative-pair"])
    def test_pin_refuses(self, block, match):
        with pytest.raises(ParameterError, match=match):
            _pin(self.formulas(), block)

    def test_r_total_override_sets_every_line(self):
        params = resolve(apply_set_overrides(
            preset_config("shield"), ["overrides.r_total=50"])).params
        assert [ln["r_total"] for ln in params["lines"].values()] == [
            approx(50), approx(50), approx(50)]

    def test_paper_literal_coefficients_change_coupling_cap(self):
        stock = resolve(preset_config("no-shield")).params["couplings"][0]
        literal = resolve(apply_set_overrides(
            preset_config("no-shield"),
            ["geometry.coefficients=paper-literal"])).params["couplings"][0]
        ratio = (coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9, PAPER_LITERAL)
                 / coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9, TABLE_COMPAT))
        assert literal["cm_total"] != stock["cm_total"]
        assert literal["cm_total"] == approx(stock["cm_total"] * ratio)
        assert literal["m_total"] == stock["m_total"]

    def test_explicit_lines_read_at_default_geometry(self):
        blocks = {"geometry": dict(DEFAULT_GEOMETRY),
                  "overrides": dict(DEFAULT_OVERRIDES),
                  "sim": {"dt": 1e-9, "t_end": 4e-7}}
        params = resolve(config_from_mapping(
            {"scenario": EXPLICIT_PAIR, **blocks})).params
        assert params["lines"]["a"]["r_total"] == 300.0
        assert params["lines"]["v"]["c_total"] == 130e-12
        assert params["couplings"] == [
            {"pair": ["a", "v"], "m_total": 6e-6, "cm_total": 50e-12}]
        # twice as wide: half the sheet resistance, same relative change
        # as the stock values would see
        blocks["geometry"]["width_um"] = 4.0
        params = resolve(config_from_mapping(
            {"scenario": EXPLICIT_PAIR, **blocks})).params
        assert params["lines"]["a"]["r_total"] == approx(150.0)
        assert params["lines"]["v"]["r_total"] == approx(200.0)

    def test_pair_override_is_in_formula_units(self):
        # overrides.m_total is read in uH, the unit of the formula values
        cfg = apply_set_overrides(preset_config("shield"),
                                  ["overrides.m_total={aggressor:victim: 7.51}"])
        pair = [c for c in resolve(cfg).params["couplings"]
                if c["pair"] == ["aggressor", "victim"]][0]
        assert pair["m_total"] == approx(7.51e-6, rel=1e-3)

    def test_override_in_henries_is_refused(self):
        cfg = apply_set_overrides(preset_config("shield"),
                                  ["overrides.m_total={aggressor:victim: 7.51e-6}"])
        with pytest.raises(ParameterError, match=r"uH.*7\.51\b"):
            resolve(cfg)
        cfg = apply_set_overrides(preset_config("shield"),
                                  ["overrides.l_total=8.3e-5"])
        with pytest.raises(ParameterError, match=r"l_total.*uH.*83"):
            resolve(cfg)

    def test_pair_override_the_scenario_cannot_honour(self):
        cfg = apply_set_overrides(preset_config("shield"),
                                  ["overrides.cm_total={aggressor:victim: 1e-12}"])
        with pytest.raises(ParameterError, match="does not couple"):
            resolve(cfg)

    def test_extract_reports_what_run_uses(self):
        cfg = apply_set_overrides(preset_config("no-shield"),
                                  ["overrides.r_total=50",
                                   "geometry.separation_um=2"])
        report = extraction_report(cfg)
        run_pair = resolve(cfg).params["couplings"][0]
        assert report.spec.lines[0].r_total == approx(50)
        # both start from default-geometry values and move by one ratio
        moved = run_pair["cm_total"] / STOCK_COUPLING_CAP_ADJACENT_F
        assert report.spec.couplings[("aggressor", "victim")][
            "cm_total"] == approx(
                coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9) * moved)


class TestFileFormats:
    def test_waveform_csv_round_trip(self, tmp_path):
        _, waves, _ = run_scenario(short_preset("no-shield"))
        path = tmp_path / waveforms_filename("no-shield")
        write_waveforms_csv(path, waves)
        header = path.read_text().splitlines()[0]
        assert header == "time," + ",".join(waves.node_traces)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        expect = np.column_stack([waves.times, *waves.node_traces.values()])
        assert data.shape == expect.shape
        assert np.allclose(data, expect, rtol=1e-8, atol=1e-12)

    def test_waveform_csv_matches_savetxt(self, tmp_path, stock_runs):
        edge = [0.0, -0.0, 5e-324, 1e300, -1e300, -1.797e308, -3.3e-13]
        rows = 2 * 4096 + 5            # not a multiple of the writer's chunk
        traces = {f"n{i}": np.roll(np.resize(edge, rows), i) for i in range(3)}
        # the writer prints a column that is constant in a chunk as text:
        # one that mixes 0.0 and -0.0, and one constant, varying, constant
        traces["signed-zeros"] = np.where(np.arange(rows) % 3, 0.0, -0.0)
        traces["settles"] = np.concatenate([np.full(4096, -0.0),
                                            np.linspace(0, 1, 4096),
                                            np.full(5, 1 / 3)])
        cases = [waves for _, waves, _ in stock_runs.values()]
        cases.append(WaveformSet(times=np.arange(rows) * 1e-9,
                                 node_traces=traces))
        # one sample: every column is constant, so none varies
        cases.append(WaveformSet(times=np.array([0.0]), node_traces={
            name: np.array(edge[i:i + 1]) for i, name in enumerate(traces)}))
        for i, waves in enumerate(cases):
            got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
            write_waveforms_csv(got, waves)
            np.savetxt(want, np.column_stack([waves.times,
                                              *waves.node_traces.values()]),
                       fmt="%.9g", delimiter=",", comments="",
                       header=",".join(["time", *waves.node_traces]))
            assert got.read_bytes() == want.read_bytes(), i

    def test_waveform_writer_holds_one_slice_of_text(self, tmp_path,
                                                     stock_runs):
        # rows are formatted one slice at a time, so the writer's
        # temporaries stay small beside the traces: whole 4096-row chunks
        # traced 0.85 MB on each preset and 6 MB on all 28 nodes. The
        # peak is one chunk's, so one chunk and a partial one are written:
        # tracing all 48001 rows of 29 columns takes 7 s
        everything = run_scenario(apply_set_overrides(
            preset_config("no-shield"), ["output.nodes=all"]))
        cases = [(name, waves, 128 * 1024)
                 for name, (_, waves, _) in stock_runs.items()]
        cases.append(("no-shield, all nodes", everything[1], 1024 * 1024))
        rows = 4096 + 5
        for name, waves, bound in cases:
            head = WaveformSet(times=waves.times[:rows], node_traces={
                label: trace[:rows]
                for label, trace in waves.node_traces.items()})
            tracemalloc.start()
            try:
                write_waveforms_csv(tmp_path / "w.csv", head)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (name, peak)

    def test_summary_json_deterministic_but_for_timestamp(self, tmp_path):
        result, _, _ = run_scenario(short_preset("no-shield"))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(p1, result)
        write_summary_json(p2, result)
        one, two = ([ln for ln in p.read_text().splitlines()
                     if '"timestamp"' not in ln] for p in (p1, p2))
        assert one == two
        data = json.loads(p1.read_text())
        assert data["scenario"] == "no-shield"
        assert data["version"] == "0.1.0"
        assert data["measurements"]["victim"]["kind"] == "noise"
        assert data["params"]["sim"]["n_segments"] == 12

    def test_filenames(self):
        assert waveforms_filename("shield") == "shield_waveforms.csv"
        assert summary_filename("shield") == "shield_summary.json"
        assert sweep_filename("tap_count") == "sweep_tap_count.csv"


class TestRunSweep:
    def test_a_row_drops_its_run_before_the_next(self, monkeypatch):
        # a row reads its settle warning from the run's traces, which
        # must not stay alive through the next row's run
        refs, alive = [], []
        run = config_module.run_scenario

        def watched(cfg):
            alive.append([ref() is not None for ref in refs])
            result, waves, resolved = run(cfg)
            refs.append(weakref.ref(waves))
            return result, waves, resolved

        monkeypatch.setattr(config_module, "run_scenario", watched)
        rows = run_sweep(short_preset("no-shield"), "n_segments", [2, 4, 6])
        assert all(row["warning"] for row in rows)
        assert alive == [[], [False], [False, False]]

    def test_n_segments_axis(self):
        rows = run_sweep(short_preset("no-shield"), "n_segments", [6, 12])
        assert [r["value"] for r in rows] == [6, 12]
        for r in rows:
            assert r["error"] == ""
            assert r["victim_peak_v"] > 0
            assert r["aggressor_delay_s"] > 0
            assert r["victim_delay_s"] is not None

    def test_row_level_error_keeps_sweep_alive(self):
        rows = run_sweep(short_preset("shield"), "tap_count", [1, 7])
        assert rows[0]["error"] == ""
        assert "multiple of 8" in rows[1]["error"]
        assert rows[1]["victim_peak_v"] is None

    def test_huge_n_segments_row_carries_the_size_error(self):
        # n_segments squared passes the largest float, and from about 3e307
        # the unknown count itself; the sweep goes on
        rows = run_sweep(short_preset("no-shield"), "n_segments",
                         [6, 1e200, 1e308])
        assert rows[0]["error"] == ""
        assert [row["error"] for row in rows[1:]] == 2 * [
            "sim.n_segments: the run would hold about inf GiB, over the 4 GiB "
            "limit"]

    def test_baseline_separation_value_reproduces_preset(self):
        cfg = short_preset("no-shield")
        rows = run_sweep(cfg, "separation", [1.0, 2.0])
        direct, _, _ = run_scenario(cfg)
        assert rows[0]["victim_peak_v"] == approx(
            direct.measurements["victim"].peak_v, rel=1e-9)
        # wider spacing, weaker coupling
        assert rows[1]["victim_peak_v"] < rows[0]["victim_peak_v"]

    def test_baseline_width_scale_reproduces_preset(self):
        cfg = short_preset("shield")
        rows = run_sweep(cfg, "shield_width_scale", [1.0, 2.0])
        direct, _, _ = run_scenario(cfg)
        assert rows[0]["error"] == "" and rows[1]["error"] == ""
        assert rows[0]["victim_peak_v"] == approx(
            direct.measurements["victim"].peak_v, rel=1e-9)

    def test_width_scale_needs_shield(self):
        rows = run_sweep(short_preset("no-shield"),
                         "shield_width_scale", [1.0, 2.0])
        assert all("needs a shielded preset" in r["error"] for r in rows)

    def test_layout_without_a_victim_is_not_measured(self):
        # no aggressor/victim pair: a run keeps its waveforms and measures
        # nothing, and each sweep row says why it holds no metrics
        cfg = config_from_mapping({
            "scenario": dict(EXPLICIT_PAIR, couplings=[],
                             lines=EXPLICIT_PAIR["lines"][:1]),
            "sim": {"dt": 1e-9, "t_end": 4e-7}})
        assert resolve(cfg).roles == {}
        result, waves, _ = run_scenario(cfg)
        assert result.measurements == {}
        assert "a_src" in waves.node_traces
        rows = run_sweep(cfg, "n_segments", [2, 4])
        assert [r["error"] for r in rows] == [
            "sweep needs one aggressor and one victim line to measure"] * 2
        assert all(r["victim_peak_v"] is None for r in rows)

    def test_sweep_validation(self):
        cfg = short_preset("shield")
        with pytest.raises(ParameterError, match="at least two"):
            run_sweep(cfg, "tap_count", [3])
        with pytest.raises(ParameterError, match="unknown sweep axis"):
            run_sweep(cfg, "spacing", [1, 2])

    def test_sweep_csv_layout(self, tmp_path):
        rows = [{"value": 0, "victim_peak_v": 0.0613, "aggressor_delay_s":
                 1.17e-7, "victim_delay_s": 5.9e-8, "error": ""},
                {"value": 7, "victim_peak_v": None, "aggressor_delay_s": None,
                 "victim_delay_s": None, "error": "tap off grid"}]
        path = tmp_path / sweep_filename("tap_count")
        write_sweep_csv(path, "tap_count", rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ("tap_count,victim_peak_v,aggressor_delay_s,"
                            "victim_delay_s,error")
        assert lines[1] == "0,0.0613,1.17e-07,5.9e-08,"
        assert lines[2] == "7,,,,tap off grid"

    def test_sweep_tap_count_non_increasing_example(self,
                                                    mutual_free_configs):
        """A tap sweep on the shield preset without mutual inductance:
        the victim peak does not grow from 0 to 3 taps. With the stock
        tables it would, slightly, because the inductive floor there is
        out of the taps' reach (see README, "Shield taps and the
        inductive floor")."""
        rows = run_sweep(mutual_free_configs["shield"], "tap_count", [0, 3])
        assert all(r["error"] == "" for r in rows)
        assert rows[0]["victim_peak_v"] >= rows[1]["victim_peak_v"], (
            f"victim peak grew with taps: "
            f"{rows[0]['victim_peak_v'] * 1e3:.4f} mV at 0 taps vs "
            f"{rows[1]['victim_peak_v'] * 1e3:.4f} mV at 3 taps")


class TestSettleWarning:
    """A run or sweep whose window ends before a measured trace settles
    warns once on stderr, and exits and writes as it would without."""

    def test_bound_lies_between_the_stock_window_and_half_of_it(
            self, stock_runs):
        _, waves, resolved = stock_runs["shield"]
        bound = SETTLE_TOLERANCE * abs(resolved.stimulus.amplitude_v)
        assert bound == 1e-3
        # 3.0e-5 V at 2.4 us, 1.1e-2 V at 1.2 us, both on the aggressor
        assert max(waves.settle_gap[lbl]
                   for lbl in resolved.roles.values()) < bound
        _, waves, resolved = run_scenario(apply_set_overrides(
            preset_config("shield"), ["sim.t_end=1.2e-6"]))
        assert waves.settle_gap["aggressor_12"] > bound
        assert settle_warning(waves, resolved).startswith(
            "sim.t_end=1.2e-06 ends before the response settles: "
            "aggressor_12 ends 0.0113 V from its DC value, over the "
            "0.001 V bound; read before the end settles: aggressor delay")

    def test_stock_presets_do_not_warn(self, stock_runs):
        for _, waves, resolved in stock_runs.values():
            assert settle_warning(waves, resolved) == ""

    @pytest.mark.parametrize("t_end", ["1.2e-6", "6e-7", "3e-7"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_short_window_run_warns(self, tmp_path, capsys, name, t_end):
        rc = main(["run", "--preset", name, "--set", f"sim.t_end={t_end}",
                   "--set", "output.formats=[json]", "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"warning: sim.t_end={float(t_end):g} ends "
                                 f"before the response settles: ")

    def test_sweep_warns_per_unsettled_row(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "shield", *_sets(), "--axis",
                   "tap_count", "--values", "0,1", "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert [ln.split(": ")[:2] for ln in err] == [
            ["warning", "tap_count=0"], ["warning", "tap_count=1"]]
        assert all("sim.t_end=4e-07 ends before" in ln for ln in err)


class TestCliExitCodes:
    def test_success(self, tmp_path, capsys):
        rc = main(["run", "--preset", "no-shield", *_sets(),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario: no-shield" in out
        assert "victim peak noise" in out

    def test_values_read_numbers_as_set_does(self, tmp_path, capsys):
        # dotless "1e0" is a number on --values as it is on --set
        rc = main(["sweep", "--preset", "shield", *_sets(), "--axis",
                   "tap_count", "--values", "0,1e0", "--out", str(tmp_path)])
        assert rc == 0
        assert "tap_count=1.0: victim peak" in capsys.readouterr().out

    def test_values_skip_an_empty_entry(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "shield", *_sets(), "--axis",
                   "tap_count", "--values", "0,,1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert [ln.partition(":")[0] for ln in out.splitlines()] == [
            "tap_count=0", "tap_count=1",
            f"wrote {tmp_path / 'sweep_tap_count.csv'}"]

    test_refusal = _refusal_test(REFUSALS)
    test_scenario_name_stays_inside_out = _refusal_test(SCENARIO_NAMES)
    test_run_refusal_refuses_a_deck = _refusal_test(
        {name: ("export-netlist", *row[1:])
         for name, row in RUN_REFUSALS.items()})

    @pytest.mark.parametrize("name", RUN_REFUSALS)
    def test_run_refusal_reads_the_same_without_numpy(
            self, refused_without_numpy, name):
        rc, out, err, cfg, made = refused_without_numpy[name]
        message = RUN_REFUSALS[name][4].replace("{cfg}", cfg)
        assert (rc, out, err, made) == (1, "", f"error: {message}\n", False)

    def test_sweep_refuses_an_unknown_output_node_in_every_row(
            self, tmp_path, capsys):
        # a row's labels are those of its own network, so each row is
        # refused, and the sweep with them
        rc = main(["sweep", "--preset", "shield", *_sets(),
                   "--set", "output.nodes=[bogus]", "--axis", "tap_count",
                   "--values", "0,1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        refusal = "output.nodes: labels not in the network: ['bogus']"
        assert (rc, captured.err) == (
            1, f"error: no sweep row succeeded; first error: {refusal}\n")
        assert captured.out.count(f": error: {refusal}\n") == 2

    def test_run_size_estimate_of_the_presets_at_48_segments(self):
        # the figures quoted beside _MAX_RUN_BYTES: the traces of every
        # unknown, 48001 samples each, and a lifted operator of blocks
        # of 48 steps, (294 + 48) * 48 doubles per trace on shield
        sim = SimConfig(dt=DEFAULT_SIM["dt"], t_end=DEFAULT_SIM["t_end"])
        gib = {name: _check_run_size(len(preset_tables(name).lines), 48, sim,
                                     "all", DEFAULT_STIMULUS) / 2**30
               for name in PRESET_NAMES}
        assert gib == approx({"no-shield": 0.089, "shield": 0.145,
                              "shield-3taps": 0.145}, abs=5e-4)

    @pytest.mark.parametrize("nodes", ["ends", "all"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_run_size_estimate_covers_the_traced_peak(self, name, nodes):
        """The estimate bounds the run's traced peak on every preset. The
        peak sits at the solve behind P and q, in the stepping, which
        holds P, P^m and L beside the traces, or after it, when the time
        axis and the drive join the traces; the build of P^m, Q_m and L
        with its power temporaries comes before the traces. tracemalloc
        sees numpy's arrays, not the copies numpy.linalg hands LAPACK,
        which the estimate counts too."""
        resolved = resolve(apply_set_overrides(
            preset_config(name),
            ["sim.n_segments=48", f"output.nodes={nodes}"]))
        estimate = _check_run_size(len(resolved.network.lines), 48,
                                   resolved.sim, nodes, DEFAULT_STIMULUS)
        tracemalloc.start()
        try:
            run_transient(resolved.network, resolved.stimulus, resolved.sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate >= peak

    @settings(max_examples=300, deadline=None)
    @example(n_segments=3e307, dt=5e-11, steps=48000.0, samples=64,
             n_lines=3, nodes="ends", kept=None)
    @example(n_segments=1e308, dt=5e-11, steps=48000.0, samples=64,
             n_lines=3, nodes="all", kept=None)
    @example(n_segments=FLOAT_MAX, dt=5e-11, steps=48000.0,
             samples=FLOAT_MAX, n_lines=3, nodes=["victim_far"], kept=2.0)
    @given(n_segments=st.one_of(st.sampled_from([3e307, 1e308, FLOAT_MAX]),
                                st.floats(1, FLOAT_MAX)),
           dt=st.floats(1e-300, 1.0), steps=st.floats(1, 1e300),
           samples=st.one_of(st.just(FLOAT_MAX), st.floats(2, FLOAT_MAX)),
           n_lines=st.integers(1, 8),
           nodes=st.sampled_from(["ends", "all", ["victim_far"]]),
           kept=st.one_of(st.none(), st.floats(1, FLOAT_MAX)))
    def test_run_size_is_a_number_and_refused_past_the_limit(
            self, n_segments, dt, steps, samples, n_lines, nodes, kept):
        """Up to the largest float of n_segments, dt, t_end and samples,
        every figure of run_footprint is a number, not NaN, and
        _check_run_size refuses the run or returns a finite bound within
        _MAX_RUN_BYTES."""
        try:
            sim = SimConfig(dt=dt, t_end=dt * round(steps))
        except ParameterError:
            assume(False)
        n_segments, samples = int(n_segments), int(samples)
        phases, bound = run_footprint(n_lines, n_segments, sim.t_end / sim.dt,
                                      kept, samples)
        assert not any(math.isnan(v)
                       for v in [*phases.values(), *bound.values()])
        try:
            total = _check_run_size(n_lines, n_segments, sim, nodes,
                                    {"samples": samples})
        except ParameterError as exc:
            assert str(exc).endswith(", over the 4 GiB limit")
        else:
            assert math.isfinite(total) and total <= _MAX_RUN_BYTES

    def test_coupling_naming_unknown_line_exits_1(self, tmp_path,
                                                  monkeypatch):
        # the scenario's LadderSpec refuses it, before any mapping reads
        # it; REFUSALS holds the message
        def unreached(*args):
            raise AssertionError("_map_tables ran on an unchecked spec")

        monkeypatch.setattr("xtalksim.config._map_tables", unreached)
        cfg = tmp_path / "ghost.yaml"
        cfg.write_text(json.dumps(
            REFUSALS["run-coupling-naming-unknown-line"][2]))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


class TestOneParser:
    """Every main call in a process parses with one parser, built on the
    first call, so a call leaves no dead parser for the cycle collector."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [
        ["extract", "--preset", "shield"],
        ["export-netlist", "--preset", "shield-3taps",
         "--set", "sim.n_segments=48"],
        *([REFUSALS[row][0], *shlex.split(REFUSALS[row][1])]
          for row in ("run-neither-flag", "run-unknown-override-key")),
    ], ids=["extract", "export-netlist-48", "run-neither-flag",
            "run-unknown-override-key"])
    def test_a_call_leaves_no_cyclic_garbage(self, tmp_path, capsys, argv):
        # argparse 3.10 keeps a cycle of its own on a usage error, so
        # the refusals here are raised after parsing
        argv = [*argv, "--out", str(tmp_path)]
        rc = main(argv)
        assert rc == (1 if argv[0] == "run" else 0)
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == rc
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_refused_parse_leaves_the_parser_as_built(self):
        parser = build_parser()
        with pytest.raises(ParameterError, match="invalid choice: 'ghost'"):
            parser.parse_args(["run", "--set", "sim.dt=1", "--preset",
                               "ghost"])
        fresh = build_parser.__wrapped__()
        for argv in (["extract", "--preset", "shield"],
                     ["sweep", "--preset", "shield", "--set", "sim.dt=1e-9",
                      "--axis", "tap_count", "--values", "0,1"]):
            assert parser.parse_args(argv) == fresh.parse_args(argv)

    def test_help_exits_0_on_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["--help"])
            assert info.value.code == 0
            assert "usage: xtalksim" in capsys.readouterr().out


def _sets():
    out = []
    for s in SHORT:
        out += ["--set", s]
    return out


class TestCliOutputs:
    test_extract_checks_blocks_it_does_not_read = _refusal_test(EXTRACT)

    def test_run_writes_csv_and_json(self, tmp_path, capsys):
        rc = main(["run", "--preset", "shield", *_sets(),
                   "--out", str(tmp_path)])
        assert rc == 0
        csv_path = tmp_path / "shield_waveforms.csv"
        json_path = tmp_path / "shield_summary.json"
        assert csv_path.exists() and json_path.exists()
        data = json.loads(json_path.read_text())
        assert data["waveform_files"] == ["shield_waveforms.csv"]
        assert "timestamp" in data
        header = csv_path.read_text().splitlines()[0]
        assert header == ("time,aggressor_src,aggressor_12,shield_12,"
                          "victim_src,victim_12")
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (401, 6)

    def test_run_round_trip_determinism(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            assert main(["run", "--preset", "no-shield", *_sets(),
                         "--out", str(d)]) == 0
        csv1 = (d1 / "no-shield_waveforms.csv").read_bytes()
        csv2 = (d2 / "no-shield_waveforms.csv").read_bytes()
        assert csv1 == csv2
        keep = [ln for ln in (d1 / "no-shield_summary.json").read_text()
                .splitlines() if '"timestamp"' not in ln]
        keep2 = [ln for ln in (d2 / "no-shield_summary.json").read_text()
                 .splitlines() if '"timestamp"' not in ln]
        assert keep == keep2

    def test_format_selection(self, tmp_path):
        rc = main(["run", "--preset", "no-shield", *_sets(),
                   "--set", "output.formats=[json]", "--out", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "no-shield_waveforms.csv").exists()
        summary = json.loads((tmp_path / "no-shield_summary.json").read_text())
        assert summary["waveform_files"] == []

    def test_extract_report(self, tmp_path, capsys):
        rc = main(["extract", "--preset", "shield", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "without shield" in out and "with shield" in out
        report = (tmp_path / "extraction_report.txt").read_text()
        assert "R_line [ohm]" in report
        assert "500" in report                    # pinned stock resistance
        assert "8.21054" in report                # adjacent mutual bracket
        assert "7.51759" in report                # across-shield bracket

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_extract_resolves_the_geometry_once(self, monkeypatch, capsys,
                                                name):
        calls, resolve_geometry = [], config_module.resolve_geometry

        def counted(block):
            calls.append(block)
            return resolve_geometry(block)

        monkeypatch.setattr(config_module, "resolve_geometry", counted)
        assert main(["extract", "--preset", name]) == 0
        assert len(calls) == 1

    def test_extract_reads_shield_keys_on_any_preset(self):
        # extract's layout has a shield, so it reads both keys, which
        # run refuses on no-shield
        assert main(["extract", "--preset", "no-shield",
                     "--set", "geometry.shield_separation_um=3.0",
                     "--set", "geometry.shield_width_scale=2.0"]) == 0

    def test_extract_without_geometry_uses_default(self, tmp_path, capsys):
        cfg = tmp_path / "nogeom.yaml"
        cfg.write_text("scenario: {preset: shield}\n")
        assert main(["extract", "--config", str(cfg)]) == 0
        default = capsys.readouterr().out
        assert main(["extract", "--preset", "shield"]) == 0
        assert default == capsys.readouterr().out

    def test_export_netlist(self, tmp_path, capsys):
        rc = main(["export-netlist", "--preset", "shield-3taps",
                   "--out", str(tmp_path)])
        assert rc == 0
        deck = (tmp_path / "shield-3taps.cir").read_text()
        assert deck.startswith("* coupled-interconnect ladder: shield-3taps")
        assert deck.rstrip().endswith(".end")

    @pytest.mark.parametrize("kind, unset, card", [
        ("ramp", ["stimulus.samples=null"], "PWL(0 0 2e-07 1)"),
        ("step", ["stimulus.samples=null", "stimulus.rise_time_s=null"],
         "PWL(0 0 1e-15 1)"),
    ])
    def test_set_switches_a_preset_kind(self, tmp_path, kind, unset, card):
        sets = [arg for item in [f"stimulus.kind={kind}", *unset]
                for arg in ("--set", item)]
        assert main(["export-netlist", "--preset", "shield", *sets,
                     "--out", str(tmp_path)]) == 0
        assert f"aggressor_src 0 {card}" in (tmp_path / "shield.cir").read_text()
        assert main(["run", "--preset", "shield", *_sets(), *sets,
                     "--out", str(tmp_path)]) == 0

    def test_null_output_directory_is_the_default(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["export-netlist", "--preset", "shield",
                     "--set", "output.directory=null"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert (tmp_path / "out" / "shield.cir").exists()

    def test_quoted_numeric_output_directory(self, tmp_path, monkeypatch):
        # unquoted, 2024 is a number and refused (REFUSALS); quoted, in a
        # config file or inside a --set value, or tagged !!str, it names
        # a directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text(
            "scenario: {preset: shield}\noutput: {directory: '2024'}\n")
        assert main(["export-netlist", "--config", "cfg.yaml"]) == 0
        assert main(["export-netlist", "--preset", "shield-3taps", "--set",
                     "output.directory='2024'"]) == 0
        assert main(["export-netlist", "--preset", "no-shield", "--set",
                     "output.directory=!!str 2024"]) == 0
        assert sorted(p.name for p in (tmp_path / "2024").iterdir()) == [
            "no-shield.cir", "shield-3taps.cir", "shield.cir"]

    def test_run_keeps_measured_nodes(self, tmp_path):
        rc = main(["run", "--preset", "shield", *_sets(),
                   "--set", "output.nodes=[victim_12]", "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "shield_waveforms.csv").read_text().split("\n")[0]
        assert header == "time,victim_12,aggressor_src,aggressor_12"

    def test_sweep_exits_1_when_no_row_succeeds(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "shield", *_sets(),
                   "--set", "sim.method=foo", "--axis", "tap_count",
                   "--values", "0,1", "--out", str(tmp_path)])
        assert rc == 1
        assert "first error: unknown method 'foo'" in capsys.readouterr().err
        table = (tmp_path / "sweep_tap_count.csv").read_text().splitlines()
        assert len(table) == 3

    def test_sweep_writes_table_and_reports_row_errors(self, tmp_path,
                                                       capsys):
        rc = main(["sweep", "--preset", "shield", *_sets(),
                   "--axis", "tap_count", "--values", "1,7",
                   "--out", str(tmp_path)])
        assert rc == 0                             # row errors do not abort
        out = capsys.readouterr().out
        assert "tap_count=1: victim peak" in out
        assert "tap_count=7: error:" in out
        table = (tmp_path / "sweep_tap_count.csv").read_text().splitlines()
        assert len(table) == 3

    def test_run_presets_strict_ordering_example(self, stock_runs,
                                                 mutual_free_runs):
        """The documented comparison: victim peaks strictly decrease
        no-shield > shield > shield-3taps on the presets without mutual
        inductance, and both shielded presets stay below no-shield on
        the stock tables, where taps cannot lower the inductive floor
        (see README, "Shield taps and the inductive floor")."""
        def peaks(runs):
            return {name: runs[name][0].measurements["victim"].peak_v
                    for name in PRESET_NAMES}

        def show(peak):
            return ", ".join(f"{n}={p * 1e3:.4f}" for n, p in peak.items())

        stock, free = peaks(stock_runs), peaks(mutual_free_runs)
        assert free["no-shield"] > free["shield"] > free["shield-3taps"], (
            "victim peaks without mutual L (mV): " + show(free))
        assert stock["no-shield"] > max(stock["shield"],
                                        stock["shield-3taps"]), (
            "stock victim peaks (mV): " + show(stock))


def test_scenario_preset_equals_config_path():
    resolved = resolve(preset_config("shield"))
    assert resolved.network == build_ladder(preset_tables("shield"),
                                            n_segments=12)
