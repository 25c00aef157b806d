"""Self-test of the benchmark harness.

Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py

It shows that the output check fails an item whose victim peak moved by
1 mV or whose deck carries a changed K value, while it admits the
7e-11 V deviation a propagator-based engine is known to give, and that
the self-time arithmetic is right on a hand-built span tree.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
from pathlib import Path

import pytest

import run
from spans import Instrumented, Span, Tracer, self_times, totals_by_name
from workloads import (Deviation, _export_call, _run_call, _sweep_call,
                       compare, load_refs, observe)


@pytest.fixture(scope="module")
def cli():
    return run.import_package()["cli"]


@pytest.fixture
def out_dir():
    path = run.WORK / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _call_and_observe(cli, call, out_dir, edit=None):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(list(call.argv)) == 0
    if edit is not None:
        edit(out_dir)
    return observe(call, out_dir, stdout.getvalue())


# ---------------------------------------------------------------------------
# the output check


def _shift_victim_peak(delta_v):
    def edit(out_dir):
        path = out_dir / "shield_summary.json"
        data = json.loads(path.read_text())
        data["measurements"]["victim"]["peak_v"] += delta_v
        path.write_text(json.dumps(data))
    return edit


def test_run_check_catches_1mv_victim_peak_shift(cli, out_dir):
    call = _run_call("shield", "2e-7", str(out_dir))
    ref = load_refs("presets-run")[call.key]
    got = _call_and_observe(cli, call, out_dir, _shift_victim_peak(1e-3))
    dev = Deviation()
    problems = compare("run", got, ref, dev)
    assert any("victim peak_v" in p for p in problems)
    assert dev.peak_v == pytest.approx(1e-3, rel=1e-6)


def test_run_check_admits_propagator_deviation(cli, out_dir):
    call = _run_call("shield", "2e-7", str(out_dir))
    ref = load_refs("presets-run")[call.key]
    got = _call_and_observe(cli, call, out_dir, _shift_victim_peak(7e-11))
    assert compare("run", got, ref, Deviation()) == []


def test_sweep_check_catches_1mv_victim_peak_shift():
    call = _sweep_call("2e-7", "unused")
    ref = load_refs("segment-sweep")[call.key]
    got = copy.deepcopy(ref)
    assert compare("sweep", got, ref, Deviation()) == []
    got["rows"][2][1] += 7e-11
    assert compare("sweep", got, ref, Deviation()) == []
    got["rows"][2][1] += 1e-3
    assert compare("sweep", got, ref, Deviation()) != []


def test_deck_check_catches_changed_k_value(cli, out_dir):
    call = _export_call("shield-3taps", "12", "2e-7", str(out_dir))
    ref = load_refs("deck-export")[call.key]
    assert compare("export", _call_and_observe(cli, call, out_dir), ref,
                   Deviation()) == []

    def edit(out_dir):
        path = out_dir / "shield-3taps.cir"
        lines = path.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("K"))
        *head, k = lines[i].split()
        lines[i] = " ".join(head + [f"{float(k) * 1.001:.9g}"])
        path.write_text("\n".join(lines) + "\n")

    problems = compare("export", _call_and_observe(cli, call, out_dir, edit),
                       ref, Deviation())
    assert len(problems) == 1 and problems[0].startswith("card K")


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),       # overlaps a: counted once
        Span("c", 8.0, 12.0, 0, 0),      # runs past root: clipped at 10
        Span("root", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.0])
    by = totals_by_name(spans)
    assert by["root"] == pytest.approx(
        {"calls": 2, "total_s": 11.0, "self_s": 4.0})


def test_instrumentation_spans_and_restores(cli, out_dir):
    modules = run.import_package()
    engine = modules["engine"]
    originals = (engine.sla, modules["config"].run_transient, cli.resolve)
    tracer = Tracer()
    with Instrumented(tracer, modules):
        call = _export_call("shield", "12", "2e-7", str(out_dir))
        _call_and_observe(cli, call, out_dir)
    assert (engine.sla, modules["config"].run_transient, cli.resolve) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["config.resolve", "network.build_ladder",
                     "netlist.export_netlist"]
    assert [s.parent for s in tracer.spans] == [None, 0, None]
    assert tracer.counts["network.elements"] > 0


# ---------------------------------------------------------------------------
# import breakdown and the benchmark description


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |       numpy.linalg",
        "import time:        20 |         50 |     scipy.linalg",
        "import time:        10 |         60 |   scipy",
        "import time:         5 |          5 |     yaml",
        "import time:         7 |        222 |   xtalksim.config",
        "import time:         3 |        225 | xtalksim",
    ])
    got = run.parse_importtime(stderr)
    assert got == pytest.approx({"numpy": 180e-6, "scipy": 60e-6,
                                 "yaml": 5e-6, "xtalksim_self": 10e-6})


def test_benchmark_json_matches_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
