"""The benchmark's workloads, their seeded items, and the output check.

An item is a short list of CLI calls, each a ``cli.main`` argument list.
The seed sets the item order and draws each call's variant from a fixed
pool; every pool entry has a reference recorded in ``refs/`` at the
commit that defined the benchmark. After each call the harness reads
what the call wrote (or printed) and compares it with the reference.

Tolerances. Voltages are compared to ``PEAK_TOL_V`` and times to
``TIME_TOL_S``. Both admit the 7e-11 V deviation of a linear
time-invariant propagator in place of the step loop, and both catch a
1 mV shift in the victim peak. Times are sample times or interpolated
crossings on a 50 ps grid, so a two-step tolerance admits an argmax on
a flat peak moving by one sample. Deck values are printed to 9
significant digits and report values to 6, so each is compared to a
relative tolerance of two units in its last printed digit, which admits
a rounding flip and nothing more.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

PEAK_TOL_V = 1e-6
TIME_TOL_S = 1e-10
DECK_REL_TOL = 2e-8
REPORT_REL_TOL = 2e-5

PRESETS = ("no-shield", "shield", "shield-3taps")
RISE_TIMES_S = ("1.5e-7", "2e-7", "2.5e-7")
DECK_SEGMENTS = ("12", "24", "48")
EXTRACT_SEPARATIONS_UM = ("1", "1.5", "2")

REFS_DIR = Path(__file__).resolve().parent / "refs"

WORKLOAD_WHY = {
    "presets-run": "run on each preset at n=12: the everyday command; the "
                   "step loop dominates and the waveform CSV writer shows",
    "segment-sweep": "n_segments sweep 12,24,48 on shield-3taps: dense "
                     "per-step algebra and the stored solution matrix grow",
    "deck-export": "extract plus export-netlist on every preset and n: no "
                   "transient, so resolve, ladder, extraction, netlist show",
}


@dataclass
class Call:
    """One ``cli.main`` call plus what to read back and compare."""

    kind: str                       # run | sweep | extract | export
    key: str                        # reference entry
    argv: list[str]
    output: str | None = None       # what the call writes, if anything


def _run_call(preset: str, rise: str, out: str) -> Call:
    return Call("run", f"{preset}|{rise}",
                ["run", "--preset", preset,
                 "--set", f"stimulus.rise_time_s={rise}", "--out", out],
                output=preset)


def _sweep_call(rise: str, out: str) -> Call:
    # only the rise time varies: a variant that changed the unknown count
    # would make peak RSS depend on the seed through the allocator
    return Call("sweep", rise,
                ["sweep", "--preset", "shield-3taps", "--axis", "n_segments",
                 "--values", "12,24,48",
                 "--set", f"stimulus.rise_time_s={rise}", "--out", out],
                output="sweep_n_segments.csv")


def _extract_call(preset: str, sep: str) -> Call:
    return Call("extract", sep,
                ["extract", "--preset", preset,
                 "--set", f"geometry.separation_um={sep}"])


def _export_call(preset: str, n: str, rise: str, out: str) -> Call:
    return Call("export", f"{preset}|{n}|{rise}",
                ["export-netlist", "--preset", preset,
                 "--set", f"sim.n_segments={n}",
                 "--set", f"stimulus.rise_time_s={rise}", "--out", out],
                output=f"{preset}.cir")


def items(workload: str, rng, out: str):
    """Endless seeded sequence of items (lists of Calls)."""
    if workload == "presets-run":
        while True:
            yield [_run_call(p, rng.choice(RISE_TIMES_S), out)
                   for p in rng.sample(PRESETS, len(PRESETS))]
    elif workload == "segment-sweep":
        while True:
            yield [_sweep_call(rng.choice(RISE_TIMES_S), out)]
    elif workload == "deck-export":
        # whole shuffled rounds keep the preset x n mix balanced
        combos = [(p, n) for p in PRESETS for n in DECK_SEGMENTS]
        while True:
            for p, n in rng.sample(combos, len(combos)):
                yield [_extract_call(p, rng.choice(EXTRACT_SEPARATIONS_UM)),
                       _export_call(p, n, rng.choice(RISE_TIMES_S), out)]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str, out: str) -> list[Call]:
    """Every call variant a seed can draw, for recording references."""
    if workload == "presets-run":
        return [_run_call(p, r, out) for p in PRESETS for r in RISE_TIMES_S]
    if workload == "segment-sweep":
        return [_sweep_call(r, out) for r in RISE_TIMES_S]
    if workload == "deck-export":
        return ([_extract_call(PRESETS[0], s) for s in EXTRACT_SEPARATIONS_UM]
                + [_export_call(p, n, r, out) for p in PRESETS
                   for n in DECK_SEGMENTS for r in RISE_TIMES_S])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# observing a call's output


def _float_or_none(text: str):
    return None if text == "" else float(text)


def _deck_cards(text: str) -> list[list]:
    """[name, [values...]] for every element and analysis card."""
    cards = []
    for line in text.splitlines():
        if not line or line.startswith("*") or line == ".end":
            continue
        tokens = line.split()
        name = tokens[0]
        if name.startswith("."):
            values = [float(t) for t in tokens[1:]]
        elif name[0] == "V":                  # V<n> a b DC v | PWL(t v ...)
            body = " ".join(tokens[3:]).replace("PWL(", " ").replace(")", " ")
            values = [float(t) for t in body.split() if t != "DC"]
        else:
            values = [float(tokens[3])]
        cards.append([name, values])
    return cards


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|nan")


def _report_fields(text: str) -> dict:
    return {"text": _NUMBER.sub("#", text),
            "values": [float(x) for x in _NUMBER.findall(text)]}


def observe(call: Call, out_dir: Path, stdout: str) -> dict:
    """What a finished call produced, in the form references are kept."""
    if call.kind == "run":
        summary = json.loads((out_dir / f"{call.output}_summary.json").read_text())
        measurements = {
            role: {k: m[k] for k in ("kind", "peak_v", "t_peak", "delay",
                                     "rise_time")}
            for role, m in summary["measurements"].items()}
        data = (out_dir / f"{call.output}_waveforms.csv").read_bytes()
        header, _, _ = data.partition(b"\n")
        return {"measurements": measurements,
                "csv_header": header.decode(),
                "csv_rows": data.count(b"\n") - 1}
    if call.kind == "sweep":
        lines = (out_dir / call.output).read_text().splitlines()
        rows = []
        for line in lines[1:]:
            value, peak, agg_delay, vic_delay, error = line.split(",", 4)
            rows.append([float(value), _float_or_none(peak),
                         _float_or_none(agg_delay), _float_or_none(vic_delay),
                         error])
        return {"header": lines[0], "rows": rows}
    if call.kind == "extract":
        return _report_fields(stdout)
    if call.kind == "export":
        return {"cards": _deck_cards((out_dir / call.output).read_text())}
    raise ValueError(f"unknown call kind {call.kind!r}")


# ---------------------------------------------------------------------------
# comparing with the reference


@dataclass
class Deviation:
    """Worst deviations seen, kept across every checked call of a run."""

    peak_v: float = 0.0
    delay_s: float = 0.0


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _rel_close(a: float, b: float, rel: float) -> bool:
    if a != a or b != b:                          # nan in a report
        return a != a and b != b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare(kind: str, got: dict, ref: dict, dev: Deviation) -> list[str]:
    """Problems found (empty when the output matches the reference)."""
    problems = []

    def voltage(label, a, b):
        if a is not None and b is not None:
            dev.peak_v = max(dev.peak_v, abs(a - b))
        if not _close(a, b, PEAK_TOL_V):
            problems.append(f"{label}: {a!r} != reference {b!r}")

    def time_(label, a, b, is_delay=False):
        if is_delay and a is not None and b is not None:
            dev.delay_s = max(dev.delay_s, abs(a - b))
        if not _close(a, b, TIME_TOL_S):
            problems.append(f"{label}: {a!r} != reference {b!r}")

    if kind == "run":
        if got["csv_header"] != ref["csv_header"]:
            problems.append(f"csv header {got['csv_header']!r}")
        if got["csv_rows"] != ref["csv_rows"]:
            problems.append(f"csv rows {got['csv_rows']} != {ref['csv_rows']}")
        if set(got["measurements"]) != set(ref["measurements"]):
            problems.append(f"roles {sorted(got['measurements'])}")
            return problems
        for role, r in ref["measurements"].items():
            g = got["measurements"][role]
            if g["kind"] != r["kind"]:
                problems.append(f"{role} kind {g['kind']!r}")
            voltage(f"{role} peak_v", g["peak_v"], r["peak_v"])
            time_(f"{role} t_peak", g["t_peak"], r["t_peak"])
            time_(f"{role} delay", g["delay"], r["delay"], is_delay=True)
            time_(f"{role} rise_time", g["rise_time"], r["rise_time"])
    elif kind == "sweep":
        if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
            return [f"sweep table shape {got['header']!r} x {len(got['rows'])}"]
        for g, r in zip(got["rows"], ref["rows"]):
            if g[0] != r[0] or g[4] != r[4]:
                problems.append(f"sweep row {g[0]!r} {g[4]!r}")
                continue
            voltage(f"sweep {r[0]:g} victim_peak_v", g[1], r[1])
            time_(f"sweep {r[0]:g} aggressor_delay_s", g[2], r[2], True)
            time_(f"sweep {r[0]:g} victim_delay_s", g[3], r[3], True)
    elif kind == "extract":
        if got["text"] != ref["text"] or len(got["values"]) != len(ref["values"]):
            return ["extraction report layout differs"]
        for i, (a, b) in enumerate(zip(got["values"], ref["values"])):
            if not _rel_close(a, b, REPORT_REL_TOL):
                problems.append(f"report value #{i}: {a!r} != {b!r}")
    elif kind == "export":
        g_cards, r_cards = dict(got["cards"]), dict(ref["cards"])
        if set(g_cards) != set(r_cards):
            missing = sorted(set(r_cards) - set(g_cards))[:3]
            extra = sorted(set(g_cards) - set(r_cards))[:3]
            return [f"deck cards differ: missing {missing}, extra {extra}"]
        for name, r in r_cards.items():
            g = g_cards[name]
            if len(g) != len(r) or not all(_rel_close(a, b, DECK_REL_TOL)
                                           for a, b in zip(g, r)):
                problems.append(f"card {name}: {g[:4]} != {r[:4]}")
    else:
        raise ValueError(f"unknown call kind {kind!r}")
    return problems


def load_refs(workload: str) -> dict:
    return json.loads((REFS_DIR / f"{workload}.json").read_text())
