"""In-memory spans for the traced run, recorded from outside the package.

Each public function is replaced, at the module attribute its caller
looks it up through, by a wrapper that records a span around the call:
``config`` looks up ``run_transient``, ``measure_scenario``,
``build_ladder``, ``extract_all`` and ``resolve`` by name; ``cli``
looks up ``run_scenario``, ``run_sweep``, ``resolve``,
``extraction_report``, ``export_netlist`` and the ``write_*``
functions; ``engine`` looks up ``assemble`` by name and reaches
``lu_factor``/``lu_solve`` through its ``sla`` attribute. The LU calls
are only counted, not spanned: they run once per time step, and a span
each would cost more than the solve it wraps.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None              # index of the enclosing span
    item: int


class Tracer:
    """Span stack, per-item counters and run-wide peaks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.item = -1
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self.item)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(tracer, result, args)``
        records counts taken from the call's arguments or result."""
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                on_return(self, result, args)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children[i]]
        out.append(span.end - span.start - covered_length(clipped))
    return out


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """name -> {"calls", "total_s", "self_s"} summed over all spans."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
    return out


# ---------------------------------------------------------------------------
# instrumentation of the package


def _waveform_bytes(waves) -> int:
    """Bytes held by a WaveformSet's arrays, branch currents included.

    Traces that are views of one solution matrix share its buffer, which
    is counted once, since that whole buffer stays alive with them.
    """
    buffers = {}
    arrays = ([waves.times] + list(waves.node_traces.values())
              + list(waves.branch_currents.values()))
    for arr in arrays:
        base = arr if arr.base is None else arr.base
        buffers[id(base)] = base.nbytes
    return sum(buffers.values())


def _after_run_transient(tracer, waves, args):
    tracer.count("engine.steps", len(waves.times) - 1)
    tracer.peak("engine.waveform_bytes", _waveform_bytes(waves))


def _after_assemble(tracer, system, args):
    tracer.peak("engine.unknowns", len(system.unknown_labels))


def _after_build_ladder(tracer, net, args):
    tracer.count("network.elements",
                 len(net.resistors) + len(net.capacitors) + len(net.inductors)
                 + len(net.mutuals) + len(net.sources) + len(net.ties))


def _after_export_netlist(tracer, deck, args):
    tracer.count("netlist.deck_bytes", len(deck.encode()))


def _after_write_waveforms_csv(tracer, result, args):
    tracer.count("config.write_waveforms_csv.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, count hook)
HOOKS = (
    ("cli", "run_scenario", "config.run_scenario", None),
    ("cli", "run_sweep", "config.run_sweep", None),
    ("cli", "resolve", "config.resolve", None),
    ("config", "resolve", "config.resolve", None),
    ("cli", "extraction_report", "config.extraction_report", None),
    ("cli", "export_netlist", "netlist.export_netlist", _after_export_netlist),
    ("cli", "write_waveforms_csv", "config.write_waveforms_csv",
     _after_write_waveforms_csv),
    ("cli", "write_summary_json", "config.write_summary_json", None),
    ("cli", "write_sweep_csv", "config.write_sweep_csv", None),
    ("config", "run_transient", "engine.run_transient", _after_run_transient),
    ("config", "measure_scenario", "metrics.measure_scenario", None),
    ("config", "build_ladder", "network.build_ladder", _after_build_ladder),
    ("config", "extract_all", "extraction.extract_all", None),
    ("engine", "assemble", "engine.assemble", _after_assemble),
)


class _CountingLinalg:
    """Stands in for ``scipy.linalg`` inside the engine: counts the LU
    calls and passes every attribute through."""

    def __init__(self, tracer: Tracer, sla) -> None:
        self._tracer = tracer
        self._sla = sla

    def __getattr__(self, name):
        return getattr(self._sla, name)

    def lu_factor(self, *args, **kwargs):
        self._tracer.count("engine.lu_factor.calls")
        return self._sla.lu_factor(*args, **kwargs)

    def lu_solve(self, *args, **kwargs):
        self._tracer.count("engine.lu_solve.calls")
        return self._sla.lu_solve(*args, **kwargs)


class Instrumented:
    """Context manager that installs the span wrappers and removes them.

    ``modules`` maps "cli", "config" and "engine" to the imported
    modules. One original function bound in two modules gets one shared
    wrapper, so a call is spanned once whichever binding it went through.
    """

    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self.tracer = tracer
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        wrappers = {}
        for mod_name, attr, span_name, hook in HOOKS:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.tracer.wrap(span_name, original, hook)
            self._patch(module, attr, wrappers[key])
        engine = self.modules["engine"]
        self._patch(engine, "sla", _CountingLinalg(self.tracer, engine.sla))
        return self.tracer

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
