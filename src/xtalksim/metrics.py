"""Waveform measurements: peak excursion, 50% delay, 10-90% rise time.

``measure_trace`` measures one trace in one pass. Two trace kinds are
measured. A "signal" trace (a driven line's output) has excursion |v|
and references its settled final value, negated when that is below 0.
A "noise" trace (a quiet victim) has no settled high level: its
excursion is |v - v[0]|, and its thresholds reference the peak of that
excursion. Delay is the 50% crossing minus the source's 50% time; rise
time runs between the 10% and 90% crossings.

All crossings are linearly interpolated between samples and use
first-crossing semantics.
"""

from __future__ import annotations

import numpy as np

from ._record import Record, field
from .engine import WaveformSet
from .errors import ParameterError

KINDS = ("signal", "noise")


class TraceMeasurement(Record):
    """Measured quantities of one trace; absent ones are None."""

    kind: str
    peak_v: float | None = None
    t_peak: float | None = None
    delay: float | None = None
    rise_time: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(f"unknown trace kind {self.kind!r}")


class ScenarioResult(Record):
    """Summary bundle for one scenario run."""

    scenario: str
    params: dict = field(default_factory=dict)
    measurements: dict[str, TraceMeasurement] = field(default_factory=dict)
    waveform_files: tuple[str, ...] = ()
    version: str = ""


def first_crossing(times: np.ndarray, values: np.ndarray,
                   level: float) -> float | None:
    """First upward crossing of ``level``, linearly interpolated.

    A trace that starts at or above the level counts as crossing at the
    first sample. Returns None when the level is never reached.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) == 0:
        raise ParameterError("empty trace")
    if values[0] >= level:
        return float(times[0])
    below = values[:-1] < level
    above = values[1:] >= level
    hits = np.nonzero(below & above)[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    frac = (level - values[i]) / (values[i + 1] - values[i])
    return float(times[i] + frac * (times[i + 1] - times[i]))


def measure_trace(times: np.ndarray, trace: np.ndarray, kind: str,
                  t_source: float | None = 0.0) -> TraceMeasurement:
    """Peak, delay and rise time of one trace of the given kind.

    The first maximum of the excursion gives ``peak_v`` and ``t_peak``.
    The 10%, 50% and 90% levels of the reference are upward crossings
    of the oriented trace: the excursion for noise, for a signal the
    trace itself, negated when it settles below 0. ``delay`` is the 50%
    crossing minus ``t_source``. ``delay`` and ``rise_time`` are None
    when a crossing is missing or the reference is 0 (a flat trace has
    neither), and ``delay`` also when ``t_source`` is None.
    """
    times = np.asarray(times, dtype=float)
    trace = np.asarray(trace, dtype=float)
    if len(trace) == 0 or len(times) != len(trace):
        raise ParameterError("measure_trace needs matching non-empty "
                             "times/trace")
    if kind == "noise":
        excursion = oriented = np.abs(trace - trace[0])
    else:
        excursion = np.abs(trace)
        oriented = -trace if trace[-1] < 0 else trace
    i = int(np.argmax(excursion))        # argmax returns the first maximum
    ref = float(oriented[i if kind == "noise" else -1])
    t10, t50, t90 = (first_crossing(times, oriented, f * ref) if ref else None
                     for f in (0.1, 0.5, 0.9))
    return TraceMeasurement(
        kind=kind, peak_v=float(excursion[i]), t_peak=float(times[i]),
        delay=None if t50 is None or t_source is None else t50 - t_source,
        rise_time=None if t10 is None or t90 is None else t90 - t10)


def measure_scenario(waves: WaveformSet, roles: dict[str, str]
                     ) -> dict[str, TraceMeasurement]:
    """The aggressor's signal and the victim's noise measurements, by role.

    ``roles`` maps "source", "aggressor", and "victim" to node labels
    (the stimulus entry node, the aggressor load node, and the victim
    load node). Both delays count from the source's own 50% time.
    """
    for role in ("source", "aggressor", "victim"):
        if role not in roles:
            raise ParameterError(f"missing role {role!r} "
                                 f"(got {sorted(roles)})")
    t = waves.times
    t_src = measure_trace(t, waves.trace(roles["source"]), "signal").delay
    return {"aggressor": measure_trace(t, waves.trace(roles["aggressor"]),
                                       "signal", t_src),
            "victim": measure_trace(t, waves.trace(roles["victim"]),
                                    "noise", t_src)}
