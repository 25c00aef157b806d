"""The plain-data inputs of a run: the drive waveform and the window.

``Stimulus``, ``smooth_edge``, ``SimConfig``, ``METHODS`` and
``STEP_EDGE_S`` live here, apart from the engine, so that a command
which only describes a circuit (``extract``, ``export-netlist``) reads
them without importing numpy.
``run_footprint`` sits here too, since ``config`` sizes a run with it.
``Stimulus.breakpoints`` is the one reading of a drive, and
``Stimulus.values`` imports numpy on its first call.
"""

from __future__ import annotations

import functools
import math

from ._record import Record
from .errors import ParameterError, _echo

# typing.TYPE_CHECKING without importing typing, which no command needs
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

METHODS = {"trapezoidal": 0.5, "backward-euler": 1.0}

# Steps per block of the engine's lifted recurrence. A run takes
# block_length(steps, unknowns), so the lifted operator is never larger
# than the traces it fills, and steps one at a time below 2.
BLOCK_STEPS = 48


def block_length(steps, n, most=BLOCK_STEPS):
    """m = min(most, steps // n) for ``steps`` steps over ``n`` unknowns
    (0 counts as 1), ints for the engine, floats for run_footprint."""
    return min(most, steps // max(n, 1))


def run_footprint(n_lines: int, n_segments: float, steps: float,
                  kept: float | None, samples: float) -> tuple[dict, dict]:
    """What a run holds, in bytes, as (phases, bound), for at most
    n = n_lines (2 n_segments + 2) unknowns, ``kept`` of them stored (None:
    all), in floats, so a huge input gives inf, never NaN. ``phases`` holds
    each phase's peak in run order: the stimulus build, 256 bytes a
    breakpoint; the preparation, G and C stamped n_lines + 1 wider,
    C/dt + theta G, the right-hand side, 32-row temporaries and labels (its
    solves hold no more, LAPACK's copies counted); the lifted operators:
    P and q beside the larger of P^m's build, three n x n products, and
    what is built after it, P^m, L of (n + m) m kept doubles for
    m = block_length(steps, n), Q_m, a chunk of 32 blocks and two blocks
    of rows of P^i; the stepping: P, P^m, L, Q_m, a chunk and the traces;
    the result: the traces, time axis and drive. ``bound`` is what resolve
    refuses on, by the config field each term grows with: five n x n
    arrays, the arrays of the run's length and L, and the stimulus."""
    n = n_lines * (2.0 * max(n_segments, 1) + 2)
    kept = n if kept is None else float(kept)
    m = block_length(steps, n)
    L = (n + m) * m * kept if m else 0.0         # never inf * 0
    work = n * m + 32 * (2 * n + 6 * m + m * kept / 8) if m else 0.0
    w = n + n_lines + 1                 # stamping width; no ** overflows
    doubles = {"preparation": 2 * w * w + 2 * n * n + 80 * n,
               "lifted": n * n + n + max(3 * n * n,
                                         n * n + L + work + 2 * kept * n),
               "stepping": 2 * n * n + n + L + work + (steps + 1) * kept,
               "result": (steps + 1) * (kept + 2)}
    stimulus = 256.0 * (samples + 1)
    return ({"stimulus": stimulus, **{k: 8 * v for k, v in doubles.items()}},
            {"sim.n_segments": 40.0 * n * n,
             "sim.dt": 8.0 * ((steps + 1) * (kept + 2) + L),
             "stimulus.samples": stimulus})


# Width of a step's edge. A PWL card needs an edge of nonzero width,
# and 1 fs is far below any sample interval in use.
STEP_EDGE_S = 1e-15


class Stimulus(Record):
    """Drive waveform for the driven sources of a network.

    Every drive is piecewise linear: its ``breakpoints``, the (delay_s + t,
    amplitude_v * v) pairs of the (time, value) ``points``, made once, are
    interpolated linearly, holding the first/last value outside their span;
    each is finite, and their times strictly increase. The engine, a deck's
    PWL card and the window check read them. A step is
    ``((0, 0), (STEP_EDGE_S, 1))``.
    """

    points: tuple[tuple[float, float], ...]
    amplitude_v: float = 1.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude_v):
            raise ParameterError(f"stimulus amplitude_v must be finite, "
                                 f"got {self.amplitude_v!r}")
        if not math.isfinite(self.delay_s):
            raise ParameterError(f"stimulus delay_s must be finite, "
                                 f"got {self.delay_s!r}")
        if not self.points or len(self.points) < 2:
            raise ParameterError("pwl stimulus needs at least two points")
        pts = tuple((float(t), float(v)) for t, v in self.points)
        object.__setattr__(self, "points", pts)
        if any(t2 <= t1 for (t1, _), (t2, _) in zip(pts, pts[1:])):
            raise ParameterError("pwl point times must be strictly increasing")
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in pts):
            raise ParameterError("pwl points must be finite")
        bp = tuple((self.delay_s + t, self.amplitude_v * v) for t, v in pts)
        object.__setattr__(self, "breakpoints", bp)
        for (t, v), (s, w) in zip(pts, bp):
            if not (math.isfinite(s) and math.isfinite(w)):
                field = "amplitude_v" if math.isfinite(s) else "delay_s"
                raise ParameterError(
                    f"stimulus {field}={getattr(self, field)!r} takes the point "
                    f"({t!r}, {v!r}) to ({s!r}, {w!r}), past the largest float")
        # in doubles a large delay can round two close times to one, and
        # the deck's card would then drop a breakpoint the engine keeps
        for (t1, _), (t2, _), (s1, _), (s2, _) in zip(pts, pts[1:], bp, bp[1:]):
            if not s1 < s2:
                raise ParameterError(
                    f"stimulus delay_s={self.delay_s!r} merges the breakpoints "
                    f"at t={t1!r} and t={t2!r}: both fall at {s2!r} s")

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return tuple(np.array(tuple(zip(*self.breakpoints))))

    def values(self, times: np.ndarray) -> np.ndarray:
        """Waveform sampled at the given times (vectorized), interpolated
        between the breakpoints, whose arrays are built on the first call."""
        import numpy as np

        return np.interp(times, *self._arrays)


def smooth_edge(rise_time_s: float, amplitude_v: float = 1.0,
                delay_s: float = 0.0, samples: int = 64) -> Stimulus:
    """Smooth 0-to-amplitude edge as a piecewise-linear stimulus.

    Samples the S-curve 3s^2 - 2s^3 over the rise. A plain ramp has
    slope discontinuities at both corners which ring the artificial
    cutoff resonance of a lumped ladder; that ringing does not converge
    away with more segments, so small difference signals (shielded
    victim noise) keep shifting as n grows. The smooth edge carries
    negligible energy at those frequencies and makes peak readings
    stable under segment-count refinement.

    The s grid is ``numpy.linspace(0, 1, samples + 1)``'s, i * (1 /
    samples) with an exact 1 at the end, so at the default 64 samples
    (every s a multiple of 2^-6) each point equals the numpy curve's.
    """
    if not rise_time_s > 0:
        raise ParameterError("smooth_edge needs a positive rise time")
    if samples < 2:
        raise ParameterError("smooth_edge needs at least 2 samples")
    step = 1.0 / samples
    s = [i * step for i in range(samples)] + [1.0]
    pts = tuple((rise_time_s * si, 3.0 * (si * si) - 2.0 * si ** 3)
                for si in s)
    return Stimulus(pts, amplitude_v, delay_s)


class SimConfig(Record):
    dt: float
    t_end: float
    method: str = "trapezoidal"
    output_nodes: str | tuple[str, ...] = "all"

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < self.t_end and math.isfinite(self.t_end)):
            raise ParameterError(f"need 0 < dt < t_end, got dt={self.dt!r} "
                                 f"t_end={self.t_end!r}")
        # the run takes whole steps while the deck's .tran and the summary
        # report t_end, so a window of part steps would end off t_end
        steps = self.t_end / self.dt
        if not (math.isfinite(steps)
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ParameterError(f"t_end={self.t_end!r} is not a whole number "
                                 f"of dt={self.dt!r} steps ({steps:.9g})")
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {_echo(self.method)}; "
                                 f"choose one of {', '.join(METHODS)}")
        if self.output_nodes != "all":      # each label a string, kept once
            nodes = tuple(self.output_nodes)
            for i, label in enumerate(nodes):
                if not isinstance(label, str):
                    raise ParameterError(f"output_nodes[{i}] must be a "
                                         f"string, got {_echo(label)}")
            object.__setattr__(self, "output_nodes",
                               tuple(dict.fromkeys(nodes)))
