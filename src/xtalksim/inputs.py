"""The plain-data inputs of a run: the drive waveform and the window.

``Stimulus``, ``smooth_edge``, ``SimConfig``, ``METHODS`` and
``STEP_EDGE_S`` live here, apart from the engine, so that a command
which only describes a circuit (``extract``, ``export-netlist``) reads
them without importing numpy.
``BLOCK_STEPS`` sits here too, since ``config`` sizes a run with it.
``Stimulus.values`` is the one numeric reader, and it imports numpy on
its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

# typing.TYPE_CHECKING without importing typing, which no command needs
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

METHODS = {"trapezoidal": 0.5, "backward-euler": 1.0}

# Steps per block of the engine's lifted recurrence. A run takes
# min(BLOCK_STEPS, steps // unknowns), so the lifted operator is never
# larger than the traces it fills, and steps one at a time below 2.
BLOCK_STEPS = 48


# Width of a step's edge. A PWL card needs an edge of nonzero width,
# and 1 fs is far below any sample interval in use.
STEP_EDGE_S = 1e-15


@dataclass(frozen=True)
class Stimulus:
    """Drive waveform for the driven sources of a network.

    Every drive is piecewise linear: the (time, value) ``points`` are
    interpolated linearly, scaled by ``amplitude_v`` and shifted by
    ``delay_s``, holding the first/last value outside the covered span.
    The shifted times ``delay_s + t`` must strictly increase too.
    A step is the edge ``((0, 0), (STEP_EDGE_S, 1))``, so the engine and
    an exported deck read the same breakpoints.
    """

    points: tuple[tuple[float, float], ...]
    amplitude_v: float = 1.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude_v):
            raise ParameterError("stimulus amplitude must be finite")
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
        # in doubles a large delay can round two close times to one, and
        # the deck's card would then drop a breakpoint the engine keeps
        for (t1, _), (t2, _) in zip(pts, pts[1:]):
            if not self.delay_s + t1 < self.delay_s + t2:
                raise ParameterError(
                    f"stimulus delay_s={self.delay_s!r} merges the breakpoints "
                    f"at t={t1!r} and t={t2!r}: both fall at "
                    f"{self.delay_s + t2!r} s")

    def values(self, times: np.ndarray) -> np.ndarray:
        """Waveform sampled at the given times (vectorized), interpolated
        between the shifted breakpoints ``delay_s + t`` that a deck's PWL
        card prints, so no shifted copy of the times is made."""
        import numpy as np

        tk, vk = np.array(self.points).T
        v = np.interp(times, tk + self.delay_s, vk)
        v *= self.amplitude_v
        return v


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


@dataclass(frozen=True)
class SimConfig:
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
            raise ParameterError(f"unknown method {self.method!r}; "
                                 f"choose one of {', '.join(METHODS)}")
        if self.output_nodes != "all":
            object.__setattr__(self, "output_nodes",
                               tuple(str(x) for x in self.output_nodes))
