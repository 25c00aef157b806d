"""SPICE-dialect netlist export for external cross-validation.

Targets the classic card subset (R/L/C/K/V, .tran, .end) that any
mainstream simulator reads. Mutual inductance is emitted as K cards
with the coupling coefficient k = M / sqrt(L_i * L_j), which is below 1
for every CoupledNetwork (its construction check refuses the rest, as
no passive deck represents them). Ideal (0 ohm) shield ground ties become
tiny 1e-9 ohm resistors so dialects that reject zero-resistance loops
still accept the deck.

Each ladder segment's series resistance is split back out of its
inductor branch into a separate R card through an internal node named
``<line>_m<seg>`` (``network.split_names``, whose names the network's
construction check keeps free); every node label that appears in a
WaveformSet appears verbatim in the deck, with ground as node 0.

A driven source's PWL card is the stimulus breakpoints shifted and
scaled: the waveform the engine samples, a step's STEP_EDGE_S edge too.
Its times print at 9 significant digits, and in full where 9 digits
would print a time equal to a neighbour's.

Output is byte-stable: the same network, stimulus, and sim config
always serialize to the identical text.
"""

from __future__ import annotations

import math

from .inputs import SimConfig, Stimulus
from .network import CoupledNetwork, split_names

TIE_OHMS_FLOOR = 1e-9


def _f(x: float) -> str:
    return f"{x:.9g}"


def _pwl_points(stimulus: Stimulus) -> list[tuple[float, float]]:
    """Breakpoints of the source voltage as a PWL card understands them
    (value held flat after the last point)."""
    pts = [(stimulus.delay_s + t, stimulus.amplitude_v * v)
           for t, v in stimulus.points]
    if pts[0][0] > 0.0:
        pts.insert(0, (0.0, pts[0][1]))
    out = []
    for t, v in pts:
        if out and t <= out[-1][0]:
            continue
        out.append((t, v))
    return out


def _pwl_card(stimulus: Stimulus) -> str:
    """PWL body: each time at 9 digits, or in full where 9 digits would
    print it equal to a neighbour's, so the card's times stay strictly
    increasing."""
    pts = _pwl_points(stimulus)
    short = [_f(t) for t, _ in pts]
    words = []
    for i, (t, v) in enumerate(pts):
        clash = short[i] in short[max(i - 1, 0):i] + short[i + 1:i + 2]
        words += [repr(t) if clash else short[i], _f(v)]
    return " ".join(words)


def export_netlist(network: CoupledNetwork, stimulus: Stimulus,
                   sim_config: SimConfig) -> str:
    """Serialize a network plus drive and analysis window to deck text."""
    title = network.scenario or "custom"
    name = network.nodes

    lines = [
        f"* coupled-interconnect ladder: {title}",
        f"* {network.n_segments} segments per line; series resistance split from",
        f"* each inductor branch through internal <line>_m<seg> nodes",
        f"* mutual coupling: K cards, k = M / sqrt(L_i * L_j)",
        f"* shield ground ties: explicit resistors, {_f(TIE_OHMS_FLOOR)} ohm floor",
        f"* node names match simulator waveform labels; ground is node 0",
    ]

    for src in network.sources:
        if src.driven:
            lines.append(f"{src.name} {name[src.node]} 0 "
                         f"PWL({_pwl_card(stimulus)})")
        else:
            lines.append(f"{src.name} {name[src.node]} 0 DC 0")

    for r in network.resistors:
        lines.append(f"{r.name} {name[r.a]} {name[r.b]} {_f(r.ohms)}")

    for ind in network.inductors:
        if ind.r_series_ohm > 0.0:
            card, mid = split_names(ind)
            lines.append(f"{card} {name[ind.a]} {mid} {_f(ind.r_series_ohm)}")
            lines.append(f"{ind.name} {mid} {name[ind.b]} {_f(ind.l_h)}")
        else:
            lines.append(f"{ind.name} {name[ind.a]} {name[ind.b]} {_f(ind.l_h)}")

    for m in network.mutuals:
        li = network.inductors[m.branch_i]
        lj = network.inductors[m.branch_j]
        k = m.m_h / math.sqrt(li.l_h * lj.l_h)
        lines.append(f"{m.name} {li.name} {lj.name} {_f(k)}")

    for c in network.capacitors:
        lines.append(f"{c.name} {name[c.a]} {name[c.b]} {_f(c.farads)}")

    for tie in network.ties:
        ohms = max(tie.ohms, TIE_OHMS_FLOOR)
        lines.append(f"{tie.name} {name[tie.node]} 0 {_f(ohms)}")

    lines.append(f".tran {_f(sim_config.dt)} {_f(sim_config.t_end)}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
