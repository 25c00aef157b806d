"""Distributed coupled-RLC ladder construction.

Turns per-line electrical totals into an explicit circuit: each line
becomes an n-segment ladder of series R-L sections (the series
resistance rides on the inductor branch, so a segment adds one node and
one branch), shunt capacitance C/n hangs at each segment's downstream
node, coupling capacitance Cm/n connects corresponding downstream nodes
of capacitively adjacent pairs, and mutual inductance M/n couples
aligned segment branches of every inductively coupled pair. Driven
lines get a voltage source behind a driver resistance and a load
capacitance at the far end; quiet lines get a 0 V source behind the
same driver resistance; shield lines get ground ties at both ends plus
any scheduled interior taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ParameterError

ROLES = ("aggressor", "victim", "shield")

# Stock element values used by the bundled scenario presets. Inductance
# and capacitance labels of the reference parameter set are read as
# plain SI here (see the extraction module's unit notes); these are the
# element values actually simulated.
STOCK_LINE_RESISTANCE_OHM = 500.0
STOCK_LINE_INDUCTANCE_H = 83.24e-6
STOCK_LINE_CAPACITANCE_F = 134.41e-12
STOCK_MUTUAL_ADJACENT_H = 8.21e-6         # signal-signal at the tight spacing
# signal-shield pairs; the shielded presets keep the aggressor-victim
# pair at STOCK_MUTUAL_ADJACENT_H
STOCK_MUTUAL_SHIELDED_H = 7.51e-6
STOCK_COUPLING_CAP_ADJACENT_F = 69.50e-12
STOCK_COUPLING_CAP_SHIELDED_F = 27.47e-12
STOCK_DRIVER_RESISTANCE_OHM = 82.76
STOCK_LOAD_CAPACITANCE_F = 76e-15

PRESET_NAMES = ("no-shield", "shield", "shield-3taps")

GROUND = 0


@dataclass(frozen=True)
class LineSpec:
    """One physical line: a name, its role, and its lumped totals."""

    name: str
    role: str
    r_total: float
    l_total: float
    c_total: float

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ParameterError(f"line {self.name!r}: unknown role {self.role!r}")
        if not (math.isfinite(self.r_total) and self.r_total >= 0):
            raise ParameterError(f"line {self.name!r}: r_total must be >= 0")
        if not (math.isfinite(self.l_total) and self.l_total > 0):
            raise ParameterError(f"line {self.name!r}: l_total must be > 0")
        if not (math.isfinite(self.c_total) and self.c_total > 0):
            raise ParameterError(f"line {self.name!r}: c_total must be > 0")


@dataclass(frozen=True)
class TerminationSpec:
    """Driver resistance, what drives it, and the far-end load."""

    driver_resistance_ohm: float = STOCK_DRIVER_RESISTANCE_OHM
    source_ref: str = "stimulus"          # "stimulus" or "quiet" (0 V source)
    load_capacitance_f: float = STOCK_LOAD_CAPACITANCE_F

    def __post_init__(self) -> None:
        if self.driver_resistance_ohm < 0:
            raise ParameterError("driver_resistance_ohm must be >= 0")
        if self.load_capacitance_f < 0:
            raise ParameterError("load_capacitance_f must be >= 0")
        if self.source_ref not in ("stimulus", "quiet"):
            raise ParameterError(f"source_ref must be 'stimulus' or 'quiet', "
                                 f"got {self.source_ref!r}")


@dataclass(frozen=True)
class TapSchedule:
    """Interior grounding points along a shield line.

    Fractions are positions in (0, 1); the shield's two ends are always
    tied to ground regardless of the schedule. A zero tie resistance is
    an ideal tie (the node is held at ground exactly).
    """

    fractions: tuple[float, ...] = ()
    tie_resistance_ohm: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        last = 0.0
        for f in self.fractions:
            if not 0.0 < f < 1.0:
                raise ParameterError(f"tap fraction {f} must lie strictly inside (0, 1)")
            if f <= last:
                raise ParameterError("tap fractions must be strictly increasing")
            last = f
        if self.tie_resistance_ohm < 0:
            raise ParameterError("tie_resistance_ohm must be >= 0")


def uniform_taps(count: int, tie_resistance_ohm: float = 0.0) -> TapSchedule:
    """count interior taps at i/(count+1), the uniform placement rule."""
    if count < 0:
        raise ParameterError("tap count must be >= 0")
    return TapSchedule(
        fractions=tuple(Fraction(i, count + 1) for i in range(1, count + 1)),
        tie_resistance_ohm=tie_resistance_ohm,
    )


@dataclass(frozen=True)
class Node:
    nid: int
    label: str
    line: str | None = None
    seg: int | None = None


@dataclass(frozen=True)
class Resistor:
    name: str
    a: int
    b: int
    ohms: float


@dataclass(frozen=True)
class Capacitor:
    name: str
    a: int
    b: int
    farads: float
    kind: str = "shunt"                   # shunt | coupling | load


@dataclass(frozen=True)
class Inductor:
    """One ladder segment: L plus its series resistance on one branch."""

    branch: int
    name: str
    a: int
    b: int
    l_h: float
    r_series_ohm: float = 0.0


@dataclass(frozen=True)
class Mutual:
    name: str
    branch_i: int
    branch_j: int
    m_h: float


@dataclass(frozen=True)
class VoltageSource:
    """Ideal source holding one node at a known voltage.

    ``driven`` sources follow the run's stimulus; quiet ones stay at
    0 V (the quiet-line driver of the scenario presets).
    """

    name: str
    node: int
    driven: bool


@dataclass(frozen=True)
class GroundTie:
    """Shield end or tap connection to ground.

    With 0 ohms the node is merged with ground during assembly; with a
    positive resistance it is an ordinary resistor to ground.
    """

    name: str
    node: int
    ohms: float


@dataclass(frozen=True)
class Finding:
    """One validation problem; ``elements`` names the offenders."""

    code: str
    message: str
    elements: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class CoupledNetwork:
    """Immutable element-level circuit produced by build_ladder."""

    nodes: tuple[Node, ...]
    resistors: tuple[Resistor, ...]
    capacitors: tuple[Capacitor, ...]
    inductors: tuple[Inductor, ...]
    mutuals: tuple[Mutual, ...]
    sources: tuple[VoltageSource, ...]
    ties: tuple[GroundTie, ...]
    lines: tuple[LineSpec, ...]
    n_segments: int
    scenario: str = ""
    node_ids: dict[str, int] = field(default_factory=dict)   # label -> id

    def label(self, nid: int) -> str:
        return self.nodes[nid].label

    def node(self, label: str) -> int:
        try:
            return self.node_ids[label]
        except KeyError:
            raise ParameterError(f"no node labeled {label!r} in this network") from None

    def line_node(self, line: str, seg: int) -> int:
        return self.node(f"{line}_{seg}")

    def line_by_role(self, role: str) -> LineSpec:
        matches = [ln for ln in self.lines if ln.role == role]
        if len(matches) != 1:
            raise ParameterError(
                f"expected exactly one {role!r} line, found {len(matches)}")
        return matches[0]

    def inductance_matrix(self) -> np.ndarray:
        """Branch inductance matrix (self on diagonal, mutual off)."""
        nb = len(self.inductors)
        L = np.zeros((nb, nb))
        for ind in self.inductors:
            L[ind.branch, ind.branch] = ind.l_h
        for m in self.mutuals:
            L[m.branch_i, m.branch_j] = m.m_h
            L[m.branch_j, m.branch_i] = m.m_h
        return L


def effective_terminations(lines: tuple[LineSpec, ...],
                           terminations: dict | None = None
                           ) -> dict[str, TerminationSpec]:
    """The termination of every non-shield line: its entry in
    ``terminations``, else the stock driver and load, driven by the
    stimulus for an aggressor and quiet for any other line. An entry
    for an unknown line or a shield raises ParameterError."""
    terminations = terminations or {}
    roles = {ln.name: ln.role for ln in lines}
    for name in terminations:
        if name not in roles:
            raise ParameterError(f"termination names unknown line {name!r}")
        if roles[name] == "shield":
            raise ParameterError(f"line {name!r} is a shield; its ends are "
                                 f"ground ties, not terminations")
    return {ln.name: terminations.get(ln.name) or TerminationSpec(
                source_ref="stimulus" if ln.role == "aggressor" else "quiet")
            for ln in lines if ln.role != "shield"}


def _tap_segment(fraction: float, n_segments: int) -> int:
    """Map a tap fraction onto a segment boundary, exactly or not at all."""
    pos = fraction * n_segments
    seg = int(round(pos))
    if abs(pos - seg) > 1e-9 or not 0 < seg < n_segments:
        frac = Fraction(fraction).limit_denominator(10 ** 6)
        q = frac.denominator
        suggestion = q * max(1, round(n_segments / q))
        raise ParameterError(
            f"tap at fraction {fraction} falls between nodes for "
            f"n_segments={n_segments}; use a multiple of {q} "
            f"(for example n_segments={suggestion})")
    return seg


def build_ladder(lines: list[LineSpec] | tuple[LineSpec, ...],
                 couplings: dict[tuple[str, str], dict] | None = None,
                 terminations: dict[str, TerminationSpec] | None = None,
                 taps: TapSchedule | None = None,
                 n_segments: int = 12,
                 scenario: str = "") -> CoupledNetwork:
    """Construct the segmented network for a set of coupled lines.

    ``couplings`` maps unordered line-name pairs to dicts with optional
    ``m_total`` and ``cm_total`` entries (absent or zero means no
    coupling of that kind for the pair). ``terminations`` supplies a
    TerminationSpec per non-shield line; missing entries default as in
    ``effective_terminations``. ``taps`` applies to shield lines.
    """
    lines = tuple(lines)
    if not lines:
        raise ParameterError("build_ladder needs at least one line")
    if len({ln.name for ln in lines}) != len(lines):
        raise ParameterError("line names must be unique")
    if not (isinstance(n_segments, int) and n_segments >= 1):
        raise ParameterError(f"n_segments must be an integer >= 1, got {n_segments!r}")

    names = {ln.name for ln in lines}
    couplings = couplings or {}
    norm: dict[tuple[str, str], dict] = {}
    for key, entry in couplings.items():
        a, b = key
        if a == b or a not in names or b not in names:
            raise ParameterError(f"coupling pair {key!r} does not name two distinct "
                                 f"known lines")
        k = (a, b) if a < b else (b, a)
        unknown = set(entry) - {"m_total", "cm_total"}
        if unknown:
            raise ParameterError(f"coupling {k}: unknown keys {sorted(unknown)}")
        norm[k] = {kk: float(vv) for kk, vv in entry.items()}

    terminations = effective_terminations(lines, terminations)

    shield_lines = [ln for ln in lines if ln.role == "shield"]
    if taps is not None and taps.fractions and not shield_lines:
        raise ParameterError("tap schedule given but the network has no shield line")

    nodes: list[Node] = [Node(GROUND, "0")]
    node_ids: dict[str, int] = {"0": GROUND}

    def add_node(label: str, line: str | None = None, seg: int | None = None) -> int:
        nid = len(nodes)
        nodes.append(Node(nid, label, line, seg))
        node_ids[label] = nid
        return nid

    resistors: list[Resistor] = []
    capacitors: list[Capacitor] = []
    inductors: list[Inductor] = []
    mutuals: list[Mutual] = []
    sources: list[VoltageSource] = []
    ties: list[GroundTie] = []
    branch_of: dict[tuple[str, int], int] = {}

    for ln in lines:
        seg_nodes = []
        if ln.role != "shield":
            src = add_node(f"{ln.name}_src", ln.name)
            term = terminations[ln.name]
            sources.append(VoltageSource(f"V{ln.name}", src,
                                         driven=term.source_ref == "stimulus"))
        for k in range(n_segments + 1):
            seg_nodes.append(add_node(f"{ln.name}_{k}", ln.name, k))
        if ln.role != "shield":
            resistors.append(Resistor(f"Rdrv_{ln.name}", src, seg_nodes[0],
                                      term.driver_resistance_ohm))
            if term.load_capacitance_f > 0:
                capacitors.append(Capacitor(f"Cload_{ln.name}", seg_nodes[-1], GROUND,
                                            term.load_capacitance_f, kind="load"))
        for k in range(1, n_segments + 1):
            branch = len(inductors)
            branch_of[(ln.name, k)] = branch
            inductors.append(Inductor(branch, f"L{ln.name}_{k}",
                                      seg_nodes[k - 1], seg_nodes[k],
                                      ln.l_total / n_segments,
                                      ln.r_total / n_segments))
            capacitors.append(Capacitor(f"C{ln.name}_{k}", seg_nodes[k], GROUND,
                                        ln.c_total / n_segments))
        if ln.role == "shield":
            tie_r = taps.tie_resistance_ohm if taps is not None else 0.0
            tie_segs = [0, n_segments]
            if taps is not None:
                tie_segs[1:1] = [_tap_segment(f, n_segments) for f in taps.fractions]
            seen = set()
            for seg in tie_segs:
                if seg in seen:
                    raise ParameterError(
                        f"two shield ties of {ln.name!r} land on the same node "
                        f"(segment {seg})")
                seen.add(seg)
                ties.append(GroundTie(f"Rtie_{ln.name}_{seg}", seg_nodes[seg], tie_r))

    for (a, b), entry in sorted(norm.items()):
        cm = entry.get("cm_total", 0.0)
        if cm:
            for k in range(1, n_segments + 1):
                capacitors.append(Capacitor(
                    f"Cc{a}_{b}_{k}",
                    node_ids[f"{a}_{k}"], node_ids[f"{b}_{k}"],
                    cm / n_segments, kind="coupling"))
        m = entry.get("m_total", 0.0)
        if m:
            for k in range(1, n_segments + 1):
                mutuals.append(Mutual(
                    f"K{a}_{b}_{k}",
                    branch_of[(a, k)], branch_of[(b, k)],
                    m / n_segments))

    net = CoupledNetwork(
        nodes=tuple(nodes), resistors=tuple(resistors),
        capacitors=tuple(capacitors), inductors=tuple(inductors),
        mutuals=tuple(mutuals), sources=tuple(sources), ties=tuple(ties),
        lines=lines, n_segments=n_segments, scenario=scenario,
        node_ids=node_ids,
    )
    findings = validate_network(net)
    if findings:
        raise ParameterError("built network fails validation: "
                             + "; ".join(str(f) for f in findings))
    return net


def validate_network(network: CoupledNetwork) -> list[Finding]:
    """Check structural invariants; returns findings instead of raising."""
    findings: list[Finding] = []
    n_nodes = len(network.nodes)
    n_branches = len(network.inductors)

    def check_ref(name: str, *nids: int) -> bool:
        bad = [i for i in nids if not 0 <= i < n_nodes]
        if bad:
            findings.append(Finding("bad-reference",
                                    f"{name} references missing node(s) {bad}",
                                    (name,)))
            return False
        return True

    for r in network.resistors:
        check_ref(r.name, r.a, r.b)
    for c in network.capacitors:
        check_ref(c.name, c.a, c.b)
    for ind in network.inductors:
        check_ref(ind.name, ind.a, ind.b)
    for s in network.sources:
        check_ref(s.name, s.node)
    for t in network.ties:
        check_ref(t.name, t.node)
    for m in network.mutuals:
        if not (0 <= m.branch_i < n_branches and 0 <= m.branch_j < n_branches):
            findings.append(Finding("bad-reference",
                                    f"{m.name} references a missing branch", (m.name,)))

    if not any(f.code == "bad-reference" for f in findings) and n_branches:
        L = network.inductance_matrix()
        # cheap per-pair screen first so the finding can name elements
        spd_named = False
        for m in network.mutuals:
            li = L[m.branch_i, m.branch_i]
            lj = L[m.branch_j, m.branch_j]
            if li > 0 and lj > 0 and abs(m.m_h) / math.sqrt(li * lj) >= 1.0:
                findings.append(Finding(
                    "inductance-not-spd",
                    f"{m.name}: |M|/sqrt(Li*Lj) = "
                    f"{abs(m.m_h) / math.sqrt(li * lj):.4g} >= 1",
                    (m.name,)))
                spd_named = True
        if not spd_named:
            try:
                np.linalg.cholesky(L)
            except np.linalg.LinAlgError:
                findings.append(Finding(
                    "inductance-not-spd",
                    "branch inductance matrix is not positive definite",
                    tuple(m.name for m in network.mutuals)))

    # DC reachability: every non-ground node must reach ground through
    # resistors, inductor branches, ties, or a voltage source.
    parent = list(range(n_nodes))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        if 0 <= i < n_nodes and 0 <= j < n_nodes:
            parent[find(i)] = find(j)

    for r in network.resistors:
        union(r.a, r.b)
    for ind in network.inductors:
        union(ind.a, ind.b)
    for t in network.ties:
        union(t.node, GROUND)
    for s in network.sources:
        union(s.node, GROUND)
    floating = [network.nodes[i].label for i in range(1, n_nodes)
                if find(i) != find(GROUND)]
    if floating:
        findings.append(Finding(
            "floating-node",
            f"no DC path to ground from: {', '.join(floating)}",
            tuple(floating)))
    return findings


def _signal_line(name: str, role: str) -> LineSpec:
    return LineSpec(name=name, role=role,
                    r_total=STOCK_LINE_RESISTANCE_OHM,
                    l_total=STOCK_LINE_INDUCTANCE_H,
                    c_total=STOCK_LINE_CAPACITANCE_F)


def preset_tables(name: str, tap_count: int | None = None,
                  tie_resistance_ohm: float = 0.0) -> dict:
    """build_ladder inputs (lines, couplings, taps) for a named preset.

    Split out of scenario_preset so sweeps can start from a preset's
    tables and perturb individual values before building.
    """
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown scenario preset {name!r}; "
                             f"choose one of {', '.join(PRESET_NAMES)}")
    agg = _signal_line("aggressor", "aggressor")
    vic = _signal_line("victim", "victim")
    if name == "no-shield":
        if tap_count:
            raise ParameterError("tap_count needs a shield; use a shielded preset")
        return {
            "lines": (agg, vic),
            "couplings": {("aggressor", "victim"): {
                "m_total": STOCK_MUTUAL_ADJACENT_H,
                "cm_total": STOCK_COUPLING_CAP_ADJACENT_F,
            }},
            "taps": None,
        }
    shield = _signal_line("shield", "shield")
    if tap_count is None:
        tap_count = 3 if name == "shield-3taps" else 0
    return {
        "lines": (agg, shield, vic),
        "couplings": {
            ("aggressor", "shield"): {
                "m_total": STOCK_MUTUAL_SHIELDED_H,
                "cm_total": STOCK_COUPLING_CAP_SHIELDED_F,
            },
            ("shield", "victim"): {
                "m_total": STOCK_MUTUAL_SHIELDED_H,
                "cm_total": STOCK_COUPLING_CAP_SHIELDED_F,
            },
            # the shield removes the direct coupling capacitance but the
            # signal-signal mutual inductance persists
            ("aggressor", "victim"): {"m_total": STOCK_MUTUAL_ADJACENT_H},
        },
        "taps": uniform_taps(tap_count, tie_resistance_ohm),
    }


def scenario_preset(name: str, n_segments: int = 12,
                    tie_resistance_ohm: float = 0.0,
                    tap_count: int | None = None) -> CoupledNetwork:
    """Build one of the three bundled comparison scenarios.

    "no-shield": aggressor and victim side by side, full direct coupling.
    "shield": a grounded shield line between them; the direct coupling
    capacitance disappears while the direct mutual inductance remains.
    "shield-3taps": the shield additionally grounded at 1/4, 1/2, 3/4.

    ``tap_count`` overrides the interior tap count of the shielded
    scenarios (uniform placement); the default is the scenario's own
    (0 for "shield", 3 for "shield-3taps").
    """
    tables = preset_tables(name, tap_count, tie_resistance_ohm)
    return build_ladder(n_segments=n_segments, scenario=name, **tables)
