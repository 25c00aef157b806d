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

A ``LadderSpec`` is the one description of a ladder: its construction
checks the lines, couplings, terminations and taps and fills in each
default termination, so ``build_ladder`` checks only ``n_segments``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

from ._record import Record, field
from .errors import ParameterError, _echo

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


class LineSpec(Record):
    """One physical line: a name, its role, and its lumped totals."""

    name: str
    role: str
    r_total: float
    l_total: float
    c_total: float

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ParameterError(f"line name must be a string, "
                                 f"got {_echo(self.name)}")
        if self.role not in ROLES:
            raise ParameterError(f"line {self.name!r}: unknown role "
                                 f"{_echo(self.role)}")
        if not (math.isfinite(self.r_total) and self.r_total >= 0):
            raise ParameterError(f"line {self.name!r}: r_total must be >= 0")
        if not (math.isfinite(self.l_total) and self.l_total > 0):
            raise ParameterError(f"line {self.name!r}: l_total must be > 0")
        if not (math.isfinite(self.c_total) and self.c_total > 0):
            raise ParameterError(f"line {self.name!r}: c_total must be > 0")


class TerminationSpec(Record):
    """Driver resistance, what drives it, and the far-end load."""

    driver_resistance_ohm: float = STOCK_DRIVER_RESISTANCE_OHM
    source_ref: str = "stimulus"          # "stimulus" or "quiet" (0 V source)
    load_capacitance_f: float = STOCK_LOAD_CAPACITANCE_F

    def __post_init__(self) -> None:
        if not 0.0 < self.driver_resistance_ohm < math.inf:
            raise ParameterError(f"driver_resistance_ohm must be finite and "
                                 f"> 0, got {self.driver_resistance_ohm!r}")
        if not 0.0 <= self.load_capacitance_f < math.inf:
            raise ParameterError(f"load_capacitance_f must be finite and "
                                 f">= 0, got {self.load_capacitance_f!r}")
        if self.source_ref not in ("stimulus", "quiet"):
            raise ParameterError(f"source_ref must be 'stimulus' or 'quiet', "
                                 f"got {_echo(self.source_ref)}")


class TapSchedule(Record):
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
        if not (math.isfinite(self.tie_resistance_ohm)
                and self.tie_resistance_ohm >= 0):
            raise ParameterError(f"tie_resistance_ohm must be finite and >= 0, "
                                 f"got {self.tie_resistance_ohm!r}")


class LadderSpec(Record):
    """What build_ladder builds: lines, couplings, terminations, a tap
    schedule for the shield lines, and the scenario name.

    ``couplings`` maps line-name pairs, in either order, to dicts with
    optional ``m_total`` and ``cm_total`` entries (absent or zero means
    no coupling of that kind); it is stored with sorted pair keys, in
    key order. ``terminations`` is stored with an entry for every
    non-shield line: the one given, else the stock driver and load,
    driven by the stimulus for an aggressor and quiet for any other line.
    Both are stored read-only (``types.MappingProxyType``, each coupling
    entry too), so what construction checked is what build_ladder reads;
    ``spec.replace(...)`` makes a changed spec.

    Construction refuses, with a ParameterError, no lines, a line name
    used twice, a pair that does not name two distinct known lines or
    that is given twice, a coupling key other than those two, a value
    that is not finite, a negative ``cm_total``, a termination for an
    unknown line or a shield, and a tap schedule with no shield line.
    """

    lines: tuple[LineSpec, ...]
    couplings: Mapping[tuple[str, str], Mapping[str, float]] = field(
        default_factory=dict)
    terminations: Mapping[str, TerminationSpec] = field(default_factory=dict)
    taps: TapSchedule | None = None
    name: str = ""

    def __post_init__(self) -> None:
        lines = tuple(self.lines)
        if not lines:
            raise ParameterError("a ladder needs at least one line")
        roles = {ln.name: ln.role for ln in lines}
        if len(roles) != len(lines):
            raise ParameterError("line names must be unique")
        couplings: dict[tuple[str, str], dict] = {}
        for pair, entry in self.couplings.items():
            a, b = pair
            if a == b or a not in roles or b not in roles:
                raise ParameterError(f"coupling pair {pair!r} does not name "
                                     f"two distinct known lines")
            k = (a, b) if a < b else (b, a)
            if k in couplings:
                raise ParameterError(f"coupling pair {k} is given twice, "
                                     f"once in each order")
            unknown = set(entry) - {"m_total", "cm_total"}
            if unknown:
                raise ParameterError(f"coupling {k}: unknown keys "
                                     f"{sorted(unknown)}")
            couplings[k] = {kk: float(vv) for kk, vv in entry.items()}
            for kk, vv in couplings[k].items():
                if not math.isfinite(vv):
                    raise ParameterError(f"coupling {k}: {kk} must be "
                                         f"finite, got {vv!r}")
            if couplings[k].get("cm_total", 0.0) < 0:
                raise ParameterError(f"coupling {k}: cm_total must be >= 0, "
                                     f"got {couplings[k]['cm_total']!r}")
        for name in self.terminations:
            if name not in roles:
                raise ParameterError(f"termination names unknown line {name!r}")
            if roles[name] == "shield":
                raise ParameterError(f"line {name!r} is a shield; its ends "
                                     f"are ground ties, not terminations")
        if self.taps is not None and "shield" not in roles.values():
            raise ParameterError("a tap schedule needs a line with role shield")
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "couplings", MappingProxyType(
            {k: MappingProxyType(v) for k, v in sorted(couplings.items())}))
        object.__setattr__(self, "terminations", MappingProxyType({
            ln.name: self.terminations.get(ln.name) or TerminationSpec(
                source_ref="stimulus" if ln.role == "aggressor" else "quiet")
            for ln in lines if ln.role != "shield"}))


class Resistor(Record):
    name: str
    a: int
    b: int
    ohms: float


class Capacitor(Record):
    name: str
    a: int
    b: int
    farads: float


class Inductor(Record):
    """One ladder segment: L plus its series resistance on one branch."""

    name: str
    a: int
    b: int
    l_h: float
    r_series_ohm: float = 0.0


def split_names(ind: Inductor) -> tuple[str, str]:
    """The names an exported deck gives an inductor's series resistance:
    its R card and the internal node between R and L. "L<line>_<seg>"
    gives ("R<line>_<seg>", "<line>_m<seg>")."""
    label = ind.name[1:]
    line, _, seg = label.rpartition("_")
    return f"R{label}", f"{line}_m{seg}"


class Mutual(Record):
    name: str
    branch_i: int
    branch_j: int
    m_h: float


class VoltageSource(Record):
    """Ideal source holding one node at a known voltage.

    ``driven`` sources follow the run's stimulus; quiet ones stay at
    0 V (the quiet-line driver of the scenario presets).
    """

    name: str
    node: int
    driven: bool


class GroundTie(Record):
    """Shield end or tap connection to ground.

    With 0 ohms the node is merged with ground during assembly; with a
    positive resistance it is an ordinary resistor to ground.
    """

    name: str
    node: int
    ohms: float


class CoupledNetwork(Record):
    """Immutable element-level circuit produced by build_ladder. A node's
    id is its label's position in ``nodes`` (ground is "0" at 0); a
    branch's id is its inductor's position in ``inductors``.

    Construction refuses, with a ParameterError naming the element, any
    network that the engine and the exported deck could not both take:
    two elements with one name, a series-resistance card or internal
    node (``split_names``) whose name is taken, a reference past either
    tuple, a value that is not finite, a
    resistor not > 0, a tie below 0, an inductor with L not > 0 or a
    negative series resistance, a name or label that is empty or holds
    whitespace or a non-printable character, an element name whose first
    letter is not its card's (R for resistors and ties, C, L, K, V), a
    scenario name with a '/', '\\' or non-printable character, two
    sources on one node, a source on a 0-ohm-tied node, a capacitor on a
    source node, a mutual on one branch or a second one on a pair, an
    inductance matrix that is not positive definite, a loop of
    zero-resistance inductors, and a node with no DC path to ground."""

    nodes: tuple[str, ...]
    resistors: tuple[Resistor, ...]
    capacitors: tuple[Capacitor, ...]
    inductors: tuple[Inductor, ...]
    mutuals: tuple[Mutual, ...]
    sources: tuple[VoltageSource, ...]
    ties: tuple[GroundTie, ...]
    lines: tuple[LineSpec, ...]
    n_segments: int
    scenario: str = ""

    def __post_init__(self) -> None:
        if not self.nodes or self.nodes[0] != "0":
            raise ParameterError(f"node 0 must be ground, labeled '0'; got "
                                 f"{self.nodes[:1]!r}")
        split = [split_names(i) for i in self.inductors if i.r_series_ohm > 0]
        elements = (*self.sources, *self.resistors, *self.inductors,
                    *self.mutuals, *self.capacitors, *self.ties)
        for kind, names in (
                ("node label", [*self.nodes, *(mid for _, mid in split)]),
                ("element name", [*(e.name for e in elements),
                                  *(card for card, _ in split)])):
            if len(set(names)) < len(names):
                dups = sorted({x for x in names if names.count(x) > 1})
                raise ParameterError(
                    f"duplicate {kind}(s) {dups}; a deck adds split_names(L) "
                    f"for each inductor L with a series resistance")
        n_nodes, n_branches = len(self.nodes), len(self.inductors)
        for e in (*self.resistors, *self.capacitors, *self.inductors):
            if not (0 <= e.a < n_nodes and 0 <= e.b < n_nodes):
                bad = [i for i in (e.a, e.b) if not 0 <= i < n_nodes]
                raise ParameterError(f"{e.name} references missing node(s) {bad}")
        for e in (*self.sources, *self.ties):
            if not 0 <= e.node < n_nodes:
                raise ParameterError(f"{e.name} references missing node(s) "
                                     f"[{e.node}]")
        for m in self.mutuals:
            if not (0 <= m.branch_i < n_branches and 0 <= m.branch_j < n_branches):
                raise ParameterError(f"{m.name} references a missing branch")
        for r in self.resistors:
            if not 0.0 < r.ohms < math.inf:
                raise ParameterError(f"{r.name}: resistance must be finite "
                                     f"and > 0, got {r.ohms!r}")
        for t in self.ties:
            if not 0.0 <= t.ohms < math.inf:
                raise ParameterError(f"{t.name}: tie resistance must be "
                                     f"finite and >= 0, got {t.ohms!r}")
        for c in self.capacitors:
            if not math.isfinite(c.farads):
                raise ParameterError(f"{c.name}: capacitance must be "
                                     f"finite, got {c.farads!r}")
        for ind in self.inductors:
            # the deck drops a series resistance that is not > 0
            if not (0.0 < ind.l_h < math.inf
                    and 0.0 <= ind.r_series_ohm < math.inf):
                raise ParameterError(
                    f"{ind.name}: needs finite l_h > 0 and r_series_ohm "
                    f">= 0, got {ind.l_h!r} and {ind.r_series_ohm!r}")
        for kind, names in (("node label", self.nodes),
                            ("element name", [e.name for e in elements])):
            for name in names:
                if not (isinstance(name, str) and name.isprintable()
                        and name and " " not in name):
                    raise ParameterError(
                        f"{kind} {name!r} is empty or holds whitespace or "
                        f"a non-printable character; a deck card cannot "
                        f"carry it")
        for letter, group in (("R", (*self.resistors, *self.ties)),
                              ("C", self.capacitors), ("L", self.inductors),
                              ("K", self.mutuals), ("V", self.sources)):
            for e in group:
                if e.name[0].upper() != letter:
                    raise ParameterError(f"{e.name}: a deck reads the card "
                                         f"type from the first letter, which "
                                         f"must be {letter} here")
        if not (isinstance(self.scenario, str) and self.scenario.isprintable()
                and "/" not in self.scenario and "\\" not in self.scenario):
            raise ParameterError(
                f"scenario name {self.scenario!r} names the output files and "
                f"the deck title, so it may hold no '/', '\\' or "
                f"non-printable character")

        tied = {GROUND} | {t.node for t in self.ties if t.ohms == 0.0}
        held: set[int] = set()
        for s in self.sources:
            if s.node in held:
                raise ParameterError(f"{s.name}: two sources drive node "
                                     f"{self.nodes[s.node]!r}")
            if s.node in tied:
                raise ParameterError(f"source {s.name} drives a ground-tied node")
            held.add(s.node)
        for c in self.capacitors:
            if c.a in held or c.b in held:
                raise ParameterError(
                    f"{c.name} connects to source node; its equation would "
                    f"need the source-voltage derivative, which this "
                    f"formulation does not carry. Put a resistor between.")

        _check_inductance(self.inductors, self.mutuals)

        # ground, 0-ohm-tied and source nodes hold known voltages, so a
        # zero-resistance inductor between two of them closes a loop
        parent = list(range(n_nodes))
        for nid in tied | held:
            parent[nid] = GROUND
        for ind in self.inductors:
            if ind.r_series_ohm == 0.0:
                a, b = _root(parent, ind.a), _root(parent, ind.b)
                if a == b:
                    raise ParameterError(
                        f"{ind.name} closes a loop of zero-resistance "
                        f"inductors, whose DC current nothing sets")
                parent[a] = b
        for a, b in (*((r.a, r.b) for r in self.resistors),
                     *((i.a, i.b) for i in self.inductors),
                     *((t.node, GROUND) for t in self.ties)):
            parent[_root(parent, a)] = _root(parent, b)
        ground = _root(parent, GROUND)
        floating = [self.nodes[i] for i in range(1, n_nodes)
                    if _root(parent, i) != ground]
        if floating:
            raise ParameterError(f"no DC path to ground from: "
                                 f"{', '.join(floating)}")


def _check_inductance(inductors: tuple[Inductor, ...],
                      mutuals: tuple[Mutual, ...]) -> None:
    """Refuse, by name, a mutual on one branch, a second mutual on a
    branch pair, a pair whose |k| is not < 1, and a branch inductance
    matrix, summed the way assemble stamps it, that is not positive
    definite.

    Two branches that no chain of mutuals joins share no entry, so the
    matrix is positive definite when the block of each group of joined
    branches is, and each block is factored on its own, in plain Python.
    A preset block is at most 3 x 3; a block of b branches costs about
    b^3 / 6 multiply-adds, some 4 ms at 48 branches and 55 ms at 144.
    """
    l_h = [ind.l_h for ind in inductors]
    coupled: dict[frozenset, str] = {}
    group = list(range(len(l_h)))
    for m in mutuals:
        i, j = m.branch_i, m.branch_j
        pair = frozenset((i, j))
        if len(pair) == 1:
            raise ParameterError(f"{m.name} couples {inductors[i].name} "
                                 f"with itself")
        if pair in coupled:
            raise ParameterError(
                f"{m.name} couples {inductors[i].name} and "
                f"{inductors[j].name}, which {coupled[pair]} already couples")
        coupled[pair] = m.name
        k = abs(m.m_h) / math.sqrt(l_h[i] * l_h[j])
        if not k < 1.0:
            raise ParameterError(
                f"{m.name}: |M|/sqrt(Li*Lj) = {k:.4g} is not < 1, the "
                f"inductance matrix is not positive definite")
        group[_root(group, i)] = _root(group, j)
    blocks: dict[int, list[Mutual]] = {}
    for m in mutuals:
        blocks.setdefault(_root(group, m.branch_i), []).append(m)
    for block_ms in blocks.values():
        at = {b: k for k, b in enumerate(sorted(
            {b for m in block_ms for b in (m.branch_i, m.branch_j)}))}
        block = [[0.0] * len(at) for _ in at]
        for b, k in at.items():
            block[k][k] = l_h[b]
        for m in block_ms:
            i, j = at[m.branch_i], at[m.branch_j]
            block[i][j] = block[j][i] = m.m_h
        if not _positive_definite(block):
            raise ParameterError(
                "branch inductance matrix is not positive definite; "
                "mutuals: " + ", ".join(m.name for m in mutuals))


def _positive_definite(a: list[list[float]]) -> bool:
    """Whether the symmetric matrix ``a`` has a Cholesky factor: every
    pivot of the row-by-row factorization is > 0."""
    factor: list[list[float]] = []
    for i, row in enumerate(a):
        li: list[float] = []
        for j, lj in enumerate(factor):
            # li holds j entries here, so zip pairs the first j of each
            li.append((row[j] - sum(x * y for x, y in zip(li, lj))) / lj[j])
        pivot = row[i] - sum(x * x for x in li)
        if not pivot > 0.0:
            return False
        li.append(math.sqrt(pivot))
        factor.append(li)
    return True


def _root(parent: list[int], i: int) -> int:
    """Union-find root of i, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _tap_segment(fraction: float, n_segments: int) -> int:
    """Map a tap fraction onto a segment boundary, exactly or not at all."""
    pos = fraction * n_segments
    seg = int(round(pos))
    if abs(pos - seg) > 1e-9 or not 0 < seg < n_segments:
        from fractions import Fraction

        frac = Fraction(fraction).limit_denominator(10 ** 6)
        q = frac.denominator
        suggestion = q * max(1, round(n_segments / q))
        raise ParameterError(
            f"tap at fraction {fraction} falls between nodes for "
            f"n_segments={n_segments}; use a multiple of {q} "
            f"(for example n_segments={suggestion})")
    return seg


def _source_label(line: str) -> str:
    """The label of a non-shield line's source node."""
    return f"{line}_src"


def _segment_label(line: str, k: int) -> str:
    """The label of a line's node k: its near end at 0, far end at n."""
    return f"{line}_{k}"


def build_ladder(spec: LadderSpec, n_segments: int = 12) -> CoupledNetwork:
    """The segmented network a LadderSpec describes, ``n_segments``
    segments per line, named after the spec."""
    if not (isinstance(n_segments, int) and n_segments >= 1):
        raise ParameterError(f"n_segments must be an integer >= 1, got {n_segments!r}")

    nodes: list[str] = ["0"]
    resistors: list[Resistor] = []
    capacitors: list[Capacitor] = []
    inductors: list[Inductor] = []
    mutuals: list[Mutual] = []
    sources: list[VoltageSource] = []
    ties: list[GroundTie] = []
    # per line: its node ids from end 0 to end n, and its branch ids
    line_nodes: dict[str, range] = {}
    line_branches: dict[str, range] = {}

    for ln in spec.lines:
        if ln.role != "shield":
            src = len(nodes)
            nodes.append(_source_label(ln.name))
            term = spec.terminations[ln.name]
            sources.append(VoltageSource(f"V{ln.name}", src,
                                         driven=term.source_ref == "stimulus"))
        first = len(nodes)
        nodes.extend(_segment_label(ln.name, k) for k in range(n_segments + 1))
        seg_nodes = line_nodes[ln.name] = range(first, len(nodes))
        if ln.role != "shield":
            resistors.append(Resistor(f"Rdrv_{ln.name}", src, seg_nodes[0],
                                      term.driver_resistance_ohm))
            if term.load_capacitance_f > 0:
                capacitors.append(Capacitor(f"Cload_{ln.name}", seg_nodes[-1], GROUND,
                                            term.load_capacitance_f))
        line_branches[ln.name] = range(len(inductors), len(inductors) + n_segments)
        for k in range(1, n_segments + 1):
            inductors.append(Inductor(f"L{ln.name}_{k}",
                                      seg_nodes[k - 1], seg_nodes[k],
                                      ln.l_total / n_segments,
                                      ln.r_total / n_segments))
            capacitors.append(Capacitor(f"C{ln.name}_{k}", seg_nodes[k], GROUND,
                                        ln.c_total / n_segments))
        if ln.role == "shield":
            # two taps on one node make two ties of one name, which the
            # network's construction check refuses
            taps = spec.taps or TapSchedule()
            for seg in (0, *(_tap_segment(f, n_segments) for f in taps.fractions),
                        n_segments):
                ties.append(GroundTie(f"Rtie_{ln.name}_{seg}", seg_nodes[seg],
                                      taps.tie_resistance_ohm))

    for (a, b), entry in spec.couplings.items():
        cm = entry.get("cm_total", 0.0)
        if cm:
            for k in range(1, n_segments + 1):
                capacitors.append(Capacitor(
                    f"Cc{a}_{b}_{k}",
                    line_nodes[a][k], line_nodes[b][k],
                    cm / n_segments))
        m = entry.get("m_total", 0.0)
        if m:
            for k, (i, j) in enumerate(zip(line_branches[a], line_branches[b]),
                                       start=1):
                mutuals.append(Mutual(f"K{a}_{b}_{k}", i, j, m / n_segments))

    return CoupledNetwork(
        nodes=tuple(nodes), resistors=tuple(resistors),
        capacitors=tuple(capacitors), inductors=tuple(inductors),
        mutuals=tuple(mutuals), sources=tuple(sources), ties=tuple(ties),
        lines=spec.lines, n_segments=n_segments, scenario=spec.name,
    )


def end_labels(network: CoupledNetwork) -> tuple[str, ...]:
    """Source plus far-end node labels of every line (the 'ends' set);
    a shield line has no source."""
    labels = []
    for ln in network.lines:
        if ln.role != "shield":
            labels.append(_source_label(ln.name))
        labels.append(_segment_label(ln.name, network.n_segments))
    return tuple(labels)


def measured_nodes(network: CoupledNetwork) -> dict[str, str]:
    """The node labels the measurements read, by role: the aggressor's
    source ("source") and far end ("aggressor") and the victim's far end
    ("victim"); empty when the layout has not exactly one aggressor and
    one victim line."""
    agg = [ln.name for ln in network.lines if ln.role == "aggressor"]
    vic = [ln.name for ln in network.lines if ln.role == "victim"]
    if len(agg) != 1 or len(vic) != 1:
        return {}
    n = network.n_segments
    return {"source": _source_label(agg[0]),
            "aggressor": _segment_label(agg[0], n),
            "victim": _segment_label(vic[0], n)}


def _signal_line(name: str, role: str) -> LineSpec:
    return LineSpec(name=name, role=role,
                    r_total=STOCK_LINE_RESISTANCE_OHM,
                    l_total=STOCK_LINE_INDUCTANCE_H,
                    c_total=STOCK_LINE_CAPACITANCE_F)


def preset_tables(name: str, tap_count: int | None = None,
                  tie_resistance_ohm: float = 0.0) -> LadderSpec:
    """The LadderSpec of a named preset, named after it.

    "no-shield": aggressor and victim side by side, full direct coupling.
    "shield": a grounded shield line between them; the direct coupling
    capacitance disappears while the direct mutual inductance remains.
    "shield-3taps": the shield additionally grounded at 1/4, 1/2, 3/4.

    ``tap_count`` overrides the interior tap count of the shielded
    presets, placed uniformly at i/(tap_count+1); the default is the
    preset's own (0 for "shield", 3 for "shield-3taps").
    """
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown scenario preset {_echo(name)}; "
                             f"choose one of {', '.join(PRESET_NAMES)}")
    if tap_count is None:
        tap_count = 3 if name == "shield-3taps" else 0
    if tap_count < 0:
        raise ParameterError("tap count must be >= 0")
    taps = TapSchedule(fractions=tuple(i / (tap_count + 1)
                                       for i in range(1, tap_count + 1)),
                       tie_resistance_ohm=tie_resistance_ohm)
    agg = _signal_line("aggressor", "aggressor")
    vic = _signal_line("victim", "victim")
    if name == "no-shield":
        # a schedule other than the empty one asks for a shield
        return LadderSpec((agg, vic), {("aggressor", "victim"): {
            "m_total": STOCK_MUTUAL_ADJACENT_H,
            "cm_total": STOCK_COUPLING_CAP_ADJACENT_F,
        }}, taps=None if taps == TapSchedule() else taps, name=name)
    return LadderSpec((agg, _signal_line("shield", "shield"), vic), {
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
    }, taps=taps, name=name)
