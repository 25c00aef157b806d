"""Modified nodal analysis and implicit transient integration.

The unknown vector is [non-ground node voltages, inductor branch
currents]. Nodes held by an ideal voltage source are not unknowns:
their known voltage u(t) moves to the right-hand side through a source
injection matrix, so the system reads G x + C dx/dt = B u(t). Shield
nodes tied to ground through a 0-ohm tie are merged with ground during
assembly.

Each ladder segment's series resistance rides on its inductor branch
(the branch equation is v_a - v_b - R_s i - L di/dt - sum_j M_ij di_j/dt
= 0), which keeps the unknown count at one node plus one branch per
segment.

Integration is fixed-step implicit with theta = METHODS[method]: 1/2
(trapezoidal, the default) or 1 (backward Euler). The first step is
always backward Euler, to damp the spurious transient a discontinuous
source derivative would otherwise feed into the trapezoidal rule.
Driven sources all follow the one stimulus s(t) and quiet ones hold
0 V, so B u(t) = b s(t) and each step is the recurrence
x_{k+1} = P x_k + q ((1 - theta) s_k + theta s_{k+1}), where
P = (C/dt + theta G)^-1 (C/dt - (1 - theta) G) and
q = (C/dt + theta G)^-1 b are built once per run by one solve.

``sla`` is ``numpy.linalg``. Every LAPACK call of the engine goes through
this one name, which perfbench swaps for a counting proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, ParameterError, SolverError
from .network import GROUND, CoupledNetwork, validate_network


sla = np.linalg

METHODS = {"trapezoidal": 0.5, "backward-euler": 1.0}


@dataclass(frozen=True)
class Stimulus:
    """Drive waveform for the driven sources of a network.

    Kinds: ``step`` switches from 0 to amplitude just after ``delay_s``
    (the sample at exactly t = delay is still 0, which is also what the
    DC initial condition sees); ``ramp`` rises linearly over
    ``rise_time_s``; ``pwl`` interpolates the given (time, value) points
    linearly, scaled by ``amplitude_v`` and shifted by ``delay_s``,
    holding the first/last value outside the covered span.
    """

    kind: str = "ramp"
    amplitude_v: float = 1.0
    rise_time_s: float = 1e-9
    delay_s: float = 0.0
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("step", "ramp", "pwl"):
            raise ParameterError(f"unknown stimulus kind {self.kind!r}")
        if not math.isfinite(self.amplitude_v):
            raise ParameterError("stimulus amplitude must be finite")
        if not (math.isfinite(self.rise_time_s) and self.rise_time_s >= 0):
            raise ParameterError(f"stimulus rise_time_s must be finite and "
                                 f">= 0, got {self.rise_time_s!r}")
        if not math.isfinite(self.delay_s):
            raise ParameterError(f"stimulus delay_s must be finite, "
                                 f"got {self.delay_s!r}")
        if self.kind == "pwl":
            if not self.points or len(self.points) < 2:
                raise ParameterError("pwl stimulus needs at least two points")
            pts = tuple((float(t), float(v)) for t, v in self.points)
            object.__setattr__(self, "points", pts)
            times = [p[0] for p in pts]
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise ParameterError("pwl point times must be strictly increasing")
            if not all(math.isfinite(t) and math.isfinite(v) for t, v in pts):
                raise ParameterError("pwl points must be finite")
        elif self.points is not None:
            raise ParameterError(f"points are only valid for kind='pwl'")

    def values(self, times: np.ndarray) -> np.ndarray:
        """Waveform sampled at the given times (vectorized)."""
        t = np.asarray(times, dtype=float) - self.delay_s
        if self.kind == "step":
            return np.where(t > 0.0, self.amplitude_v, 0.0)
        if self.kind == "ramp":
            if self.rise_time_s == 0.0:
                return np.where(t > 0.0, self.amplitude_v, 0.0)
            return self.amplitude_v * np.clip(t / self.rise_time_s, 0.0, 1.0)
        tk = np.array([p[0] for p in self.points])
        vk = np.array([p[1] for p in self.points])
        return self.amplitude_v * np.interp(t, tk, vk)


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
    """
    if rise_time_s <= 0:
        raise ParameterError("smooth_edge needs a positive rise time")
    if samples < 2:
        raise ParameterError("smooth_edge needs at least 2 samples")
    s = np.linspace(0.0, 1.0, samples + 1)
    v = 3.0 * s ** 2 - 2.0 * s ** 3
    pts = tuple((float(rise_time_s * si), float(vi)) for si, vi in zip(s, v))
    return Stimulus(kind="pwl", amplitude_v=amplitude_v, delay_s=delay_s,
                    rise_time_s=rise_time_s, points=pts)


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
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}; "
                                 f"choose one of {', '.join(METHODS)}")
        if self.output_nodes != "all":
            object.__setattr__(self, "output_nodes",
                               tuple(str(x) for x in self.output_nodes))


@dataclass(frozen=True)
class WaveformSet:
    """Uniformly sampled traces from one transient run."""

    times: np.ndarray
    node_traces: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.times)
        for label, tr in list(self.node_traces.items()) + list(self.branch_currents.items()):
            if len(tr) != n:
                raise ParameterError(f"trace {label!r} length {len(tr)} != "
                                     f"time axis length {n}")
            if not np.all(np.isfinite(tr)):
                raise ParameterError(f"trace {label!r} contains non-finite samples")

    def trace(self, label: str) -> np.ndarray:
        try:
            return self.node_traces[label]
        except KeyError:
            raise ParameterError(f"no node trace labeled {label!r}") from None


@dataclass(frozen=True)
class MnaSystem:
    """Assembled descriptor: G x + C dx/dt = B u(t). Reusable across runs."""

    G: np.ndarray
    C: np.ndarray
    B: np.ndarray
    unknown_labels: tuple[str, ...]
    n_node_unknowns: int
    source_names: tuple[str, ...]
    source_driven: tuple[bool, ...]
    source_labels: tuple[str, ...]        # node labels of the source nodes
    grounded_labels: tuple[str, ...]      # labels merged with ground (0-ohm ties)
    branch_labels: tuple[str, ...]


def assemble(network: CoupledNetwork) -> MnaSystem:
    """Stamp the MNA matrices for a network.

    Raises AssemblyError when the structure cannot produce a solvable
    system (an unknown appears in no equation, or an element would need
    the derivative of a known source voltage).
    """
    aliased = {t.node for t in network.ties if t.ohms == 0.0}
    source_node = {}
    for s in network.sources:
        if s.node in source_node:
            raise AssemblyError(f"two sources drive node "
                                f"{network.label(s.node)!r}")
        if s.node in aliased:
            raise AssemblyError(f"source {s.name} drives a ground-tied node")
        source_node[s.node] = s

    kind: dict[int, tuple[str, int]] = {GROUND: ("gnd", 0)}
    for nid in aliased:
        kind[nid] = ("gnd", 0)
    sources = list(network.sources)
    for j, s in enumerate(sources):
        kind[s.node] = ("src", j)
    unknown_nodes = [nd.nid for nd in network.nodes
                     if nd.nid != GROUND and nd.nid not in kind]
    for i, nid in enumerate(unknown_nodes):
        kind[nid] = ("unk", i)

    nv = len(unknown_nodes)
    nb = len(network.inductors)
    n = nv + nb
    ns = len(sources)
    G = np.zeros((n, n))
    C = np.zeros((n, n))
    B = np.zeros((n, ns))

    def stamp_two_terminal(M: np.ndarray, a: int, b: int, val: float,
                           name: str, allow_source: bool) -> None:
        ka, kb = kind[a], kind[b]
        for (k1, k2) in ((ka, kb), (kb, ka)):
            if k1[0] != "unk":
                continue
            i = k1[1]
            M[i, i] += val
            if k2[0] == "unk":
                M[i, k2[1]] -= val
            elif k2[0] == "src":
                if not allow_source:
                    raise AssemblyError(
                        f"{name} connects to source node; its equation would "
                        f"need the source-voltage derivative, which this "
                        f"formulation does not carry. Put a resistor between.")
                B[i, k2[1]] += val
        if ka[0] == "src" and kb[0] == "src" and not allow_source:
            raise AssemblyError(f"{name} connects two source nodes")

    for r in network.resistors:
        if r.ohms <= 0:
            raise AssemblyError(f"{r.name}: resistor needs a positive value, "
                                f"got {r.ohms!r}")
        stamp_two_terminal(G, r.a, r.b, 1.0 / r.ohms, r.name, allow_source=True)
    for t in network.ties:
        if t.ohms > 0.0:
            stamp_two_terminal(G, t.node, GROUND, 1.0 / t.ohms, t.name,
                               allow_source=True)
    for c in network.capacitors:
        stamp_two_terminal(C, c.a, c.b, c.farads, c.name, allow_source=False)

    for ind in network.inductors:
        row = nv + ind.branch
        for node, sign in ((ind.a, 1.0), (ind.b, -1.0)):
            k = kind[node]
            if k[0] == "unk":
                G[k[1], row] += sign      # KCL: branch current into the node
                G[row, k[1]] += sign      # KVL: node voltage along the branch
            elif k[0] == "src":
                B[row, k[1]] -= sign      # known voltage goes to the RHS
        G[row, row] -= ind.r_series_ohm
        C[row, row] -= ind.l_h
    for m in network.mutuals:
        C[nv + m.branch_i, nv + m.branch_j] -= m.m_h
        C[nv + m.branch_j, nv + m.branch_i] -= m.m_h

    labels = tuple([network.label(nid) for nid in unknown_nodes]
                   + [ind.name for ind in network.inductors])
    # structural screen: an unknown with an all-zero row or column can
    # never be solved for; name it rather than failing inside LU
    zero_rows = ~(np.any(G != 0.0, axis=1) | np.any(C != 0.0, axis=1))
    zero_cols = ~(np.any(G != 0.0, axis=0) | np.any(C != 0.0, axis=0))
    bad = np.nonzero(zero_rows | zero_cols)[0]
    if bad.size:
        raise AssemblyError("structurally singular system; culprit: "
                            + ", ".join(labels[i] for i in bad))

    return MnaSystem(
        G=G, C=C, B=B, unknown_labels=labels, n_node_unknowns=nv,
        source_names=tuple(s.name for s in sources),
        source_driven=tuple(s.driven for s in sources),
        source_labels=tuple(network.label(s.node) for s in sources),
        grounded_labels=tuple(sorted(network.label(nid) for nid in aliased)),
        branch_labels=tuple(ind.name for ind in network.inductors),
    )


def _dc_solve(network: CoupledNetwork, sys: MnaSystem,
              rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs; a singular G names the floating nodes."""
    try:
        return sla.solve(sys.G, rhs)
    except sla.LinAlgError:
        where = "".join(f" ({f.message})" for f in validate_network(network)
                        if f.code == "floating-node")
        raise SolverError("singular DC system; a subnetwork floats with no "
                          "resistive path to ground" + where)


def dc_operating_point(network: CoupledNetwork,
                       source_values: dict[str, float] | None = None
                       ) -> dict[str, float]:
    """Resistive DC solution: capacitors open, inductors shorted.

    ``source_values`` maps source names to voltages; by default driven
    sources sit at 1 V and quiet ones at 0 V. Returns a voltage for
    every non-ground node label.
    """
    sys = assemble(network)
    u = np.array([1.0 if d else 0.0 for d in sys.source_driven])
    if source_values:
        for name, val in source_values.items():
            if name not in sys.source_names:
                raise ParameterError(f"unknown source {name!r}")
            u[sys.source_names.index(name)] = float(val)
    x = _dc_solve(network, sys, sys.B @ u)
    out = {lbl: float(x[i]) for i, lbl in
           enumerate(sys.unknown_labels[:sys.n_node_unknowns])}
    for lbl, val in zip(sys.source_labels, u):
        out[lbl] = float(val)
    for lbl in sys.grounded_labels:
        out[lbl] = 0.0
    return out


def _config_hash(network: CoupledNetwork, stimulus: Stimulus,
                 sim: SimConfig) -> str:
    import hashlib
    blob = "|".join((repr(network), repr(stimulus),
                     repr((sim.dt, sim.t_end, sim.method))))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _step_matrices(sys: MnaSystem, b: np.ndarray, dt: float,
                   theta: float) -> tuple[np.ndarray, np.ndarray]:
    """P and q of the theta-method step (see the module docstring)."""
    Cdt = sys.C / dt
    rhs = np.column_stack((Cdt - (1.0 - theta) * sys.G, b))
    try:
        Pq = sla.solve(Cdt + theta * sys.G, rhs)
    except sla.LinAlgError:
        raise SolverError(f"singular step matrix C/dt + theta G "
                          f"(theta={theta:g}, dt={dt:g} s)") from None
    if not np.isfinite(Pq).all():
        raise SolverError(f"non-finite step matrices P, q "
                          f"(theta={theta:g}, dt={dt:g} s)")
    return np.ascontiguousarray(Pq[:, :-1]), Pq[:, -1]


def run_transient(network: CoupledNetwork, stimulus: Stimulus,
                  sim: SimConfig) -> WaveformSet:
    """Integrate the network response to the stimulus.

    The initial condition is the DC solution with every source at its
    t = 0 value (0 for the step/ramp/pwl-from-zero presets). The first
    step is always backward Euler; subsequent steps use the configured
    method. Deterministic for fixed inputs. Only the unknowns behind the
    requested traces are stored, and the branch currents only with
    ``output_nodes="all"``.
    """
    sys = assemble(network)
    steps = int(round(sim.t_end / sim.dt))
    if steps < 1:
        raise ParameterError("t_end shorter than one timestep")

    nv = sys.n_node_unknowns
    unknown_of = {lbl: i for i, lbl in enumerate(sys.unknown_labels[:nv])}
    # every non-ground node is an unknown, a source node or tied to ground
    labels = [nd.label for nd in network.nodes if nd.nid != GROUND]
    branches = range(nv, len(sys.unknown_labels))
    if sim.output_nodes != "all":
        missing = [lbl for lbl in sim.output_nodes if lbl not in labels]
        if missing:
            raise ParameterError(f"output_nodes not in network: {missing}")
        labels, branches = list(dict.fromkeys(sim.output_nodes)), ()
    keep = np.array([unknown_of[lbl] for lbl in labels if lbl in unknown_of]
                    + list(branches), dtype=int)

    times = np.arange(steps + 1) * sim.dt
    drive = stimulus.values(times)
    b = sys.B @ np.array(sys.source_driven, dtype=float)
    x = _dc_solve(network, sys, b * drive[0])

    theta = METHODS[sim.method]
    first = _step_matrices(sys, b, sim.dt, 1.0)
    rest = first if theta == 1.0 else _step_matrices(sys, b, sim.dt, theta)
    w = (1.0 - theta) * drive[:-1] + theta * drive[1:]
    w[0] = drive[1]

    out = np.empty((steps + 1, len(keep)))
    out[0] = x[keep]
    for k in range(steps):
        P, q = first if k == 0 else rest
        x = P @ x + q * w[k]
        if not np.isfinite(x).all():
            raise SolverError(f"divergence: non-finite sample at "
                              f"t={times[k + 1]:.6g} s")
        out[k + 1] = x[keep]

    # out's columns: the kept node unknowns in label order, then branches
    columns = iter(out.T)
    driven = dict(zip(sys.source_labels, sys.source_driven))
    zeros = np.zeros(steps + 1)
    node_traces = {lbl: next(columns) if lbl in unknown_of
                   else (drive if driven.get(lbl) else zeros).copy()
                   for lbl in labels}
    branch_currents = dict(zip(sys.branch_labels, columns))
    meta = {"scenario": network.scenario,
            "config_hash": _config_hash(network, stimulus, sim)}
    return WaveformSet(times=times, node_traces=node_traces,
                       branch_currents=branch_currents, metadata=meta)
