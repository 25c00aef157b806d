"""Modified nodal analysis and implicit transient integration.

The unknown vector x is [free node voltages, inductor branch
currents]. Every node reads its voltage from one slot of z = [x, u, 0]
(``MnaSystem.slot``): a free node from x, the node of source j from
its known voltage u_j, and ground, with every shield node tied to it
by 0 ohms, from the trailing 0. Each element is stamped over all slots;
G and C are the x block and B the u columns moved to the right-hand
side, so the system reads G x + C dx/dt = B u(t).

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

Every stimulus s(t) is one piecewise-linear waveform (a step is a
STEP_EDGE_S edge), whose breakpoints an exported deck's PWL card reads.
The run inputs ``Stimulus``, ``smooth_edge``, ``SimConfig``,
``METHODS`` and ``STEP_EDGE_S`` are defined in ``xtalksim.inputs``,
which imports no numpy, and are re-exported here. The package imports
this module, and numpy with it, only on first numeric use.

``sla`` is ``numpy.linalg``. Every LAPACK call of the engine goes through
this one name, which perfbench swaps for a counting proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError
# STEP_EDGE_S and smooth_edge are re-exported, not used here
from .inputs import METHODS, STEP_EDGE_S, SimConfig, Stimulus, smooth_edge
from .network import GROUND, CoupledNetwork


sla = np.linalg


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
    """Assembled descriptor: G x + C dx/dt = B u(t). Reusable across runs.

    ``slot[node_id]`` is the node's position in z = [x, u, 0]: an
    unknown's index in x, n + j for the node of source j, and n + ns for
    ground and every node tied to it by 0 ohms.
    """

    G: np.ndarray
    C: np.ndarray
    B: np.ndarray
    unknown_labels: tuple[str, ...]
    n_node_unknowns: int
    source_names: tuple[str, ...]
    source_driven: tuple[bool, ...]
    slot: tuple[int, ...]


def assemble(network: CoupledNetwork) -> MnaSystem:
    """Stamp every element over the node slots, then slice out G, C and
    B (the source columns, negated). Every CoupledNetwork has passed its
    construction check, so the structure is one this can stamp.
    """
    sources = network.sources
    known = ({s.node for s in sources}
             | {t.node for t in network.ties if t.ohms == 0.0})
    unknown_nodes = [nid for nid in range(1, len(network.nodes))
                     if nid not in known]
    nv = len(unknown_nodes)
    n = nv + len(network.inductors)
    ns = len(sources)
    slot = [n + ns] * len(network.nodes)
    for i, nid in enumerate(unknown_nodes):
        slot[nid] = i
    for j, s in enumerate(sources):
        slot[s.node] = n + j
    G, C = np.zeros((2, n + ns + 1, n + ns + 1))

    def stamp(M: np.ndarray, a: int, b: int, val: float) -> None:
        M[a, a] += val
        M[a, b] -= val
        M[b, b] += val
        M[b, a] -= val

    for r in network.resistors:
        stamp(G, slot[r.a], slot[r.b], 1.0 / r.ohms)
    for t in network.ties:
        if t.ohms > 0.0:
            stamp(G, slot[t.node], slot[GROUND], 1.0 / t.ohms)
    for c in network.capacitors:
        stamp(C, slot[c.a], slot[c.b], c.farads)

    for row, ind in enumerate(network.inductors, start=nv):
        for node, sign in ((ind.a, 1.0), (ind.b, -1.0)):
            G[slot[node], row] += sign    # KCL: branch current into the node
            G[row, slot[node]] += sign    # KVL: node voltage along the branch
        G[row, row] -= ind.r_series_ohm
        C[row, row] -= ind.l_h
    for m in network.mutuals:
        C[nv + m.branch_i, nv + m.branch_j] -= m.m_h
        C[nv + m.branch_j, nv + m.branch_i] -= m.m_h
    B = 0.0 - G[:n, n:n + ns]             # 0.0 - keeps -0.0 out of B
    G, C = G[:n, :n].copy(), C[:n, :n].copy()

    labels = tuple([network.nodes[nid] for nid in unknown_nodes]
                   + [ind.name for ind in network.inductors])
    return MnaSystem(
        G=G, C=C, B=B, unknown_labels=labels, n_node_unknowns=nv,
        source_names=tuple(s.name for s in sources),
        source_driven=tuple(s.driven for s in sources), slot=tuple(slot))


def _dc_solve(sys: MnaSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs."""
    try:
        return sla.solve(sys.G, rhs)
    except sla.LinAlgError:
        raise SolverError("singular DC system: the conductance matrix G "
                          "is singular to working precision") from None


def dc_operating_point(network: CoupledNetwork,
                       source_values: dict[str, float] | None = None
                       ) -> dict[str, float]:
    """Resistive DC solution: capacitors open, inductors shorted.

    ``source_values`` maps source names to voltages; by default driven
    sources sit at 1 V and quiet ones at 0 V. Returns a voltage for
    every non-ground node label, in network order.
    """
    sys = assemble(network)
    u = np.array([1.0 if d else 0.0 for d in sys.source_driven])
    if source_values:
        for name, val in source_values.items():
            if name not in sys.source_names:
                raise ParameterError(f"unknown source {name!r}")
            u[sys.source_names.index(name)] = float(val)
    x = _dc_solve(sys, sys.B @ u)
    z = np.concatenate((x, u, [0.0]))
    return {lbl: float(z[k]) for lbl, k in zip(network.nodes[1:], sys.slot[1:])}


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
    t = 0 value (0 for an edge that starts from zero). The first
    step is always backward Euler; subsequent steps use the configured
    method. Deterministic for fixed inputs. Only the unknowns behind the
    requested traces are stored, and the branch currents only with
    ``output_nodes="all"``.
    """
    sys = assemble(network)
    steps = int(round(sim.t_end / sim.dt))

    n, nv = len(sys.unknown_labels), sys.n_node_unknowns
    slot = dict(zip(network.nodes[1:], sys.slot[1:]))
    labels = list(slot)
    branches = range(nv, n)
    if sim.output_nodes != "all":
        missing = [lbl for lbl in sim.output_nodes if lbl not in slot]
        if missing:
            raise ParameterError(f"output_nodes not in network: {missing}")
        labels, branches = list(dict.fromkeys(sim.output_nodes)), ()
    keep = np.array([slot[lbl] for lbl in labels if slot[lbl] < n]
                    + list(branches), dtype=int)

    times = np.arange(steps + 1) * sim.dt
    drive = stimulus.values(times)
    b = sys.B @ np.array(sys.source_driven, dtype=float)
    x = _dc_solve(sys, b * drive[0])

    theta = METHODS[sim.method]
    # an overflow is reported by the non-finite checks, which name it
    with np.errstate(all="ignore"):
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

    # out's columns: the kept node unknowns in label order, then branches;
    # a node whose slot is past the unknowns reads its source or ground
    columns = iter(out.T)
    zeros = np.zeros(steps + 1)
    known = [drive if d else zeros for d in sys.source_driven] + [zeros]
    node_traces = {lbl: next(columns) if slot[lbl] < n
                   else known[slot[lbl] - n].copy() for lbl in labels}
    branch_currents = dict(zip(sys.unknown_labels[nv:], columns))
    meta = {"scenario": network.scenario,
            "config_hash": _config_hash(network, stimulus, sim)}
    return WaveformSet(times=times, node_traces=node_traces,
                       branch_currents=branch_currents, metadata=meta)
