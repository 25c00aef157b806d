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
0 V, so B u(t) = b s(t) and each later step is the recurrence
x_{k+1} = P x_k + q ((1 - theta) s_k + theta s_{k+1}), where
P = (C/dt + theta G)^-1 (C/dt - (1 - theta) G) and
q = (C/dt + theta G)^-1 b are built once per run, for the configured
theta only. The first step is one vector solve,
(C/dt + G) x_1 = (C/dt) x_0 + b s(dt), taken before P and q are built.
A run's memory: modelled in ``inputs.run_footprint``, measured in BENCH_*.json.

After the first step the recurrence is lifted (Bamieh, Pearson, Francis
& Tannenbaum 1991; the block filters of Burrus 1972): the steps are
grouped in blocks of m = min(BLOCK_STEPS, steps // n) (``block_length``)
with drive rows w_j, and computed in two phases, chunk by chunk of
_CHUNK_BLOCKS blocks, each sampling its own times and drive. Phase 1 steps
the block starts, s_{j+1} = P^m s_j + Q_m w_j with Q_m = [P^(m-1) q, ...,
P q, q]. Phase 2 fills the kept traces of a whole chunk with one product
[X_s, W] L written straight into the trace array: X_s stacks the chunk's
block starts, and the lifted operator L stacks O_m, the kept rows of P,
..., P^m, over T_m, the block Toeplitz matrix of the Markov parameters
(P^i q)[keep]. That is the same recurrence with its products regrouped.
P^m is built first, so its power products are freed before L and Q_m
are made; the rows of P^i[keep] start from P[keep].
A tail shorter than m, a run with m < 2 and a chunk whose end state or
sum of samples is not finite take the plain recurrence, one step at a
time, which names the first non-finite sample.

Every stimulus s(t) is one piecewise-linear waveform (a step is a
STEP_EDGE_S edge), whose breakpoints an exported deck's PWL card reads.
The run inputs ``Stimulus`` and ``SimConfig`` are defined in
``xtalksim.inputs``, which imports no numpy. The package imports this
module, and numpy with it, only on first numeric use.

``sla`` is ``numpy.linalg``. Every LAPACK call of the engine goes through
this one name, in ``_solve``: a run makes five ``solve`` calls, for the
DC states at the drive's first and last samples, the first step, and the
two panels of P and q. perfbench swaps it for a proxy that counts
``lu_factor`` and ``lu_solve``, which the engine never calls.
"""

from __future__ import annotations

import zlib

import numpy as np

from ._record import Record, field
from .errors import ParameterError, SolverError, _echo_some
from .inputs import BLOCK_STEPS, METHODS, SimConfig, Stimulus, block_length
from .network import GROUND, CoupledNetwork


sla = np.linalg

# Lifted blocks per phase-2 product: the block starts of one chunk are
# all the run holds of X_s.
_CHUNK_BLOCKS = 32
_ROWS = 32          # rows per block of _step_operands' elementwise forms


class WaveformSet(Record):
    """Uniformly sampled traces from one transient run."""

    times: np.ndarray
    node_traces: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)
    # node label -> |last sample - the DC state at the last sample's drive|
    settle_gap: dict[str, float] = field(default_factory=dict)

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


class MnaSystem(Record):
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
    G, C = G[:n, :n], C[:n, :n]           # views: no second n x n copy

    labels = tuple([network.nodes[nid] for nid in unknown_nodes]
                   + [ind.name for ind in network.inductors])
    return MnaSystem(
        G=G, C=C, B=B, unknown_labels=labels, n_node_unknowns=nv,
        source_names=tuple(s.name for s in sources),
        source_driven=tuple(s.driven for s in sources), slot=tuple(slot))


_SINGULAR_G = ("singular DC system: the conductance matrix G is singular "
               "to working precision")


def _singular_step(theta: float, dt: float) -> str:
    return (f"singular step matrix C/dt + theta G "
            f"(theta={theta:g}, dt={dt:g} s)")


def _solve(A: np.ndarray, rhs: np.ndarray, message: str) -> np.ndarray:
    """Solve A X = rhs; a singular A raises a SolverError saying
    ``message``."""
    try:
        return sla.solve(A, rhs)
    except sla.LinAlgError:
        raise SolverError(message) from None


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
    x = _solve(sys.G, sys.B @ u, _SINGULAR_G)
    z = np.concatenate((x, u, [0.0]))
    return {lbl: float(z[k]) for lbl, k in zip(network.nodes[1:], sys.slot[1:])}


def _config_hash(network: CoupledNetwork, stimulus: Stimulus,
                 sim: SimConfig) -> str:
    blob = "|".join((repr(network), repr(stimulus),
                     repr((sim.dt, sim.t_end, sim.method))))
    return f"{zlib.crc32(blob.encode()):08x}"


def _step_operands(sys: MnaSystem, b: np.ndarray, dt: float,
                   theta: float) -> tuple[np.ndarray, np.ndarray]:
    """A = C/dt + theta G and the right-hand side [C/dt - (1 - theta) G, b]
    of the solve behind P and q, formed _ROWS rows at a time, so no n x n
    temporary is made and ``sys`` is left as it was."""
    n = len(b)
    A, rhs = np.empty((n, n)), np.empty((n, n + 1))
    for r in range(0, n, _ROWS):
        a, g = A[r:r + _ROWS], sys.G[r:r + _ROWS]
        np.divide(sys.C[r:r + _ROWS], dt, out=a)
        np.subtract(a, (1.0 - theta) * g, out=rhs[r:r + _ROWS, :n])
        a += theta * g
    rhs[:, n] = b
    return A, rhs


def _step_matrices(A: np.ndarray, rhs: np.ndarray, theta: float,
                   dt: float) -> tuple[np.ndarray, np.ndarray]:
    """P and q of the theta-method step (see the module docstring), solved
    from the operands of _step_operands in two column panels, each
    written back into ``rhs``: P is a view of its first n columns and q
    its last column."""
    n = len(A)
    for cols in (slice(0, (n + 1) // 2), slice((n + 1) // 2, n + 1)):
        rhs[:, cols] = _solve(A, rhs[:, cols], _singular_step(theta, dt))
    if not np.isfinite(rhs).all():
        raise SolverError(f"non-finite step matrices P, q "
                          f"(theta={theta:g}, dt={dt:g} s)")
    return rhs[:, :n], rhs[:, n]


def _first_step(sys: MnaSystem, b: np.ndarray, dt: float, x: np.ndarray,
                s1: float) -> np.ndarray:
    """The backward-Euler first step as one vector solve,
    (C/dt + G) x_1 = (C/dt) x_0 + b s(dt); a state that is not finite
    raises a SolverError naming t = dt."""
    A = sys.C / dt
    A += sys.G
    x = _solve(A, sys.C @ (x / dt) + b * s1, _singular_step(1.0, dt))
    if not np.isfinite(x).all():
        raise SolverError(f"divergence: non-finite sample at t={dt:.6g} s")
    return x


def _samples(stimulus: Stimulus, dt: float, k0: int, k1: int) -> tuple:
    """The times k0 dt, ..., k1 dt and the drive there, each sample equal
    to the one of the run's whole time axis."""
    t = np.arange(k0, k1 + 1, dtype=float)
    t *= dt
    return t, stimulus.values(t)


def _drive_rows(drive: np.ndarray, theta: float) -> np.ndarray:
    """The drive w_k = (1 - theta) s_k + theta s_{k+1} of the steps
    between the samples ``drive``."""
    return (1.0 - theta) * drive[:-1] + theta * drive[1:]


def _step(P: np.ndarray, q: np.ndarray, x: np.ndarray, drive: np.ndarray,
          theta: float, rows: np.ndarray, keep: np.ndarray,
          times: np.ndarray) -> np.ndarray:
    """The plain recurrence x <- P x + q w_k over the steps between the
    samples ``drive``, writing the kept unknowns of each new state to
    rows[k]; the first state that is not finite raises a SolverError
    naming its time, times[k]. Returns the last state."""
    for k, wk in enumerate(_drive_rows(drive, theta)):
        x = P @ x + q * wk
        if not np.isfinite(x).all():
            raise SolverError(f"divergence: non-finite sample at "
                              f"t={times[k]:.6g} s")
        rows[k] = x[keep]
    return x


def _lifted_operators(P: np.ndarray, q: np.ndarray, m: int, keep: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P^m, Q_m and the lifted operator L of m-step blocks.

    L is (n + m) x (m kept): its first n rows are O_m, whose column
    block i holds P^(i+1)[keep]^T, and its last m rows are T_m, whose
    row l carries (P^(i-l) q)[keep] in column block i >= l. A block
    start s and drive row w give the block's kept samples [s, w] L.
    """
    n, kept = len(q), len(keep)
    Pm = np.linalg.matrix_power(P, m)       # its products freed before L
    L = np.zeros((n + m, m, kept))
    Q = np.empty((n, m))
    rows, v = P[keep], q                    # P^(i+1)[keep] and P^i q
    for i in range(m):
        Q[:, m - 1 - i] = v
        L[n + np.arange(m - i), np.arange(i, m)] = v[keep]
        L[:n, i] = rows.T
        if i < m - 1:
            rows, v = rows @ P, P @ v
    return Pm, Q, L.reshape(n + m, m * kept)


def _step_blocks(P: np.ndarray, q: np.ndarray, lifted: tuple, x: np.ndarray,
                 stimulus: Stimulus, dt: float, theta: float, out: np.ndarray,
                 keep: np.ndarray) -> tuple[int, np.ndarray]:
    """Steps 1 to the last whole block of m, lifted by ``lifted`` = (P^m,
    Q_m, L); out[k + 1] receives the kept unknowns of step k, from sample
    k to k + 1. Each chunk samples its own times and drive, and its sum
    checks it. Returns the next step and its start state."""
    Pm, Q, L = lifted
    n, m = Q.shape
    nb = (len(out) - 2) // m
    Z = np.empty((_CHUNK_BLOCKS, n + m))    # [X_s, W] of one chunk
    for j0 in range(0, nb, _CHUNK_BLOCKS):
        cb = min(_CHUNK_BLOCKS, nb - j0)
        k0, k1 = 1 + j0 * m, 1 + (j0 + cb) * m
        times, drive = _samples(stimulus, dt, k0, k1)
        z, start = Z[:cb], x
        z[:, n:] = _drive_rows(drive, theta).reshape(cb, m)
        qw = z[:, n:] @ Q.T
        for j in range(cb):
            z[j, :n] = x
            x = Pm @ x + qw[j]
        rows = out[k0 + 1:k1 + 1]
        np.matmul(z, L, out=rows.reshape(cb, -1))
        if not (np.isfinite(x).all() and np.isfinite(rows.sum())):
            x = _step(P, q, start, drive, theta, rows, keep, times[1:])
    return 1 + nb * m, x


def run_transient(network: CoupledNetwork, stimulus: Stimulus,
                  sim: SimConfig) -> WaveformSet:
    """Integrate the network response to the stimulus.

    The initial condition is the DC solution with every source at its
    t = 0 value (0 for an edge that starts from zero). The first
    step is always backward Euler; subsequent steps use the configured
    method. ``settle_gap`` holds, for every node trace, how far its last
    sample lies from the DC state with every source at its last value.
    Deterministic for fixed inputs. Only the unknowns behind the
    requested traces are stored, and the branch currents only with
    ``output_nodes="all"``. Every array of the result is read-only: the
    traces are views of the stored unknowns, of the drive and, for every
    quiet source and ground-tied node, one zero-stride view of a single 0.
    """
    # first, so the network's repr is not built beside the run's arrays
    config_hash = _config_hash(network, stimulus, sim)
    sys = assemble(network)
    steps = int(round(sim.t_end / sim.dt))
    theta = METHODS[sim.method]

    n, nv = len(sys.unknown_labels), sys.n_node_unknowns
    slot = dict(zip(network.nodes[1:], sys.slot[1:]))
    labels = list(slot)
    branches = range(nv, n)
    if sim.output_nodes != "all":
        missing = [lbl for lbl in sim.output_nodes if lbl not in slot]
        if missing:
            raise ParameterError(f"output_nodes not in network: "
                                 f"{_echo_some(missing)}")
        labels, branches = list(sim.output_nodes), ()
    keep = np.array([slot[lbl] for lbl in labels if slot[lbl] < n]
                    + list(branches), dtype=int)

    s0, s1, s_end = stimulus.values(np.array([0.0, sim.dt, steps * sim.dt]))
    b = sys.B @ np.array(sys.source_driven, dtype=float)
    x0 = _solve(sys.G, b * s0, _SINGULAR_G)
    x_end = _solve(sys.G, b * s_end, _SINGULAR_G)
    unknown_labels, driven = sys.unknown_labels, sys.source_driven
    # an overflow is reported by the non-finite checks, which name it
    with np.errstate(all="ignore"):
        x = _first_step(sys, b, sim.dt, x0, s1)
        A, rhs = _step_operands(sys, b, sim.dt, theta)
        del sys
        P, q = _step_matrices(A, rhs, theta, sim.dt)
        del A, rhs
        m = block_length(steps, n, BLOCK_STEPS)   # the cap as read here
        lifted = _lifted_operators(P, q, m, keep) if m >= 2 else None

    out = np.empty((steps + 1, len(keep)))
    out[0], out[1] = x0[keep], x[keep]
    with np.errstate(all="ignore"):
        k = 1
        if lifted:
            k, x = _step_blocks(P, q, lifted, x, stimulus, sim.dt, theta,
                                out, keep)
        times, drive = _samples(stimulus, sim.dt, k, steps)
        _step(P, q, x, drive, theta, out[k + 1:], keep, times[1:])
    del P, q, lifted, times, drive
    times, drive = _samples(stimulus, sim.dt, 0, steps)

    # out's columns: the kept node unknowns in label order, then branches;
    # a node whose slot is past the unknowns reads its source or ground.
    # The traces are views of read-only arrays, so none is copied.
    zeros = np.broadcast_to(0.0, (steps + 1,))
    for arr in (times, drive, out):
        arr.flags.writeable = False
    columns = iter(out.T)
    known = [drive if d else zeros for d in driven] + [zeros]
    node_traces = {lbl: next(columns) if slot[lbl] < n
                   else known[slot[lbl] - n] for lbl in labels}
    branch_currents = dict(zip(unknown_labels[nv:], columns))
    z_end = np.concatenate((x_end, [s_end if d else 0.0 for d in driven], [0.0]))
    gap = {lbl: abs(float(tr[-1] - z_end[slot[lbl]]))
           for lbl, tr in node_traces.items()}
    meta = {"scenario": network.scenario, "config_hash": config_hash}
    return WaveformSet(times=times, node_traces=node_traces,
                       branch_currents=branch_currents, metadata=meta,
                       settle_gap=gap)
