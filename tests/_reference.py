"""Independent reference solutions and small hand-built networks.

The exact_lti_response oracle solves the assembled MNA system
G x + C x' = B u(t) without time-stepping: algebraic unknowns (rows and
columns of C identically zero) are eliminated through the conductance
block, and the remaining ODE x_d' = A x_d + F u is advanced by the
matrix exponential of an augmented system, which is exact on every
interval where u(t) is linear. Stimuli whose breakpoints land on the
sample grid therefore get machine-accurate references, independent of
the engine's companion-model integrators.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from xtalksim.config import resolve_stimulus
from xtalksim.engine import assemble, run_transient
from xtalksim.inputs import SimConfig
from xtalksim.network import (Capacitor, CoupledNetwork, GroundTie, Inductor,
                              Mutual, Resistor, VoltageSource)


def make_network(labels, *, resistors=(), capacitors=(), inductors=(),
                 mutuals=(), sources=(), ties=(), scenario="test"):
    """Hand-built CoupledNetwork; node ids are 0 (ground) then 1.. in
    label order, and branch ids are positions in ``inductors``, so
    element records use those integers directly."""
    return CoupledNetwork(
        nodes=("0", *labels), resistors=tuple(resistors),
        capacitors=tuple(capacitors), inductors=tuple(inductors),
        mutuals=tuple(mutuals), sources=tuple(sources), ties=tuple(ties),
        lines=(), n_segments=1, scenario=scenario)


def capacitor_kind(cap: Capacitor) -> str:
    """"load", "coupling" or "shunt", read from the name build_ladder
    gives a capacitor: Cload_<line>, Cc<a>_<b>_<k> or C<line>_<k>."""
    if cap.name.startswith("Cload_"):
        return "load"
    return "coupling" if cap.name.startswith("Cc") else "shunt"


def rc_network(r_ohm: float, c_f: float) -> CoupledNetwork:
    """Source -> R -> out node -> C -> ground."""
    return make_network(
        ["in", "out"],
        resistors=[Resistor("R1", 1, 2, r_ohm)],
        capacitors=[Capacitor("C1", 2, 0, c_f)],
        sources=[VoltageSource("Vin", 1, driven=True)],
        scenario="rc")


def rc_step_max_error(method: str, dt: float) -> float:
    """Largest deviation of a unit RC's step response, run by the engine
    for 5 RC, from 1 - e^{-t/RC}."""
    waves = run_transient(rc_network(1.0, 1.0),
                          resolve_stimulus({"kind": "step"}),
                          SimConfig(dt=dt, t_end=5.0, method=method))
    exact = np.where(waves.times > 0, 1.0 - np.exp(-waves.times), 0.0)
    return float(np.max(np.abs(waves.trace("out") - exact)))


def rl_network(r_ohm: float, l_h: float) -> CoupledNetwork:
    """Source -> R -> node -> L -> ground (two unknowns)."""
    return make_network(
        ["in", "mid"],
        resistors=[Resistor("R1", 1, 2, r_ohm)],
        inductors=[Inductor("L1", 2, 0, l_h)],
        sources=[VoltageSource("Vin", 1, driven=True)],
        scenario="rl")


def divider_network(r_top: float, r_bot: float) -> CoupledNetwork:
    return make_network(
        ["in", "mid"],
        resistors=[Resistor("R1", 1, 2, r_top), Resistor("R2", 2, 0, r_bot)],
        sources=[VoltageSource("Vin", 1, driven=True)],
        scenario="divider")


def exact_lti_response(network, stimulus, sim):
    """Piecewise-exact response sampled on the sim grid.

    Returns (times, X, labels) with X of shape (N+1, n_unknowns) in the
    same unknown order the engine uses. Exact when the stimulus is
    linear between consecutive samples.
    """
    sys = assemble(network)
    steps = int(round(sim.t_end / sim.dt))
    times = np.arange(steps + 1) * sim.dt

    u_all = np.zeros((len(sys.source_names), steps + 1))
    drive = stimulus.values(times)
    for j, driven in enumerate(sys.source_driven):
        if driven:
            u_all[j] = drive

    G, C, B = sys.G, sys.C, sys.B
    n = G.shape[0]
    ns = B.shape[1]
    dyn = [i for i in range(n)
           if np.any(C[i, :] != 0.0) or np.any(C[:, i] != 0.0)]
    alg = [i for i in range(n) if i not in dyn]
    nd = len(dyn)

    C_dd = C[np.ix_(dyn, dyn)]
    G_dd = G[np.ix_(dyn, dyn)]
    G_da = G[np.ix_(dyn, alg)]
    G_ad = G[np.ix_(alg, dyn)]
    G_aa = G[np.ix_(alg, alg)]
    B_d = B[dyn, :]
    B_a = B[alg, :]

    # eliminate the algebraic block: x_a = G_aa^-1 (B_a u - G_ad x_d)
    Gaa_inv_Gad = np.linalg.solve(G_aa, G_ad) if alg else np.zeros((0, nd))
    Gaa_inv_Ba = np.linalg.solve(G_aa, B_a) if alg else np.zeros((0, ns))
    rhs_G = G_dd - G_da @ Gaa_inv_Gad
    rhs_B = B_d - G_da @ Gaa_inv_Ba
    A = np.linalg.solve(C_dd, -rhs_G)
    F = np.linalg.solve(C_dd, rhs_B)

    x0 = np.linalg.solve(G, B @ u_all[:, 0])
    X = np.empty((steps + 1, n))
    X[0] = x0

    # augmented state [x_d; u; 1]: exact one-step propagator per input slope
    cache: dict[bytes, np.ndarray] = {}
    xd = x0[dyn].copy()
    for k in range(steps):
        u0 = u_all[:, k]
        slope = (u_all[:, k + 1] - u_all[:, k]) / sim.dt
        key = slope.tobytes()
        phi = cache.get(key)
        if phi is None:
            M = np.zeros((nd + ns + 1, nd + ns + 1))
            M[:nd, :nd] = A
            M[:nd, nd:nd + ns] = F
            M[nd:nd + ns, -1] = slope
            phi = expm(M * sim.dt)
            cache[key] = phi
        y = np.concatenate([xd, u0, [1.0]])
        xd = (phi @ y)[:nd]
        X[k + 1, dyn] = xd
        if alg:
            X[k + 1, alg] = Gaa_inv_Ba @ u_all[:, k + 1] - Gaa_inv_Gad @ xd
    X[1:, :] = X[1:, :]      # filled above; row 0 is the DC solve
    return times, X, sys.unknown_labels


def engine_vs_oracle_error(network, stimulus, sim, waves) -> float:
    """Worst per-trace relative L-infinity error of an engine run
    against the exact solution (each trace normalized by its own peak)."""
    _, X, labels = exact_lti_response(network, stimulus, sim)
    sys = assemble(network)
    worst = 0.0
    for i, label in enumerate(labels):
        if i < sys.n_node_unknowns:
            got = waves.trace(label)
        else:
            got = waves.branch_currents[label]
        ref = X[:, i]
        scale = np.max(np.abs(ref))
        if scale < 1e-30:
            continue
        worst = max(worst, float(np.max(np.abs(got - ref)) / scale))
    return worst
