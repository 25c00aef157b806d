"""Structural tests for ladder construction and validation."""

import pytest

from _reference import make_network
from xtalksim.errors import ParameterError
from xtalksim.network import (Capacitor, Inductor, LineSpec,
                              Mutual, Resistor, STOCK_COUPLING_CAP_ADJACENT_F,
                              STOCK_COUPLING_CAP_SHIELDED_F,
                              STOCK_LINE_INDUCTANCE_H,
                              STOCK_MUTUAL_ADJACENT_H,
                              STOCK_MUTUAL_SHIELDED_H, TapSchedule,
                              TerminationSpec, VoltageSource, build_ladder,
                              effective_terminations, preset_tables,
                              scenario_preset, uniform_taps, validate_network)

approx = pytest.approx

# per preset: total lines, signal lines, cm pairs, mutual pairs, tie count
PRESET_SHAPE = {
    "no-shield": (2, 2, 1, 1, 0),
    "shield": (3, 2, 2, 3, 2),
    "shield-3taps": (3, 2, 2, 3, 5),
}


@pytest.mark.parametrize("name", sorted(PRESET_SHAPE))
@pytest.mark.parametrize("n", [1, 4, 12])
def test_element_count_identities(name, n):
    if name == "shield-3taps" and n % 4:
        n = 4 * n                      # quarter-point taps need 4 | n
    total, signal, cm_pairs, m_pairs, ties = PRESET_SHAPE[name]
    net = scenario_preset(name, n_segments=n)

    assert len(net.inductors) == total * n
    assert all(ind.r_series_ohm == approx(ind_line.r_total / n)
               for ind, ind_line in zip(net.inductors,
                                        (ln for ln in net.lines
                                         for _ in range(n))))
    shunt = [c for c in net.capacitors if c.kind == "shunt"]
    coup = [c for c in net.capacitors if c.kind == "coupling"]
    load = [c for c in net.capacitors if c.kind == "load"]
    assert len(shunt) == total * n
    assert len(coup) == cm_pairs * n
    assert len(load) == signal
    assert len(net.mutuals) == m_pairs * n
    assert len(net.resistors) == signal          # drivers only
    assert len(net.sources) == signal
    assert len(net.ties) == ties
    assert len(net.nodes) == 1 + signal + total * (n + 1)


def test_segment_values_sum_to_totals():
    net = scenario_preset("shield", n_segments=12)
    cm_by_pair = {}
    for c in net.capacitors:
        if c.kind == "coupling":
            pair = c.name.rsplit("_", 1)[0]
            cm_by_pair[pair] = cm_by_pair.get(pair, 0.0) + c.farads
    assert cm_by_pair["Ccaggressor_shield"] == approx(
        STOCK_COUPLING_CAP_SHIELDED_F, rel=1e-12)
    assert cm_by_pair["Ccshield_victim"] == approx(
        STOCK_COUPLING_CAP_SHIELDED_F, rel=1e-12)
    assert "Ccaggressor_victim" not in cm_by_pair

    m_by_pair = {}
    for m in net.mutuals:
        pair = m.name.rsplit("_", 1)[0]
        m_by_pair[pair] = m_by_pair.get(pair, 0.0) + m.m_h
    assert m_by_pair["Kaggressor_victim"] == approx(
        STOCK_MUTUAL_ADJACENT_H, rel=1e-12)
    assert m_by_pair["Kaggressor_shield"] == approx(
        STOCK_MUTUAL_SHIELDED_H, rel=1e-12)

    l_by_line = {}
    for ind in net.inductors:
        line = ind.name[1:].rsplit("_", 1)[0]
        l_by_line[line] = l_by_line.get(line, 0.0) + ind.l_h
    assert all(v == approx(STOCK_LINE_INDUCTANCE_H, rel=1e-12)
               for v in l_by_line.values())


def test_no_shield_cm_total_is_stock_adjacent():
    net = scenario_preset("no-shield", n_segments=12)
    cm = sum(c.farads for c in net.capacitors if c.kind == "coupling")
    assert cm == approx(STOCK_COUPLING_CAP_ADJACENT_F, rel=1e-12)


def test_single_line_minimal_ladder():
    line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
    net = build_ladder((line,), n_segments=1, scenario="one")
    labels = {nd.label for nd in net.nodes}
    assert labels == {"0", "sig_src", "sig_0", "sig_1"}
    assert len(net.resistors) == 1 and len(net.inductors) == 1
    assert len(net.capacitors) == 2          # shunt + load
    assert net.inductors[0].r_series_ohm == approx(500.0)
    assert net.sources == (VoltageSource("Vsig", net.node("sig_src"),
                                         driven=True),)


def test_shield_removal_reproduces_no_shield_exactly():
    # drop the shield line from the shielded tables and restore the
    # direct coupling capacitance: element-for-element the no-shield net
    tables = preset_tables("shield")
    lines = tuple(ln for ln in tables["lines"] if ln.role != "shield")
    couplings = {("aggressor", "victim"): {
        "m_total": STOCK_MUTUAL_ADJACENT_H,
        "cm_total": STOCK_COUPLING_CAP_ADJACENT_F,
    }}
    rebuilt = build_ladder(lines, couplings, n_segments=12,
                           scenario="no-shield")
    assert rebuilt == scenario_preset("no-shield", n_segments=12)


def test_shield_preset_symmetric_under_role_swap():
    """Exchanging the aggressor and victim labels maps the shielded
    network onto itself (same elements at the same places), so the two
    signal lines are electrically interchangeable up to drive."""
    net = scenario_preset("shield", n_segments=6)

    def sw(label):
        if label.startswith("aggressor"):
            return "victim" + label[len("aggressor"):]
        if label.startswith("victim"):
            return "aggressor" + label[len("victim"):]
        return label

    lab = net.label
    res = {(frozenset((lab(r.a), lab(r.b))), r.ohms) for r in net.resistors}
    assert res == {(frozenset((sw(lab(r.a)), sw(lab(r.b)))), r.ohms)
                   for r in net.resistors}
    caps = {(c.kind, frozenset((lab(c.a), lab(c.b))), c.farads)
            for c in net.capacitors}
    assert caps == {(c.kind, frozenset((sw(lab(c.a)), sw(lab(c.b)))),
                     c.farads) for c in net.capacitors}
    inds = {((lab(i.a), lab(i.b)), i.l_h, i.r_series_ohm)
            for i in net.inductors}
    assert inds == {((sw(lab(i.a)), sw(lab(i.b))), i.l_h, i.r_series_ohm)
                    for i in net.inductors}
    seg_of = {i.branch: (lab(i.a), lab(i.b)) for i in net.inductors}
    muts = {(frozenset((seg_of[m.branch_i], seg_of[m.branch_j])), m.m_h)
            for m in net.mutuals}
    assert muts == {(frozenset((tuple(map(sw, seg_of[m.branch_i])),
                                tuple(map(sw, seg_of[m.branch_j])))), m.m_h)
                    for m in net.mutuals}


class TestTaps:
    def test_uniform_fractions(self):
        assert uniform_taps(3).fractions == approx((0.25, 0.5, 0.75))
        assert uniform_taps(0).fractions == ()
        assert uniform_taps(1).fractions == approx((0.5,))

    def test_three_tap_tie_segments(self):
        net = scenario_preset("shield-3taps", n_segments=12)
        assert {t.name for t in net.ties} == {
            "Rtie_shield_0", "Rtie_shield_3", "Rtie_shield_6",
            "Rtie_shield_9", "Rtie_shield_12"}
        assert all(t.ohms == 0.0 for t in net.ties)

    def test_off_grid_tap_rejected_with_suggestion(self):
        with pytest.raises(ParameterError,
                           match=r"multiple of 8 \(for example n_segments=16\)"):
            scenario_preset("shield", n_segments=12, tap_count=7)

    def test_resistive_ties(self):
        net = scenario_preset("shield-3taps", n_segments=12,
                              tie_resistance_ohm=2.5)
        assert all(t.ohms == approx(2.5) for t in net.ties)

    def test_schedule_validation(self):
        with pytest.raises(ParameterError, match="strictly inside"):
            TapSchedule(fractions=(0.0, 0.5))
        with pytest.raises(ParameterError, match="strictly increasing"):
            TapSchedule(fractions=(0.5, 0.5))
        with pytest.raises(ParameterError):
            TapSchedule(fractions=(0.5,), tie_resistance_ohm=-1.0)

    def test_taps_need_a_shield(self):
        with pytest.raises(ParameterError, match="shield"):
            preset_tables("no-shield", tap_count=1)
        line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
        with pytest.raises(ParameterError, match="no shield line"):
            build_ladder((line,), taps=uniform_taps(1), n_segments=4)


class TestBuildErrors:
    def line(self, name="a", role="aggressor"):
        return LineSpec(name, role, 500.0, 83.24e-6, 134.41e-12)

    def test_duplicate_names(self):
        with pytest.raises(ParameterError, match="unique"):
            build_ladder((self.line(), self.line()))

    def test_unknown_coupling_pair(self):
        with pytest.raises(ParameterError, match="does not name"):
            build_ladder((self.line(),), {("a", "ghost"): {"m_total": 1e-6}})

    def test_unknown_coupling_key(self):
        with pytest.raises(ParameterError, match="unknown keys"):
            build_ladder((self.line(), self.line("b", "victim")),
                         {("a", "b"): {"k_total": 1e-6}})

    def test_unknown_termination(self):
        with pytest.raises(ParameterError, match="unknown line"):
            build_ladder((self.line(),), terminations={"ghost": TerminationSpec()})

    def test_bad_segment_count(self):
        with pytest.raises(ParameterError, match="n_segments"):
            build_ladder((self.line(),), n_segments=0)

    def test_empty(self):
        with pytest.raises(ParameterError, match="at least one line"):
            build_ladder(())

    def test_overtight_coupling_fails_validation(self):
        with pytest.raises(ParameterError, match="inductance-not-spd"):
            build_ladder((self.line(), self.line("b", "victim")),
                         {("a", "b"): {"m_total": 1.2 * 83.24e-6}})

    def test_line_spec_validation(self):
        with pytest.raises(ParameterError, match="unknown role"):
            LineSpec("x", "bystander", 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            LineSpec("x", "victim", -1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            LineSpec("x", "victim", 1.0, 0.0, 1.0)


class TestValidateNetwork:
    def test_pairwise_spd_finding_names_the_mutual(self):
        net = make_network(
            ["a1", "a2", "b1", "b2"],
            inductors=[Inductor(0, "La", 1, 2, 1.0),
                       Inductor(1, "Lb", 3, 4, 1.0)],
            mutuals=[Mutual("Kab", 0, 1, 1.2)],
            resistors=[Resistor("Ra", 1, 0, 1.0), Resistor("Rb", 3, 0, 1.0),
                       Resistor("Rc", 2, 0, 1.0), Resistor("Rd", 4, 0, 1.0)])
        findings = validate_network(net)
        spd = [f for f in findings if f.code == "inductance-not-spd"]
        assert len(spd) == 1 and spd[0].elements == ("Kab",)

    def test_collective_spd_failure_passes_pairwise_screen(self):
        # each pair has k = 0.9 < 1 but the 3x3 matrix is indefinite
        net = make_network(
            ["n1", "n2", "n3", "n4"],
            inductors=[Inductor(0, "L1", 1, 2, 1.0),
                       Inductor(1, "L2", 2, 3, 1.0),
                       Inductor(2, "L3", 3, 4, 1.0)],
            mutuals=[Mutual("K12", 0, 1, 0.9), Mutual("K23", 1, 2, 0.9)],
            resistors=[Resistor("Rg", 1, 0, 1.0), Resistor("Rh", 4, 0, 1.0)])
        findings = validate_network(net)
        spd = [f for f in findings if f.code == "inductance-not-spd"]
        assert len(spd) == 1
        assert set(spd[0].elements) == {"K12", "K23"}

    def test_floating_node_finding(self):
        net = make_network(
            ["driven", "island"],
            resistors=[Resistor("R1", 1, 0, 1.0)],
            capacitors=[Capacitor("Cx", 2, 0, 1e-12)],
            sources=[VoltageSource("V1", 1, driven=True)])
        findings = validate_network(net)
        codes = {f.code for f in findings}
        assert "floating-node" in codes
        floating = next(f for f in findings if f.code == "floating-node")
        assert floating.elements == ("island",)

    def test_bad_reference_finding(self):
        net = make_network(["x"], resistors=[Resistor("Rbad", 1, 99, 1.0)])
        findings = validate_network(net)
        assert any(f.code == "bad-reference" and "Rbad" in f.elements
                   for f in findings)

    def test_clean_presets_have_no_findings(self):
        for name in PRESET_SHAPE:
            assert validate_network(scenario_preset(name)) == []


class TestAccessors:
    def test_node_lookup_round_trip(self):
        net = scenario_preset("shield", n_segments=4)
        nid = net.line_node("victim", 4)
        assert net.label(nid) == "victim_4"
        assert net.node("victim_4") == nid
        with pytest.raises(ParameterError, match="no node labeled"):
            net.node("victim_99")

    def test_line_by_role(self):
        net = scenario_preset("shield")
        assert net.line_by_role("shield").name == "shield"
        with pytest.raises(ParameterError, match="exactly one"):
            scenario_preset("no-shield").line_by_role("shield")

    def test_inductance_matrix_is_spd_and_symmetric(self):
        import numpy as np
        net = scenario_preset("shield", n_segments=2)
        L = net.inductance_matrix()
        assert L.shape == (6, 6)
        assert np.allclose(L, L.T)
        np.linalg.cholesky(L)                 # raises if not SPD
        assert L[0, 0] == approx(STOCK_LINE_INDUCTANCE_H / 2, rel=1e-12)


class TestTerminations:
    def test_custom_driver_and_load(self):
        line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
        net = build_ladder((line,), terminations={
            "sig": TerminationSpec(driver_resistance_ohm=50.0,
                                   load_capacitance_f=0.0)},
            n_segments=2)
        assert net.resistors[0].ohms == approx(50.0)
        assert not [c for c in net.capacitors if c.kind == "load"]

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            TerminationSpec(driver_resistance_ohm=-1.0)
        with pytest.raises(ParameterError, match="source_ref"):
            TerminationSpec(source_ref="sine")

    def test_quiet_source_for_victim_by_default(self):
        net = scenario_preset("no-shield")
        driven = {s.name: s.driven for s in net.sources}
        assert driven == {"Vaggressor": True, "Vvictim": False}

    def test_default_rule_covers_every_signal_line(self):
        lines = preset_tables("shield")["lines"]
        custom = TerminationSpec(driver_resistance_ohm=50.0)
        terms = effective_terminations(lines, {"victim": custom})
        assert terms == {"aggressor": TerminationSpec(source_ref="stimulus"),
                         "victim": custom}
        terms = effective_terminations(lines)
        assert terms["victim"] == TerminationSpec(source_ref="quiet")
        assert "shield" not in terms

    def test_shield_termination_is_refused(self):
        tables = preset_tables("shield")
        with pytest.raises(ParameterError,
                           match="'shield' is a shield; its ends are ground ties"):
            build_ladder(tables["lines"], tables["couplings"], terminations={
                "shield": TerminationSpec(driver_resistance_ohm=1.0)})
