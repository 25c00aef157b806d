"""Structural tests for ladder construction and validation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _reference import capacitor_kind, make_network
from xtalksim.engine import assemble
from xtalksim.errors import ParameterError
from xtalksim.network import (PRESET_NAMES, Capacitor, GroundTie, Inductor,
                              LadderSpec, LineSpec, Mutual, Resistor,
                              _check_inductance,
                              STOCK_COUPLING_CAP_ADJACENT_F,
                              STOCK_COUPLING_CAP_SHIELDED_F,
                              STOCK_LINE_INDUCTANCE_H,
                              STOCK_MUTUAL_ADJACENT_H,
                              STOCK_MUTUAL_SHIELDED_H, TapSchedule,
                              TerminationSpec, VoltageSource, build_ladder,
                              end_labels, measured_nodes, preset_tables)

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
    net = build_ladder(preset_tables(name), n_segments=n)

    assert len(net.inductors) == total * n
    assert all(ind.r_series_ohm == approx(ind_line.r_total / n)
               for ind, ind_line in zip(net.inductors,
                                        (ln for ln in net.lines
                                         for _ in range(n))))
    shunt = [c for c in net.capacitors if capacitor_kind(c) == "shunt"]
    coup = [c for c in net.capacitors if capacitor_kind(c) == "coupling"]
    load = [c for c in net.capacitors if capacitor_kind(c) == "load"]
    assert len(shunt) == total * n
    assert len(coup) == cm_pairs * n
    assert len(load) == signal
    assert len(net.mutuals) == m_pairs * n
    assert len(net.resistors) == signal          # drivers only
    assert len(net.sources) == signal
    assert len(net.ties) == ties
    assert len(net.nodes) == 1 + signal + total * (n + 1)


def test_segment_values_sum_to_totals():
    net = build_ladder(preset_tables("shield"), n_segments=12)
    cm_by_pair = {}
    for c in net.capacitors:
        if capacitor_kind(c) == "coupling":
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
    net = build_ladder(preset_tables("no-shield"), n_segments=12)
    cm = sum(c.farads for c in net.capacitors
             if capacitor_kind(c) == "coupling")
    assert cm == approx(STOCK_COUPLING_CAP_ADJACENT_F, rel=1e-12)


def test_single_line_minimal_ladder():
    line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
    net = build_ladder(LadderSpec((line,), name="one"), n_segments=1)
    labels = set(net.nodes)
    assert labels == {"0", "sig_src", "sig_0", "sig_1"}
    assert len(net.resistors) == 1 and len(net.inductors) == 1
    assert len(net.capacitors) == 2          # shunt + load
    assert net.inductors[0].r_series_ohm == approx(500.0)
    assert net.sources == (VoltageSource("Vsig", net.nodes.index("sig_src"),
                                         driven=True),)


def test_shield_removal_reproduces_no_shield_exactly():
    # drop the shield line from the shielded spec and restore the
    # direct coupling capacitance: element-for-element the no-shield net
    lines = tuple(ln for ln in preset_tables("shield").lines
                  if ln.role != "shield")
    couplings = {("aggressor", "victim"): {
        "m_total": STOCK_MUTUAL_ADJACENT_H,
        "cm_total": STOCK_COUPLING_CAP_ADJACENT_F,
    }}
    rebuilt = build_ladder(LadderSpec(lines, couplings, name="no-shield"),
                           n_segments=12)
    assert rebuilt == build_ladder(preset_tables("no-shield"), n_segments=12)


def test_shield_preset_symmetric_under_role_swap():
    """Exchanging the aggressor and victim labels maps the shielded
    network onto itself (same elements at the same places), so the two
    signal lines are electrically interchangeable up to drive."""
    net = build_ladder(preset_tables("shield"), n_segments=6)

    def sw(label):
        if label.startswith("aggressor"):
            return "victim" + label[len("aggressor"):]
        if label.startswith("victim"):
            return "aggressor" + label[len("victim"):]
        return label

    lab = net.nodes
    res = {(frozenset((lab[r.a], lab[r.b])), r.ohms) for r in net.resistors}
    assert res == {(frozenset((sw(lab[r.a]), sw(lab[r.b]))), r.ohms)
                   for r in net.resistors}
    caps = {(capacitor_kind(c), frozenset((lab[c.a], lab[c.b])), c.farads)
            for c in net.capacitors}
    assert caps == {(capacitor_kind(c),
                     frozenset((sw(lab[c.a]), sw(lab[c.b]))), c.farads)
                    for c in net.capacitors}
    inds = {((lab[i.a], lab[i.b]), i.l_h, i.r_series_ohm)
            for i in net.inductors}
    assert inds == {((sw(lab[i.a]), sw(lab[i.b])), i.l_h, i.r_series_ohm)
                    for i in net.inductors}
    seg_of = [(lab[i.a], lab[i.b]) for i in net.inductors]
    muts = {(frozenset((seg_of[m.branch_i], seg_of[m.branch_j])), m.m_h)
            for m in net.mutuals}
    assert muts == {(frozenset((tuple(map(sw, seg_of[m.branch_i])),
                                tuple(map(sw, seg_of[m.branch_j])))), m.m_h)
                    for m in net.mutuals}


class TestTaps:
    def test_uniform_fractions(self):
        def fractions(tap_count):
            return preset_tables("shield", tap_count).taps.fractions

        assert fractions(3) == approx((0.25, 0.5, 0.75))
        assert fractions(0) == ()
        assert fractions(1) == approx((0.5,))
        assert preset_tables("shield-3taps").taps.fractions == fractions(3)
        with pytest.raises(ParameterError, match="tap count must be >= 0"):
            preset_tables("shield", -1)

    def test_three_tap_tie_segments(self):
        net = build_ladder(preset_tables("shield-3taps"), n_segments=12)
        assert {t.name for t in net.ties} == {
            "Rtie_shield_0", "Rtie_shield_3", "Rtie_shield_6",
            "Rtie_shield_9", "Rtie_shield_12"}
        assert all(t.ohms == 0.0 for t in net.ties)

    def test_off_grid_tap_rejected_with_suggestion(self):
        with pytest.raises(ParameterError,
                           match=r"multiple of 8 \(for example n_segments=16\)"):
            build_ladder(preset_tables("shield", 7), n_segments=12)

    def test_resistive_ties(self):
        net = build_ladder(preset_tables("shield-3taps",
                                         tie_resistance_ohm=2.5),
                           n_segments=12)
        assert all(t.ohms == approx(2.5) for t in net.ties)

    def test_schedule_validation(self):
        with pytest.raises(ParameterError, match="strictly inside"):
            TapSchedule(fractions=(0.0, 0.5))
        with pytest.raises(ParameterError, match="strictly increasing"):
            TapSchedule(fractions=(0.5, 0.5))
        with pytest.raises(ParameterError):
            TapSchedule(fractions=(0.5,), tie_resistance_ohm=-1.0)

    def test_non_finite_tie_resistance_is_refused(self):
        # NaN passes a bare >= 0 check, and assemble would drop every tie
        with pytest.raises(ParameterError, match="tie_resistance_ohm"):
            preset_tables("shield", tie_resistance_ohm=math.nan)

    def test_taps_need_a_shield(self):
        with pytest.raises(ParameterError, match="shield"):
            preset_tables("no-shield", tap_count=1)
        with pytest.raises(ParameterError, match="shield"):
            preset_tables("no-shield", tie_resistance_ohm=5.0)
        line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
        with pytest.raises(ParameterError,
                           match="a tap schedule needs a line with role shield"):
            LadderSpec((line,), taps=TapSchedule((0.5,)))
        with pytest.raises(ParameterError,
                           match="a tap schedule needs a line with role shield"):
            LadderSpec((line,), taps=TapSchedule((), 5.0))

    def test_two_taps_on_one_node_are_refused(self):
        # both fractions round to segment 1 at n_segments=2; the two
        # ties share a name, which the network's check refuses
        spec = preset_tables("shield").replace(
            taps=TapSchedule((0.5, 0.5 + 1e-12)))
        with pytest.raises(ParameterError,
                           match=r"duplicate element name\(s\) "
                                 r"\['Rtie_shield_1'\]"):
            build_ladder(spec, n_segments=2)


class TestBuildErrors:
    """A LadderSpec refuses a description on construction; build_ladder
    checks only n_segments."""

    def line(self, name="a", role="aggressor"):
        return LineSpec(name, role, 500.0, 83.24e-6, 134.41e-12)

    def test_duplicate_names(self):
        with pytest.raises(ParameterError, match="unique"):
            LadderSpec((self.line(), self.line()))

    def test_unknown_coupling_pair(self):
        with pytest.raises(ParameterError,
                           match=r"coupling pair \('a', 'ghost'\) does not "
                                 r"name two distinct known lines"):
            LadderSpec((self.line(),), {("a", "ghost"): {"m_total": 1e-6}})

    def test_unknown_coupling_key(self):
        with pytest.raises(ParameterError, match="unknown keys"):
            LadderSpec((self.line(), self.line("b", "victim")),
                       {("a", "b"): {"k_total": 1e-6}})

    def test_unknown_termination(self):
        with pytest.raises(ParameterError, match="unknown line"):
            LadderSpec((self.line(),), terminations={"ghost": TerminationSpec()})

    def test_bad_segment_count(self):
        with pytest.raises(ParameterError, match="n_segments"):
            build_ladder(LadderSpec((self.line(),)), n_segments=0)

    def test_empty(self):
        with pytest.raises(ParameterError, match="at least one line"):
            LadderSpec(())

    @pytest.mark.parametrize("key", ["m_total", "cm_total"])
    def test_non_finite_coupling_is_refused(self, key):
        with pytest.raises(ParameterError, match=f"{key} must be finite"):
            LadderSpec((self.line(), self.line("b", "victim")),
                       {("a", "b"): {key: math.nan}})

    def test_negative_coupling_capacitance_is_refused(self):
        # a negative Cm makes C indefinite and the run diverges
        with pytest.raises(ParameterError, match="cm_total must be >= 0"):
            LadderSpec((self.line(), self.line("b", "victim")),
                       {("a", "b"): {"cm_total": -69.5e-12}})

    def test_pair_given_in_both_orders_is_refused(self):
        # a dict keeps both keys; the later entry used to replace the
        # earlier one in silence, leaving no mutual at all
        with pytest.raises(ParameterError,
                           match=r"coupling pair \('a', 'b'\) is given twice"):
            LadderSpec((self.line(), self.line("b", "victim")),
                       {("a", "b"): {"m_total": 6e-6},
                        ("b", "a"): {"cm_total": 10e-12}})

    def test_pairs_are_stored_sorted(self):
        spec = LadderSpec((self.line("b", "victim"), self.line()),
                          {("b", "a"): {"m_total": 6e-6}})
        assert spec.couplings == {("a", "b"): {"m_total": 6e-6}}
        assert spec.replace() == spec

    def test_spec_is_read_only(self):
        # a coupling added after the construction check used to reach
        # build_ladder and end in KeyError: ('zz', 1)
        spec = preset_tables("no-shield")
        with pytest.raises(TypeError):
            spec.couplings[("aggressor", "zz")] = {"m_total": 1e-6}
        with pytest.raises(TypeError):
            spec.couplings[("aggressor", "victim")]["m_total"] = 1.0
        with pytest.raises(TypeError):
            spec.terminations["victim"] = TerminationSpec()
        changed = spec.replace(couplings={("victim", "aggressor"):
                                          {"m_total": 1e-6}})
        assert changed.couplings == {("aggressor", "victim"):
                                     {"m_total": 1e-6}}
        assert len(build_ladder(changed, n_segments=4).mutuals) == 4

    def test_overtight_coupling_fails_validation(self):
        with pytest.raises(ParameterError,
                           match=r"Ka_b_1: \|M\|/sqrt\(Li\*Lj\) "
                                 r"= 1\.2 is not < 1"):
            build_ladder(LadderSpec((self.line(), self.line("b", "victim")),
                                    {("a", "b"): {"m_total": 1.2 * 83.24e-6}}))

    def test_line_name_must_be_a_string(self):
        # the summary echo would sort it among string names and crash
        with pytest.raises(ParameterError,
                           match="line name must be a string, got 5"):
            LineSpec(5, "victim", 1.0, 1.0, 1.0)

    def test_line_spec_validation(self):
        with pytest.raises(ParameterError, match="unknown role"):
            LineSpec("x", "bystander", 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            LineSpec("x", "victim", -1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            LineSpec("x", "victim", 1.0, 0.0, 1.0)


class TestValidateNetwork:
    """Every CoupledNetwork is checked on construction; each refusal is
    a ParameterError that names the element."""

    def test_pairwise_spd_finding_names_the_mutual(self):
        with pytest.raises(ParameterError,
                           match=r"^Kab: \|M\|/sqrt\(Li\*Lj\) "
                                 r"= 1\.2 is not < 1"):
            make_network(
                ["a1", "a2", "b1", "b2"],
                inductors=[Inductor("La", 1, 2, 1.0),
                           Inductor("Lb", 3, 4, 1.0)],
                mutuals=[Mutual("Kab", 0, 1, 1.2)],
                resistors=[Resistor("Ra", 1, 0, 1.0), Resistor("Rb", 3, 0, 1.0),
                           Resistor("Rc", 2, 0, 1.0), Resistor("Rd", 4, 0, 1.0)])

    def test_collective_spd_failure_passes_pairwise_screen(self):
        # each pair has k = 0.9 < 1 but the 3x3 matrix is indefinite
        with pytest.raises(ParameterError,
                           match="not positive definite; mutuals: K12, K23$"):
            make_network(
                ["n1", "n2", "n3", "n4"],
                inductors=[Inductor("L1", 1, 2, 1.0),
                           Inductor("L2", 2, 3, 1.0),
                           Inductor("L3", 3, 4, 1.0)],
                mutuals=[Mutual("K12", 0, 1, 0.9), Mutual("K23", 1, 2, 0.9)],
                resistors=[Resistor("Rg", 1, 0, 1.0),
                           Resistor("Rh", 4, 0, 1.0)])

    @staticmethod
    def numpy_accepts(l_h, mutuals) -> bool:
        """Whether numpy's Cholesky factors the dense inductance matrix."""
        L = np.diag(l_h)
        for m in mutuals:
            L[m.branch_i, m.branch_j] = L[m.branch_j, m.branch_i] = m.m_h
        try:
            np.linalg.cholesky(L)
        except np.linalg.LinAlgError:
            return False
        return True

    @staticmethod
    def python_accepts(l_h, mutuals) -> bool:
        inductors = tuple(Inductor(f"L{b}", 0, 0, l) for b, l in enumerate(l_h))
        try:
            _check_inductance(inductors, tuple(mutuals))
        except ParameterError as exc:
            assert str(exc).startswith("branch inductance matrix is not "
                                       "positive definite; mutuals: ")
            return False
        return True

    @given(st.lists(st.floats(1e-9, 1e-3), min_size=1, max_size=4),
           st.lists(st.floats(-0.99, 0.99), min_size=6, max_size=6),
           st.lists(st.booleans(), min_size=6, max_size=6))
    @example([1.0, 1.0, 1.0], [0.9, -0.9, 0.9, 0, 0, 0],
             [True, True, True, False, False, False])
    @settings(max_examples=300, deadline=None)
    def test_cholesky_agrees_with_numpy(self, l_h, ks, coupled):
        # every pairwise |k| < 1 passes the pair screen, so the block
        # factorization alone decides; k = 0.9, -0.9, 0.9 is indefinite
        pairs = [(i, j, k) for (i, j), k, on in zip(
            itertools.combinations(range(len(l_h)), 2), ks, coupled) if on]
        mutuals = [Mutual(f"K{i}_{j}", i, j, k * np.sqrt(l_h[i] * l_h[j]))
                   for i, j, k in pairs]
        # keep off the rounding boundary, where either factorization
        # may round a zero pivot to either side
        unit = np.eye(len(l_h))
        for i, j, k in pairs:
            unit[i, j] = unit[j, i] = k
        assume(abs(np.linalg.eigvalsh(unit)).min() > 1e-9)
        assert (self.python_accepts(l_h, mutuals)
                == self.numpy_accepts(l_h, mutuals))

    @pytest.mark.parametrize("k, accepted", [(0.4, True), (0.6, False)])
    def test_cholesky_of_a_48_branch_chain(self, k, accepted):
        # one block of 48 branches; the smallest eigenvalue of L / 1 uH
        # is 1 - 2k cos(pi / 49): 0.2 at k = 0.4 and -0.2 at k = 0.6
        l_h = [1e-6] * 48
        chain = [Mutual(f"K{b}", b, b + 1, k * 1e-6) for b in range(47)]
        assert self.python_accepts(l_h, chain) is accepted
        assert self.numpy_accepts(l_h, chain) is accepted

    def test_floating_node_finding(self):
        with pytest.raises(ParameterError,
                           match="no DC path to ground from: island$"):
            make_network(
                ["driven", "island"],
                resistors=[Resistor("R1", 1, 0, 1.0)],
                capacitors=[Capacitor("Cx", 2, 0, 1e-12)],
                sources=[VoltageSource("V1", 1, driven=True)])

    def test_bad_reference_finding(self):
        with pytest.raises(ParameterError,
                           match=r"Rbad references missing node\(s\) \[99\]"):
            make_network(["x"], resistors=[Resistor("Rbad", 1, 99, 1.0)])

    @pytest.mark.parametrize("field", ["resistor", "source", "tie", "mutual"])
    def test_negative_ids_are_refused(self, field):
        # a negative id would index from the end in the engine and the deck
        elements = {
            "resistor": {"resistors": [Resistor("Rneg", 1, -1, 1.0)]},
            "source": {"sources": [VoltageSource("Vneg", -2, True)]},
            "tie": {"ties": [GroundTie("Tneg", -1, 0.0)]},
            "mutual": {"mutuals": [Mutual("Kneg", 0, -1, 0.1)]},
        }[field]
        base = {"resistors": [Resistor("R1", 1, 0, 1.0),
                              Resistor("R2", 2, 0, 1.0)],
                "inductors": [Inductor("L1", 1, 2, 1.0),
                              Inductor("L2", 1, 2, 1.0)]}
        with pytest.raises(ParameterError, match=r"^[RVTK]neg references"):
            make_network(["a", "b"], **{**base, **elements})

    @pytest.mark.parametrize("ohms", [-5.0, math.nan, math.inf])
    def test_bad_tie_resistance_is_refused(self, ohms):
        # the engine would stamp -5 ohms where the deck wrote 1e-9 ohms
        with pytest.raises(ParameterError,
                           match="Rtie: tie resistance must be finite and >= 0"):
            make_network(["a"], resistors=[Resistor("R1", 1, 0, 1.0)],
                         ties=[GroundTie("Rtie", 1, ohms)])

    @pytest.mark.parametrize("farads", [math.nan, math.inf])
    def test_bad_capacitance_is_refused(self, farads):
        # the deck would write "C1 out 0 nan" and exit 0 where the run
        # ends in a SolverError
        with pytest.raises(ParameterError,
                           match="C1: capacitance must be finite, got"):
            make_network(["in", "out"], resistors=[Resistor("R1", 1, 2, 1.0)],
                         capacitors=[Capacitor("C1", 2, 0, farads)],
                         sources=[VoltageSource("Vin", 1, True)])

    def test_mutual_on_one_branch_is_refused(self):
        with pytest.raises(ParameterError, match="^Kself couples La with itself"):
            make_network(
                ["a"], inductors=[Inductor("La", 1, 0, 1.0)],
                mutuals=[Mutual("Kself", 0, 0, 0.5)])

    def test_second_mutual_on_a_pair_is_refused(self):
        # summed as assemble stamps them, the two give k = 1.2
        with pytest.raises(ParameterError,
                           match="^K2 couples Lb and La, which K1 already "
                                 "couples"):
            make_network(
                ["a", "b"],
                inductors=[Inductor("La", 1, 0, 1.0), Inductor("Lb", 2, 0, 1.0)],
                mutuals=[Mutual("K1", 0, 1, 0.6), Mutual("K2", 1, 0, 0.6)])

    @pytest.mark.parametrize("l_h, r_ohm", [(math.nan, 0.0), (0.0, 0.0),
                                            (1.0, -2.0), (1.0, math.inf)])
    def test_bad_inductor_is_refused(self, l_h, r_ohm):
        # the deck writes no R card for a series resistance below 0,
        # which the engine would stamp
        with pytest.raises(ParameterError,
                           match="^La: needs finite l_h > 0 and r_series_ohm"):
            make_network(["a"], inductors=[Inductor("La", 1, 0, l_h, r_ohm)])

    def test_non_finite_mutual_is_refused(self):
        with pytest.raises(ParameterError,
                           match=r"^Kab: \|M\|/sqrt\(Li\*Lj\) "
                                 r"= nan is not < 1"):
            make_network(
                ["a", "b"],
                inductors=[Inductor("La", 1, 0, 1.0), Inductor("Lb", 2, 0, 1.0)],
                mutuals=[Mutual("Kab", 0, 1, math.nan)])

    def test_source_on_a_ground_tied_node_is_refused(self):
        for ties in ([GroundTie("Rtie", 1, 0.0)], []):
            node = 1 if ties else 0
            with pytest.raises(ParameterError,
                               match="source V1 drives a ground-tied node"):
                make_network(["a"], resistors=[Resistor("R1", 1, 0, 1.0)],
                             sources=[VoltageSource("V1", node, True)],
                             ties=ties)

    def test_zero_resistance_inductor_loop_names_the_closing_inductor(self):
        # a 0-ohm shield between two 0-ohm ties: the DC branch currents
        # are not set by anything, though every node reaches ground
        net = build_ladder(preset_tables("shield"), n_segments=4)
        shield = [i.replace(r_series_ohm=0.0) if i.name.startswith("Lshield")
                  else i for i in net.inductors]
        with pytest.raises(ParameterError,
                           match="^Lshield_4 closes a loop of zero-resistance "
                                 "inductors"):
            net.replace(inductors=tuple(shield))
        # through a source, and with no ground tie on the loop at all
        with pytest.raises(ParameterError, match="^L2 closes a loop"):
            make_network(["in", "a"], resistors=[Resistor("R1", 2, 0, 1.0)],
                         inductors=[Inductor("L1", 1, 2, 1.0),
                                    Inductor("L2", 2, 1, 1.0)],
                         sources=[VoltageSource("V1", 1, True)])
        # a resistive tie breaks the loop
        ties = tuple(t.replace(ohms=2.0) for t in net.ties)
        net.replace(inductors=tuple(shield), ties=ties)

    def test_duplicate_node_labels_are_refused(self):
        # the deck would short R1 across one node; the engine would fold
        # both nodes into one trace
        with pytest.raises(ParameterError,
                           match=r"duplicate node label\(s\) \['in'\]"):
            make_network(["in", "in"], resistors=[Resistor("R1", 1, 2, 1.0)],
                         capacitors=[Capacitor("C1", 2, 0, 1e-9)],
                         sources=[VoltageSource("Vin", 1, True)])

    @pytest.mark.parametrize("resistor, label, match", [
        ("L1", "b", r"^duplicate element name\(s\) \['L1'\]"),
        # the deck's card for L1's series resistance is named R1 too
        ("R1", "b", r"^duplicate element name\(s\) \['R1'\]"),
        # the deck would join this node to L1's internal node
        ("Ra", "_m1", r"^duplicate node label\(s\) \['_m1'\]"),
    ], ids=["element", "split-card", "split-node"])
    def test_deck_names_are_not_reused(self, resistor, label, match):
        with pytest.raises(ParameterError, match=match):
            make_network(["a", label],
                         resistors=[Resistor(resistor, 1, 0, 1.0)],
                         inductors=[Inductor("L1", 1, 2, 1.0, 2.0)])

    @pytest.mark.parametrize("labels, resistor, match", [
        (["in put"], "R1", r"^node label 'in put' is empty or holds "
                           r"whitespace"),
        ([""], "R1", r"^node label '' is empty"),
        (["a\tb"], "R1", r"^node label 'a\\tb' is empty"),
        (["in"], "R 1", r"^element name 'R 1' is empty"),
        (["in"], "", r"^element name '' is empty"),
    ], ids=["space", "empty-label", "tab", "element-space", "empty-element"])
    def test_names_a_card_cannot_carry_are_refused(self, labels, resistor,
                                                   match):
        # a deck splits a card at whitespace: "Vagg one agg one_src 0"
        with pytest.raises(ParameterError, match=match):
            make_network(labels, resistors=[Resistor(resistor, 1, 0, 1.0)])

    @pytest.mark.parametrize("elements, match", [
        ({"ties": [GroundTie("Ttie", 1, 0.0)]}, "^Ttie: .* must be R here"),
        ({"capacitors": [Capacitor("Xc", 1, 0, 1e-12)]}, "^Xc: .* be C here"),
        ({"inductors": [Inductor("Ra", 1, 0, 1.0)]}, "^Ra: .* be L here"),
        ({"sources": [VoltageSource("Iin", 1, True)]}, "^Iin: .* be V here"),
    ], ids=["tie", "capacitor", "inductor", "source"])
    def test_element_name_starts_with_its_card_letter(self, elements, match):
        # a tie named T... would be read as a transmission line
        base = {"resistors": [Resistor("R1", 1, 0, 1.0)]}
        with pytest.raises(ParameterError, match=match):
            make_network(["a"], **{**base, **elements})
        # the letter is read case-insensitively, as a deck reads it
        make_network(["a"], resistors=[Resistor("r1", 1, 0, 1.0)],
                     ties=[GroundTie("rtie", 1, 0.0)])

    def test_ground_must_be_labeled_0(self):
        # the deck would leave a "gnd" node floating
        net = make_network(["in", "out"],
                           resistors=[Resistor("R1", 1, 2, 1.0),
                                      Resistor("R2", 2, 0, 1.0)])
        with pytest.raises(ParameterError, match="node 0 must be ground"):
            net.replace(nodes=("gnd", "in", "out"))

    def test_clean_presets_have_no_findings(self):
        for name in PRESET_SHAPE:
            for n in (4, 12, 48):
                net = build_ladder(preset_tables(name), n_segments=n)
                assert net.replace() == net     # construction check passes


def _stock_line(name: str, role: str) -> LineSpec:
    return LineSpec(name, role, 500.0, 83.24e-6, 134.41e-12)


LABELED_LAYOUTS = {
    **{f"{name}-{n}": (preset_tables(name),
                       4 * n if name == "shield-3taps" and n % 4 else n)
       for name in PRESET_NAMES for n in (1, 12, 48)},
    **{f"{name}-{n}": (spec, n) for n in (1, 12) for name, spec in {
        "no-victim": LadderSpec((_stock_line("a", "aggressor"),)),
        "shield-only": LadderSpec((_stock_line("s", "shield"),)),
        "two-quiet": LadderSpec(
            (_stock_line("a", "aggressor"), _stock_line("q1", "victim"),
             _stock_line("q2", "victim")),
            {("a", "q1"): {"cm_total": 1e-11}, ("q1", "q2"): {"m_total": 5e-6}}),
    }.items()},
}


def _wired_ends(net) -> dict[str, tuple[list[str], str]]:
    """Per line, read from the elements alone: the labels of the sources
    whose resistor drives its first inductor, and of the b node of its
    last inductor. A line's n_segments branches are consecutive."""
    n, out = net.n_segments, {}
    for i, ln in enumerate(net.lines):
        chain = net.inductors[i * n:(i + 1) * n]
        assert all(x.b == y.a for x, y in zip(chain, chain[1:]))
        near = chain[0].a
        driving = {r.b if r.a == near else r.a for r in net.resistors
                   if near in (r.a, r.b)}
        out[ln.name] = ([net.nodes[s.node] for s in net.sources
                         if s.node in driving], net.nodes[chain[-1].b])
    return out


@pytest.mark.parametrize("layout", sorted(LABELED_LAYOUTS))
def test_label_readers_follow_the_wiring(layout):
    spec, n = LABELED_LAYOUTS[layout]
    net = build_ladder(spec, n_segments=n)
    wired = _wired_ends(net)
    want = []
    for ln in net.lines:
        sources, far = wired[ln.name]
        assert len(sources) == (ln.role != "shield"), ln.name
        want += [*sources, far]
    assert end_labels(net) == tuple(want)
    assert set(end_labels(net)) <= set(net.nodes)
    agg = [ln.name for ln in net.lines if ln.role == "aggressor"]
    vic = [ln.name for ln in net.lines if ln.role == "victim"]
    if len(agg) == len(vic) == 1:
        assert measured_nodes(net) == {"source": wired[agg[0]][0][0],
                                       "aggressor": wired[agg[0]][1],
                                       "victim": wired[vic[0]][1]}
    else:
        assert measured_nodes(net) == {}


class TestAccessors:
    def test_inductance_matrix_is_spd_and_symmetric(self):
        # the inductor block of the assembled C holds -L
        sys = assemble(build_ladder(preset_tables("shield"), n_segments=2))
        nv = sys.n_node_unknowns
        L = -sys.C[nv:, nv:]
        assert L.shape == (6, 6)
        assert np.allclose(L, L.T)
        np.linalg.cholesky(L)                 # raises if not SPD
        assert L[0, 0] == approx(STOCK_LINE_INDUCTANCE_H / 2, rel=1e-12)


class TestTerminations:
    def test_custom_driver_and_load(self):
        line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
        net = build_ladder(LadderSpec((line,), terminations={
            "sig": TerminationSpec(driver_resistance_ohm=50.0,
                                   load_capacitance_f=0.0)}),
            n_segments=2)
        assert net.resistors[0].ohms == approx(50.0)
        assert not [c for c in net.capacitors if capacitor_kind(c) == "load"]

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            TerminationSpec(driver_resistance_ohm=-1.0)
        # a 0 ohm driver shorts the source onto the line
        with pytest.raises(ParameterError,
                           match="driver_resistance_ohm must be finite and > 0"):
            TerminationSpec(driver_resistance_ohm=0.0)
        with pytest.raises(ParameterError, match="source_ref"):
            TerminationSpec(source_ref="sine")

    def test_non_finite_load_is_refused(self):
        # a NaN load would be left out of the ladder in silence
        with pytest.raises(ParameterError, match="load_capacitance_f"):
            TerminationSpec(load_capacitance_f=math.nan)

    def test_non_finite_driver_is_refused(self):
        # a NaN driver would only fail inside the LU factorization
        with pytest.raises(ParameterError, match="driver_resistance_ohm"):
            TerminationSpec(driver_resistance_ohm=math.nan)

    def test_quiet_source_for_victim_by_default(self):
        net = build_ladder(preset_tables("no-shield"))
        driven = {s.name: s.driven for s in net.sources}
        assert driven == {"Vaggressor": True, "Vvictim": False}

    def test_default_rule_covers_every_signal_line(self):
        custom = TerminationSpec(driver_resistance_ohm=50.0)
        terms = preset_tables("shield").replace(
            terminations={"victim": custom}).terminations
        assert terms == {"aggressor": TerminationSpec(source_ref="stimulus"),
                         "victim": custom}
        terms = preset_tables("shield").terminations
        assert terms["victim"] == TerminationSpec(source_ref="quiet")
        assert "shield" not in terms

    def test_shield_termination_is_refused(self):
        with pytest.raises(ParameterError,
                           match="'shield' is a shield; its ends are ground ties"):
            preset_tables("shield").replace(terminations={
                "shield": TerminationSpec(driver_resistance_ohm=1.0)})
