"""Deck-export tests: card inventory, coupling coefficients, stability."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from _reference import make_network
from xtalksim.cli import main
from xtalksim.config import resolve_stimulus
from xtalksim.engine import run_transient
from xtalksim.errors import ParameterError
from xtalksim.inputs import SimConfig, smooth_edge
from xtalksim.netlist import TIE_OHMS_FLOOR, _pwl_points, export_netlist
from xtalksim.network import (Inductor, LadderSpec, LineSpec, Mutual,
                              Resistor, VoltageSource, build_ladder,
                              preset_tables)

approx = pytest.approx

SIM = SimConfig(dt=5e-11, t_end=2.4e-6)
EDGE = smooth_edge(2e-7)
STEP = resolve_stimulus({"kind": "step"})


def element_cards(deck: str) -> list[str]:
    return [ln for ln in deck.splitlines()
            if ln and not ln.startswith(("*", "."))]


class TestDeckShape:
    def test_single_line_minimal_deck(self):
        line = LineSpec("sig", "aggressor", 500.0, 83.24e-6, 134.41e-12)
        net = build_ladder(LadderSpec((line,), name="one"), n_segments=1)
        deck = export_netlist(net, EDGE, SIM)
        cards = element_cards(deck)
        assert len(cards) == 6
        kinds = sorted(c.split()[0] for c in cards)
        assert kinds == ["Cload_sig", "Csig_1", "Lsig_1", "Rdrv_sig",
                         "Rsig_1", "Vsig"]
        assert deck.splitlines()[-2] == ".tran 5e-11 2.4e-06"
        assert deck.endswith(".end\n")

    def test_series_resistance_split_through_internal_node(self):
        net = build_ladder(preset_tables("no-shield"), n_segments=2)
        deck = export_netlist(net, EDGE, SIM)
        # R card into the internal mid node, L card out of it
        assert "Raggressor_1 aggressor_0 aggressor_m1 250" in deck
        assert "Laggressor_1 aggressor_m1 aggressor_1 4.162e-05" in deck

    def test_zero_series_resistance_keeps_single_card(self):
        net = make_network(
            ["a", "b"],
            inductors=[Inductor("L1", 1, 2, 2e-6)],
            resistors=[Resistor("R1", 2, 0, 5.0)],
            sources=[VoltageSource("V1", 1, driven=True)])
        deck = export_netlist(net, STEP, SimConfig(1e-9, 1e-6))
        assert "L1 a b 2e-06" in deck
        assert "Rm" not in deck

    def test_tie_cards_get_resistance_floor(self):
        net = build_ladder(preset_tables("shield-3taps"), n_segments=12)
        deck = export_netlist(net, EDGE, SIM)
        for seg in (0, 3, 6, 9, 12):
            assert f"Rtie_shield_{seg} shield_{seg} 0 1e-09" in deck
        assert _count_prefix(deck, "Rtie_") == 5

    def test_resistive_ties_keep_their_value(self):
        net = build_ladder(preset_tables("shield", tie_resistance_ohm=3.5),
                           n_segments=4)
        deck = export_netlist(net, EDGE, SIM)
        assert "Rtie_shield_0 shield_0 0 3.5" in deck


def _count_prefix(deck: str, prefix: str) -> int:
    return sum(1 for ln in deck.splitlines() if ln.startswith(prefix))


class TestCouplingCards:
    def test_k_matches_value_ratio(self):
        net = build_ladder(preset_tables("no-shield"), n_segments=12)
        deck = export_netlist(net, EDGE, SIM)
        k_cards = [ln for ln in deck.splitlines() if ln.startswith("K")]
        assert len(k_cards) == 12
        for card in k_cards:
            name, li, lj, k = card.split()
            assert li.startswith("Laggressor_") and lj.startswith("Lvictim_")
            # per-segment scaling cancels: k is the totals ratio
            assert float(k) == approx(8.21 / 83.24, rel=1e-9)

    def test_shield_preset_keeps_signal_signal_coupling(self):
        deck = export_netlist(build_ladder(preset_tables("shield")), EDGE, SIM)
        assert _count_prefix(deck, "Kaggressor_victim_") == 12
        assert _count_prefix(deck, "Kaggressor_shield_") == 12
        assert _count_prefix(deck, "Kshield_victim_") == 12
        card = next(ln for ln in deck.splitlines()
                    if ln.startswith("Kaggressor_shield_1 "))
        assert float(card.split()[3]) == approx(7.51 / 83.24, rel=1e-9)

    def test_overtight_coupling_refused(self):
        # k = 1 has no passive deck; the network is refused when built,
        # so export_netlist never sees it
        with pytest.raises(ParameterError,
                           match=r"^Kab: \|M\|/sqrt\(Li\*Lj\) = 1 is not < 1"):
            make_network(
                ["a1", "a2", "b1", "b2"],
                inductors=[Inductor("La", 1, 2, 1e-6),
                           Inductor("Lb", 3, 4, 1e-6)],
                mutuals=[Mutual("Kab", 0, 1, 1.0e-6)],
                resistors=[Resistor("Ra", 1, 0, 1.0), Resistor("Rb", 3, 0, 1.0),
                           Resistor("Rc", 2, 0, 1.0), Resistor("Rd", 4, 0, 1.0)])


    def test_branch_currents_and_k_card_name_the_same_inductors(self):
        # the quiet Lb comes first, so it is branch 0 and the driven La
        # is branch 1
        net = make_network(
            ["a1", "a2", "b1", "b2"],
            inductors=[Inductor("Lb", 3, 4, 1e-6),
                       Inductor("La", 1, 2, 1e-6)],
            mutuals=[Mutual("Kab", 1, 0, 0.5e-6)],
            resistors=[Resistor("Ra", 2, 0, 1.0), Resistor("Rb1", 3, 0, 1.0),
                       Resistor("Rb2", 4, 0, 1.0)],
            sources=[VoltageSource("Va", 1, driven=True)])
        stim, sim = STEP, SimConfig(dt=1e-9, t_end=1e-6)
        waves = run_transient(net, stim, sim)
        # L i' = -R i + (1 V across La), so i(t) = (1 - expm(-L^-1 R t)) e_a
        L = np.array([[1e-6, 0.5e-6], [0.5e-6, 1e-6]])
        R = np.diag([1.0, 2.0])
        i_end = (np.eye(2) - expm(-np.linalg.solve(L, R) * 1e-6)) @ [1.0, 0.0]
        assert waves.branch_currents["La"][-1] == approx(i_end[0], rel=1e-5)
        assert waves.branch_currents["Lb"][-1] == approx(i_end[1], rel=1e-5)
        assert "Kab La Lb 0.5" in export_netlist(net, stim, sim)


class TestSourceCards:
    def net(self):
        return build_ladder(preset_tables("no-shield"), n_segments=1)

    def test_quiet_source_is_dc_zero(self):
        deck = export_netlist(self.net(), EDGE, SIM)
        assert "Vvictim victim_src 0 DC 0" in deck

    def test_step_gets_subsample_edge(self):
        deck = export_netlist(self.net(), resolve_stimulus(
            {"kind": "step", "amplitude_v": 2.0}), SIM)
        assert "Vaggressor aggressor_src 0 PWL(0 0 1e-15 2)" in deck

    def test_delayed_ramp_holds_initial_value(self):
        stim = resolve_stimulus({"kind": "ramp", "rise_time_s": 1e-7,
                                 "delay_s": 2e-7})
        deck = export_netlist(self.net(), stim, SIM)
        assert "PWL(0 0 2e-07 0 3e-07 1)" in deck

    @pytest.mark.parametrize("block", [
        {"kind": "step"},
        {"kind": "ramp", "rise_time_s": 2.0 ** -24},
        {"kind": "pwl", "points": [[0.0, 0.25], [2.0 ** -26, 0.75],
                                   [2.0 ** -25, -0.5], [2.0 ** -24, 1.0]]},
        {"kind": "smooth-edge", "rise_time_s": 2.0 ** -24},
    ])
    def test_card_breakpoints_give_the_engine_drive(self, block):
        # Binary fractions for the delay, the times and the amplitude make
        # every shift and scaling exact, so the card's breakpoints must
        # give the engine's samples bit for bit. The delay is under 1 fs:
        # only there is delay + STEP_EDGE_S exact.
        delay = 2.0 ** -50
        stim = resolve_stimulus(dict(block, amplitude_v=2.0, delay_s=delay))
        times = np.concatenate([
            delay + np.arange(-8, 100) * 2.0 ** -56,    # across the 1 fs edge
            np.arange(160) * 2.0 ** -30])                # past the rise
        card_t, card_v = zip(*_pwl_points(stim))
        np.testing.assert_array_equal(np.interp(times, card_t, card_v),
                                      stim.values(times))

    @pytest.mark.parametrize("block", [
        {"kind": "smooth-edge", "rise_time_s": 2e-7, "amplitude_v": 0.7,
         "delay_s": 3e-9},
        {"kind": "pwl", "amplitude_v": -3.0,
         "points": [[1e-9, 0.5], [2e-9, -0.25], [5e-9, 1.0]]},
        {"kind": "step", "delay_s": 1e-6},
        {"kind": "ramp", "rise_time_s": 1e-8, "amplitude_v": 1.5},
    ])
    def test_card_points_are_the_stimulus_breakpoints(self, block):
        # as printed: 9 digits, or a time in full where 9 digits would
        # equal a neighbour's; a drive that starts after t = 0 gets a
        # leading (0, v0) point, which holds its first value
        stim = resolve_stimulus(block)
        deck = export_netlist(self.net(), stim, SIM)
        card = next(ln for ln in deck.splitlines() if ln.startswith("Vagg"))
        numbers = [float(x) for x in card.split("PWL(")[1].rstrip(")").split()]
        points = list(zip(numbers[::2], numbers[1::2]))
        bp = stim.breakpoints
        if bp[0][0] > 0.0:
            assert points.pop(0) == (0.0, float(f"{bp[0][1]:.9g}"))
        assert len(points) == len(bp)
        for (t, v), (bt, bv) in zip(points, bp):
            assert t in (bt, float(f"{bt:.9g}"))
            assert v == float(f"{bv:.9g}")

    def test_delayed_step_card_times_increase(self):
        # at 9 digits, 1e-6 and 1e-6 + STEP_EDGE_S print the same
        stim = resolve_stimulus({"kind": "step", "delay_s": 1e-6})
        deck = export_netlist(self.net(), stim, SIM)
        card = next(ln for ln in deck.splitlines() if ln.startswith("Vagg"))
        numbers = [float(x) for x in card.split("PWL(")[1].rstrip(")").split()]
        times = numbers[::2]
        assert len(times) == 3
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))

    def test_delay_merging_breakpoints_is_refused(self, tmp_path, capsys):
        # 100 + STEP_EDGE_S == 100 in doubles: the card held 0 V for good
        # while the engine drove 1 V from t = 101 s
        rc = main(["export-netlist", "--preset", "no-shield",
                   "--set", "stimulus.kind=step",
                   "--set", "stimulus.samples=null",
                   "--set", "stimulus.rise_time_s=null",
                   "--set", "stimulus.delay_s=100", "--set", "sim.dt=1",
                   "--set", "sim.t_end=200", "--out", str(tmp_path)])
        assert rc == 1
        assert ("error: stimulus delay_s=100.0 merges the breakpoints at "
                "t=0.0 and t=1e-15" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_smooth_edge_point_count(self):
        deck = export_netlist(self.net(), smooth_edge(2e-7, samples=64), SIM)
        card = next(ln for ln in deck.splitlines() if ln.startswith("Vagg"))
        n_numbers = len(card.replace("PWL(", " ").replace(")", " ").split()) - 3
        assert n_numbers == 2 * 65


class TestStability:
    def test_byte_stable_across_calls(self):
        net = build_ladder(preset_tables("shield-3taps"))
        a = export_netlist(net, EDGE, SIM)
        b = export_netlist(net, EDGE, SIM)
        assert a == b

    def test_byte_stable_across_rebuilds(self):
        a = export_netlist(build_ladder(preset_tables("shield")), EDGE, SIM)
        b = export_netlist(build_ladder(preset_tables("shield")),
                           smooth_edge(2e-7), SimConfig(dt=5e-11, t_end=2.4e-6))
        assert a == b

    def test_waveform_labels_all_appear_in_deck(self):
        net = build_ladder(preset_tables("no-shield"), n_segments=2)
        waves = run_transient(net, resolve_stimulus({"kind": "ramp",
                                                     "rise_time_s": 20e-9}),
                              SimConfig(dt=1e-9, t_end=100e-9))
        deck = export_netlist(net, EDGE, SIM)
        tokens = set()
        for card in element_cards(deck):
            tokens.update(card.split())
        for label in waves.node_traces:
            assert label in tokens, label

    def test_tie_floor_constant(self):
        assert TIE_OHMS_FLOOR == approx(1e-9)
