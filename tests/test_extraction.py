"""Formula-level tests for the parasitic extraction module.

Reference values were computed independently (plain-Python evaluation
of each closed form) and frozen here, so regressions in the library
implementation cannot hide behind a shared code path.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalksim.errors import ParameterError
from xtalksim.extraction import (BUILTIN_COEFFICIENTS, EPS0_F_PER_M,
                                 InterconnectGeometry, LineElectricals,
                                 PAPER_LITERAL, TABLE_COMPAT,
                                 coupling_capacitance, extract_all,
                                 line_capacitance, line_resistance,
                                 mutual_inductance_bracket, pair_key,
                                 self_inductance)

approx = pytest.approx


class TestResistance:
    def test_stock_geometry(self):
        # 0.05 ohm/sq * 5000/2 squares
        assert line_resistance(0.05, 5000.0, 2.0) == approx(125.0, rel=1e-12)

    def test_square_wire_gives_sheet_resistance(self):
        assert line_resistance(0.05, 7.0, 7.0) == approx(0.05, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            line_resistance(0.05, -1.0, 2.0)
        with pytest.raises(ParameterError):
            line_resistance(0.0, 5000.0, 2.0)


class TestSelfInductance:
    def test_stock_geometry(self):
        assert self_inductance(5000.0, 2.0, 2.0) == approx(
            83.24046010856293, rel=1e-12)

    def test_lambda_shifts_bracket(self):
        base = self_inductance(5000.0, 2.0, 2.0, lam=1.0)
        shifted = self_inductance(5000.0, 2.0, 2.0, lam=math.e)
        assert shifted == approx(base - 0.002 * 5000.0, rel=1e-9)

    def test_bracket_sign_change(self):
        # the bracket crosses zero where w + t = 2*l*e^0.5
        w = math.exp(0.5)
        assert self_inductance(1.0, w, w) == approx(0.0, abs=1e-12)
        assert self_inductance(1.0, 1.7, 1.7) < 0.0


class TestMutualInductance:
    def test_bracket_values(self):
        assert mutual_inductance_bracket(5000.0, 1.0) == approx(
            8.210540351976183, rel=1e-12)
        assert mutual_inductance_bracket(5000.0, 2.0) == approx(
            7.517593111416241, rel=1e-12)
        assert mutual_inductance_bracket(5000.0, 4.0) == approx(
            6.824845690856343, rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=1.01, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_separation(self, d, factor):
        closer = mutual_inductance_bracket(5000.0, d)
        farther = mutual_inductance_bracket(5000.0, d * factor)
        assert farther < closer


class TestLineCapacitance:
    def test_stock_geometry(self):
        # w = t = h collapses the fringing terms to 1 + 0.77 + 1.06 + 1.06
        expect = 3.9 * EPS0_F_PER_M * 3.89
        got = line_capacitance(2.0, 2.0, 2.0, 3.9)
        assert got == approx(expect, rel=1e-12)
        assert got == approx(1.3441506e-10, rel=1e-7)

    def test_off_stock_geometries(self):
        assert line_capacitance(4.0, 2.0, 1.0, 3.9) == approx(
            1.6517132419105944e-10, rel=1e-12)
        assert line_capacitance(1.0, 4.0, 2.0, 2.5) == approx(
            5.579732023095791e-11, rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=1.01, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_increasing_in_width(self, w, factor):
        assert (line_capacitance(w * factor, 2.0, 2.0, 3.9)
                > line_capacitance(w, 2.0, 2.0, 3.9))


class TestCouplingCapacitance:
    def test_compat_set_tracks_stock_table(self):
        d1 = coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9, TABLE_COMPAT)
        d2 = coupling_capacitance(2.0, 2.0, 2.0, 2.0, 3.9, TABLE_COMPAT)
        assert d1 == approx(6.910438628991751e-11, rel=1e-12)
        assert d2 == approx(2.7297660000000002e-11, rel=1e-12)
        # the fit lands within 1% of the stock 69.50 / 27.47 pF values
        assert d1 == approx(69.50e-12, rel=0.01)
        assert d2 == approx(27.47e-12, rel=0.01)

    def test_literal_set_values(self):
        assert coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9,
                                    PAPER_LITERAL) == approx(
            7.850783125974805e-11, rel=1e-12)
        assert coupling_capacitance(2.0, 2.0, 2.0, 2.0, 3.9,
                                    PAPER_LITERAL) == approx(
            6.202443000000001e-11, rel=1e-12)

    def test_default_coefficients_are_compat(self):
        assert coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9) == approx(
            coupling_capacitance(2.0, 2.0, 2.0, 1.0, 3.9, TABLE_COMPAT),
            rel=1e-15)
        assert BUILTIN_COEFFICIENTS["table-compat"] is TABLE_COMPAT
        assert BUILTIN_COEFFICIENTS["paper-literal"] is PAPER_LITERAL

    @given(st.floats(min_value=0.5, max_value=20.0),
           st.floats(min_value=1.01, max_value=4.0),
           st.sampled_from([TABLE_COMPAT, PAPER_LITERAL]))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_separation(self, d, factor, coeffs):
        closer = coupling_capacitance(2.0, 2.0, 2.0, d, 3.9, coeffs)
        farther = coupling_capacitance(2.0, 2.0, 2.0, d * factor, 3.9, coeffs)
        assert 0.0 < farther < closer


class TestPairKey:
    def test_sorts(self):
        assert pair_key("victim", "aggressor") == ("aggressor", "victim")
        assert pair_key("aggressor", "victim") == ("aggressor", "victim")

    def test_rejects_self_pair(self):
        with pytest.raises(ParameterError):
            pair_key("shield", "shield")


class TestLineElectricals:
    def bundle(self, m=8.21e-6):
        return LineElectricals(
            r_total={"a": 500.0, "b": 500.0},
            l_total={"a": 83.24e-6, "b": 83.24e-6},
            c_total={"a": 134.41e-12, "b": 134.41e-12},
            m_total={("a", "b"): m},
            cm_total={("a", "b"): 69.50e-12})

    def test_coupling_k(self):
        assert self.bundle().coupling_k("b", "a") == approx(
            8.21 / 83.24, rel=1e-12)

    def test_validate_accepts_stock(self):
        self.bundle().validate()

    def test_validate_rejects_tight_coupling(self):
        with pytest.raises(ParameterError, match="a-b"):
            self.bundle(m=1.2 * 83.24e-6).validate()

    def test_validate_rejects_zero_pair_value(self):
        bad = LineElectricals(r_total={"a": 1.0}, l_total={"a": 1.0},
                              c_total={"a": 1.0},
                              cm_total={("a", "b"): 0.0})
        with pytest.raises(ParameterError, match="drop the pair"):
            bad.validate()


class TestExtractAll:
    def geoms(self, d=1.0):
        g = InterconnectGeometry(separation_um=d)
        return {"aggressor": g, "victim": g}

    def test_formula_passthrough(self):
        out = extract_all(self.geoms(),
                          {("aggressor", "victim"): 1.0})
        assert out.r_total["aggressor"] == approx(125.0, rel=1e-12)
        assert out.l_total["victim"] == approx(83.24046010856293, rel=1e-12)
        assert out.c_total["victim"] == approx(1.3441506e-10, rel=1e-7)
        key = ("aggressor", "victim")
        assert out.m_total[key] == approx(8.210540351976183, rel=1e-12)
        assert out.cm_total[key] == approx(6.910438628991751e-11, rel=1e-12)

    def test_unknown_line_in_pair(self):
        # only an API caller reaches it: a config's pairs name its lines
        with pytest.raises(ParameterError, match=r"^pair separation names "
                                                 r"unknown line 'shield'$"):
            extract_all(self.geoms(), {("aggressor", "shield"): 1.0})

    def test_no_line_geometry(self):
        with pytest.raises(ParameterError, match=r"^extract_all needs at "
                                                 r"least one line geometry$"):
            extract_all({})

    def test_coefficient_set_selection(self):
        lit = extract_all(self.geoms(), {("aggressor", "victim"): 1.0},
                          coeffs=PAPER_LITERAL)
        assert lit.cm_total[("aggressor", "victim")] == approx(
            7.850783125974805e-11, rel=1e-12)


class TestGeometryValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ParameterError):
            InterconnectGeometry(width_um=0.0)
        with pytest.raises(ParameterError):
            InterconnectGeometry(eps_rel=0.5)

    def test_defaults_are_stock(self):
        g = InterconnectGeometry()
        assert (g.length_um, g.width_um, g.thickness_um, g.height_um) == (
            5000.0, 2.0, 2.0, 2.0)
        assert g.separation_um == 1.0
        assert g.eps_rel == approx(3.9)
        assert g.sheet_res_ohm_sq == approx(0.05)
