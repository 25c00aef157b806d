"""Measurement-layer tests: synthetic traces with known answers first,
then whole-scenario measurements on real runs."""

import json
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalksim.config import resolve_stimulus, write_summary_json
from xtalksim.engine import run_transient
from xtalksim.errors import ParameterError
from xtalksim.inputs import SimConfig
from xtalksim.metrics import (ScenarioResult, TraceMeasurement,
                              first_crossing, measure_scenario, measure_trace)
from xtalksim.network import LadderSpec, LineSpec, build_ladder

approx = pytest.approx


def delay(t, src, out, kind="signal"):
    """Delay of ``out`` from the source's 50% time, as measure_scenario
    takes it."""
    return measure_trace(t, out, kind,
                         measure_trace(t, src, "signal").delay).delay


def rise_time(t, trace, kind="signal"):
    return measure_trace(t, trace, kind).rise_time


class TestFirstCrossing:
    def test_interpolates_between_samples(self):
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([0.0, 0.0, 1.0])
        assert first_crossing(t, v, 0.25) == approx(1.25)

    def test_starts_at_or_above_level(self):
        t = np.array([3.0, 4.0])
        assert first_crossing(t, np.array([0.5, 1.0]), 0.5) == approx(3.0)
        assert first_crossing(t, np.array([0.9, 1.0]), 0.5) == approx(3.0)

    def test_never_crosses(self):
        t = np.arange(5.0)
        assert first_crossing(t, np.zeros(5), 0.5) is None

    def test_first_of_many(self):
        t = np.arange(6.0)
        v = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        assert first_crossing(t, v, 0.5) == approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            first_crossing(np.array([]), np.array([]), 0.5)


class TestPeakNoise:
    def test_triangle(self):
        t = np.arange(0.0, 61.0)
        v = np.where(t <= 30, t, 60 - t) * (0.59 / 30)
        m = measure_trace(t, v, "signal")
        assert m.peak_v == approx(0.59, rel=1e-12)
        assert m.t_peak == approx(30.0)

    def test_all_zero(self):
        t = np.arange(4.0)
        m = measure_trace(t, np.zeros(4), "signal")
        assert (m.peak_v, m.t_peak) == (0.0, 0.0)

    def test_constant_offset_from_baseline(self):
        t = np.arange(5.0) + 7.0
        v = np.array([1.0, 3.0, 3.0, 3.0, 3.0])   # baseline is v[0]
        m = measure_trace(t, v, "noise")
        assert m.peak_v == approx(2.0)
        assert m.t_peak == approx(8.0)       # first occurrence

    def test_negative_excursion_counts(self):
        t = np.arange(5.0)
        v = np.array([0.0, -0.3, 0.1, -0.2, 0.0])
        m = measure_trace(t, v, "signal")
        assert (m.peak_v, m.t_peak) == (approx(0.3), approx(1.0))

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            measure_trace(np.arange(3.0), np.zeros(2), "signal")

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_and_shift_equivariance(self, scale, shift):
        t = np.arange(0.0, 21.0)
        v = np.sin(t / 3.0)       # v[0] = 0: the shifted trace starts at shift
        m0 = measure_trace(t, v, "noise")
        m1 = measure_trace(t, scale * v + shift, "noise")
        assert m1.peak_v == approx(scale * m0.peak_v, rel=1e-9)
        assert m1.t_peak == approx(m0.t_peak)


class TestPropagationDelay:
    def test_shift_by_five_samples(self):
        dt = 0.25
        t = np.arange(80) * dt
        src = np.clip(t / 4.0, 0.0, 1.0)
        out = np.concatenate([np.zeros(5), src[:-5]])
        assert delay(t, src, out) == approx(5 * dt, rel=1e-12)

    def test_flat_output_has_no_delay(self):
        t = np.arange(10.0)
        src = np.clip(t / 4.0, 0.0, 1.0)
        assert delay(t, src, np.zeros(10)) is None
        assert delay(t, np.zeros(10), src) is None     # no source time

    def test_noise_kind_references_own_peak(self):
        t = np.arange(0.0, 61.0)
        src = np.clip(t / 10.0, 0.0, 1.0)
        bump = np.where(t <= 30, t, 60 - t) * (0.59 / 30)
        d1 = delay(t, src, bump, kind="noise")
        d2 = delay(t, src, 0.001 * bump, kind="noise")
        assert d1 is not None
        assert d2 == approx(d1, rel=1e-12)   # amplitude-independent

    def test_negative_going_signal(self):
        t = np.arange(0.0, 11.0)
        src = np.clip(t / 4.0, 0.0, 1.0)
        out = -np.clip((t - 2.0) / 4.0, 0.0, 1.0)
        assert delay(t, src, out) == approx(2.0, rel=1e-12)

    def test_kind_validation(self):
        t = np.arange(4.0)
        with pytest.raises(ParameterError, match="kind"):
            measure_trace(t, t, "carrier")


class TestRiseTime:
    def test_linear_ramp_is_point_eight_t(self):
        T = 50.0
        t = np.linspace(0.0, 4 * T, 1601)
        v = 2.0 * np.clip(t / T, 0.0, 1.0)
        assert rise_time(t, v) == approx(0.8 * T, rel=1e-12)

    def test_exponential_is_tau_ln_nine(self):
        tau = 3.0
        t = np.linspace(0.0, 15 * tau, 15001)
        v = 1.0 - np.exp(-t / tau)
        assert rise_time(t, v) == approx(tau * np.log(9.0), rel=1e-4)

    def test_step_resolves_within_one_sample(self):
        dt = 0.5
        t = np.arange(20) * dt
        v = np.where(t >= 5.0, 1.0, 0.0)
        rt = rise_time(t, v)
        assert rt is not None and rt <= dt
        assert rt == approx(0.8 * dt, rel=1e-12)

    def test_noise_pulse_rise(self):
        t = np.arange(0.0, 61.0)
        bump = np.where(t <= 30, t, 60 - t) * (0.59 / 30)
        # linear rise to the peak: 10%..90% of peak spans 0.8 * 30
        assert rise_time(t, bump, kind="noise") == approx(24.0, rel=1e-12)

    def test_flat_trace(self):
        t = np.arange(4.0)
        assert rise_time(t, np.zeros(4)) is None


class TestMeasurementTypes:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            TraceMeasurement(kind="carrier")

    def test_summary_json_fields(self, tmp_path):
        m = TraceMeasurement(kind="noise", peak_v=0.1, t_peak=2.0,
                             delay=None, rise_time=3.0)
        r = ScenarioResult(scenario="s", params={"n_segments": 12},
                           measurements={"victim": m},
                           waveform_files=("w.csv",), version="1")
        path = tmp_path / "s_summary.json"
        before = datetime.now(timezone.utc)
        write_summary_json(path, r)
        after = datetime.now(timezone.utc)
        data = json.loads(path.read_text())
        assert before <= datetime.fromisoformat(data.pop("timestamp")) <= after
        assert data == {
            "scenario": "s", "params": {"n_segments": 12},
            "measurements": {"victim": {"kind": "noise", "peak_v": 0.1,
                                        "t_peak": 2.0, "delay": None,
                                        "rise_time": 3.0}},
            "waveform_files": ["w.csv"], "version": "1"}


def uncoupled_run():
    lines = (LineSpec("aggressor", "aggressor", 500.0, 83.24e-6, 134.41e-12),
             LineSpec("victim", "victim", 500.0, 83.24e-6, 134.41e-12))
    net = build_ladder(LadderSpec(lines, name="uncoupled"), n_segments=3)
    return run_transient(net,
                         resolve_stimulus({"kind": "ramp",
                                           "rise_time_s": 20e-9}),
                         SimConfig(dt=1e-9, t_end=400e-9))


class TestMeasureScenario:
    ROLES = {"source": "aggressor_src", "aggressor": "aggressor_3",
             "victim": "victim_3"}

    def test_missing_role_rejected(self):
        waves = uncoupled_run()
        with pytest.raises(ParameterError, match="missing role 'victim'"):
            measure_scenario(waves, {"source": "aggressor_src",
                                     "aggressor": "aggressor_3"})

    def test_decoupled_victim_yields_absent_metrics(self):
        measured = measure_scenario(uncoupled_run(), self.ROLES)
        assert list(measured) == ["aggressor", "victim"]
        vic = measured["victim"]
        assert vic.kind == "noise"
        assert vic.peak_v <= 1e-12
        assert vic.delay is None
        assert vic.rise_time is None
        agg = measured["aggressor"]
        # the fast edge rings the ladder, so the peak overshoots the rail
        assert 1.0 <= agg.peak_v < 2.0
        assert agg.delay is not None and agg.delay > 0
        assert agg.rise_time is not None and agg.rise_time > 0

    def test_real_runs_have_complete_measurements(self, stock_runs):
        for name, (result, waves, resolved) in stock_runs.items():
            for role in ("aggressor", "victim"):
                m = result.measurements[role]
                assert m.peak_v is not None and m.peak_v > 0
                assert m.delay is not None
                assert m.rise_time is not None, (name, role)

    def test_metrics_stable_under_dt_halving(self, stock_runs, halfdt_run):
        coarse = stock_runs["no-shield"][0].measurements
        fine = halfdt_run[0].measurements
        for role in ("aggressor", "victim"):
            for attr in ("peak_v", "delay", "rise_time"):
                a = getattr(coarse[role], attr)
                b = getattr(fine[role], attr)
                assert b == approx(a, rel=0.01), (role, attr)

    def test_victim_peak_monotone_in_tap_count(self, mutual_free_runs):
        """The far-end victim peak does not grow as taps are added to
        the shield (0, then 1, then 3 taps; each tap set holds the one
        before).

        The runs carry no mutual inductance: with the stock tables the
        victim floor is inductive and taps leave it unchanged, so the
        peak there does not fall with tap count (see README, "Shield
        taps and the inductive floor"). The shield-borne noise that
        taps pin down is what this test follows.
        """
        peaks = [mutual_free_runs[name][0].measurements["victim"].peak_v
                 for name in ("shield", "shield-1tap", "shield-3taps")]
        assert peaks[0] >= peaks[1] >= peaks[2], (
            f"victim peak should not grow with tap count, got "
            f"{[f'{p * 1e3:.4f} mV' for p in peaks]} for 0/1/3 taps")
