"""Measurement-layer tests: synthetic traces with known answers first,
then whole-scenario measurements on real runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalksim.config import resolve_stimulus
from xtalksim.engine import SimConfig, run_transient
from xtalksim.errors import ParameterError
from xtalksim.metrics import (ScenarioResult, TraceMeasurement,
                              first_crossing, measure_scenario, peak_noise,
                              propagation_delay, rise_time)
from xtalksim.network import LadderSpec, LineSpec, build_ladder

approx = pytest.approx


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
        peak, t_pk = peak_noise(t, v)
        assert peak == approx(0.59, rel=1e-12)
        assert t_pk == approx(30.0)

    def test_all_zero(self):
        t = np.arange(4.0)
        assert peak_noise(t, np.zeros(4)) == (0.0, 0.0)

    def test_constant_offset_from_baseline(self):
        t = np.arange(4.0) + 7.0
        peak, t_pk = peak_noise(t, np.full(4, 3.0), baseline=1.0)
        assert peak == approx(2.0)
        assert t_pk == approx(7.0)           # first occurrence

    def test_negative_excursion_counts(self):
        t = np.arange(5.0)
        v = np.array([0.0, -0.3, 0.1, -0.2, 0.0])
        assert peak_noise(t, v) == (approx(0.3), approx(1.0))

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            peak_noise(np.arange(3.0), np.zeros(2))

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_and_shift_equivariance(self, scale, shift):
        t = np.arange(0.0, 21.0)
        v = np.sin(t / 3.0)
        p0, tp0 = peak_noise(t, v, baseline=0.0)
        p1, tp1 = peak_noise(t, scale * v + shift, baseline=shift)
        assert p1 == approx(scale * p0, rel=1e-9)
        assert tp1 == approx(tp0)


class TestPropagationDelay:
    def test_shift_by_five_samples(self):
        dt = 0.25
        t = np.arange(80) * dt
        src = np.clip(t / 4.0, 0.0, 1.0)
        out = np.concatenate([np.zeros(5), src[:-5]])
        assert propagation_delay(t, src, out) == approx(5 * dt, rel=1e-12)

    def test_flat_output_has_no_delay(self):
        t = np.arange(10.0)
        src = np.clip(t / 4.0, 0.0, 1.0)
        assert propagation_delay(t, src, np.zeros(10)) is None

    def test_noise_kind_references_own_peak(self):
        t = np.arange(0.0, 61.0)
        src = np.clip(t / 10.0, 0.0, 1.0)
        bump = np.where(t <= 30, t, 60 - t) * (0.59 / 30)
        d1 = propagation_delay(t, src, bump, kind="noise")
        d2 = propagation_delay(t, src, 0.001 * bump, kind="noise")
        assert d1 is not None
        assert d2 == approx(d1, rel=1e-12)   # amplitude-independent

    def test_negative_going_signal(self):
        t = np.arange(0.0, 11.0)
        src = np.clip(t / 4.0, 0.0, 1.0)
        out = -np.clip((t - 2.0) / 4.0, 0.0, 1.0)
        assert propagation_delay(t, src, out) == approx(2.0, rel=1e-12)

    def test_threshold_validation(self):
        t = np.arange(4.0)
        with pytest.raises(ParameterError, match="threshold"):
            propagation_delay(t, t, t, threshold=1.0)
        with pytest.raises(ParameterError, match="kind"):
            propagation_delay(t, t, t, kind="carrier")


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

    def test_bounds_validation(self):
        t = np.arange(4.0)
        with pytest.raises(ParameterError):
            rise_time(t, t, lo=0.9, hi=0.1)


class TestMeasurementTypes:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            TraceMeasurement(kind="carrier")

    def test_round_trip_dicts(self):
        m = TraceMeasurement(kind="noise", peak_v=0.1, t_peak=2.0,
                             delay=None, rise_time=3.0)
        assert m.to_dict() == {"kind": "noise", "peak_v": 0.1, "t_peak": 2.0,
                               "delay": None, "rise_time": 3.0}
        r = ScenarioResult(scenario="s", measurements={"victim": m},
                           waveform_files=("w.csv",), version="1")
        d = r.to_dict()
        assert d["scenario"] == "s"
        assert d["measurements"]["victim"]["rise_time"] == 3.0
        assert d["waveform_files"] == ["w.csv"]


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
        result = measure_scenario(uncoupled_run(), self.ROLES)
        vic = result.measurements["victim"]
        assert vic.kind == "noise"
        assert vic.peak_v <= 1e-12
        assert vic.delay is None
        assert vic.rise_time is None
        agg = result.measurements["aggressor"]
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
