"""Shared fixtures. The full-window preset runs are the expensive part
of the suite, so they are simulated once per session and reused by the
behaviour, metrics, and acceptance tests."""

import pytest

from xtalksim.config import (apply_set_overrides, preset_config,
                             run_scenario)
from xtalksim.network import PRESET_NAMES, preset_tables


@pytest.fixture(scope="session")
def stock_runs():
    """name -> (ScenarioResult, WaveformSet, ResolvedScenario) for the
    three bundled presets at their default settings."""
    return {name: run_scenario(preset_config(name)) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def stock_runs_n24():
    """Same presets with n_segments doubled to 24."""
    out = {}
    for name in PRESET_NAMES:
        cfg = apply_set_overrides(preset_config(name), ["sim.n_segments=24"])
        out[name] = run_scenario(cfg)
    return out


def _without_mutual_inductance(name: str, *sets: str):
    """Preset ``name`` with ``overrides.m_total`` = 0 on every pair it
    couples, which removes each mutual inductance (extract_all reads a
    zero pair override as no coupling)."""
    pairs = ", ".join(f"{a}:{b}: 0" for a, b in preset_tables(name).couplings)
    return apply_set_overrides(preset_config(name),
                               [f"overrides.m_total={{{pairs}}}", *sets])


@pytest.fixture(scope="session")
def mutual_free_configs():
    """The three presets plus "shield-1tap" (the shield preset with one
    midpoint tap), each without any mutual inductance.

    Taps cannot touch the inductive part of the victim noise: every
    tapped shield section keeps the L/R ratio of the whole shield, so
    the shield's induced return current is unchanged, and so is the
    direct aggressor-victim mutual that the shielded presets keep. What
    is left here is the shield-borne noise that taps act on, so tap
    clauses are checked on these runs. The tap sets are nested: none,
    then {1/2}, then {1/4, 1/2, 3/4}.
    """
    configs = {name: _without_mutual_inductance(name) for name in PRESET_NAMES}
    configs["shield-1tap"] = _without_mutual_inductance(
        "shield", "scenario.tap_count=1")
    return configs


@pytest.fixture(scope="session")
def mutual_free_runs(mutual_free_configs):
    """name -> (ScenarioResult, WaveformSet, ResolvedScenario) for each
    of ``mutual_free_configs``."""
    return {name: run_scenario(cfg)
            for name, cfg in mutual_free_configs.items()}


@pytest.fixture(scope="session")
def halfdt_run():
    """The no-shield preset at half the stock timestep."""
    cfg = apply_set_overrides(preset_config("no-shield"), ["sim.dt=2.5e-11"])
    return run_scenario(cfg)
