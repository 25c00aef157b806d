"""Coupled-interconnect crosstalk toolkit.

Closed-form parasitic extraction, distributed coupled-RLC ladder
construction (aggressor / victim / shield with ground taps), MNA
transient simulation, and crosstalk / delay / rise-time measurement,
with a CLI for scenario presets, sweeps, and SPICE netlist export.

The numpy-backed names of ``engine`` and ``metrics`` resolve on first
use (PEP 562 ``__getattr__``), so importing the package, describing a
circuit and writing its deck load no numpy.
"""

from .config import (ResolvedScenario, ToolkitConfig, apply_set_overrides,
                     extraction_report, load_config, preset_config, resolve,
                     run_scenario, run_sweep, write_summary_json,
                     write_sweep_csv, write_waveforms_csv)
from .config import TOOLKIT_VERSION as __version__
from .errors import ParameterError, SolverError, ToolkitError
from .extraction import (BUILTIN_COEFFICIENTS, PAPER_LITERAL, TABLE_COMPAT,
                         CouplingCoefficients, InterconnectGeometry,
                         LineElectricals, coupling_capacitance, extract_all,
                         line_capacitance, line_resistance,
                         mutual_inductance_bracket, self_inductance)
from .inputs import SimConfig, Stimulus, smooth_edge
from .netlist import export_netlist
from .network import (CoupledNetwork, LadderSpec, LineSpec, TapSchedule,
                      TerminationSpec, build_ladder, preset_tables)

__all__ = [
    "BUILTIN_COEFFICIENTS", "CoupledNetwork", "CouplingCoefficients",
    "InterconnectGeometry", "LadderSpec", "LineElectricals", "LineSpec",
    "PAPER_LITERAL",
    "ParameterError", "ResolvedScenario", "ScenarioResult", "SimConfig",
    "SolverError", "Stimulus", "TABLE_COMPAT", "TapSchedule",
    "TerminationSpec", "ToolkitConfig", "ToolkitError", "TraceMeasurement",
    "WaveformSet", "apply_set_overrides", "assemble", "build_ladder",
    "coupling_capacitance", "dc_operating_point", "export_netlist",
    "extract_all", "extraction_report", "line_capacitance",
    "line_resistance", "load_config", "measure_scenario", "measure_trace",
    "mutual_inductance_bracket", "preset_config", "preset_tables",
    "resolve", "run_scenario", "run_sweep", "run_transient", "self_inductance",
    "smooth_edge", "write_summary_json", "write_sweep_csv",
    "write_waveforms_csv", "__version__",
]

_NUMERIC = {
    "WaveformSet": "engine", "assemble": "engine",
    "dc_operating_point": "engine", "run_transient": "engine",
    "ScenarioResult": "metrics", "TraceMeasurement": "metrics",
    "measure_scenario": "metrics", "measure_trace": "metrics",
}


def __getattr__(name: str):
    from importlib import import_module

    if name in _NUMERIC:
        value = getattr(import_module(f".{_NUMERIC[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
