"""Config documents, scenario orchestration, sweeps, and file formats.

A toolkit config is one YAML document with up to six blocks::

    geometry:   line dimensions and material constants
    overrides:  R/L/C/M/Cm values that extraction should give at the
                default geometry
    scenario:   exactly one of a preset name or an explicit line list
    stimulus:   drive waveform (step | ramp | pwl | smooth-edge)
    sim:        dt, t_end, method, n_segments
    output:     directory, formats, node selection ("ends", "all", or a
                list of labels, after which the measured nodes follow)

Waveforms serialize to CSV with header ``time,<node>,...`` at 9
significant digits; run summaries to JSON. Both are deterministic for
a fixed config (the JSON carries a timestamp field, everything else is
byte-stable).

Every command maps the scenario's element values onto the geometry and
overrides blocks through ``_map_tables``. A missing geometry,
overrides, stimulus or sim block means its ``DEFAULT_*``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .engine import (SimConfig, Stimulus, WaveformSet, run_transient,
                     smooth_edge)
from .errors import ParameterError, ToolkitError
from .extraction import (BUILTIN_COEFFICIENTS, CouplingCoefficients,
                         InterconnectGeometry, LineElectricals, extract_all,
                         pair_key)
from .metrics import ScenarioResult, measure_scenario
from .network import (PRESET_NAMES, CoupledNetwork, LineSpec, TapSchedule,
                      TerminationSpec, build_ladder, effective_terminations,
                      preset_tables)

TOOLKIT_VERSION = "0.1.0"

CONFIG_BLOCKS = ("geometry", "overrides", "scenario", "stimulus", "sim", "output")
# sweep axis -> the config key each row sets
SWEEP_AXES = {
    "tap_count": "scenario.tap_count",
    "n_segments": "sim.n_segments",
    "separation": "geometry.separation_um",
    "shield_width_scale": "geometry.shield_width_scale",
}
OUTPUT_FORMATS = ("csv", "json")

DEFAULT_GEOMETRY = {
    "length_um": 5000.0, "width_um": 2.0, "thickness_um": 2.0,
    "height_um": 2.0, "separation_um": 1.0, "eps_rel": 3.9,
    "sheet_res_ohm_sq": 0.05, "coefficients": "table-compat",
}
# The stock parameter set quotes 500 ohm per line where the sheet
# arithmetic gives 125 at the default width; the bundled configs pin it.
DEFAULT_OVERRIDES = {"r_total": 500.0}
# A plain ramp has slope discontinuities that ring the lumped ladder's
# artificial cutoff (see engine.smooth_edge); the bundled runs use the
# smooth edge so peak readings converge under segment refinement.
DEFAULT_STIMULUS = {
    "kind": "smooth-edge", "amplitude_v": 1.0, "rise_time_s": 2.0e-7,
    "delay_s": 0.0, "samples": 64,
}
DEFAULT_SIM = {
    "dt": 5.0e-11, "t_end": 2.4e-6, "method": "trapezoidal", "n_segments": 12,
}
DEFAULT_OUTPUT = {"directory": "out", "formats": ["csv", "json"], "nodes": "ends"}
_DEFAULT_BLOCKS = {"geometry": DEFAULT_GEOMETRY, "overrides": DEFAULT_OVERRIDES,
                   "stimulus": DEFAULT_STIMULUS, "sim": DEFAULT_SIM}


def _block(config: ToolkitConfig, name: str) -> dict | None:
    """A config block, or its default when the block is missing."""
    block = getattr(config, name)
    return _DEFAULT_BLOCKS.get(name) if block is None else block


def _require_mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"config block {name!r} must be a mapping, "
                             f"got {type(value).__name__}")
    return value


def _check_keys(block: dict, allowed: set[str], name: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ParameterError(f"{name} block: unknown key(s) "
                             f"{', '.join(sorted(map(str, unknown)))}; "
                             f"allowed: {', '.join(sorted(allowed))}")


@dataclass(frozen=True)
class ToolkitConfig:
    """Parsed config document; blocks stay as plain dicts until resolve."""

    scenario: dict | None = None
    geometry: dict | None = None
    overrides: dict | None = None
    stimulus: dict | None = None
    sim: dict | None = None
    output: dict | None = None
    source: str = ""                      # where it came from, for messages

    def to_mapping(self) -> dict:
        out = {}
        for name in CONFIG_BLOCKS:
            block = getattr(self, name)
            if block is not None:
                out[name] = _copy_tree(block)
        return out


def _copy_tree(value):
    if isinstance(value, dict):
        return {k: _copy_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copy_tree(v) for v in value]
    return value


def config_from_mapping(data: dict, source: str = "") -> ToolkitConfig:
    _require_mapping(data, "config root")
    unknown = set(data) - set(CONFIG_BLOCKS)
    if unknown:
        raise ParameterError(
            f"unknown config block(s) {', '.join(sorted(map(str, unknown)))}; "
            f"expected some of: {', '.join(CONFIG_BLOCKS)}")
    blocks = {name: _require_mapping(data[name], name)
              for name in CONFIG_BLOCKS if data.get(name) is not None}
    return ToolkitConfig(source=source, **blocks)


def load_config(path) -> ToolkitConfig:
    """Read and parse a YAML config file.

    Parse errors carry the line/column from the YAML parser; structural
    errors name the offending block.
    """
    import yaml

    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParameterError(f"config parse error in {path}{where}: {exc}")
    if data is None:
        raise ParameterError(f"config file {path} is empty")
    return config_from_mapping(data, source=str(path))


def preset_config(name: str) -> ToolkitConfig:
    """The bundled defaults for one scenario preset, as a config."""
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown scenario preset {name!r}; "
                             f"choose one of {', '.join(PRESET_NAMES)}")
    return ToolkitConfig(
        scenario={"preset": name},
        geometry=dict(DEFAULT_GEOMETRY),
        overrides=dict(DEFAULT_OVERRIDES),
        stimulus=dict(DEFAULT_STIMULUS),
        sim=dict(DEFAULT_SIM),
        output=_copy_tree(DEFAULT_OUTPUT),
        source=f"preset:{name}",
    )


def apply_set_overrides(config: ToolkitConfig,
                        assignments: list[str]) -> ToolkitConfig:
    """Apply ``--set block.key[.subkey]=value`` pairs onto a config.

    Values parse as YAML scalars/collections, so ``--set sim.dt=1e-10``
    and ``--set output.formats=[csv]`` both work. A key set on a block
    the config lacks starts that block from its default.
    """
    import yaml

    data = config.to_mapping()
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ParameterError(f"--set needs key=value, got {item!r}")
        path = [p for p in key.strip().split(".") if p]
        if len(path) < 2 or path[0] not in CONFIG_BLOCKS:
            raise ParameterError(
                f"--set path {key.strip()!r} must start with a config block "
                f"({', '.join(CONFIG_BLOCKS)}) and name a key inside it")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ParameterError(f"--set {key.strip()}: unparseable value "
                                 f"{raw!r}: {exc}")
        if isinstance(value, str):
            # YAML 1.1 leaves dotless scientific notation ("1e-10") as a
            # string; treat anything numeric-looking as a number
            try:
                value = int(value)
            except ValueError:
                try:
                    value = float(value)
                except ValueError:
                    pass
        _set_key(data, path, value)
    return config_from_mapping(data, source=config.source or "--set")


def _set_key(data: dict, path: list[str], value) -> None:
    """Set ``block.key[.subkey]`` on a config mapping. A missing block
    starts from its default, so one key set on it keeps the others."""
    cursor = data.setdefault(path[0],
                             _copy_tree(_DEFAULT_BLOCKS.get(path[0], {})))
    for part in path[1:-1]:
        nxt = cursor.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            cursor[part] = nxt
        cursor = nxt
    cursor[path[-1]] = value


# ---------------------------------------------------------------------------
# geometry / extraction


def resolve_geometry(block: dict
                     ) -> tuple[InterconnectGeometry, CouplingCoefficients, float,
                                float]:
    """Geometry block -> (geometry, coefficient set, shield-case spacing,
    shield width scale).

    The shield-case spacing is the pair separation used for pairs that
    touch a shield: the stock table's shielded M/Cm values correspond
    to twice the adjacent spacing, so that is the default;
    ``shield_separation_um`` overrides it. ``shield_width_scale``
    multiplies the width of shield lines (default 1).
    """
    b = dict(block)
    name = b.pop("coefficients", "table-compat")
    if name not in BUILTIN_COEFFICIENTS:
        raise ParameterError(
            f"geometry block: unknown coefficient set {name!r}; "
            f"available: {', '.join(sorted(BUILTIN_COEFFICIENTS))}")
    coeffs = BUILTIN_COEFFICIENTS[name]
    shield_sep = b.pop("shield_separation_um", None)
    width_scale = float(b.pop("shield_width_scale", 1.0))
    if not width_scale > 0:
        raise ParameterError("geometry block: shield_width_scale must be > 0")
    allowed = {"length_um", "width_um", "thickness_um", "height_um",
               "separation_um", "eps_rel", "sheet_res_ohm_sq", "lam"}
    _check_keys(b, allowed, "geometry")
    geometry = InterconnectGeometry(**{k: float(v) for k, v in b.items()})
    if shield_sep is None:
        shield_sep = 2.0 * geometry.separation_um
    else:
        shield_sep = float(shield_sep)
        if not shield_sep > 0:
            raise ParameterError("geometry block: shield_separation_um must be > 0")
    return geometry, coeffs, shield_sep, width_scale


def _extract(roles: dict[str, str], pairs, geometry_block: dict,
             overrides: dict | None) -> LineElectricals:
    """extract_all over named lines (name -> role) and coupled pairs.

    Shield lines get the scaled width; pairs that touch a shield sit at
    the shield-case spacing, every other pair at ``separation_um``.
    """
    geometry, coeffs, shield_sep, width_scale = resolve_geometry(geometry_block)
    shield = replace(geometry, width_um=geometry.width_um * width_scale)
    geometries = {name: shield if role == "shield" else geometry
                  for name, role in roles.items()}
    separations = {pair: shield_sep if "shield" in (roles[pair[0]], roles[pair[1]])
                   else geometry.separation_um for pair in pairs}
    return extract_all(geometries, separations, coeffs, overrides)


def _map_tables(tables: dict, config: ToolkitConfig) -> dict:
    """Map build_ladder tables onto the config's geometry and overrides.

    Every line total and pair value v becomes
    v * [F(g)/F(g0)] * [E(g0, ov)/E(g0, ov0)], where F is extraction
    without overrides, E with them, g the config's geometry, g0
    DEFAULT_GEOMETRY and ov0 DEFAULT_OVERRIDES. Table values are thus
    read as belonging to the default geometry, and an override states
    what extraction should give there. At the defaults both ratios are
    x/x == 1.0, so the presets keep their stock values bit for bit.
    """
    geometry, overrides = _block(config, "geometry"), _block(config, "overrides")
    roles = {ln.name: ln.role for ln in tables["lines"]}
    if "shield_width_scale" in geometry and "shield" not in roles.values():
        raise ParameterError("geometry.shield_width_scale needs a shielded "
                             "preset (a line with role shield)")
    pairs = tuple(tables["couplings"])
    f = _extract(roles, pairs, geometry, None)
    f0 = _extract(roles, pairs, DEFAULT_GEOMETRY, None)
    e = _extract(roles, pairs, DEFAULT_GEOMETRY, overrides)
    e0 = _extract(roles, pairs, DEFAULT_GEOMETRY, DEFAULT_OVERRIDES)

    def scaled(label: str, key, value: float) -> float:
        ratio = getattr(f, label)[key] / getattr(f0, label)[key]
        pinned = getattr(e, label).get(key, 0.0) / getattr(e0, label)[key]
        return value * ratio * pinned

    couplings = {pair: {label: scaled(label, pair, value)
                        for label, value in entry.items()}
                 for pair, entry in tables["couplings"].items()}
    for label in ("m_total", "cm_total"):
        for key, value in getattr(e, label).items():
            if (value != getattr(e0, label).get(key)
                    and label not in couplings.get(key, {})):
                raise ParameterError(f"overrides.{label} sets pair "
                                     f"{key[0]}:{key[1]}, which the scenario "
                                     f"does not couple that way")
    lines = tuple(replace(ln, **{label: scaled(label, ln.name, getattr(ln, label))
                                 for label in ("r_total", "l_total", "c_total")})
                  for ln in tables["lines"])
    return dict(tables, lines=lines, couplings=couplings)


@dataclass(frozen=True)
class ExtractionReport:
    """Formula values for the comparison layout: aggressor, shield and
    victim, with the aggressor-victim pair at the adjacent spacing
    (without-shield column) and the aggressor-shield pair across the
    shield (with-shield column)."""

    tables: dict
    coefficients: str
    geometry: InterconnectGeometry
    shield_separation_um: float

    def render(self) -> str:
        g = self.geometry
        agg = self.tables["lines"][0]
        wo = self.tables["couplings"][pair_key("aggressor", "victim")]
        wi = self.tables["couplings"][pair_key("aggressor", "shield")]
        rows = [
            ("R_line [ohm]", agg.r_total, agg.r_total),
            ("L_line [uH]", agg.l_total, agg.l_total),
            ("C_line [pF/m]", agg.c_total * 1e12, agg.c_total * 1e12),
            ("M bracket [uH]", wo["m_total"], wi["m_total"]),
            ("C_m [pF/m]", wo["cm_total"] * 1e12, wi["cm_total"] * 1e12),
        ]
        lines = [
            "extracted line parameters "
            f"(l={g.length_um:g} w={g.width_um:g} t={g.thickness_um:g} "
            f"h={g.height_um:g} um, eps_r={g.eps_rel:g}, "
            f"coefficients={self.coefficients})",
            f"pair spacing: d={g.separation_um:g} um adjacent, "
            f"d={self.shield_separation_um:g} um across the shield",
            "",
            f"{'parameter':<18} {'without shield':>16} {'with shield':>16}",
        ]
        for label, a, b in rows:
            lines.append(f"{label:<18} {a:>16.6g} {b:>16.6g}")
        return "\n".join(lines) + "\n"


def extraction_report(config: ToolkitConfig) -> ExtractionReport:
    """Evaluate the formulas for the comparison layout of a config.

    The layout starts from the formula values at the default geometry
    and overrides, and goes through the same mapping as a run.
    """
    roles = {"aggressor": "aggressor", "shield": "shield", "victim": "victim"}
    pairs = (("aggressor", "victim"), ("aggressor", "shield"),
             ("shield", "victim"))
    stock = _extract(roles, pairs, DEFAULT_GEOMETRY, DEFAULT_OVERRIDES)
    tables = {
        "lines": tuple(LineSpec(name, role, stock.r_total[name],
                                stock.l_total[name], stock.c_total[name])
                       for name, role in roles.items()),
        "couplings": {pair: {"m_total": stock.m_total[pair],
                             "cm_total": stock.cm_total[pair]}
                      for pair in pairs},
    }
    geometry, coeffs, shield_sep, _ = resolve_geometry(
        _block(config, "geometry"))
    return ExtractionReport(_map_tables(tables, config), coeffs.name, geometry,
                            shield_sep)


# ---------------------------------------------------------------------------
# scenario / stimulus / sim resolution


def _numbers(entry: dict, keys: tuple[str, ...], name: str) -> dict:
    """``entry`` with each of ``keys`` it holds read as a float. YAML 1.1
    leaves dotless scientific notation ("76e-15") as a string."""
    out = dict(entry)
    for key in keys:
        if key in out:
            try:
                out[key] = float(out[key])
            except (TypeError, ValueError):
                raise ParameterError(f"{name}.{key} must be a number, "
                                     f"got {out[key]!r}") from None
    return out


def _parse_line_specs(entries) -> tuple[LineSpec, ...]:
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ParameterError("scenario.lines must be a non-empty list")
    out = []
    for i, entry in enumerate(entries):
        _require_mapping(entry, f"scenario.lines[{i}]")
        entry = _numbers(entry, ("r_total", "l_total", "c_total"),
                         f"scenario.lines[{i}]")
        try:
            out.append(LineSpec(**entry))
        except TypeError as exc:
            raise ParameterError(f"scenario.lines[{i}]: {exc}")
    return tuple(out)


def _parse_couplings(entries) -> dict[tuple[str, str], dict]:
    if entries is None:
        return {}
    if not isinstance(entries, (list, tuple)):
        raise ParameterError("scenario.couplings must be a list")
    out: dict[tuple[str, str], dict] = {}
    for i, entry in enumerate(entries):
        _require_mapping(entry, f"scenario.couplings[{i}]")
        entry = dict(entry)
        pair = entry.pop("pair", None)
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            raise ParameterError(f"scenario.couplings[{i}] needs "
                                 f"pair: [line_a, line_b]")
        _check_keys(entry, {"m_total", "cm_total"}, f"scenario.couplings[{i}]")
        out[pair_key(*pair)] = _numbers(entry, ("m_total", "cm_total"),
                                        f"scenario.couplings[{i}]")
    return out


def _parse_terminations(entries) -> dict[str, TerminationSpec]:
    if entries is None:
        return {}
    _require_mapping(entries, "scenario.terminations")
    out = {}
    for name, entry in entries.items():
        _require_mapping(entry, f"scenario.terminations[{name}]")
        entry = _numbers(entry, ("driver_resistance_ohm", "load_capacitance_f"),
                         f"scenario.terminations[{name}]")
        try:
            out[name] = TerminationSpec(**entry)
        except TypeError as exc:
            raise ParameterError(f"scenario.terminations[{name}]: {exc}")
    return out


def _parse_taps(entry) -> TapSchedule | None:
    if entry is None:
        return None
    _require_mapping(entry, "scenario.taps")
    _check_keys(entry, {"fractions", "tie_resistance_ohm"}, "scenario.taps")
    return TapSchedule(
        fractions=tuple(entry.get("fractions", ())),
        tie_resistance_ohm=float(entry.get("tie_resistance_ohm", 0.0)))


def _tables_params(tables: dict, n_segments: int) -> dict:
    """JSON-able echo of the element values a build actually used."""
    lines = {ln.name: {"role": ln.role, "r_total": ln.r_total,
                       "l_total": ln.l_total, "c_total": ln.c_total}
             for ln in tables["lines"]}
    couplings = [{"pair": list(pair), **entry}
                 for pair, entry in sorted(tables["couplings"].items())]
    taps = tables.get("taps")
    terms = effective_terminations(tables["lines"], tables.get("terminations"))
    return {
        "n_segments": n_segments,
        "lines": lines,
        "couplings": couplings,
        "taps": None if taps is None else {
            "fractions": [float(f) for f in taps.fractions],
            "tie_resistance_ohm": taps.tie_resistance_ohm},
        "terminations": {name: {
            "driver_resistance_ohm": t.driver_resistance_ohm,
            "source_ref": t.source_ref,
            "load_capacitance_f": t.load_capacitance_f,
        } for name, t in sorted(terms.items())},
    }


def _scenario_tables(scen: dict | None) -> tuple[dict, str]:
    """Scenario block -> (build_ladder tables, scenario name)."""
    if scen is None:
        raise ParameterError("config has no scenario block")
    _check_keys(scen, {"preset", "tap_count", "tie_resistance_ohm", "name",
                       "lines", "couplings", "terminations", "taps"},
                "scenario")
    has_preset = scen.get("preset") is not None
    has_lines = scen.get("lines") is not None
    if has_preset == has_lines:
        raise ParameterError("scenario block needs exactly one of "
                             "'preset' or explicit 'lines'")
    if has_preset:
        for key in ("lines", "couplings", "terminations", "taps", "name"):
            if scen.get(key) is not None:
                raise ParameterError(f"scenario.{key} conflicts with "
                                     f"scenario.preset; pick one form")
        tap_count = scen.get("tap_count")
        if tap_count is not None:
            tap_count = _as_int(tap_count, "scenario.tap_count")
        tables = preset_tables(
            scen["preset"], tap_count=tap_count,
            tie_resistance_ohm=float(scen.get("tie_resistance_ohm", 0.0)))
        return tables, scen["preset"]
    for key in ("tap_count", "tie_resistance_ohm"):
        if scen.get(key) is not None:
            raise ParameterError(f"scenario.{key} belongs to the preset form; "
                                 f"explicit scenarios use the taps block")
    tables = {
        "lines": _parse_line_specs(scen["lines"]),
        "couplings": _parse_couplings(scen.get("couplings")),
        "terminations": _parse_terminations(scen.get("terminations")),
        "taps": _parse_taps(scen.get("taps")),
    }
    return tables, str(scen.get("name") or "custom")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or (not isinstance(value, int)
                                   and not (isinstance(value, float)
                                            and value.is_integer())):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def resolve_stimulus(block: dict) -> Stimulus:
    """Stimulus block -> engine Stimulus (smooth-edge expands to pwl)."""
    b = dict(block)
    _check_keys(b, {"kind", "amplitude_v", "rise_time_s", "delay_s",
                    "points", "samples"}, "stimulus")
    kind = b.pop("kind", "ramp")
    if kind == "smooth-edge":
        if "points" in b:
            raise ParameterError("stimulus: points are only valid for kind=pwl")
        return smooth_edge(
            rise_time_s=float(b.pop("rise_time_s", DEFAULT_STIMULUS["rise_time_s"])),
            amplitude_v=float(b.pop("amplitude_v", 1.0)),
            delay_s=float(b.pop("delay_s", 0.0)),
            samples=_as_int(b.pop("samples", 64), "stimulus.samples"))
    if "samples" in b:
        raise ParameterError("stimulus: samples is only valid for kind=smooth-edge")
    if kind in ("step", "pwl") and "rise_time_s" in b:
        raise ParameterError(f"stimulus: rise_time_s is not used by "
                             f"kind={kind}; only ramp and smooth-edge have "
                             f"a rise time")
    points = b.pop("points", None)
    if points is not None:
        try:
            points = tuple((float(t), float(v)) for t, v in points)
        except (TypeError, ValueError):
            raise ParameterError("stimulus.points must be a list of "
                                 "[time, value] pairs")
    return Stimulus(kind=kind,
                    amplitude_v=float(b.pop("amplitude_v", 1.0)),
                    rise_time_s=float(b.pop("rise_time_s", 1e-9)),
                    delay_s=float(b.pop("delay_s", 0.0)),
                    points=points)


def resolve_output(block: dict | None) -> dict:
    """Output block -> directory, formats and node policy, defaults filled."""
    b = _copy_tree(DEFAULT_OUTPUT)
    if block is not None:
        _check_keys(block, {"directory", "formats", "nodes"}, "output")
        b.update(_copy_tree(block))
    formats = b["formats"]
    if isinstance(formats, str):
        formats = [formats]
    unknown = set(formats) - set(OUTPUT_FORMATS)
    if unknown:
        raise ParameterError(f"output.formats: unknown format(s) "
                             f"{sorted(unknown)}; allowed: {OUTPUT_FORMATS}")
    b["formats"] = tuple(formats)
    b["directory"] = str(b["directory"])
    return b


def end_labels(network: CoupledNetwork) -> tuple[str, ...]:
    """Source plus far-end node labels of every line (the 'ends' set)."""
    labels = []
    for ln in network.lines:
        src = f"{ln.name}_src"
        if src in network.node_ids:
            labels.append(src)
        labels.append(f"{ln.name}_{network.n_segments}")
    return tuple(labels)


def _measurement_roles(network: CoupledNetwork) -> dict[str, str]:
    """Node labels measured per role; empty when the layout has no
    single aggressor/victim pair."""
    try:
        agg = network.line_by_role("aggressor")
        vic = network.line_by_role("victim")
    except ParameterError:
        return {}
    n = network.n_segments
    return {"source": f"{agg.name}_src",
            "aggressor": f"{agg.name}_{n}",
            "victim": f"{vic.name}_{n}"}


@dataclass(frozen=True)
class ResolvedScenario:
    """Everything a run needs, derived from one config."""

    network: CoupledNetwork
    stimulus: Stimulus
    sim: SimConfig
    params: dict
    roles: dict[str, str]
    output: dict


def resolve(config: ToolkitConfig) -> ResolvedScenario:
    """Validate a config and build the network/stimulus/sim triple."""
    sim_block = dict(_block(config, "sim"))
    _check_keys(sim_block, {"dt", "t_end", "method", "n_segments"}, "sim")
    if "dt" not in sim_block or "t_end" not in sim_block:
        raise ParameterError("sim block needs dt and t_end")
    n_segments = _as_int(sim_block.pop("n_segments", 12), "sim.n_segments")

    tables, scenario_name = _scenario_tables(config.scenario)
    tables = _map_tables(tables, config)
    network = build_ladder(n_segments=n_segments, scenario=scenario_name,
                           **tables)
    stimulus_block = _block(config, "stimulus")
    stimulus = resolve_stimulus(stimulus_block)
    output = resolve_output(config.output)
    roles = _measurement_roles(network)

    nodes = output["nodes"]
    if nodes == "ends":
        out_nodes = end_labels(network)
    elif nodes == "all":
        out_nodes = "all"
    elif isinstance(nodes, (list, tuple)):
        # the measurements read these traces, so they are always kept
        out_nodes = tuple(dict.fromkeys([*map(str, nodes), *roles.values()]))
    else:
        raise ParameterError(f"output.nodes must be 'all', 'ends', or a "
                             f"list of node labels, got {nodes!r}")
    sim = SimConfig(dt=float(sim_block["dt"]), t_end=float(sim_block["t_end"]),
                    method=str(sim_block.get("method", "trapezoidal")),
                    output_nodes=out_nodes)

    params = _tables_params(tables, n_segments)
    params["stimulus"] = _copy_tree(stimulus_block)
    params["sim"] = {"dt": sim.dt, "t_end": sim.t_end, "method": sim.method,
                     "n_segments": n_segments}
    return ResolvedScenario(network=network, stimulus=stimulus, sim=sim,
                            params=params, roles=roles, output=output)


def run_scenario(config: ToolkitConfig
                 ) -> tuple[ScenarioResult, WaveformSet, ResolvedScenario]:
    """Resolve, simulate, measure. File writing is the caller's job."""
    resolved = resolve(config)
    waves = run_transient(resolved.network, resolved.stimulus, resolved.sim)
    if resolved.roles:
        measured = measure_scenario(waves, resolved.roles)
        measurements = measured.measurements
    else:
        measurements = {}
    result = ScenarioResult(scenario=resolved.network.scenario,
                            params=resolved.params,
                            measurements=measurements,
                            version=TOOLKIT_VERSION)
    return result, waves, resolved


# ---------------------------------------------------------------------------
# file formats


_CSV_CHUNK_ROWS = 4096


def write_waveforms_csv(path, waves: WaveformSet) -> None:
    """CSV with header ``time,<node>,...``, 9 significant digits.

    The bytes equal ``np.savetxt(fmt="%.9g", delimiter=",")``'s; one
    ``%`` format per chunk of rows is about twice as fast, and the chunks
    keep the formatted text small.
    """
    labels = list(waves.node_traces)
    data = np.column_stack([waves.times]
                           + [waves.node_traces[lbl] for lbl in labels])
    row_fmt = ",".join(["%.9g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(["time"] + labels) + "\n")
        for start in range(0, len(data), _CSV_CHUNK_ROWS):
            blk = data[start:start + _CSV_CHUNK_ROWS]
            fh.write((row_fmt * len(blk)) % tuple(blk.ravel().tolist()))


def write_summary_json(path, result: ScenarioResult,
                       timestamp: str | None = None) -> None:
    """Summary JSON; deterministic except for the timestamp field."""
    data = result.to_dict()
    data["timestamp"] = (timestamp if timestamp is not None
                         else datetime.now(timezone.utc).isoformat())
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def waveforms_filename(scenario: str) -> str:
    return f"{scenario}_waveforms.csv"


def summary_filename(scenario: str) -> str:
    return f"{scenario}_summary.json"


# ---------------------------------------------------------------------------
# sweeps


def run_sweep(config: ToolkitConfig, axis: str, values) -> list[dict]:
    """One simulated row per axis value, in input order.

    Each row is ``run_scenario`` on the config with the axis's key
    (``SWEEP_AXES``) set to the value. A value that cannot build or run
    produces a row with an ``error`` entry instead of aborting the sweep.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}; "
                             f"choose one of {', '.join(SWEEP_AXES)}")
    values = list(values)
    if len(values) < 2:
        raise ParameterError("a sweep needs at least two axis values")

    data = config.to_mapping()
    rows = []
    for value in values:
        row = {"value": value, "victim_peak_v": None,
               "aggressor_delay_s": None, "victim_delay_s": None, "error": ""}
        try:
            _set_key(data, SWEEP_AXES[axis].split("."), value)
            result = run_scenario(config_from_mapping(data, config.source))[0]
            if not result.measurements:
                raise ParameterError("sweep needs one aggressor and one "
                                     "victim line to measure")
            row["victim_peak_v"] = result.measurements["victim"].peak_v
            row["aggressor_delay_s"] = result.measurements["aggressor"].delay
            row["victim_delay_s"] = result.measurements["victim"].delay
        except ToolkitError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def write_sweep_csv(path, axis: str, rows: list[dict]) -> None:
    """Sweep rows as CSV: axis value, metrics, error message."""
    def fmt(x):
        return "" if x is None else f"{x:.9g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([axis, "victim_peak_v", "aggressor_delay_s",
                         "victim_delay_s", "error"])
        for row in rows:
            writer.writerow([fmt(row["value"]), fmt(row["victim_peak_v"]),
                             fmt(row["aggressor_delay_s"]),
                             fmt(row["victim_delay_s"]), row["error"]])


def sweep_filename(axis: str) -> str:
    return f"sweep_{axis}.csv"
