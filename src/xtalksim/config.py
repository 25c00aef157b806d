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

A scenario block becomes one ``network.LadderSpec``, whose construction
checks it before anything reads it. Every command maps the spec's
element values onto the geometry and overrides blocks through
``_map_tables``; the overrides block is read here alone (``_pin``),
``xtalksim.extraction`` holds only formulas. A
missing geometry, overrides, stimulus or sim block is a copy of its
``DEFAULT_*``, a written block is read as written, and the keys of
``output`` take their defaults one by one. In every block a null value
is a key not set.

This module imports no numpy: ``run_scenario`` and
``write_waveforms_csv`` load it when they run. The run path's only calls
into numpy-backed code are the module functions ``run_transient`` and
``measure_scenario``, which import ``engine`` and ``metrics`` on call;
they are module attributes so that a tracer can wrap them here.
"""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path

from ._record import Record, asdict
from .errors import ParameterError, ToolkitError, _echo, _echo_some
from .extraction import (BUILTIN_COEFFICIENTS, CouplingCoefficients,
                         InterconnectGeometry, LineElectricals, extract_all,
                         pair_key)
from .inputs import (STEP_EDGE_S, SimConfig, Stimulus, run_footprint,
                     smooth_edge)
from .network import (PRESET_NAMES, STOCK_LINE_RESISTANCE_OHM,
                      CoupledNetwork, LadderSpec, LineSpec, TapSchedule,
                      TerminationSpec, build_ladder, end_labels,
                      measured_nodes, preset_tables)

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
DEFAULT_OVERRIDES = {"r_total": STOCK_LINE_RESISTANCE_OHM}
# A plain ramp has slope discontinuities that ring the lumped ladder's
# artificial cutoff (see inputs.smooth_edge); the bundled runs use the
# smooth edge so peak readings converge under segment refinement.
DEFAULT_STIMULUS = {
    "kind": "smooth-edge", "amplitude_v": 1.0, "rise_time_s": 2.0e-7,
    "delay_s": 0.0, "samples": 64,
}
DEFAULT_SIM = {
    "dt": 5.0e-11, "t_end": 2.4e-6, "method": "trapezoidal", "n_segments": 12,
}
DEFAULT_OUTPUT = {"directory": "out", "formats": ["csv", "json"], "nodes": "ends"}
# Largest run resolve accepts, in bytes of run_footprint's bound; see
# test_run_size_estimate_of_the_presets_at_48_segments for the presets'
_MAX_RUN_BYTES = 4 * 2**30
_DEFAULT_BLOCKS = {"geometry": DEFAULT_GEOMETRY, "overrides": DEFAULT_OVERRIDES,
                   "stimulus": DEFAULT_STIMULUS, "sim": DEFAULT_SIM}


def _require_mapping(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"config block {name!r} must be a mapping, "
                             f"got {type(value).__name__}")
    return value


def _number(value, where: str, kind: type = float):
    """A config value read as a float, or as an int with ``kind=int``;
    ``where`` names the field in the error. A bool is refused. YAML 1.1
    leaves dotless scientific notation ("76e-15") a string, so a numeric
    string is read."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        raise ParameterError(f"{where} must be a number, got {_echo(value)}")
    if kind is int and not number.is_integer():
        raise ParameterError(f"{where} must be an integer, got {_echo(value)}")
    return kind(number)


def _string(value, where: str) -> str:
    """``value`` if it is a string, else refused naming ``where``: YAML
    reads an unquoted ``0`` or ``true`` as a number or a bool, not a name."""
    if not isinstance(value, str):
        raise ParameterError(f"{where} must be a string, got {_echo(value)}")
    return value


# Each key a block may hold, and the kind its value is read as: float or
# int by _number, str by _string, None by its block's reader, which also
# checks the rules between keys once the values are read. The entries of
# scenario.lines, .terminations and .taps are records (_record).
_KEYS = {
    "geometry": {**dict.fromkeys(InterconnectGeometry._fields, float),
                 "coefficients": None, "shield_separation_um": float,
                 "shield_width_scale": float},
    "overrides": dict.fromkeys(LineElectricals._fields),
    "scenario": {"preset": None, "tap_count": int, "tie_resistance_ohm": float,
                 "name": str, "lines": None, "couplings": None,
                 "terminations": None, "taps": None},
    "scenario.couplings": {"pair": None, "m_total": float, "cm_total": float},
    "stimulus": {"kind": None, "amplitude_v": float, "rise_time_s": float,
                 "delay_s": float, "points": None, "samples": int},
    "sim": {"dt": float, "t_end": float, "method": str, "n_segments": int},
    "output": {"directory": str, "formats": None, "nodes": None},
}


def _read(block: dict, name: str, kinds: dict,
          required: frozenset[str] = frozenset()) -> dict:
    """``block``'s values, each read by its kind in ``kinds`` and named
    ``name.key`` in errors. A key not in ``kinds``, or one of ``required``
    missing, is refused, listing what the block may or must hold."""
    unknown = set(block) - set(kinds)
    if unknown:
        raise ParameterError(f"{name} block: unknown key(s) "
                             f"{', '.join(sorted(map(str, unknown)))}; "
                             f"allowed: {', '.join(sorted(kinds))}")
    missing = required - set(block)
    if missing:
        raise ParameterError(f"{name} block: missing key(s) "
                             f"{', '.join(sorted(missing))}; "
                             f"required: {', '.join(sorted(required))}")
    return {key: value if kinds[key] is None
            else _string(value, f"{name}.{key}") if kinds[key] is str
            else _number(value, f"{name}.{key}", kinds[key])
            for key, value in block.items()}


class ToolkitConfig(Record):
    """Parsed config document; blocks stay as plain dicts until resolve."""

    scenario: dict | None = None
    geometry: dict | None = None
    overrides: dict | None = None
    stimulus: dict | None = None
    sim: dict | None = None
    output: dict | None = None

    def __post_init__(self) -> None:
        for name in CONFIG_BLOCKS:
            block = getattr(self, name)
            if block is None:
                block = _copy_tree(_DEFAULT_BLOCKS.get(name))
            else:                         # a null value is a key not set
                block = {k: v for k, v in _require_mapping(block, name).items()
                         if v is not None}
            object.__setattr__(self, name, block)

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


def config_from_mapping(data: dict) -> ToolkitConfig:
    _require_mapping(data, "config root")
    unknown = set(data) - set(CONFIG_BLOCKS)
    if unknown:
        raise ParameterError(
            f"unknown config block(s) {', '.join(sorted(map(str, unknown)))}; "
            f"expected some of: {', '.join(CONFIG_BLOCKS)}")
    return ToolkitConfig(**{name: data.get(name) for name in CONFIG_BLOCKS})


@functools.cache
def _unique_key_loader():
    """A ``yaml.SafeLoader`` that refuses a mapping which repeats a key,
    and names the key: the later entry would replace the earlier one
    without a word, and a node past _MAX_YAML_DEPTH before composing it.
    Built on first use, which imports yaml then and keeps the package
    import quick."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def compose_node(self, parent, index):
            self.depth = getattr(self, "depth", 0) + 1
            if self.depth > _MAX_YAML_DEPTH:
                raise ValueError(_TOO_DEEP)
            node = super().compose_node(parent, index)
            self.depth -= 1
            return node

        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue               # "<<" may override merged keys
                key = self.construct_object(key_node, deep=deep)
                try:
                    repeated = key in seen
                except TypeError:          # unhashable: the base class says so
                    continue
                if repeated:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found repeated key {key!r}",
                        key_node.start_mark)
                seen.add(key)
            return super().construct_mapping(node, deep)

    return UniqueKeyLoader


# The most values, each mapping, sequence and scalar, a document may
# hold with every alias expanded: the readers copy and print an aliased
# node once per reference, so nine aliases of nine nested seven deep
# (384 bytes) would hold 6.1 million values once read.
_MAX_YAML_VALUES = 1_000_000
# The most levels a document may nest, aliases followed, each value one
# (in [[x]], x lies 3 deep): yaml and the readers recurse once a level,
# and Python's recursion limit stopped them near 490 levels.
_MAX_YAML_DEPTH = 64
_TOO_DEEP = f"it nests deeper than {_MAX_YAML_DEPTH} levels"


def _expanded_size(value, seen: dict) -> tuple[float, int]:
    """The values ``value`` holds, counted once per reference, and the
    levels it nests; ``seen`` memoizes both by id, and a container met
    again inside itself counts as infinitely many values. The walk keeps
    document order, so it first meets each container where it is written."""
    if not isinstance(value, (dict, list)):
        return 1, 1
    if id(value) not in seen:
        seen[id(value)] = math.inf, 1
        items = (value if isinstance(value, list)
                 else [v for item in value.items() for v in item])
        measured = [_expanded_size(v, seen) for v in items]
        seen[id(value)] = (1 + sum(size for size, _ in measured),
                           1 + max((depth for _, depth in measured), default=0))
    return seen[id(value)]


def _load_yaml(text: str):
    """``yaml.safe_load`` through ``_unique_key_loader``, refusing with
    ValueError a document of over ``_MAX_YAML_VALUES`` values or one
    nested deeper than ``_MAX_YAML_DEPTH`` levels."""
    import yaml

    data = yaml.load(text, Loader=_unique_key_loader())
    size, depth = _expanded_size(data, {})
    if size > _MAX_YAML_VALUES:
        raise ValueError(f"its aliases expand it past {_MAX_YAML_VALUES} "
                         f"values")
    if depth > _MAX_YAML_DEPTH:
        raise ValueError(_TOO_DEEP)
    return data


def load_config(path) -> ToolkitConfig:
    """Read and parse a YAML config file.

    Parse errors carry the line/column from the YAML parser; structural
    errors name the offending block. A value YAML reads but Python
    cannot build (an integer over Python's digit limit, a date such as
    2001-02-30) is refused naming the file, and so is a file that is
    not UTF-8, YAML's encoding.
    """
    import yaml

    try:
        data = _load_yaml(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParameterError(f"config parse error in {path}{where}: {exc}")
    except ValueError as exc:
        raise ParameterError(f"config parse error in {path}: {exc}") from None
    if data is None:
        raise ParameterError(f"config file {path} is empty")
    return config_from_mapping(data)


def preset_config(name: str) -> ToolkitConfig:
    """The bundled defaults for one scenario preset, as a config."""
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown scenario preset {_echo(name)}; "
                             f"choose one of {', '.join(PRESET_NAMES)}")
    return ToolkitConfig(scenario={"preset": name},
                         output=_copy_tree(DEFAULT_OUTPUT))


def apply_set_overrides(config: ToolkitConfig,
                        assignments: list[str]) -> ToolkitConfig:
    """Apply ``--set block.key[.subkey]=value`` pairs onto a config.

    Values parse as by ``parse_scalar``, so ``--set sim.dt=1e-10`` and
    ``--set output.formats=[csv]`` both work, and a quoted value such as
    ``--set "output.directory='2024'"`` stays a string.
    """
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
        _set_key(data, path, parse_scalar(raw, f"--set {key.strip()}"))
    return config_from_mapping(data)


# A plain decimal number, which the YAML 1.1 int and float resolvers
# and int()/float() read alike: digits, a point and an exponent, and
# ASCII spaces around them, all of which YAML strips. A leading zero
# before more digits (YAML's octal), "_", ":", a tab or a digit of
# another script is left to YAML, where it reads differently. Kept as
# a string, so re compiles it on the first value and not on import.
_PLAIN_NUMBER = r" *[-+]?(?:0|[1-9][0-9]*)(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)? *"


def parse_scalar(raw: str, where: str):
    """A command-line value read as YAML, by ``_load_yaml`` as a config
    file is. YAML 1.1 leaves dotless scientific notation ("1e-10") a
    string, so a string read from a plain scalar with no tag that reads
    as an int or float becomes that number; a quoted one (``'2024'``)
    or a tagged one (``!!str 2024``) stays a string.

    A plain decimal number (``24``, ``-0.5``, ``1e-7``) is read by
    ``int()`` or ``float()`` without importing yaml, to the value and
    type the YAML reading gives. A value Python cannot build, such as
    an integer over its digit limit, is refused naming ``where``."""
    if re.fullmatch(_PLAIN_NUMBER, raw):
        kind = float if any(c in raw for c in ".eE") else int
        try:
            return kind(raw)
        except ValueError as exc:         # over the int digit limit
            raise ParameterError(f"{where}: {exc}") from None
    import yaml

    try:
        value = _load_yaml(raw)
    except yaml.YAMLError as exc:
        raise ParameterError(f"{where}: unparseable value {raw!r}: {exc}")
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None
    for kind in (int, float) if isinstance(value, str) else ():
        try:
            number = kind(value)
        except ValueError:
            continue
        scalar = next(e for e in yaml.parse(raw)
                      if isinstance(e, yaml.ScalarEvent))
        return number if scalar.style is None and scalar.tag is None else value
    return value


def _set_key(data: dict, path: list[str], value) -> None:
    """Set ``block.key[.subkey]`` on a config mapping. A missing or null
    key on the way is created as a mapping; any other value is refused,
    since replacing it would drop what it held (``r_total: 500`` would
    leave every line not named under it to the sheet formula)."""
    cursor = data
    for depth, part in enumerate(path[:-1], 1):
        nxt = cursor.get(part)
        if nxt is None:
            nxt = cursor[part] = {}
        elif not isinstance(nxt, dict):
            raise ParameterError(
                f"{'.'.join(path[:depth])} holds {_echo(nxt)}, not a mapping, so "
                f"{'.'.join(path)} cannot be set; set the whole value instead")
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
    b = _read(block, "geometry", _KEYS["geometry"])
    name = b.pop("coefficients", "table-compat")
    if not isinstance(name, str) or name not in BUILTIN_COEFFICIENTS:
        raise ParameterError(
            f"geometry.coefficients: unknown coefficient set {_echo(name)}; "
            f"available: {', '.join(sorted(BUILTIN_COEFFICIENTS))}")
    coeffs = BUILTIN_COEFFICIENTS[name]
    shield_sep = b.pop("shield_separation_um", None)
    width_scale = b.pop("shield_width_scale", 1.0)
    if not width_scale > 0:
        raise ParameterError("geometry block: shield_width_scale must be > 0")
    geometry = InterconnectGeometry(**b)
    if shield_sep is None:
        shield_sep = 2.0 * geometry.separation_um
    elif not shield_sep > 0:
        raise ParameterError("geometry block: shield_separation_um must be > 0")
    return geometry, coeffs, shield_sep, width_scale


_DEFAULT_RESOLVED = resolve_geometry(DEFAULT_GEOMETRY)


def _extract(roles: dict[str, str], pairs, resolved: tuple) -> LineElectricals:
    """extract_all over named lines (name -> role) and coupled pairs, at
    a ``resolve_geometry`` result.

    Shield lines get the scaled width; pairs that touch a shield sit at
    the shield-case spacing, every other pair at ``separation_um``.
    """
    geometry, coeffs, shield_sep, width_scale = resolved
    shield = geometry.replace(width_um=geometry.width_um * width_scale)
    geometries = {name: shield if role == "shield" else geometry
                  for name, role in roles.items()}
    separations = {pair: shield_sep if "shield" in (roles[pair[0]], roles[pair[1]])
                   else geometry.separation_um for pair in pairs}
    return extract_all(geometries, separations, coeffs)


def _override(label: str, where: str, value) -> float:
    """``overrides.<label><where>`` read by ``_number``; a positive
    inductance below 1e-3 uH is refused too, since it is almost surely
    henries written into a uH field."""
    field = f"overrides.{label}{where}"
    number = _number(value, field)
    if label in ("l_total", "m_total") and 0.0 < number < 1e-3:
        raise ParameterError(
            f"{field} = {number:g} is read in uH, the unit "
            f"of the formula values, not H; for {number:g} H write "
            f"{number * 1e6:.6g}")
    return number


def _pin(f0: LineElectricals, block: dict) -> LineElectricals:
    """``f0`` with an overrides block's values in place, validated:
    ``r_total``/``l_total``/``c_total`` one value for every line or a
    per-line mapping, ``m_total``/``cm_total`` a mapping of "a:b" (or
    tuple) pair keys, each pair once, where 0 removes the pair."""
    by_label = {name: dict(getattr(f0, name)) for name in f0._fields}
    for label, ov in _read(block, "overrides", _KEYS["overrides"]).items():
        table = by_label[label]
        if label in ("m_total", "cm_total"):
            if not isinstance(ov, dict):
                raise ParameterError(f"overrides.{label} must be a mapping of "
                                     f"'a:b' pairs to values, got {_echo(ov)}")
            given: dict[tuple[str, str], object] = {}
            for key, value in ov.items():
                parts = key.split(":") if isinstance(key, str) else key
                if not isinstance(parts, (list, tuple)) or len(parts) != 2:
                    raise ParameterError(f"overrides.{label} pair key "
                                         f"{key!r} is not of the form 'a:b'")
                pair = pair_key(*parts)
                if pair in given:
                    raise ParameterError(f"overrides.{label} names pair "
                                         f"{pair[0]}:{pair[1]} twice, as "
                                         f"{given[pair]!r} and {key!r}")
                given[pair] = key
                for name in pair:
                    if name not in f0.r_total:
                        raise ParameterError(f"overrides.{label} pair {key!r} "
                                             f"names unknown line {name!r}")
                table[pair] = _override(label, f"[{pair[0]}:{pair[1]}]", value)
                if table[pair] == 0.0:
                    del table[pair]
        elif isinstance(ov, dict):
            for line, value in ov.items():
                if line not in table:
                    raise ParameterError(f"overrides.{label} names unknown "
                                         f"line {line!r}")
                table[line] = _override(label, f"[{line}]", value)
        else:
            table.update(dict.fromkeys(table, _override(label, "", ov)))
    pinned = LineElectricals(**by_label)
    pinned.validate()
    return pinned


def _map_tables(spec: LadderSpec, config: ToolkitConfig
                ) -> tuple[LadderSpec, tuple]:
    """Map a LadderSpec's values onto the config's geometry and overrides;
    returns the mapped spec and ``resolve_geometry`` of the geometry.

    Every line total and pair value v becomes
    v * [F(g)/F(g0)] * [P(ov)/P(ov0)], where F is extraction, P(ov) is
    ``_pin(F(g0), ov)``, g the config's geometry, g0 DEFAULT_GEOMETRY
    and ov0 DEFAULT_OVERRIDES. Spec values are thus read as belonging
    to the default geometry, and an override states what extraction
    should give there. At the defaults both ratios are x/x == 1.0, so
    the presets keep their stock values bit for bit.
    """
    roles = {ln.name: ln.role for ln in spec.lines}
    for key in ("shield_width_scale", "shield_separation_um"):
        if key in config.geometry and "shield" not in roles.values():
            raise ParameterError(f"geometry.{key} needs a shielded preset "
                                 f"(a line with role shield)")
    pairs = tuple(spec.couplings)
    resolved = resolve_geometry(config.geometry)
    f = _extract(roles, pairs, resolved)
    f0 = _extract(roles, pairs, _DEFAULT_RESOLVED)
    e = _pin(f0, config.overrides)
    e0 = _pin(f0, DEFAULT_OVERRIDES)

    def scaled(label: str, key, value: float) -> float:
        ratio = getattr(f, label)[key] / getattr(f0, label)[key]
        pinned = getattr(e, label).get(key, 0.0) / getattr(e0, label)[key]
        return value * ratio * pinned

    couplings = {pair: {label: scaled(label, pair, value)
                        for label, value in entry.items()}
                 for pair, entry in spec.couplings.items()}
    for label in ("m_total", "cm_total"):
        for key, value in getattr(e, label).items():
            if (value != getattr(e0, label).get(key)
                    and label not in couplings.get(key, {})):
                raise ParameterError(f"overrides.{label} sets pair "
                                     f"{key[0]}:{key[1]}, which the scenario "
                                     f"does not couple that way")
    lines = tuple(ln.replace(**{label: scaled(label, ln.name, getattr(ln, label))
                                for label in ("r_total", "l_total", "c_total")})
                  for ln in spec.lines)
    return spec.replace(lines=lines, couplings=couplings), resolved


class ExtractionReport(Record):
    """Formula values for the comparison layout: aggressor, shield and
    victim, with the aggressor-victim pair at the adjacent spacing
    (without-shield column) and the aggressor-shield pair across the
    shield (with-shield column)."""

    spec: LadderSpec
    coefficients: str
    geometry: InterconnectGeometry
    shield_separation_um: float

    def render(self) -> str:
        g = self.geometry
        agg = self.spec.lines[0]
        wo = self.spec.couplings[pair_key("aggressor", "victim")]
        wi = self.spec.couplings[pair_key("aggressor", "shield")]
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
    and overrides, and goes through the same mapping as a run. The
    scenario, stimulus, sim and output blocks are checked by the
    readers a run uses, though the report does not use them.
    """
    _run_blocks(config)
    roles = {"aggressor": "aggressor", "shield": "shield", "victim": "victim"}
    pairs = (("aggressor", "victim"), ("aggressor", "shield"),
             ("shield", "victim"))
    stock = _pin(_extract(roles, pairs, _DEFAULT_RESOLVED), DEFAULT_OVERRIDES)
    spec = LadderSpec(
        tuple(LineSpec(name, role, stock.r_total[name], stock.l_total[name],
                       stock.c_total[name]) for name, role in roles.items()),
        {pair: {"m_total": stock.m_total[pair],
                "cm_total": stock.cm_total[pair]} for pair in pairs})
    spec, (geometry, coeffs, shield_sep, _) = _map_tables(spec, config)
    return ExtractionReport(spec, coeffs.name, geometry, shield_sep)


# ---------------------------------------------------------------------------
# scenario / stimulus / sim resolution


def _record(cls, entry, where: str):
    """``cls(**entry)`` for a mapping ``entry``, read by ``_read`` with
    the fields of ``cls`` as its keys, those annotated ``float`` read as
    numbers and those without a default required; ``where`` names the
    entry in errors, those of ``cls`` too."""
    _require_mapping(entry, where)
    kinds = {name: float if kind == "float" else None
             for name, kind in cls.__annotations__.items()}
    values = _read(entry, where, kinds, cls._required)
    try:
        return cls(**values)
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def _parse_line_specs(entries) -> tuple[LineSpec, ...]:
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ParameterError("scenario.lines must be a non-empty list")
    return tuple(_record(LineSpec, entry, f"scenario.lines[{i}]")
                 for i, entry in enumerate(entries))


def _parse_couplings(entries) -> dict[tuple[str, str], dict]:
    if not isinstance(entries, (list, tuple)):
        raise ParameterError("scenario.couplings must be a list")
    out: dict[tuple[str, str], dict] = {}
    for i, entry in enumerate(entries):
        where = f"scenario.couplings[{i}]"
        entry = _read(_require_mapping(entry, where), where,
                      _KEYS["scenario.couplings"])
        pair = entry.pop("pair", None)
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            raise ParameterError(f"{where} needs pair: [line_a, line_b]")
        key = pair_key(*pair)
        if key in out:                    # each earlier entry added one key
            raise ParameterError(f"{where} gives pair "
                                 f"{key[0]}:{key[1]} again, after "
                                 f"scenario.couplings[{list(out).index(key)}]; "
                                 f"give each pair one entry")
        out[key] = entry
    return out


def _parse_terminations(entries) -> dict[str, TerminationSpec]:
    _require_mapping(entries, "scenario.terminations")
    return {name: _record(TerminationSpec, entry,
                          f"scenario.terminations[{name}]")
            for name, entry in entries.items()}


def _parse_taps(entry) -> TapSchedule | None:
    if entry is None:
        return None
    _require_mapping(entry, "scenario.taps")
    fractions = entry.get("fractions", ())
    if not isinstance(fractions, (list, tuple)):
        raise ParameterError(f"scenario.taps.fractions must be a list, "
                             f"got {_echo(fractions)}")
    fractions = tuple(_number(f, f"scenario.taps.fractions[{i}]")
                      for i, f in enumerate(fractions))
    return _record(TapSchedule, dict(entry, fractions=fractions),
                   "scenario.taps")


def _tables_params(spec: LadderSpec, n_segments: int) -> dict:
    """JSON-able echo of the element values a build actually used."""
    lines = {ln.name: {"role": ln.role, "r_total": ln.r_total,
                       "l_total": ln.l_total, "c_total": ln.c_total}
             for ln in spec.lines}
    couplings = [{"pair": list(pair), **entry}
                 for pair, entry in spec.couplings.items()]
    taps = spec.taps
    return {
        "n_segments": n_segments,
        "lines": lines,
        "couplings": couplings,
        "taps": None if taps is None else {
            "fractions": list(taps.fractions),
            "tie_resistance_ohm": taps.tie_resistance_ohm},
        "terminations": {name: {
            "driver_resistance_ohm": t.driver_resistance_ohm,
            "source_ref": t.source_ref,
            "load_capacitance_f": t.load_capacitance_f,
        } for name, t in spec.terminations.items()},
    }


def _scenario_tables(scen: dict | None, n_segments: int) -> LadderSpec:
    """Scenario block -> its LadderSpec, named after the preset, the
    ``name`` key or "custom". A tap count is checked against
    ``n_segments`` before any tap is made."""
    if scen is None:
        raise ParameterError("config has no scenario block")
    scen = _read(scen, "scenario", _KEYS["scenario"])
    if ("preset" in scen) == ("lines" in scen):
        raise ParameterError("scenario block needs exactly one of "
                             "'preset' or explicit 'lines'")
    if "preset" in scen:
        for key in ("couplings", "terminations", "taps", "name"):
            if key in scen:
                raise ParameterError(f"scenario.{key} conflicts with "
                                     f"scenario.preset; pick one form")
        tap_count = scen.get("tap_count")
        if tap_count is not None and tap_count >= max(n_segments, 1):
            raise ParameterError(
                f"scenario.tap_count={tap_count}: taps at "
                f"i/(tap_count+1) land on interior nodes only when "
                f"tap_count <= sim.n_segments - 1 = {n_segments - 1}")
        return preset_tables(scen["preset"], tap_count,
                             scen.get("tie_resistance_ohm", 0.0))
    for key in ("tap_count", "tie_resistance_ohm"):
        if key in scen:
            raise ParameterError(f"scenario.{key} belongs to the preset form; "
                                 f"explicit scenarios use the taps block")
    return LadderSpec(_parse_line_specs(scen["lines"]),
                      _parse_couplings(scen.get("couplings", [])),
                      _parse_terminations(scen.get("terminations", {})),
                      _parse_taps(scen.get("taps")),
                      scen.get("name") or "custom")


def _read_stimulus(block: dict) -> dict:
    """A stimulus block read by ``_read``, then checked against its kind:
    what ``resolve_stimulus`` builds from and a summary echoes."""
    b = _read(block, "stimulus", _KEYS["stimulus"])
    kind = b.get("kind", "ramp")
    if kind not in ("step", "ramp", "pwl", "smooth-edge"):
        raise ParameterError(f"unknown stimulus kind {_echo(kind)}")
    if "samples" in b and kind != "smooth-edge":
        raise ParameterError("stimulus: samples is only valid for kind=smooth-edge")
    if "points" in b and kind != "pwl":
        raise ParameterError("stimulus: points are only valid for kind=pwl")
    if kind in ("step", "pwl") and "rise_time_s" in b:
        raise ParameterError(f"stimulus: rise_time_s is not used by "
                             f"kind={kind}; only ramp and smooth-edge have "
                             f"a rise time")
    if "points" in b:
        try:
            b["points"] = [[_number(t, f"stimulus.points[{i}]"),
                            _number(v, f"stimulus.points[{i}]")]
                           for i, (t, v) in enumerate(b["points"])]
        except (TypeError, ValueError):
            raise ParameterError("stimulus.points must be a list of "
                                 "[time, value] pairs")
    return b


def resolve_stimulus(block: dict) -> Stimulus:
    """Stimulus block -> engine Stimulus, the one reader of a kind.

    ``step`` is the edge ``((0, 0), (STEP_EDGE_S, 1))``; ``ramp`` the
    edge ``((0, 0), (rise_time_s, 1))``, a zero rise being a step;
    ``pwl`` the points as given; ``smooth-edge`` ``inputs.smooth_edge``.
    """
    b = _read_stimulus(block)
    kind = b.pop("kind", "ramp")
    rise_time_s = b.pop("rise_time_s", DEFAULT_STIMULUS["rise_time_s"]
                        if kind == "smooth-edge" else 1e-9)
    if not math.isfinite(rise_time_s) or (kind == "ramp" and rise_time_s < 0):
        raise ParameterError(f"stimulus rise_time_s must be finite and "
                             f">= 0, got {rise_time_s!r}")
    if kind == "smooth-edge":
        return smooth_edge(rise_time_s, **b)  # amplitude_v, delay_s, samples
    if kind == "ramp" and rise_time_s > 0.0:
        b["points"] = ((0.0, 0.0), (rise_time_s, 1.0))
    elif kind != "pwl":                   # step, or a zero-rise ramp
        b["points"] = ((0.0, 0.0), (STEP_EDGE_S, 1.0))
    return Stimulus(b.pop("points", ()), **b)   # amplitude_v, delay_s


def resolve_output(block: dict | None) -> dict:
    """Output block -> directory, formats and node policy, defaults
    filled and each checked."""
    b = _copy_tree(DEFAULT_OUTPUT)
    if block is not None:
        b.update(_read(_copy_tree(block), "output", _KEYS["output"]))
    formats = b["formats"]
    if isinstance(formats, str):
        formats = [formats]
    if not isinstance(formats, (list, tuple)):
        raise ParameterError(f"output.formats must be a list, "
                             f"got {_echo(formats)}")
    unknown = [f for f in formats if f not in OUTPUT_FORMATS]
    if unknown:
        raise ParameterError(f"output.formats: unknown format(s) "
                             f"{_echo(unknown)}; allowed: {OUTPUT_FORMATS}")
    b["formats"] = tuple(formats)
    nodes = b["nodes"]
    if isinstance(nodes, (list, tuple)):
        for i, label in enumerate(nodes):
            _string(label, f"output.nodes[{i}]")
    elif nodes not in ("ends", "all"):
        raise ParameterError(f"output.nodes must be 'all', 'ends', or a "
                             f"list of node labels, got {_echo(nodes)}")
    return b


def _check_run_size(n_lines: int, n_segments: int, sim: SimConfig,
                    nodes, stimulus: dict) -> float:
    """Refuse a run whose bound in bytes (inputs.run_footprint) is not
    within _MAX_RUN_BYTES, naming its weightiest field; return the bound."""
    kept = (len(nodes) + 3 if isinstance(nodes, (list, tuple))
            else 2 * n_lines if nodes == "ends" else None)
    _, need = run_footprint(n_lines, n_segments, sim.t_end / sim.dt, kept,
                            stimulus.get("samples", 64))
    total = sum(need.values())
    if not total <= _MAX_RUN_BYTES:      # a NaN is refused like an inf
        field = max(need, key=need.get)
        raise ParameterError(f"{field}: the run would hold about "
                             f"{total / 2**30:.3g} GiB, over the "
                             f"{_MAX_RUN_BYTES / 2**30:g} GiB limit")
    return total


def _check_window(sim: SimConfig, stimulus: Stimulus) -> None:
    """Refuse a window that ends before the drive's last change, its last
    breakpoint of a new value (one of amplitude 0 has none): delay and
    rise time read their levels from the settled end of the run, which
    such a window never reaches."""
    bp = stimulus.breakpoints
    changes = [t for (_, v0), (t, v) in zip(bp, bp[1:]) if v != v0]
    if changes and sim.t_end < changes[-1]:
        raise ParameterError(
            f"sim.t_end={sim.t_end:g} ends before the drive's last change "
            f"at {changes[-1]:g} s; measurements need the settled drive, so "
            f"end the window at or after it")


class ResolvedScenario(Record):
    """Everything a run needs, derived from one config."""

    network: CoupledNetwork
    stimulus: Stimulus
    sim: SimConfig
    params: dict
    roles: dict[str, str]
    output: dict


def _run_blocks(config: ToolkitConfig) -> tuple:
    """Every block but geometry and overrides, read by its reader:
    (scenario LadderSpec, sim, n_segments, output, stimulus, its block as
    read). The run size is checked before the stimulus is built."""
    sim_block = _read(config.sim, "sim", _KEYS["sim"])
    if "dt" not in sim_block or "t_end" not in sim_block:
        raise ParameterError("sim block needs dt and t_end")
    n_segments = sim_block.get("n_segments", 12)
    sim = SimConfig(sim_block["dt"], sim_block["t_end"],
                    sim_block.get("method", "trapezoidal"))
    spec = _scenario_tables(config.scenario, n_segments)
    output = resolve_output(config.output)
    read = _read_stimulus(config.stimulus)
    _check_run_size(len(spec.lines), n_segments, sim, output["nodes"], read)
    stimulus = resolve_stimulus(read)
    _check_window(sim, stimulus)
    return spec, sim, n_segments, output, stimulus, read


def resolve(config: ToolkitConfig) -> ResolvedScenario:
    """Validate a config and build the network/stimulus/sim triple."""
    spec, sim, n_segments, output, stimulus, read = _run_blocks(config)
    spec, _ = _map_tables(spec, config)
    network = build_ladder(spec, n_segments)
    roles = measured_nodes(network)

    nodes = output["nodes"]
    if nodes == "ends":
        out_nodes = end_labels(network)
    elif nodes == "all":
        out_nodes = "all"
    else:
        labels, known = list(nodes), frozenset(network.nodes[1:])
        missing = [lbl for lbl in labels if lbl not in known]
        if missing:
            raise ParameterError(f"output.nodes: labels not in the network: "
                                 f"{_echo_some(missing)}")
        # the measurements read these traces, so they are always kept
        out_nodes = (*labels, *roles.values())
    sim = sim.replace(output_nodes=out_nodes)

    params = _tables_params(spec, n_segments)
    params["stimulus"] = read
    params["sim"] = {"dt": sim.dt, "t_end": sim.t_end, "method": sim.method,
                     "n_segments": n_segments}
    return ResolvedScenario(network=network, stimulus=stimulus, sim=sim,
                            params=params, roles=roles, output=output)


# run_scenario calls these by name, where perfbench --trace 1 wraps them
# (its hooks ("config", "run_transient") and ("config",
# "measure_scenario")); they become direct imports once perfbench stops
# wrapping module attributes (ROADMAP item 1).
def run_transient(network: CoupledNetwork, stimulus: Stimulus,
                  sim: SimConfig) -> WaveformSet:
    from .engine import run_transient
    return run_transient(network, stimulus, sim)


def measure_scenario(waves: WaveformSet, roles: dict[str, str]) -> dict:
    from .metrics import measure_scenario
    return measure_scenario(waves, roles)


def run_scenario(config: ToolkitConfig
                 ) -> tuple[ScenarioResult, WaveformSet, ResolvedScenario]:
    """Resolve, simulate, measure. File writing is the caller's job."""
    resolved = resolve(config)
    # numpy loads here, so a config refused without it reads as refused
    from .metrics import ScenarioResult

    waves = run_transient(resolved.network, resolved.stimulus, resolved.sim)
    measurements = (measure_scenario(waves, resolved.roles)
                    if resolved.roles else {})
    result = ScenarioResult(scenario=resolved.network.scenario,
                            params=resolved.params,
                            measurements=measurements,
                            version=TOOLKIT_VERSION)
    return result, waves, resolved


# A measured trace may end up to SETTLE_TOLERANCE x |amplitude_v| from
# its DC value at the drive's last sample: the presets' stock 2.4 us
# window ends 1.2e-5 to 3.7e-5 V from it, a 1.2 us window 3.4e-3 to
# 1.2e-2 V.
SETTLE_TOLERANCE = 1e-3
# The measurements an unsettled trace leaves in doubt: the aggressor's
# levels are fractions of its last sample, the victim's of a peak that
# may come after the window.
_READ_AT_END = {"aggressor": "aggressor delay and rise time",
                "victim": "victim peak, delay and rise time"}


def settle_warning(waves: WaveformSet, resolved: ResolvedScenario) -> str:
    """A warning when a measured trace ends farther than SETTLE_TOLERANCE
    x |amplitude_v| from its DC value at the drive's last sample, else
    "". It names sim.t_end, the farthest such trace and its gap, and the
    measurements read against an unsettled end."""
    bound = SETTLE_TOLERANCE * abs(resolved.stimulus.amplitude_v)
    late = {role: label for role, label in resolved.roles.items()
            if role in _READ_AT_END and waves.settle_gap[label] > bound}
    if not late:
        return ""
    worst = max(late.values(), key=waves.settle_gap.get)
    return (f"sim.t_end={resolved.sim.t_end:g} ends before the response "
            f"settles: {worst} ends {waves.settle_gap[worst]:.3g} V from its "
            f"DC value, over the {bound:.3g} V bound; read before the end "
            f"settles: {'; '.join(_READ_AT_END[role] for role in late)}")


# ---------------------------------------------------------------------------
# file formats


_CSV_CHUNK_ROWS = 4096
_CSV_SLICE_ROWS = 256


def write_waveforms_csv(path, waves: WaveformSet) -> None:
    """CSV with header ``time,<node>,...``, 9 significant digits.

    The bytes equal ``np.savetxt(fmt="%.9g", delimiter=",")``'s; one
    ``%`` format per chunk of rows is about twice as fast. A column that
    holds one value through a chunk (a quiet trace, a settled drive) is
    written into that chunk's row format as text, so only the varying
    columns are formatted; 0.0 and -0.0 print differently, so a chunk
    holding both varies. The varying columns are stacked, templated and
    formatted ``_CSV_SLICE_ROWS`` rows at a time, so the writer holds
    about 60 KB at most on a preset: glibc keeps a large block in the
    heap once one of its size is freed, and its pages outlive the run.
    """
    import numpy as np

    labels = list(waves.node_traces)
    columns = [waves.times] + [waves.node_traces[lbl] for lbl in labels]
    with open(path, "w") as fh:
        fh.write(",".join(["time"] + labels) + "\n")
        for start in range(0, len(waves.times), _CSV_CHUNK_ROWS):
            chunk = [c[start:start + _CSV_CHUNK_ROWS] for c in columns]
            fmts, varying = [], []
            for col in chunk:
                if ((col == col[0]).all()
                        and (np.signbit(col) == np.signbit(col[0])).all()):
                    fmts.append("%.9g" % col[0])
                else:
                    fmts.append("%.9g")
                    varying.append(col)
            row = ",".join(fmts) + "\n"
            for at in range(0, len(chunk[0]), _CSV_SLICE_ROWS):
                rows = row * min(_CSV_SLICE_ROWS, len(chunk[0]) - at)
                if varying:
                    rows %= tuple(np.column_stack(
                        [c[at:at + _CSV_SLICE_ROWS] for c in varying]
                    ).ravel().tolist())
                fh.write(rows)


def write_summary_json(path, result: ScenarioResult) -> None:
    """Summary JSON; deterministic except for the timestamp field, the
    time of the write."""
    import json
    from datetime import datetime, timezone

    data = asdict(result)
    data["timestamp"] = datetime.now(timezone.utc).isoformat()
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
    produces a row with an ``error`` entry instead of aborting the sweep;
    a row's ``warning`` is its run's ``settle_warning``.
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
               "aggressor_delay_s": None, "victim_delay_s": None, "error": "",
               "warning": ""}
        try:
            _set_key(data, SWEEP_AXES[axis].split("."), value)
            result, waves, resolved = run_scenario(config_from_mapping(data))
            row["warning"] = settle_warning(waves, resolved)
            del waves, resolved           # not held through the next row's run
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
    import csv

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
