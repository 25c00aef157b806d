"""Closed-form parasitic extraction for parallel on-chip interconnect.

Evaluates the classical closed-form expressions for line resistance,
self inductance, mutual inductance, line-to-ground capacitance, and
line-to-line coupling capacitance of parallel rectangular wires, and
bundles the results per line / per pair for network construction.

Unit conventions
----------------
Geometry is given in micrometers. The inductance expressions are
evaluated exactly as printed in their closed form, with the wire length
in micrometers and the leading 0.002 factor retained; the results are
carried as "formula units" (the values the stock parameter set labels
uH). Capacitances come out in farads per meter. The toolkit treats the
stock parameter table values as the element values actually simulated,
so no further unit conversion is applied downstream. A strict-SI
re-derivation is deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError

# Vacuum permittivity as used throughout: the stock parameter set was
# produced with the rounded 8.86e-12 F/m, so we keep that rounding
# rather than 8.854e-12.
EPS0_F_PER_M = 8.86e-12


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class InterconnectGeometry:
    """Physical dimensions and material constants of one line.

    All lengths in micrometers. ``separation_um`` is the spacing to the
    named neighbor and only matters for pairwise quantities. ``lam`` is
    the dimensionless constant in the self-inductance bracket; 1.0
    reproduces the stock inductance value.
    """

    length_um: float = 5000.0
    width_um: float = 2.0
    thickness_um: float = 2.0
    height_um: float = 2.0
    separation_um: float = 1.0
    eps_rel: float = 3.9
    sheet_res_ohm_sq: float = 0.05
    lam: float = 1.0

    def __post_init__(self) -> None:
        _require_positive(
            length_um=self.length_um,
            width_um=self.width_um,
            thickness_um=self.thickness_um,
            height_um=self.height_um,
            separation_um=self.separation_um,
            sheet_res_ohm_sq=self.sheet_res_ohm_sq,
            lam=self.lam,
        )
        if not (math.isfinite(self.eps_rel) and self.eps_rel >= 1.0):
            raise ParameterError(f"eps_rel must be >= 1, got {self.eps_rel!r}")


@dataclass(frozen=True)
class CouplingCoefficients:
    """Coefficient set for the coupling-capacitance expression.

    Two built-in sets exist:

    * ``PAPER_LITERAL``: the coefficients exactly as printed in the
      closed-form expression. They do not reproduce the stock parameter
      table (documented mismatch).
    * ``TABLE_COMPAT`` (default): refit so that the expression lands on
      the stock table's coupling capacitances within 1%.
    """

    a1: float
    a2: float
    a3: float
    e1: float
    e2: float
    e_spacing: float
    name: str


PAPER_LITERAL = CouplingCoefficients(
    a1=1.035, a2=1.83, a3=-1.07, e1=-0.22, e2=-0.22, e_spacing=-0.34,
    name="paper-literal",
)
TABLE_COMPAT = CouplingCoefficients(
    a1=0.03, a2=0.83, a3=-0.07, e1=1.0, e2=0.222, e_spacing=-1.34,
    name="table-compat",
)

BUILTIN_COEFFICIENTS = {c.name: c for c in (PAPER_LITERAL, TABLE_COMPAT)}


def line_resistance(sheet_res_ohm_sq: float, length_um: float, width_um: float) -> float:
    """Line resistance in ohms: sheet resistance times the square count."""
    _require_positive(
        sheet_res_ohm_sq=sheet_res_ohm_sq, length_um=length_um, width_um=width_um
    )
    return sheet_res_ohm_sq * (length_um / width_um)


def self_inductance(length_um: float, width_um: float, thickness_um: float,
                    lam: float = 1.0) -> float:
    """Self inductance of one line, 0.002*l*[ln(2l/(w+t)) + 0.5 - ln(lam)].

    May legitimately come out negative for extreme aspect ratios (the
    bracket changes sign when 2l/(w+t) drops below e^(ln(lam)-0.5));
    callers validate positivity before using the value in a network.
    """
    _require_positive(length_um=length_um, width_um=width_um,
                      thickness_um=thickness_um, lam=lam)
    bracket = math.log(2.0 * length_um / (width_um + thickness_um)) + 0.5 - math.log(lam)
    return 0.002 * length_um * bracket


def mutual_inductance_bracket(length_um: float, separation_um: float) -> float:
    """Dimensionless bracket of the mutual-inductance expression.

    B = ln(l/d + sqrt(l^2/d^2)) - sqrt(1 + d^2/l^2) + d/l. The first
    term collapses to ln(2l/d); it is written out this way to mirror
    the printed form. The stock parameter table's mutual values match
    this bracket alone, without the 0.002*l prefactor.
    """
    _require_positive(length_um=length_um, separation_um=separation_um)
    ratio = length_um / separation_um
    inv = separation_um / length_um
    return math.log(ratio + math.sqrt(ratio * ratio)) - math.sqrt(1.0 + inv * inv) + inv


def mutual_inductance(length_um: float, separation_um: float) -> float:
    """Full mutual inductance 0.002*l*B in formula units."""
    return 0.002 * length_um * mutual_inductance_bracket(length_um, separation_um)


def line_capacitance(width_um: float, height_um: float, thickness_um: float,
                     eps_rel: float) -> float:
    """Line-to-ground capacitance per meter.

    eps * [(w/h) + 0.77 + 1.06*(w/h)^0.25 + 1.06*(t/h)^0.5] with
    eps = eps_rel * EPS0_F_PER_M.
    """
    _require_positive(width_um=width_um, height_um=height_um,
                      thickness_um=thickness_um, eps_rel=eps_rel)
    w_h = width_um / height_um
    t_h = thickness_um / height_um
    factor = w_h + 0.77 + 1.06 * w_h ** 0.25 + 1.06 * t_h ** 0.5
    return eps_rel * EPS0_F_PER_M * factor


def coupling_capacitance(width_um: float, height_um: float, thickness_um: float,
                         separation_um: float, eps_rel: float,
                         coeffs: CouplingCoefficients = TABLE_COMPAT) -> float:
    """Line-to-line coupling capacitance per meter for one adjacent pair.

    eps * [a1*(w/h) + a2*(t/h)^e1 + a3*(t/h)^e2] * (d/h)^e_spacing.
    Strictly decreasing in the separation d for both built-in
    coefficient sets (e_spacing < 0 and the bracket is positive).
    """
    _require_positive(width_um=width_um, height_um=height_um,
                      thickness_um=thickness_um, separation_um=separation_um,
                      eps_rel=eps_rel)
    w_h = width_um / height_um
    t_h = thickness_um / height_um
    d_h = separation_um / height_um
    bracket = coeffs.a1 * w_h + coeffs.a2 * t_h ** coeffs.e1 + coeffs.a3 * t_h ** coeffs.e2
    return eps_rel * EPS0_F_PER_M * bracket * d_h ** coeffs.e_spacing


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) key for an unordered line pair."""
    if a == b:
        raise ParameterError(f"coupling pair must name two distinct lines, got {a!r} twice")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class LineElectricals:
    """Per-line totals plus pairwise couplings (the simulation bundle).

    ``r_total`` is in ohms, ``l_total``/``m_total`` in formula units,
    ``c_total``/``cm_total`` in farads (per meter or total, per the
    caller's length convention; the presets take them as totals).
    Pairwise maps are keyed by sorted name pairs; an absent pair means
    no coupling of that kind.
    """

    r_total: dict[str, float] = field(default_factory=dict)
    l_total: dict[str, float] = field(default_factory=dict)
    c_total: dict[str, float] = field(default_factory=dict)
    m_total: dict[tuple[str, str], float] = field(default_factory=dict)
    cm_total: dict[tuple[str, str], float] = field(default_factory=dict)

    def coupling_k(self, a: str, b: str) -> float:
        """Inductive coupling coefficient k = M/sqrt(L_a*L_b) for a pair."""
        key = pair_key(a, b)
        m = self.m_total.get(key, 0.0)
        return m / math.sqrt(self.l_total[a] * self.l_total[b])

    def validate(self) -> None:
        """Check positivity/finiteness and the k < 1 passivity bound."""
        for label, table in (("r_total", self.r_total), ("l_total", self.l_total),
                             ("c_total", self.c_total)):
            for line, value in table.items():
                if not (math.isfinite(value) and value > 0):
                    raise ParameterError(
                        f"{label}[{line}] must be positive and finite, got {value!r}")
        for label, table in (("m_total", self.m_total), ("cm_total", self.cm_total)):
            for key, value in table.items():
                if not (math.isfinite(value) and value > 0):
                    raise ParameterError(
                        f"{label}[{key[0]}-{key[1]}] must be positive and finite, "
                        f"got {value!r} (drop the pair instead of setting 0)")
        for (a, b) in self.m_total:
            k = self.coupling_k(a, b)
            if k >= 1.0:
                raise ParameterError(
                    f"inductive coupling k = {k:.6g} >= 1 for pair {a}-{b}; "
                    f"the pair inductance matrix would not be positive definite")


def _normalize_override_pairs(table: dict, lines: tuple[str, ...]) -> dict[tuple[str, str], float]:
    """Accept pair overrides keyed by tuple or by "a:b" strings."""
    out: dict[tuple[str, str], float] = {}
    for key, value in table.items():
        if isinstance(key, str):
            parts = key.split(":")
            if len(parts) != 2:
                raise ParameterError(f"pair override key {key!r} is not of the form 'a:b'")
            key = pair_key(parts[0], parts[1])
        else:
            key = pair_key(*key)
        for name in key:
            if name not in lines:
                raise ParameterError(f"pair override names unknown line {name!r}")
        out[key] = float(value)
    return out


def _override_value(label: str, where: str, value) -> float:
    """An override as a float; a positive inductance below 1e-3 uH is
    refused, since it is almost surely henries written into a uH field."""
    value = float(value)
    if label in ("l_total", "m_total") and 0.0 < value < 1e-3:
        raise ParameterError(
            f"overrides.{label} {where} = {value:g} is read in uH, the unit "
            f"of the formula values, not H; for {value:g} H write "
            f"{value * 1e6:.6g}")
    return value


def extract_all(geometries: dict[str, InterconnectGeometry],
                pair_separations: dict[tuple[str, str], float] | None = None,
                coeffs: CouplingCoefficients = TABLE_COMPAT,
                overrides: dict | None = None) -> LineElectricals:
    """Evaluate all formulas for a set of lines and adjacent pairs.

    ``pair_separations`` lists the capacitively adjacent pairs and the
    spacing for each; every listed pair also gets a mutual-inductance
    entry (inductive coupling is not limited to adjacency, but only the
    listed pairs are produced here; callers add further M pairs from the
    same formulas if their topology needs them).

    ``overrides`` pins values directly, bypassing the formulas:
    keys ``r_total``/``l_total``/``c_total`` map either a scalar
    (applied to every line) or a per-line dict; ``m_total``/``cm_total``
    map pair keys (tuples or "a:b" strings) to values, in the formula
    units (``l_total``/``m_total`` in uH, so a positive value below 1e-3
    is refused as henries). An override of 0 for a pair entry removes
    that coupling. The stock R of 500 ohms is applied this way, since
    the sheet-resistance arithmetic gives a different value at the
    default width.
    """
    lines = tuple(geometries)
    if not lines:
        raise ParameterError("extract_all needs at least one line geometry")
    pair_separations = pair_separations or {}
    norm_seps = {pair_key(*k): float(v) for k, v in pair_separations.items()}
    for (a, b) in norm_seps:
        for name in (a, b):
            if name not in geometries:
                raise ParameterError(f"pair separation names unknown line {name!r}")

    r = {}
    l = {}
    c = {}
    for name, g in geometries.items():
        r[name] = line_resistance(g.sheet_res_ohm_sq, g.length_um, g.width_um)
        l[name] = self_inductance(g.length_um, g.width_um, g.thickness_um, g.lam)
        c[name] = line_capacitance(g.width_um, g.height_um, g.thickness_um, g.eps_rel)

    m = {}
    cm = {}
    for (a, b), d in norm_seps.items():
        ga, gb = geometries[a], geometries[b]
        # pairwise formulas use the mean of the two line geometries where
        # both enter; for identical lines this is exact
        length = 0.5 * (ga.length_um + gb.length_um)
        m[(a, b)] = mutual_inductance_bracket(length, d)
        cm[(a, b)] = coupling_capacitance(
            0.5 * (ga.width_um + gb.width_um),
            0.5 * (ga.height_um + gb.height_um),
            0.5 * (ga.thickness_um + gb.thickness_um),
            d,
            0.5 * (ga.eps_rel + gb.eps_rel),
            coeffs,
        )

    overrides = overrides or {}
    unknown = set(overrides) - {"r_total", "l_total", "c_total", "m_total", "cm_total"}
    if unknown:
        raise ParameterError(f"unknown override keys: {sorted(unknown)}")
    for label, table in (("r_total", r), ("l_total", l), ("c_total", c)):
        if label in overrides:
            ov = overrides[label]
            if isinstance(ov, dict):
                for line, value in ov.items():
                    if line not in table:
                        raise ParameterError(f"override {label} names unknown line {line!r}")
                    table[line] = _override_value(label, f"for {line}", value)
            else:
                value = _override_value(label, "for every line", ov)
                for line in table:
                    table[line] = value
    for label, table in (("m_total", m), ("cm_total", cm)):
        if label in overrides:
            for key, value in _normalize_override_pairs(overrides[label], lines).items():
                value = _override_value(label, f"for {key[0]}:{key[1]}", value)
                if value == 0.0:
                    table.pop(key, None)
                else:
                    table[key] = value

    bundle = LineElectricals(r_total=r, l_total=l, c_total=c, m_total=m, cm_total=cm)
    bundle.validate()
    return bundle
