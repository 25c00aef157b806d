"""Command-line interface.

Four subcommands cover the tool's workflow::

    xtalksim extract --preset shield
    xtalksim run --preset no-shield --out results
    xtalksim sweep --preset shield --axis tap_count --values 0,1,2,3
    xtalksim export-netlist --config my.yaml --out decks

Every subcommand takes exactly one of ``--config <path>`` (a YAML
document) or ``--preset <name>`` (bundled defaults), plus any number of
``--set block.key=value`` overrides applied on top.

Exit codes: 0 success, 1 config/parameter error (a network the
construction check refuses among them) or a ``run`` or ``sweep``
without numpy installed, 2 SolverError (a numerical failure of the
solve), 3 file I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .config import (SWEEP_AXES, ToolkitConfig, apply_set_overrides,
                     extraction_report, load_config, parse_scalar,
                     preset_config, resolve, resolve_output, run_scenario,
                     run_sweep, summary_filename, sweep_filename,
                     waveforms_filename, write_summary_json, write_sweep_csv,
                     write_waveforms_csv)
from .errors import ParameterError, SolverError
from .netlist import export_netlist
from .network import PRESET_NAMES


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code
    contract (1) instead of its built-in exit(2)."""

    def error(self, message):
        raise ParameterError(message)


def _base_config(args) -> ToolkitConfig:
    if (args.config is None) == (args.preset is None):
        raise ParameterError("give exactly one of --config or --preset")
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = preset_config(args.preset)
    if args.set:
        config = apply_set_overrides(config, args.set)
    return config


def _out_dir(args, config_dir: str) -> Path:
    out = Path(args.out if args.out is not None else config_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ns(seconds: float | None) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e9:.6g} ns"


def _mv(volts: float | None) -> str:
    return "n/a" if volts is None else f"{volts * 1e3:.6g} mV"


def cmd_extract(args) -> int:
    config = _base_config(args)
    report = extraction_report(config)
    text = report.render()
    sys.stdout.write(text)
    if args.out is not None:
        out = _out_dir(args, "")
        path = out / "extraction_report.txt"
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def cmd_run(args) -> int:
    config = _base_config(args)
    result, waves, resolved = run_scenario(config)
    out = _out_dir(args, resolved.output["directory"])
    formats = resolved.output["formats"]

    written = []
    if "csv" in formats:
        path = out / waveforms_filename(result.scenario)
        write_waveforms_csv(path, waves)
        written.append(path)
        result = replace(result, waveform_files=(path.name,))
    if "json" in formats:
        path = out / summary_filename(result.scenario)
        write_summary_json(path, result)
        written.append(path)

    print(f"scenario: {result.scenario}")
    agg = result.measurements.get("aggressor")
    vic = result.measurements.get("victim")
    if agg is not None:
        print(f"  aggressor 50% delay: {_ns(agg.delay)}, "
              f"10-90% rise: {_ns(agg.rise_time)}")
    if vic is not None:
        print(f"  victim peak noise: {_mv(vic.peak_v)} at {_ns(vic.t_peak)}, "
              f"50% delay: {_ns(vic.delay)}, 10-90% rise: {_ns(vic.rise_time)}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_values(raw: str) -> list[float]:
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        value = parse_scalar(part, "--values")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParameterError(f"--values entries must be numbers, "
                                 f"got {part!r}")
        values.append(value)
    return values


def cmd_sweep(args) -> int:
    config = _base_config(args)
    values = _parse_values(args.values)
    output = resolve_output(config.output)
    rows = run_sweep(config, args.axis, values)
    out = _out_dir(args, output["directory"])
    path = out / sweep_filename(args.axis)
    write_sweep_csv(path, args.axis, rows)

    for row in rows:
        if row["error"]:
            print(f"{args.axis}={row['value']}: error: {row['error']}")
        else:
            print(f"{args.axis}={row['value']}: "
                  f"victim peak {_mv(row['victim_peak_v'])}, "
                  f"aggressor delay {_ns(row['aggressor_delay_s'])}, "
                  f"victim delay {_ns(row['victim_delay_s'])}")
    print(f"wrote {path}")
    if all(row["error"] for row in rows):
        raise ParameterError(f"no sweep row succeeded; first error: "
                             f"{rows[0]['error']}")
    return 0


def cmd_export_netlist(args) -> int:
    config = _base_config(args)
    resolved = resolve(config)
    deck = export_netlist(resolved.network, resolved.stimulus, resolved.sim)
    out = _out_dir(args, resolved.output["directory"])
    path = out / f"{resolved.network.scenario}.cir"
    path.write_text(deck)
    print(f"wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``xtalksim`` argument parser, built on the first call; later
    calls return the same object, which every ``main`` call in the
    process parses with, so no caller may change it. A parse keeps no
    state in the parser, and each subcommand's ``func`` reads the config
    helpers from this module's globals when it runs."""
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML config document")
    common.add_argument("--preset", metavar="NAME", choices=PRESET_NAMES,
                        help=f"bundled scenario ({', '.join(PRESET_NAMES)})")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="set",
                        help="override a config entry, e.g. sim.dt=1e-10")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default: config output block)")

    parser = _Parser(
        prog="xtalksim",
        description="Coupled-interconnect crosstalk toolkit: closed-form "
                    "parasitic extraction, distributed RLC ladder builds, "
                    "transient simulation, and shielding comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[common],
                       help="evaluate the parasitic formulas and report "
                            "without-shield vs with-shield values")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("run", parents=[common],
                       help="simulate one scenario; write waveform CSV and "
                            "summary JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[common],
                       help="repeat a scenario along one axis; write a CSV "
                            "table of metrics")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, metavar="V1,V2,...",
                   help="comma-separated axis values (at least two)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-netlist", parents=[common],
                       help="emit a SPICE-dialect deck for external "
                            "cross-validation")
    p.set_defaults(func=cmd_export_netlist)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code; ``--help`` raises ``SystemExit(0)``. It may be
    called any number of times in one process; the parser is built on
    the first call, not on import, and every later call reuses it."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ModuleNotFoundError as exc:
        # run and sweep import numpy after resolve has read the config
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which is not installed",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
