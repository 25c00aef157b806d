"""xtalksim benchmark: one closed-loop client driving the public CLI.

Run from the repository root::

    python3 perfbench/run.py --workload presets-run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs in this one process. Each ``cli.main`` call starts
after the previous one returns; the harness starts no threads. The
package is imported from ``src/`` next to this directory and nowhere
else. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
each item once untraced and once traced and prints the per-layer
metrics. ``--workload all`` runs every workload in a fresh process of
its own and prints all metrics as a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it carry the machine record and diagnostics. Results and spans are also
written under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from spans import Instrumented, Tracer, totals_by_name
from workloads import WORKLOAD_WHY, Deviation, compare, items, load_refs, observe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = tuple(WORKLOAD_WHY)
SETUP_SAMPLES = 5                # fresh interpreters timed per run
IMPORTTIME_SAMPLES = 3           # python -X importtime runs per traced run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

# Wall-clock item times drift by 13-18% (interquartile range over median)
# between runs on a shared 2-CPU machine, however many items a run
# holds, so items_per_s and item_p50_s are reported ungated with the
# per-layer metrics; see README.md.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "engine.run_transient.self_s": "s",
    "engine.steps": "count",
    "engine.step_us": "us",
    "engine.lu_solve.calls": "count",
    "engine.lu_factor.calls": "count",
    "engine.unknowns": "count",
    "engine.waveform_bytes": "bytes",
    "engine.assemble.s": "s",
    "config.write_waveforms_csv.s": "s",
    "config.write_waveforms_csv.bytes": "bytes",
    "config.write_summary_json.s": "s",
    "config.resolve.s": "s",
    "config.run_sweep.self_s": "s",
    "config.extraction_report.s": "s",
    "network.build_ladder.s": "s",
    "network.build_ladder.calls": "count",
    "network.elements": "count",
    "extraction.extract_all.s": "s",
    "netlist.export_netlist.s": "s",
    "netlist.deck_bytes": "bytes",
    "metrics.measure_scenario.s": "s",
    "cli.main.self_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.yaml_s": "s",
    "import.xtalksim_self_s": "s",
    "trace.overhead_frac": "ratio",
    "check.max_peak_dev_v": "V",
    "check.max_delay_dev_s": "s",
}


# ---------------------------------------------------------------------------
# set-up


def _child_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def import_package() -> dict:
    """Import the package from this checkout's ``src/``, or exit."""
    package = SRC / "xtalksim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no xtalksim sources at {package}")
    sys.path.insert(0, str(SRC))
    from xtalksim import cli, config, engine
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported xtalksim from {cli.__file__}, "
                         f"not from {package}")
    return {"cli": cli, "config": config, "engine": engine}


def fresh_import_seconds(samples: int) -> list[float]:
    """Wall time of a fresh interpreter running ``import xtalksim.cli``."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import xtalksim.cli"],
                       cwd=ROOT, env=_child_env(), check=True)
        out.append(time.perf_counter() - t0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per package from ``python -X importtime`` output.

    numpy, scipy and yaml are charged the cumulative time of each of
    their modules imported from outside the package; xtalksim is charged
    the self time of its own modules only.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    totals = {"numpy": 0, "scipy": 0, "yaml": 0, "xtalksim_self": 0}
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; walk it backwards
    # so each module is seen after the module that imported it
    for depth, name, self_us, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        parent_top = stack[-1][1].split(".")[0] if stack else None
        stack.append((depth, name))
        if top in ("numpy", "scipy", "yaml") and parent_top != top:
            totals[top] += cum_us
        if top == "xtalksim":
            totals["xtalksim_self"] += self_us
    return {k: v * 1e-6 for k, v in totals.items()}


def import_breakdown(samples: int) -> dict[str, float]:
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import xtalksim.cli"],
            cwd=ROOT, env=_child_env(), check=True, capture_output=True,
            text=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# the machine record


def _blas_threads() -> list[dict]:
    """Thread count of every OpenBLAS library loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found.append({"library": os.path.basename(path),
                              "threads": fn()})
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    nproc = len(os.sched_getaffinity(0))
    blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = _blas_threads()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas_info.get('name')} {blas_info.get('version')}",
        "blas_threads": blas,
        "harness_threads": threading.active_count(),
        "seed": seed,
        "load": ("one closed-loop client in one process: each call starts "
                 "after the previous one returns; the only threads besides "
                 f"the main one are BLAS's "
                 f"({max((b['threads'] for b in blas), default=0)}, "
                 f"nproc {nproc})"),
    }


# ---------------------------------------------------------------------------
# running items


def run_item(cli, item, out_dir: Path, refs: dict, dev: Deviation,
             tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Run one item's calls; return their summed wall time and problems.

    Only the ``cli.main`` calls are timed; reading back and checking the
    output happens outside the timed region.
    """
    elapsed = 0.0
    problems = []
    for call in item:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            span = tracer.open("cli.main") if tracer is not None else None
            t0 = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except Exception:
                code = traceback.format_exc()
            elapsed += time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        if code != 0:
            problems.append(f"{' '.join(call.argv)}: exit {code!r} "
                            f"{stderr.getvalue().strip()}")
            continue
        try:
            got = observe(call, out_dir, stdout.getvalue())
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{' '.join(call.argv)}: unreadable output: {exc}")
            continue
        problems += [f"{' '.join(call.argv)}: {p}"
                     for p in compare(call.kind, got, refs[call.key], dev)]
    return elapsed, problems


def tail(times: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for pct in TAIL_PERCENTILES:
        index = int(n * pct / 100.0)
        if n - index >= 10:
            return {"percentile": pct, "value_s": ordered[index],
                    "samples": n, "beyond": n - index - 1}
    return None


class Run:
    """One workload in this process: warm-up, then items until time."""

    def __init__(self, workload: str, seed: int, modules: dict) -> None:
        self.cli = modules["cli"]
        self.modules = modules
        self.refs = load_refs(workload)
        self.dev = Deviation()
        self.out_dir = WORK / f"{workload}-{os.getpid()}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.items = items(workload, random.Random(seed), str(self.out_dir))
        self.attempted = 0
        self.failed = 0

    def item(self, tracer: Tracer | None = None, item=None):
        item = next(self.items) if item is None else item
        seconds, problems = run_item(self.cli, item, self.out_dir, self.refs,
                                     self.dev, tracer)
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"check failed: {p}", file=sys.stderr)
        return item, seconds

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def wall_metrics(times: list[float]) -> dict[str, float]:
    """Closed-loop throughput and median latency of timed items."""
    return {"items_per_s": len(times) / sum(times),
            "item_p50_s": statistics.median(times)}


def measure(run: Run, seconds: float, setup_samples: list[float]):
    _, warm_s = run.item()
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(run.item()[1])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = wall_metrics(times)
    diagnostics = {
        **wall,
        "items": len(times),
        "failed_frac": run.failed / run.attempted,
        "item_tail": tail(times),
        "warmup_excess_s": warm_s - wall["item_p50_s"],
        "fresh_import_s": setup_samples,
        "check.max_peak_dev_v": run.dev.peak_v,
        "check.max_delay_dev_s": run.dev.delay_s,
    }
    return metrics, diagnostics


def measure_traced(run: Run, seconds: float, imports: dict):
    """Pairs of the same item, untraced then traced, until time is up."""
    run.item()
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        item, s = run.item()
        plain.append(s)
        tracer.item = len(traced)
        with Instrumented(tracer, run.modules):
            traced.append(run.item(tracer, item)[1])
    overhead = (sum(traced) - sum(plain)) / sum(plain)
    values = {**wall_metrics(plain),
              **layer_metrics(tracer, len(traced), overhead, imports, run.dev)}
    return values, tracer, {"items": len(plain)}


def layer_metrics(tracer: Tracer, n: int, overhead: float, imports: dict,
                  dev: Deviation) -> dict[str, float]:
    """Per-item means of span times and counts; peaks over the run."""
    by = totals_by_name(tracer.spans)

    def total(name):
        return by[name]["total_s"] / n if name in by else 0.0

    def own(name):
        return by[name]["self_s"] / n if name in by else 0.0

    def calls(name):
        return by[name]["calls"] / n if name in by else 0.0

    counts = {k: v / n for k, v in tracer.counts.items()}
    steps = counts.get("engine.steps", 0.0)
    return {
        "engine.run_transient.self_s": own("engine.run_transient"),
        "engine.steps": steps,
        "engine.step_us": (own("engine.run_transient") / steps * 1e6
                           if steps else 0.0),
        "engine.lu_solve.calls": counts.get("engine.lu_solve.calls", 0.0),
        "engine.lu_factor.calls": counts.get("engine.lu_factor.calls", 0.0),
        "engine.unknowns": tracer.peaks.get("engine.unknowns", 0.0),
        "engine.waveform_bytes": tracer.peaks.get("engine.waveform_bytes", 0.0),
        "engine.assemble.s": total("engine.assemble"),
        "config.write_waveforms_csv.s": total("config.write_waveforms_csv"),
        "config.write_waveforms_csv.bytes":
            counts.get("config.write_waveforms_csv.bytes", 0.0),
        "config.write_summary_json.s": total("config.write_summary_json"),
        "config.resolve.s": total("config.resolve"),
        "config.run_sweep.self_s": own("config.run_sweep"),
        "config.extraction_report.s": total("config.extraction_report"),
        "network.build_ladder.s": total("network.build_ladder"),
        "network.build_ladder.calls": calls("network.build_ladder"),
        "network.elements": counts.get("network.elements", 0.0),
        "extraction.extract_all.s": total("extraction.extract_all"),
        "netlist.export_netlist.s": total("netlist.export_netlist"),
        "netlist.deck_bytes": counts.get("netlist.deck_bytes", 0.0),
        "metrics.measure_scenario.s": total("metrics.measure_scenario"),
        "cli.main.self_s": own("cli.main"),
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy"],
        "import.yaml_s": imports["yaml"],
        "import.xtalksim_self_s": imports["xtalksim_self"],
        "trace.overhead_frac": overhead,
        "check.max_peak_dev_v": dev.peak_v,
        "check.max_delay_dev_s": dev.delay_s,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    modules = import_package()
    WORK.mkdir(exist_ok=True)
    if trace:
        imports = import_breakdown(IMPORTTIME_SAMPLES)
    else:
        setup_samples = fresh_import_seconds(SETUP_SAMPLES)
    run = Run(workload, seed, modules)
    try:
        if trace:
            values, tracer, diagnostics = measure_traced(run, seconds, imports)
            units = PER_LAYER_UNITS
        else:
            values, diagnostics = measure(run, seconds, setup_samples)
            units = END_TO_END_UNITS
    finally:
        run.close()
    record = machine_record(seed)
    diagnostics.update(workload=workload, seconds=seconds, trace=int(trace))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (WORK / f"{stem}.json").write_text(json.dumps(
        {"machine": record, "diagnostics": diagnostics, "result": result},
        indent=2) + "\n")
    if trace:
        tracer.dump(WORK / f"{stem}-spans.jsonl")
    print("machine: " + json.dumps(record))
    print("diagnostics: " + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process of its own, printed as a table."""
    status = 0
    print(f"{'workload':<14} {'metric':<34} {'value':>14}  unit")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload:<14} failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        diag = json.loads(next(ln for ln in lines
                               if ln.startswith("diagnostics: "))[13:])
        rows = [(name, m["value"], m["unit"])
                for name, m in result["metrics"].items()]
        if not trace:
            rows += [("items_per_s", diag["items_per_s"], "1/s"),
                     ("item_p50_s", diag["item_p50_s"], "s"),
                     ("failed_frac", diag["failed_frac"], "ratio")]
            t = diag["item_tail"]
            if t is not None:
                rows.append((f"item_tail_s (p{t['percentile']:g}, "
                             f"n={t['samples']})", t["value_s"], "s"))
        for name, value, unit in rows:
            print(f"{workload:<14} {name:<34} {value:>14.6g}  {unit}")
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
