"""Record the outputs the benchmark checks every item against.

Run from the repository root::

    python3 perfbench/record_refs.py [workload ...]

Each call variant a seed can draw is run once and what it wrote or
printed is stored in ``perfbench/refs/<workload>.json``. Record again
only for a change that is meant to alter the program's outputs, and say
so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run import WORK, WORKLOADS, import_package
from workloads import REFS_DIR, observe, pool


def record(cli, workload: str) -> dict:
    out = WORK / f"record-{workload}"
    out.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for call in pool(workload, str(out)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(list(call.argv))
            if code != 0:
                raise SystemExit(f"error: {' '.join(call.argv)} exited {code}")
            refs[call.key] = observe(call, out, stdout.getvalue())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return refs


def main(argv: list[str]) -> int:
    cli = import_package()["cli"]
    REFS_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        refs = record(cli, workload)
        path = REFS_DIR / f"{workload}.json"
        path.write_text(json.dumps(refs, sort_keys=True) + "\n")
        print(f"wrote {len(refs)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
