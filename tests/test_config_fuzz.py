"""Config fuzzing over the three bundled configs.

Each generated document is one of ``configs/*.yaml`` with one or two
edits: a leaf replaced by a value of the wrong kind or size, a key
deleted, or an unknown key added. ``extract`` and ``export-netlist``
read it through ``cli.main`` in one worker process whose address space
is limited, so a run built without bound fails the test and not the
machine. Every call exits 0 or 1, prints no traceback and under 1 KB
of stderr, and a refused call makes no ``--out`` directory.

Raising any numeric leaf of a bundled config changes the resolved run,
or is refused: no number is read and then ignored.
"""

import copy
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import xtalksim
from xtalksim.config import config_from_mapping, resolve
from xtalksim.errors import ParameterError

SRC = Path(xtalksim.__file__).resolve().parent.parent
CONFIGS = {path.stem: yaml.safe_load(path.read_text())
           for path in sorted((SRC.parent / "configs").glob("*.yaml"))}


def _tree(levels: int) -> list:
    """Nine references per level to the level below, nine ones at the
    bottom: 66,430 values at 5 levels, which yaml writes with aliases."""
    return functools.reduce(lambda below, _: [below] * 9, range(levels - 1),
                            [1] * 9)


# values of each wrong kind, numbers at the edges of a float or int, a
# list nested 100 deep and a tree whose echo in full would be 190 KB
JUNK = (None, True, False, "lots", [1, "a"], {"a": 1}, 0, -0.0, math.nan,
        math.inf, -math.inf, 1e308, 2**63, 10**30,
        functools.reduce(lambda inner, _: [inner], range(99), [1]), _tree(5))
DELETE = object()


def _nodes(node, path=()):
    """(path, value) of ``node`` and of everything under it."""
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _where(predicate):
    return [(name, *path) for name, doc in CONFIGS.items()
            for path, value in _nodes(doc) if predicate(path, value)]


# (config name, *path) of each leaf, each mapping key and each mapping
LEAVES = _where(lambda path, v: path and not isinstance(v, (dict, list)))
KEYS = _where(lambda path, v: path and not isinstance(path[-1], int))
MAPPINGS = _where(lambda path, v: isinstance(v, dict))

EDITS = st.one_of(
    st.tuples(st.sampled_from(LEAVES), st.sampled_from(JUNK)),
    st.tuples(st.sampled_from(KEYS), st.just(DELETE)),
    st.tuples(st.sampled_from(MAPPINGS).map(lambda at: (*at, "bogus")),
              st.sampled_from(JUNK)))


def _edited(edits) -> dict:
    """The first edit's config with each edit made that names it and
    still finds its key or list entry: a value set, or a key deleted."""
    name = edits[0][0][0]
    doc = copy.deepcopy(CONFIGS[name])
    for (config, *path), value in edits:
        if config != name:
            continue
        try:
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass                # an earlier edit deleted or replaced it
    return doc


# reads [command, config text] lines from stdin, runs each command on
# that config with --out one level under argv[2], and prints [exit code,
# stderr, whether argv[2] was made] for each; an exception that leaves
# main is exit code null, its traceback appended to stderr. A MemoryError
# is named only once its frames, which hold the memory, are gone. 1 GiB
# of address space and 2 minutes of CPU bound the worker: a call that
# builds without bound or never returns ends it.
_WORKER = """
import contextlib, io, json, os, resource, shutil, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (120, 120))
from xtalksim.cli import main
cfg, out = sys.argv[1:]
for line in sys.stdin:
    command, text = json.loads(line)
    with open(cfg, "w") as fh:
        fh.write(text)
    rc, err, raised = None, io.StringIO(), ""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            rc = main([command, "--config", cfg, "--out",
                       os.path.join(out, "deep")])
    except MemoryError:
        raised = "Traceback: MemoryError"
    except Exception:
        raised = traceback.format_exc()
    err.write(raised)
    made = os.path.exists(out)
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps([rc, err.getvalue(), made]), flush=True)
"""


@pytest.fixture(scope="module")
def read_config(tmp_path_factory):
    """A function (command, config text) -> (exit code, stderr, whether
    --out was made), each call served by one limited worker process."""
    root = tmp_path_factory.mktemp("fuzz")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(root / "cfg.yaml"),
             str(root / "out")], cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE) as worker:
        def call(command: str, text: str):
            worker.stdin.write(json.dumps([command, text]) + "\n")
            worker.stdin.flush()
            line = worker.stdout.readline()
            assert line, f"the worker exited with {worker.wait()}"
            return tuple(json.loads(line))
        yield call
        worker.stdin.close()


@given(st.lists(EDITS, min_size=1, max_size=2))
@settings(max_examples=300, deadline=None)
def test_an_edited_config_is_read_or_refused(read_config, edits):
    text = yaml.safe_dump(_edited(edits))
    for command in ("extract", "export-netlist"):
        rc, err, made = read_config(command, text)
        assert rc in (0, 1), err
        assert "Traceback" not in err
        assert len(err.encode()) < 1024, err[:1024]
        assert rc == 0 or (not made and err.startswith("error: ")), err


def _raised(value):
    """``value`` raised: an int by 1, a float by 10%, and 0.0 to 1e-9."""
    return value + 1 if isinstance(value, int) else value * 1.1 or 1e-9


def _run(doc) -> tuple:
    """What a run reads of the resolved config ``doc``."""
    resolved = resolve(config_from_mapping(doc))
    return (resolved.network, resolved.stimulus.breakpoints, resolved.sim,
            resolved.output)


@pytest.mark.parametrize("at", _where(lambda path, v: type(v) in (int, float)),
                         ids=lambda at: "/".join(map(str, at)))
def test_every_numeric_leaf_counts(at):
    name, *path = at
    value = functools.reduce(operator.getitem, path, CONFIGS[name])
    try:
        raised = _run(_edited([(at, _raised(value))]))
    except ParameterError:
        return
    assert raised != _run(CONFIGS[name])
