"""The record base of every plain-data class, refereed by dataclasses.

Each record class in the package gets a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` with the same fields,
defaults and ``__post_init__``. Instances come from the three resolved
presets, their ladder elements and one short stock run, and every
behaviour the base provides is checked against the twin's.
"""

import dataclasses
import itertools
import json

import pytest

from xtalksim import _record
from xtalksim._record import FrozenInstanceError, Record, asdict
from xtalksim.config import (ToolkitConfig, apply_set_overrides,
                             extraction_report, preset_config, resolve,
                             run_scenario)
from xtalksim.engine import WaveformSet, _config_hash, assemble
from xtalksim.errors import ParameterError
from xtalksim.extraction import (BUILTIN_COEFFICIENTS, InterconnectGeometry,
                                 extract_all)
from xtalksim.inputs import SimConfig, Stimulus
from xtalksim.metrics import ScenarioResult
from xtalksim.network import (PRESET_NAMES, Capacitor, LineSpec, Resistor,
                              TapSchedule, preset_tables)

RECORDS = Record.__subclasses__()


def _twin_class(cls):
    spec = []
    for name in cls._fields:
        if name not in cls._defaults:
            spec.append((name, object))
            continue
        default = cls._defaults[name]
        if isinstance(default, _record.field):
            default = dataclasses.field(default_factory=default.make)
        spec.append((name, object, default))
    namespace = ({"__post_init__": cls.__post_init__}
                 if "__post_init__" in vars(cls) else {})
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True,
                                      namespace=namespace)
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: _twin_class(cls) for cls in RECORDS}


def twin_of(record):
    """The record's twin, built from the same field values."""
    return TWINS[type(record)](*record._astuple())


def outcome(call):
    """What ``call()`` gives: its value, or its exception's type and text."""
    try:
        return "value", call()
    except Exception as exc:                # compared, never swallowed
        return "raises", type(exc), str(exc)


@pytest.fixture(scope="module")
def short_run():
    """(ScenarioResult, WaveformSet, ResolvedScenario) of a 0.4 us run."""
    return run_scenario(apply_set_overrides(
        preset_config("shield"), ["sim.dt=1e-9", "sim.t_end=4e-7"]))


@pytest.fixture(scope="module")
def instances(short_run):
    """Record instances of every class, grouped by class."""
    drawn = []
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        resolved = resolve(cfg)
        net = resolved.network
        spec = preset_tables(name)
        report = extraction_report(cfg)
        drawn += [cfg, resolved, net, resolved.stimulus, resolved.sim, spec,
                  *spec.terminations.values(), report, report.geometry,
                  assemble(net)]
        drawn += [*net.lines, *net.resistors, *net.capacitors,
                  *net.inductors, *net.mutuals, *net.sources, *net.ties]
        drawn += [spec.taps] if spec.taps else []
    result, waves, _ = short_run
    drawn += [result, waves, *result.measurements.values(), TapSchedule(),
              *BUILTIN_COEFFICIENTS.values(),
              extract_all({"a": InterconnectGeometry(),
                           "b": InterconnectGeometry(width_um=3.0)},
                          {("a", "b"): 1.5})]
    by_class = {}
    for record in drawn:
        by_class.setdefault(type(record), []).append(record)
    return by_class


def test_every_record_class_is_drawn(instances):
    assert len(RECORDS) == 23
    assert set(instances) == set(RECORDS)


def test_repr_eq_and_hash_agree_with_the_twin(instances):
    for cls, records in instances.items():
        for record in records:
            twin = twin_of(record)
            assert repr(record) == repr(twin)
            assert outcome(lambda: hash(record)) == outcome(lambda: hash(twin))
            assert record != twin and twin != record
        sample = records[:4] + [records[0].replace()]
        for a, b in itertools.product(sample, repeat=2):
            ta, tb = twin_of(a), twin_of(b)
            assert outcome(lambda: a == b) == outcome(lambda: ta == tb), cls
    # a record that holds a dict has no hash, as with dataclasses
    unhashable = {cls for cls, records in instances.items()
                  if outcome(lambda: hash(records[0]))[:2]
                  == ("raises", TypeError)}
    assert {ToolkitConfig, WaveformSet, ScenarioResult} <= unhashable
    # equal field tuples of two classes are unequal, as with dataclasses
    r, c = Resistor("X1", 1, 0, 1.0), Capacitor("X1", 1, 0, 1.0)
    assert r._astuple() == c._astuple()
    assert r != c and twin_of(r) != twin_of(c)


def test_fields_are_frozen(instances):
    assert issubclass(FrozenInstanceError, AttributeError)
    for records in instances.values():
        record = records[0]
        before = repr(record)
        for name in (*record._fields, "not_a_field"):
            with pytest.raises(FrozenInstanceError, match="cannot assign"):
                setattr(record, name, 1.0)
            with pytest.raises(FrozenInstanceError, match="cannot delete"):
                delattr(record, name)
        assert repr(record) == before


def test_replace_matches_dataclasses_replace(instances):
    for records in instances.values():
        a, b = records[0], records[-1]
        for name in a._fields:
            change = {name: getattr(b, name)}
            assert (outcome(lambda: repr(a.replace(**change)))
                    == outcome(lambda: repr(dataclasses.replace(twin_of(a),
                                                                **change))))
        assert (outcome(lambda: a.replace(not_a_field=1))[:2]
                == outcome(lambda: dataclasses.replace(twin_of(a),
                                                       not_a_field=1))[:2]
                == ("raises", TypeError))


def test_replace_runs_the_construction_check_again(instances):
    stimulus, line = instances[Stimulus][0], instances[LineSpec][0]
    new = stimulus.replace(points=[[0, 0], [1e-9, 1]])
    assert new.points == ((0.0, 0.0), (1e-9, 1.0))
    assert repr(new) == repr(dataclasses.replace(twin_of(stimulus),
                                                 points=[[0, 0], [1e-9, 1]]))
    for record, change in ((line, {"role": "ground"}),
                           (instances[SimConfig][0], {"dt": -1.0}),
                           (stimulus, {"points": [[1, 0], [0, 1]]})):
        refused = outcome(lambda: record.replace(**change))
        assert refused[:2] == ("raises", ParameterError)
        assert refused == outcome(
            lambda: dataclasses.replace(twin_of(record), **change))


def test_asdict_matches_dataclasses_asdict(short_run):
    result = short_run[0]
    twin = dataclasses.replace(twin_of(result), measurements={
        role: twin_of(m) for role, m in result.measurements.items()})
    expected = dataclasses.asdict(twin)
    assert asdict(result) == expected
    assert (json.dumps(asdict(result), sort_keys=True)
            == json.dumps(expected, sort_keys=True))


def test_arguments_behave_as_the_twins(instances):
    for cls, records in instances.items():
        twin_cls, values = TWINS[cls], records[0]._astuple()
        assert repr(cls(*values)) == repr(twin_cls(*values))
        kwargs = dict(zip(cls._fields, values))
        calls = [((*values, None), {}),
                 ((values[0],), kwargs),
                 ((), {**kwargs, "not_a_field": 1})]
        calls += [((), {k: v for k, v in kwargs.items() if k != name})
                  for name in cls._required]
        for args, kw in calls:
            assert outcome(lambda: cls(*args, **kw))[:2] == ("raises",
                                                             TypeError)
            assert outcome(lambda: twin_cls(*args, **kw))[:2] == (
                "raises", TypeError)


def test_each_instance_gets_a_fresh_default(instances):
    made = 0
    for cls, records in instances.items():
        factories = [name for name, default in cls._defaults.items()
                     if isinstance(default, _record.field)]
        if not factories:
            continue
        required = {name: getattr(records[0], name) for name in cls._required}
        a, b = cls(**required), cls(**required)
        for name in factories:
            assert getattr(a, name) is not getattr(b, name)
            if isinstance(getattr(a, name), dict):
                getattr(a, name)["added"] = 1.0
                assert "added" not in getattr(b, name)
                made += 1
    assert made >= 5


@pytest.mark.parametrize("name, crc", [
    ("no-shield", "1fb24129"), ("shield", "52075b7d"),
    ("shield-3taps", "c8e58c86")])
def test_config_hash_is_pinned(name, crc):
    # the hash is a CRC of the network's repr, so this pins the repr too
    resolved = resolve(preset_config(name))
    assert _config_hash(resolved.network, resolved.stimulus,
                        resolved.sim) == crc
