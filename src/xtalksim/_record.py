"""Frozen records: the one base of every plain-data class in xtalksim.

A subclass of ``Record`` lists its fields as class annotations, in
order; a class attribute is a field's default, and
``field(default_factory=f)`` gives each instance a fresh ``f()``. Its
methods, those ``@dataclass(frozen=True)`` generates and ``replace``,
are written once here and shared, so defining a record compiles no code.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of a record's field."""


class field:
    """A field whose default is a fresh ``default_factory()`` per instance."""

    def __init__(self, *, default_factory) -> None:
        self.make = default_factory


_setattr = object.__setattr__


class Record:
    """Base of the frozen records. ``_fields`` holds a class's field names
    in order and ``_required`` those without a default."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        cls._required = frozenset(cls._fields).difference(cls._defaults)
        for name, default in cls._defaults.items():
            if isinstance(default, field):
                delattr(cls, name)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if len(args) < len(names) or kwargs:
            for name in names[len(args):]:
                if name in kwargs:
                    value = kwargs.pop(name)
                elif name in cls._defaults:
                    value = cls._defaults[name]
                    if isinstance(value, field):
                        value = value.make()
                else:
                    raise TypeError(f"{cls.__qualname__}() missing argument "
                                    f"{name!r}")
                _setattr(self, name, value)
            if kwargs:                    # what no field took
                raise TypeError(f"{cls.__qualname__}() got an unexpected or "
                                f"repeated argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalise the fields; a subclass may override this."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` made, checked again by construction."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))


def asdict(value):
    """``value`` with each record in it made a dict of its fields, through
    nested dicts, lists and tuples; any other value is returned as is."""
    if isinstance(value, Record):
        return {name: asdict(v) for name, v
                in zip(value._fields, value._astuple())}
    if isinstance(value, dict):
        return {asdict(k): asdict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(asdict(v) for v in value)
    return value
