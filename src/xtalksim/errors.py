"""Exception types shared across the toolkit, and how a refusal echoes
what it refuses.

The CLI maps these onto exit codes (see ``cli.main``): 1 for
ParameterError, which also covers every network a CoupledNetwork's
construction check refuses, and 2 for SolverError only. Parameter and
configuration problems are distinguished from numerical failures so
that scripted callers can react differently to "your input is wrong"
versus "the solve went bad".
"""


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class ParameterError(ToolkitError):
    """Invalid argument, geometry, configuration, or network description."""


class SolverError(ToolkitError):
    """Numerical failure during factorization or time stepping."""


# The most characters of a value that a refusal echoes: a config value
# may be megabytes once its aliases are expanded.
_ECHO_CHARS = 200


def _echo(value) -> str:
    """repr(value), cut to _ECHO_CHARS characters with a count of the rest."""
    text = repr(value)
    more = len(text) - _ECHO_CHARS
    if more <= 0:
        return text
    return f"{text[:_ECHO_CHARS]}... ({more} more characters)"


def _echo_some(values: list) -> str:
    """The first five of ``values`` by ``_echo``, and a count of the rest."""
    return _echo(values[:5]) + (f" and {len(values) - 5} more"
                                if values[5:] else "")
