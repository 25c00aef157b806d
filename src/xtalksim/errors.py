"""Exception types shared across the toolkit.

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
