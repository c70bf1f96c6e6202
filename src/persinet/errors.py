"""Exception hierarchy shared across the toolkit.

The classes double as the CLI's exit-code contract:

    0  verdict computed (no exception)
    2  bad input (syntax, unknown ids, unmet preconditions, wrong net class)
    3  a configured resource bound was hit before a verdict was reached
    4  an internal invariant broke (always a bug, never bad input)
"""

import os
from contextlib import suppress


class PersinetError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InputError(PersinetError):
    """Malformed or out-of-contract input."""

    exit_code = 2


class UnknownIdError(InputError):
    """A place, transition, state or label id that the object does not declare."""


class ParseError(InputError):
    """Syntax or consistency error in a text document; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotEnabledError(InputError):
    """A transition was fired while disabled.

    Carries the deficient place and, for sequences, the failing index.
    """

    def __init__(self, transition, place=None, index=None):
        self.transition = transition
        self.place = place
        self.index = index
        msg = f"transition '{transition}' is not enabled"
        if place is not None:
            msg += f" (place '{place}' lacks tokens)"
        if index is not None:
            msg += f" at step {index}"
        super().__init__(msg)


class UnsupportedClassError(InputError):
    """The net (or LTS) is outside the class the operation is defined for."""


class PreconditionError(InputError):
    """A stated operation precondition was checked and found violated."""


class ResourceExceededError(PersinetError):
    """A search or exploration hit its configured budget."""

    exit_code = 3

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InvariantError(PersinetError):
    """An internal invariant failed; indicates a bug, not bad input."""

    exit_code = 4


def env_int(name: str, default: int) -> int:
    """A budget read from the environment variable name; a value that is not
    an integer, or is below 1, is bad input."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    with suppress(ValueError):  # a value that is not an integer stays a string
        raw = int(raw)
    check_budgets(1, **{name: raw})
    return raw


def check_budgets(minimum: int, **budgets) -> None:
    """Reject a budget that is not an int, or a bool, or below minimum; None is a default."""
    for name, value in budgets.items():
        if isinstance(value, bool) or not isinstance(value, (int, type(None))):
            raise InputError(f"{name} must be an integer, got {value!r}")
        if value is not None and value < minimum:
            raise InputError(f"{name} must be >= {minimum}, got {value}")
