"""Exception hierarchy shared across the toolkit.

The classes double as the CLI's exit-code contract:

    0  verdict computed (no exception)
    2  bad input (syntax, unknown ids, unmet preconditions, wrong net class)
    3  a configured resource bound was hit before a verdict was reached
    4  an internal invariant broke (always a bug, never bad input)
"""

import os


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
    """An integer setting read from the environment variable name; a value
    that is not an integer is bad input."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None
