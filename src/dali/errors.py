"""Exception types, source positions and the `frozen` dataclass decorator."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass


def _refuse(self, name, *value):
    verb = "assign to" if value else "delete"
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


def frozen(cls):
    """`@dataclass(frozen=True, slots=True)`, but setting or deleting a name
    that is not a field raises `FrozenInstanceError`, not `TypeError`."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


@frozen
class SourceSpan:
    """1-based position of a token in an input file."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class DaliError(Exception):
    """Base class for all errors raised by this package.  An error at a
    place in an input file has its `span`, which prefixes the message."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


class DaliSyntaxError(DaliError):
    """Malformed agent file, event script or system config."""


class DaliValidationError(DaliError):
    """An agent program violates a structural restriction.

    Carries the full report so callers can print every issue, not just
    the first one, and the agent file's path when it was loaded from one.
    """

    def __init__(self, agent: str, report, path=None):
        self.agent = agent
        self.report = report
        self.path = path
        lines = "; ".join(issue.message for issue in report.errors)
        super().__init__(f"agent {agent}: {lines}")


class DaliConfigError(DaliError):
    """Bad system configuration (unknown agent, undeclared event, ...)."""
