"""Error taxonomy shared by the whole package.

Each class maps to one process exit status in the CLI:
InputFormatError -> 2, PreconditionError -> 3, InternalCheckError -> 4.
The CLI also maps a MemoryError to 3, as exhausted resources.
"""


class GrkoszulError(Exception):
    """Base class for all package errors."""


class InputFormatError(GrkoszulError):
    """Malformed input file or argument (parse-level failure)."""


class PreconditionError(GrkoszulError):
    """A stated mathematical hypothesis of the requested operation fails.

    The message names the failed clause; callers must not weaken it.
    """


class InternalCheckError(GrkoszulError):
    """An internal invariant that should hold on every run was violated."""


def require(condition: bool, message: str) -> None:
    """Raise PreconditionError unless condition holds."""
    if not condition:
        raise PreconditionError(message)


def check(condition: bool, message: str) -> None:
    """Raise InternalCheckError unless condition holds."""
    if not condition:
        raise InternalCheckError(message)
