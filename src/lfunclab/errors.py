"""Exception hierarchy shared by all lfunclab modules.

The CLI maps these onto process exit codes: usage/validation problems
exit 2, violated invariants exit 3, report I/O failures exit 4 (as do
unreadable input files, which surface as OSError).
"""


class LfuncLabError(Exception):
    """Base class for all lfunclab errors."""


class UsageError(LfuncLabError):
    """Invalid arguments, preconditions, or configuration (exit 2)."""


class SpecParseError(UsageError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line is not None:
            where += f"{line}: "
        super().__init__(where + message)


class ResourceLimitError(UsageError):
    """A configured resource ceiling would be exceeded (exit 2)."""


class InvariantError(LfuncLabError):
    """A mathematical invariant failed; indicates a bug or bad data (exit 3)."""


class DataIntegrityError(InvariantError):
    """Input data violates a hard mathematical constraint (exit 3)."""


class ReportIOError(LfuncLabError):
    """Report file could not be written (exit 4)."""
