"""Exception taxonomy shared across the package.

Each class carries the CLI's exit code for it and the label that starts its
stderr line; a subclass inherits both unless it states its own.
"""


class SsnlError(Exception):
    """Base class for all package errors."""
    exit_code, label = 3, "contract error"


class ShapeError(SsnlError):
    """Operand shapes are incompatible with an operation's contract."""


class ConfigError(SsnlError):
    """A configuration value is out of the accepted domain."""


class ContractError(SsnlError):
    """A precondition of an operation was violated by the caller."""


class FormatError(SsnlError):
    """A file does not conform to its declared on-disk format."""
    exit_code, label = 2, "file format error"


class MagicError(FormatError):
    """The magic/version line of a file is wrong."""


class TruncatedError(FormatError):
    """A file ended before its declared payload was complete."""


class HeaderError(FormatError):
    """A file header declares impossible dimensions or is unparseable."""


class NumericalError(SsnlError):
    """A numerical invariant failed (non-finite value, failed check)."""
    exit_code, label = 4, "numerical failure"
