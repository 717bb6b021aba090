"""Exception hierarchy shared by all modules.

Each class carries the process exit code the CLI returns for it: config and
usage problems exit 2, data and file-format problems exit 3, numerical
failures exit 4.
"""


class BlindGIError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class ConfigError(BlindGIError):
    """Invalid configuration or incompatible geometry."""
    exit_code = 2


class UsageError(BlindGIError):
    """Invalid arguments to an operation or CLI call."""
    exit_code = 2


class DataError(BlindGIError):
    """Input data violates a contract, e.g. non-finite or negative values."""
    exit_code = 3


class FormatError(BlindGIError):
    """A file does not conform to one of the on-disk formats."""
    exit_code = 3


class NumericalError(BlindGIError):
    """A numerical procedure failed, e.g. empty support or undefined correlation."""
    exit_code = 4
