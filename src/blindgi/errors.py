"""Exception hierarchy shared by all modules, and the guard that turns a
numpy overflow into a numerical failure.

Each class carries the process exit code the CLI returns for it: config and
usage problems exit 2, data and file-format problems exit 3, numerical
failures exit 4.
"""

from contextlib import contextmanager

import numpy as np


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


@contextmanager
def overflow_guard(action: str, **arrays: np.ndarray):
    """Run the block with numpy overflow and invalid operations raised.

    Large finite values overflow where a stage works at the data's scale (the
    noise level, ``compensate``, the FFTs, the rescale after retrieval): that
    is a numerical failure naming ``action`` and the peak of each named
    array, not a NaN or a warning in the output.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        sizes = ", ".join(f"the {name} peaks at {np.abs(values).max():.3g}"
                          for name, values in arrays.items())
        raise NumericalError(f"values too large to {action} ({exc}): {sizes}") from None
