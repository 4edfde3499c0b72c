"""Exception hierarchy.

Everything raised by this package derives from :class:`Error`, so callers
(notably the CLI) can distinguish data problems from usage problems with a
single except clause.  A LAPACK routine that fails to converge raises
numpy's own ``np.linalg.LinAlgError``, which passes through the library
unchanged; the CLI maps it to exit 65.
"""


class Error(Exception):
    """Base class for all matsketch errors."""


class InvalidMatrixError(Error, ValueError):
    """Input is not a finite, two-dimensional real matrix."""


class NotSquareError(InvalidMatrixError):
    """Operation requires a square matrix."""


class ZeroMatrixError(Error):
    """Operation is undefined for an all-zero matrix."""


class ShapeMismatchError(Error, ValueError):
    """Operand shapes are incompatible (or a rank/size argument exceeds them)."""


class OutOfRangeError(Error, ValueError):
    """Scalar argument lies outside its admissible range."""


class TooLargeError(Error):
    """Input exceeds a size limit.

    Either the limit of an exact (enumeration-based) oracle, a sample size
    beyond float64, or physical memory: an array of the declared or
    requested shape is refused before it is allocated.
    """


class NotSortedError(Error, ValueError):
    """Sequence argument must be sorted nonincreasing."""


class NotReplayableError(Error, RuntimeError):
    """A single-shot stream was traversed more than once."""


class InvariantError(Error, RuntimeError):
    """A computed result breaks a guarantee that holds for every input."""


class ParseError(Error, ValueError):
    """A matrix file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)
