"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark failure modes that callers may want to catch specifically.
"""


class EvaluationError(ArithmeticError):
    """A function produced a non-finite value during evaluation."""


class TruncationFailureError(RuntimeError):
    """A series cutoff satisfying the tail tolerance would exceed max_terms."""


class CutoffTooSmallError(RuntimeError):
    """A transition-kernel cutoff leaves too much mass outside some row."""


class UnsupportedMethodError(ValueError):
    """The requested sampling method is not available for this process."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""
