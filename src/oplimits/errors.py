"""Exception types and the argument checks shared across the package.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark failure modes that callers may want to catch specifically.

Every range check on an argument is one of three helpers defined here, and
each raises a ``ValueError`` whose message starts ``<name> must be``:

* :func:`_check_index` accepts an integer (an int or an integral float)
  from ``least`` up to 2^53, the largest a double holds exactly, and
  returns it as an int;
* :func:`_check_real` accepts a finite real on the half line from ``low``,
  or, given ``high``, on the interval from ``low`` to ``high``, with both
  ends in (``open_ends=False``) or both out; NaN and the infinities fail;
* :func:`_check_reals` applies the same test to every entry of an array
  and returns it as a float array, naming its least or greatest entry.
"""

import math

import numpy as np

# Largest index the checks accept: every integer up to it is a double.
_MAX_INDEX = 2 ** 53


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


def _shown(value) -> str:
    """``value`` for a message; an int beyond ±2^53 by its digit count."""
    if not (isinstance(value, int) and abs(value) > _MAX_INDEX):
        return str(value)
    # 2^(b-1) <= |value| < 2^b, so |value| has as many digits as 2^(b-1) or one more
    d = int((abs(value).bit_length() - 1) * math.log10(2)) + 1
    return f"{'a negative' if value < 0 else 'an'} integer of {d + (abs(value) >= 10 ** d)} digits"


def _check_index(value, name="n", least=1) -> int:
    """``value`` as an int; NaN and the infinities fail before they can reach ``int``."""
    if not (least <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    if value > _MAX_INDEX:
        raise ValueError(f"{name} must be at most 2^53, got {_shown(value)}")
    return int(value)


def _check_real(value, name, low=0.0, high=None, open_ends=False):
    """Raise a ValueError naming ``value`` unless it lies in range (see the module docstring)."""
    top = math.inf if high is None else high
    if not ((low < value if open_ends else low <= value)
            and (value < top if open_ends or high is None else value <= top)):
        if high is not None:
            rule = f"in {'(' if open_ends else '['}{low:g}, {high:g}{')' if open_ends else ']'}"
        elif low == 0.0:
            rule = "finite and " + ("positive" if open_ends else "nonnegative")
        else:
            rule = f"finite and {'>' if open_ends else '>='} {low:g}"
        raise ValueError(f"{name} must be {rule}, got {value}")


def _check_reals(values, name, low=0.0, high=None, open_ends=False) -> np.ndarray:
    """``values`` as a float array once its least and greatest entries pass :func:`_check_real`.

    A range is an interval, so they pass only if every entry does; a NaN
    entry makes both NaN.
    """
    a = np.asarray(values, dtype=float)
    for extreme in (a.min(), a.max()) if a.size else ():
        _check_real(float(extreme), name, low, high, open_ends)
    return a
