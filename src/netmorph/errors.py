"""Exception hierarchy shared by the whole package, and the argument
checks that raise one of them: ``_index`` for integers and ``_finite`` for
finite numbers, each with an optional lower bound, and ``_odd_kernel`` for
kernel sizes.  Every size, count, kernel, seed, tol and training setting
is read through one of them, so a non-number (a string, ``None``) is a
``ShapeError`` too."""

import math
import operator


class NetMorphError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(NetMorphError):
    """Tensor or layer shapes are inconsistent with the requested operation."""


class InfeasibleMorphError(NetMorphError):
    """The requested morph cannot be carried out with the given sizes."""


class FormatError(NetMorphError):
    """A serialized file (weight file or IDX dataset) is malformed."""


class ArchParseError(NetMorphError):
    """An architecture notation string does not match the grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)
        self.position = position


def _index(value, name: str, low=None) -> int:
    """``value`` as an int by ``operator.index``, else a ``ShapeError``
    naming ``name``: a float such as 3.0, or a string, is not an integer.
    With ``low``, an integer below it is an error too."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or (low is not None and index < low):
        bound = "" if low is None else f" >= {low}"
        raise ShapeError(f"{name} must be an integer{bound}, got {value!r}")
    return index


def _odd_kernel(value, name: str) -> int:
    """``value`` as an odd kernel size >= 1, else a ``ShapeError`` naming
    ``name``: every morph grows and composes kernels about a centre pixel."""
    k = _index(value, name, low=1)
    if k % 2 == 0:
        raise ShapeError(f"{name} must be odd, got {k}")
    return k


def _finite(value, name: str, low=None, strict=False) -> None:
    """A ``ShapeError`` naming ``name`` unless ``value`` is a finite float,
    or a number that converts to one, and, with ``low``, at or above
    ``low`` (above it, when ``strict``).  An int too large for a float, a
    str, None, a complex or an array of rank 1 or more does not pass."""
    try:
        ok = math.isfinite(value) and (low is None or (value > low if strict else value >= low))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ShapeError(f"{name} must be a finite number{bound}, got {value}")
