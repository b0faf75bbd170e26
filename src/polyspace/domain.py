"""Planar domains the library works on: the open unit disk and the upper
half-plane; also the argument checks the constructors and drivers share."""

import enum
import math

import numpy as np

__all__ = ["Domain"]


class Domain(enum.Enum):
    DISK = "disk"
    HALFPLANE = "halfplane"

    def __str__(self):
        return self.value

    @property
    def angle_span(self):
        """Length of the interval of polar angles, ``[0, 2 pi)`` on the disk
        and ``(0, pi)`` on the half-plane."""
        return 2.0 * math.pi if self is Domain.DISK else math.pi


def require_interior(z, domain):
    """Raise ``ValueError`` naming the first offending point if any of ``z`` is
    on or outside the boundary of ``domain``."""
    z = np.asarray(z)
    ok = np.abs(z) < 1.0 if domain is Domain.DISK else np.imag(z) > 0.0
    if not np.all(ok):
        bad = z.reshape(-1)[np.flatnonzero(~np.atleast_1d(ok).reshape(-1))[0]]
        raise ValueError(f"point {bad} is not strictly inside the {domain}")


def check_positive(name, value, allow_zero=False):
    """Raise ``ValueError``, with a message that starts with ``name``, unless
    ``value`` is a finite float and > 0 (>= 0 with ``allow_zero``); NaN and
    an integer beyond the float range fail both."""
    try:
        if math.isfinite(value) and (value >= 0 if allow_zero else value > 0):
            return
        got = repr(value)
    except OverflowError:   # an int that no float holds
        got = "an integer beyond the float range"
    rule = ">= 0" if allow_zero else "> 0"
    raise ValueError(f"{name} must be finite and {rule}, got {got}")


def check_integer(name, value, low):
    """Raise ``ValueError``, with a message that starts with ``name``, unless
    ``value`` is an integer >= ``low``."""
    if not (low <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
