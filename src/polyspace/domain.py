"""Planar domains the library works on: the open unit disk and the upper
half-plane; also the argument checks the constructors and drivers share."""

import enum
import math

import numpy as np


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


def interior_mask(z, domain):
    """Boolean mask of the points of ``z`` lying strictly inside ``domain``."""
    z = np.asarray(z)
    if domain is Domain.DISK:
        return np.abs(z) < 1.0
    return np.imag(z) > 0.0


def require_interior(z, domain, what="point"):
    """Raise ``ValueError`` naming the first offending point if any of ``z`` is
    on or outside the boundary of ``domain``."""
    z = np.asarray(z)
    ok = interior_mask(z, domain)
    if not np.all(ok):
        bad = z.reshape(-1)[np.flatnonzero(~np.atleast_1d(ok).reshape(-1))[0]]
        raise ValueError(f"{what} {bad} is not strictly inside the {domain}")
    return z


def check_positive(name, value, allow_zero=False):
    """Raise ``ValueError``, with a message that starts with ``name``, unless
    ``value`` is finite and > 0 (>= 0 with ``allow_zero``); NaN fails both."""
    low_ok = value >= 0 if allow_zero else value > 0
    if not (low_ok and value < math.inf):
        rule = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {rule}, got {value!r}")


def check_integer(name, value, low):
    """Raise ``ValueError``, with a message that starts with ``name``, unless
    ``value`` is an integer >= ``low``."""
    if not (low <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
