"""Admissible weight catalog and the dilatation-compatibility check.

The convergence theory needs weights ``w`` obeying, for some integer ``k >= 0``
and constant ``C``,

    r^k w(z / r) <= C w(z)     for |z| < r,  r0 <= r < 1.

:func:`check_condition` certifies this on a finite tensor grid and reports the
attained constant together with where the supremum occurred;
:func:`find_min_k` searches for the smallest admissible ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, check_integer, check_positive, require_interior

__all__ = [
    "Weight",
    "Uniform",
    "ExpAbsPow",
    "ExpRePow",
    "ExpAbs",
    "AngularPoly",
    "PowerLaw",
    "Product",
    "ConditionWitness",
    "eval_weight",
    "check_condition",
    "find_min_k",
    "DIVERGENCE_CAP",
]

DIVERGENCE_CAP = 1e6


def _reduced_angle(z, domain):
    """arg(z) folded into [0, 2*pi) on the disk; on the half-plane it is already
    in (0, pi) for interior points."""
    theta = np.angle(z)
    if domain is Domain.DISK:
        theta = np.mod(theta, 2.0 * np.pi)
    return theta


class Weight:
    """Base class; subclasses implement :meth:`_values` on validated points."""

    def _values(self, z, domain):
        raise NotImplementedError

    def tag(self):
        return type(self).__name__.lower()

    def describe(self):
        return self.tag()


@dataclass(frozen=True)
class Uniform(Weight):
    """w(z) = 1."""

    def _values(self, z, domain):
        return np.ones(np.shape(z), dtype=float)

    def describe(self):
        return "uniform"


@dataclass(frozen=True)
class ExpAbsPow(Weight):
    """w(z) = exp(-beta |z|^n), beta > 0, integer n >= 1."""

    beta: float
    n: int

    def __post_init__(self):
        check_positive("beta", self.beta)
        check_integer("n", self.n, 1)

    def _values(self, z, domain):
        return np.exp(-self.beta * np.abs(z) ** self.n)

    def describe(self):
        return f"expabspow(beta={self.beta:g},n={self.n})"


@dataclass(frozen=True)
class ExpRePow(Weight):
    """w(z) = exp(-beta |Re z|^n), beta > 0, integer n >= 1."""

    beta: float
    n: int

    def __post_init__(self):
        check_positive("beta", self.beta)
        check_integer("n", self.n, 1)

    def _values(self, z, domain):
        return np.exp(-self.beta * np.abs(np.real(z)) ** self.n)

    def describe(self):
        return f"exprepow(beta={self.beta:g},n={self.n})"


@dataclass(frozen=True)
class ExpAbs(Weight):
    """w(z) = exp(|z|) — the growing weight; needs k = 1 in the compatibility
    condition to reach constants arbitrarily close to 1, although k = 0 already
    gives a finite constant on bounded grids (see the tests)."""

    def _values(self, z, domain):
        return np.exp(np.abs(z))

    def describe(self):
        return "expabs"


@dataclass(frozen=True)
class AngularPoly(Weight):
    """Purely angular weight ``w(s e^{i theta}) = (theta_max^2 - theta^2)^alpha``
    on reduced angles ``theta in [0, theta_max)``.

    The canonical choices are ``theta_max = 2*pi`` on the disk and ``pi`` on the
    half-plane; a point whose reduced angle reaches ``theta_max`` is rejected.
    """

    alpha: float
    theta_max: float

    def __post_init__(self):
        check_positive("alpha", self.alpha)
        check_positive("theta_max", self.theta_max)

    def _values(self, z, domain):
        theta = _reduced_angle(z, domain)
        if np.any(theta >= self.theta_max):
            flat = np.atleast_1d(theta)
            bad = flat[flat >= self.theta_max].flat[0]
            raise ValueError(
                f"angle {bad} is outside the support [0, {self.theta_max}) of the weight"
            )
        return (self.theta_max**2 - theta**2) ** self.alpha

    def describe(self):
        return f"angularpoly(alpha={self.alpha:g},theta_max={self.theta_max:g})"


@dataclass(frozen=True)
class PowerLaw:
    """Radial profile for :class:`Product`: ``(1 - s)^gamma`` on the disk,
    ``s^gamma`` on the half-plane (gamma >= 0)."""

    gamma: float

    def __post_init__(self):
        check_positive("gamma", self.gamma, allow_zero=True)

    def radial_values(self, s, domain):
        if domain is Domain.DISK:
            return (1.0 - s) ** self.gamma
        return s**self.gamma

    def describe(self):
        return f"powerlaw(gamma={self.gamma:g})"


@dataclass(frozen=True)
class Product(Weight):
    """Separable weight ``w(s e^{i theta}) = radial(s) * angular(theta)``.

    ``radial`` is a :class:`PowerLaw` or an :class:`ExpAbsPow` restricted to the
    radius; ``angular`` is :class:`Uniform` or :class:`AngularPoly`.
    """

    radial: object
    angular: Weight

    def __post_init__(self):
        if not isinstance(self.radial, (PowerLaw, ExpAbsPow)):
            raise ValueError("radial must be a PowerLaw or an ExpAbsPow")
        if not isinstance(self.angular, (Uniform, AngularPoly)):
            raise ValueError("angular must be a Uniform or an AngularPoly")

    def _values(self, z, domain):
        s = np.abs(z)
        if isinstance(self.radial, PowerLaw):
            rad = self.radial.radial_values(s, domain)
        else:
            rad = np.exp(-self.radial.beta * s**self.radial.n)
        return rad * self.angular._values(z, domain)

    def describe(self):
        return f"product({self.radial.describe()},{self.angular.describe()})"


def eval_weight(w, z, domain=Domain.DISK):
    """Evaluate ``w`` at the strictly interior point(s) ``z``.

    Scalars come back as floats, arrays as float arrays; boundary or exterior
    points raise ``ValueError``.
    """
    z = np.asarray(z, dtype=complex)
    require_interior(z, domain)
    vals = w._values(z, domain)
    return vals if np.ndim(z) else float(vals)


@dataclass(frozen=True)
class ConditionWitness:
    """Grid certificate for ``r^k w(z/r) <= C w(z)``: the attained constant and
    the grid point where the supremum occurred."""

    k: int
    C: float
    r0: float
    grid_size: int
    attained_z: complex
    attained_r: float


def _stratified_points(r, n_z, domain):
    # midpoint strata in radius and angle, all strictly inside |z| < r
    n_s = max(1, int(round(math.sqrt(n_z / 2.0))))
    n_a = max(1, int(round(n_z / n_s)))
    s = (np.arange(n_s) + 0.5) / n_s * r
    span = 2.0 * np.pi if domain is Domain.DISK else np.pi
    theta = (np.arange(n_a) + 0.5) / n_a * span
    return (s[:, None] * np.exp(1j * theta[None, :])).ravel()


def check_condition(
    w,
    k,
    r0=0.5,
    n_r=64,
    n_z=4096,
    domain=Domain.DISK,
    cap=DIVERGENCE_CAP,
):
    """Certify the dilatation-compatibility condition for ``w`` at index ``k``.

    Takes the supremum of ``r^k w(z/r) / w(z)`` over the tensor grid of ``n_r``
    radii ``r in [r0, 1)`` and ``n_z`` stratified points ``|z| < r``.  Returns a
    :class:`ConditionWitness`, or ``None`` when the ratio exceeds ``cap``
    anywhere on the grid (the weight fails the condition at this ``k``).
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"r0 must lie in (0, 1), got {r0!r}")
    check_integer("k", k, 0)
    check_integer("n_r", n_r, 1)
    check_integer("n_z", n_z, 1)
    rs = r0 + (1.0 - r0) * np.arange(n_r) / n_r
    best = -np.inf
    best_z = 0j
    best_r = rs[0]
    total = 0
    for r in rs:
        z = _stratified_points(r, n_z, domain)
        total += z.size
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = float(r) ** k * w._values(z / r, domain) / w._values(z, domain)
        ratio = np.where(np.isnan(ratio), np.inf, ratio)
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best = float(ratio[i])
            best_z = complex(z[i])
            best_r = float(r)
    if not np.isfinite(best) or best > cap:
        return None
    return ConditionWitness(
        k=int(k), C=best, r0=float(r0), grid_size=total,
        attained_z=best_z, attained_r=best_r,
    )


def find_min_k(w, k_max=3, r0=0.5, n_r=64, n_z=4096, domain=Domain.DISK):
    """Smallest ``k <= k_max`` whose grid constant stays under the divergence
    cap, as a :class:`ConditionWitness`; ``None`` if every ``k`` fails."""
    check_integer("k_max", k_max, 0)
    for k in range(k_max + 1):
        witness = check_condition(w, k, r0=r0, n_r=n_r, n_z=n_z, domain=domain)
        if witness is not None:
            return witness
    return None
