"""Admissible weight catalog and the dilatation-compatibility check.

The convergence theory needs weights ``w`` obeying, for some integer ``k >= 0``
and constant ``C``,

    r^k w(z / r) <= C w(z)     for |z| < r,  r0 <= r < 1.

:func:`check_condition` certifies this on a finite tensor grid and reports the
attained constant together with where the supremum occurred;
:func:`find_min_k` searches for the smallest admissible ``k``.

Each weight states its formula once, as polar factors (see :class:`Weight`):
a radial factor of ``s = |z|``, an angular factor of the reduced angle, and —
for :class:`ExpRePow` only, which does not separate — a planar factor of
``z``.  Norms integrate against the factors on a grid's 1-D radii and angles;
pointwise values (:func:`eval_weight`, :func:`check_condition`) are their
product.

Each factor also declares its endpoint exponents: the powers with which it
vanishes at the ends of the radial interval and of the angular span, and
whether the angular factor is smooth and periodic.  Norms place the nodes of
Gauss-Jacobi rules by their fractional parts (see :mod:`polyspace.quadrature`).
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
    """Base class.  A weight states its formula once, as factors of the polar
    coordinates ``z = s exp(i theta)``:

    * ``radial_factor(s, domain)`` — values at the radii ``s``;
    * ``angular_factor(theta, domain)`` — values at reduced angles ``theta``
      (in ``[0, 2 pi)`` on the disk, ``(0, pi)`` on the half-plane);
    * ``planar_factor(z, domain)`` — values at the points ``z``, for a weight
      that does not separate in polar coordinates (:class:`ExpRePow`).

    A factor that is identically one is ``None``.  Norms integrate against
    the factors on the 1-D radii and angles of a grid; :meth:`_values`, the
    pointwise value behind :func:`eval_weight` and :func:`check_condition`, is
    their product.

    :meth:`radial_exponents` and :meth:`angular_exponents` state how the
    factors behave at the ends of their intervals.
    """

    radial_factor = None
    angular_factor = None
    planar_factor = None

    def radial_exponents(self, domain):
        """``(e0, e1)``: the radial factor is ``s^e0 (1 - s)^e1`` (disk) or
        ``s^e0`` (half-plane, ``e1 = 0``) times a factor smooth on the closed
        interval."""
        return (0.0, 0.0)

    def angular_exponents(self, domain):
        """``(e0, e1)``: the angular factor is ``theta^e0 (span - theta)^e1``
        times a factor smooth on ``[0, span]`` (``span`` is the domain's
        ``angle_span``); ``None`` when it is smooth and periodic, which lets
        the disk use the periodic midpoint rule."""
        return None if self.angular_factor is None else (0.0, 0.0)

    def _values(self, z, domain):
        z = np.asarray(z)
        vals = np.ones(z.shape)
        if self.radial_factor is not None:
            vals = vals * self.radial_factor(np.abs(z), domain)
        if self.angular_factor is not None:
            vals = vals * self.angular_factor(_reduced_angle(z, domain), domain)
        if self.planar_factor is not None:
            vals = vals * self.planar_factor(z, domain)
        return vals

    def tag(self):
        return type(self).__name__.lower()

    def describe(self):
        return self.tag()


@dataclass(frozen=True)
class Uniform(Weight):
    """w(z) = 1."""


@dataclass(frozen=True)
class ExpAbsPow(Weight):
    """w(z) = exp(-beta |z|^n), beta > 0, integer n >= 1."""

    beta: float
    n: int

    def __post_init__(self):
        check_positive("beta", self.beta)
        check_integer("n", self.n, 1)

    def radial_factor(self, s, domain):
        return np.exp(-self.beta * s**self.n)

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

    def planar_factor(self, z, domain):
        return np.exp(-self.beta * np.abs(np.real(z)) ** self.n)

    def describe(self):
        return f"exprepow(beta={self.beta:g},n={self.n})"


@dataclass(frozen=True)
class ExpAbs(Weight):
    """w(z) = exp(|z|) — the growing weight; needs k = 1 in the compatibility
    condition to reach constants arbitrarily close to 1, although k = 0 already
    gives a finite constant on bounded grids (see the tests)."""

    def radial_factor(self, s, domain):
        return np.exp(s)


@dataclass(frozen=True)
class AngularPoly(Weight):
    """Purely angular weight ``w(s e^{i theta}) = (theta_max^2 - theta^2)^alpha``
    on reduced angles ``theta in [0, theta_max)``.

    The canonical choices are ``theta_max = 2*pi`` on the disk and ``pi`` on the
    half-plane; an angle that reaches ``theta_max`` is rejected.
    """

    alpha: float
    theta_max: float

    def __post_init__(self):
        check_positive("alpha", self.alpha)
        check_positive("theta_max", self.theta_max)

    def angular_factor(self, theta, domain):
        if np.any(theta >= self.theta_max):
            flat = np.atleast_1d(theta)
            bad = flat[flat >= self.theta_max].flat[0]
            raise ValueError(
                f"angle {bad} is outside the support [0, {self.theta_max}) of the weight"
            )
        return (self.theta_max**2 - theta**2) ** self.alpha

    def angular_exponents(self, domain):
        # (theta_max - theta)^alpha vanishes at the end of the span only when
        # theta_max is that end; on the disk the factor is never periodic
        return (0.0, self.alpha if self.theta_max == domain.angle_span else 0.0)

    def describe(self):
        return f"angularpoly(alpha={self.alpha:g},theta_max={self.theta_max:g})"


@dataclass(frozen=True)
class PowerLaw:
    """Radial profile for :class:`Product`: ``(1 - s)^gamma`` on the disk,
    ``s^gamma`` on the half-plane (gamma >= 0)."""

    gamma: float

    def __post_init__(self):
        check_positive("gamma", self.gamma, allow_zero=True)

    def radial_factor(self, s, domain):
        if domain is Domain.DISK:
            return (1.0 - s) ** self.gamma
        return s**self.gamma

    def radial_exponents(self, domain):
        return (0.0, self.gamma) if domain is Domain.DISK else (self.gamma, 0.0)

    def describe(self):
        return f"powerlaw(gamma={self.gamma:g})"


@dataclass(frozen=True)
class Product(Weight):
    """Separable weight ``w(s e^{i theta}) = radial(s) * angular(theta)``.

    ``radial`` is a :class:`PowerLaw` or an :class:`ExpAbsPow` restricted to the
    radius; ``angular`` is :class:`Uniform` or :class:`AngularPoly`.  Its
    factors are theirs.
    """

    radial: object
    angular: Weight

    def __post_init__(self):
        if not isinstance(self.radial, (PowerLaw, ExpAbsPow)):
            raise ValueError("radial must be a PowerLaw or an ExpAbsPow")
        if not isinstance(self.angular, (Uniform, AngularPoly)):
            raise ValueError("angular must be a Uniform or an AngularPoly")

    @property
    def radial_factor(self):
        return self.radial.radial_factor

    @property
    def angular_factor(self):
        return self.angular.angular_factor

    def radial_exponents(self, domain):
        return self.radial.radial_exponents(domain)

    def angular_exponents(self, domain):
        return self.angular.angular_exponents(domain)

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
    theta = (np.arange(n_a) + 0.5) / n_a * domain.angle_span
    return (s[:, None] * np.exp(1j * theta[None, :])).ravel()


def check_condition(w, k, r0=0.5, n_r=64, n_z=4096, domain=Domain.DISK):
    """Certify the dilatation-compatibility condition for ``w`` at index ``k``.

    Takes the supremum of ``r^k w(z/r) / w(z)`` over the tensor grid of ``n_r``
    radii ``r in [r0, 1)`` and ``n_z`` stratified points ``|z| < r``.  Returns a
    :class:`ConditionWitness`, or ``None`` when the ratio exceeds
    :data:`DIVERGENCE_CAP` anywhere on the grid (the weight fails the
    condition at this ``k``).
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
    if not np.isfinite(best) or best > DIVERGENCE_CAP:
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
