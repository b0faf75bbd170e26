"""Weighted Bergman, Dirichlet and Besov (semi)norms for polyanalytic functions.

On the unit disk the three norms are

    Bergman:    ||f||^p = integral |f|^p w dA
    Dirichlet:  ||f||^p = |f(0)|^p + integral (|d_z f|^p + |d_zbar f|^p) w dA
    Besov:      ||f||^p = |f(0)|^p + integral (...) (1-|z|^2)^(p-2) w dA,  p >= 2

and on the upper half-plane the base point moves to ``i`` while the measure
gains ``Im(z)^alpha exp(-beta |z|^2)`` (Besov: ``Im(z)^(alpha+p-2)``).  At
``p = 2`` the Besov boundary factor is identically one, so the Besov and
Dirichlet norms coincide; the implementation shares the code path bit for bit.

Derivatives are exact coefficient operations — no finite differences anywhere.

Every integral goes through one integrator, :func:`_integrate`.  Its measure
is polar-separable: the weight's radial and angular factors times the
kind/domain factors — Besov ``(1-s^2)^(p-2)`` on the disk; ``s^a sin^a theta``
for ``Im(z)^a`` and ``exp(-beta s^2)`` on the half-plane — as one vector on the
grid's radii and one on its angles, which multiply the grid's 1-D weights
(:func:`_measure_density`).  Only :class:`~polyspace.weights.ExpRePow` adds a
factor that does not separate; it is evaluated on each block's nodes.

The measure's endpoint powers — the weight's declared exponents plus Besov
``(1-s)^(p-2)``, ``s^a`` and ``sin^a theta ~ [theta (pi - theta)]^a`` — pick
the grids (:meth:`SpaceSpec.grid_family`): the fractional part of each
places the nodes of a Gauss-Jacobi rule.  A spec whose exponents are all
integers integrates on Gauss-Legendre radii (and, on the disk, periodic
midpoint angles when the angular factor is smooth and periodic).

The integrand is formed one block of radii at a time
(:func:`quadrature.blocked_sum`): each part as one radial × harmonic product
(:func:`polyfun.block_evaluators`, one harmonic table for all parts), then
``|.|^p`` and the node weights, in reused block buffers.  No array the size
of the grid is ever built.  Horner's scheme is used only for the point term.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import polyfun, quadrature
from .domain import Domain, check_integer, check_positive
from .weights import Weight

__all__ = [
    "SpaceKind",
    "SpaceSpec",
    "QuadSettings",
    "QuadratureFlags",
    "NormResult",
    "space_norm",
    "bergman_norm",
    "dirichlet_norm",
    "besov_norm",
    "norm_of_difference",
]


class SpaceKind(enum.Enum):
    BERGMAN = "bergman"
    DIRICHLET = "dirichlet"
    BESOV = "besov"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class QuadSettings:
    """Grid resolution and refinement policy for norm evaluation.

    Out-of-range values raise ``ValueError`` with a message that starts with
    the field's name.
    """

    n_r: int = quadrature.DEFAULT_N_R
    n_theta: int = quadrature.DEFAULT_N_THETA
    rel_tol: float = quadrature.DEFAULT_REL_TOL
    max_level: int = quadrature.DEFAULT_MAX_LEVEL
    refine: bool = True

    def __post_init__(self):
        check_integer("n_r", self.n_r, 1)
        check_integer("n_theta", self.n_theta, 1)
        check_positive("rel_tol", self.rel_tol)
        check_integer("max_level", self.max_level, 0)


@dataclass(frozen=True)
class SpaceSpec:
    """A concrete function space: domain, norm kind, exponent, weight, and (on
    the half-plane) the measure parameters ``alpha``, ``beta``.

    ``beta = 0`` removes the Gaussian confinement, which is only allowed with
    an explicit truncation radius ``quad_R``; such evaluations are marked
    truncated in every report.  ``alpha``, ``beta`` and ``quad_R`` belong to
    the half-plane only.  Invalid fields raise ``ValueError`` with a message
    that starts with the field's name.
    """

    domain: Domain
    kind: SpaceKind
    p: float
    weight: Weight
    alpha: float | None = None
    beta: float | None = None
    quad_R: float | None = None

    def __post_init__(self):
        check_positive("p", self.p)
        if self.kind is SpaceKind.BESOV and self.p < 2:
            raise ValueError(f"p is {self.p!r}, but besov requires p >= 2")
        if self.domain is Domain.DISK:
            for name in ("alpha", "beta", "quad_R"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} applies to the halfplane domain only")
            return
        for name in ("alpha", "beta"):
            if getattr(self, name) is None:
                raise ValueError(f"{name} is required on the halfplane domain")
            check_positive(name, getattr(self, name), allow_zero=True)
        if self.quad_R is not None:
            check_positive("quad_R", self.quad_R)
        elif self.beta == 0:
            raise ValueError("beta = 0 requires an explicit truncation radius quad_R")

    @property
    def base_point(self):
        return 1j if self.domain is Domain.HALFPLANE else 0j

    @property
    def truncation_radius(self):
        if self.domain is not Domain.HALFPLANE:
            return None
        if self.quad_R is not None:
            return float(self.quad_R)
        return quadrature.default_radius(self.beta)

    @property
    def truncated(self):
        # beta = 0 is only accepted together with quad_R
        return self.domain is Domain.HALFPLANE and self.quad_R is not None

    def grid_family(self, n_r=quadrature.DEFAULT_N_R, n_theta=quadrature.DEFAULT_N_THETA):
        """``level -> grid``: the grids that norms in this space integrate on,
        whose nodes the fractional parts of the measure's endpoint exponents
        place."""
        radial, angular = _endpoint_exponents(self)
        return quadrature.grid_family(self.domain, n_r, n_theta, self.truncation_radius,
                                      radial=_fractional(radial),
                                      angular=_fractional(angular))

    def describe(self):
        s = f"{self.kind}:{self.domain}:p={self.p:g}:{self.weight.describe()}"
        if self.domain is Domain.HALFPLANE:
            s += f":alpha={self.alpha:g}:beta={self.beta:g}"
        return s


@dataclass(frozen=True)
class QuadratureFlags:
    """How the integral behind a norm was obtained."""

    refined: bool
    converged: bool
    level: int
    rel_change: float
    truncated: bool

    def describe(self):
        mode = "refined" if self.refined else "fixed-grid"
        out = f"{mode}(level={self.level},rel_change={self.rel_change:.3g})"
        if not self.converged:
            out += ":NOT-CONVERGED"
        if self.truncated:
            out += ":truncated"
        return out


@dataclass(frozen=True)
class NormResult:
    """Full norm together with its decomposition
    ``full_norm^p = point_term + seminorm^p``.

    For Bergman norms the point term is zero and ``full_norm == seminorm``.
    """

    full_norm: float
    seminorm: float
    point_term: float
    flags: QuadratureFlags


def _halfplane_exponent(spec):
    """``a`` in the half-plane measure's ``Im(z)^a``."""
    return spec.alpha + (spec.p - 2.0 if spec.kind is SpaceKind.BESOV else 0.0)


def _endpoint_exponents(spec):
    """Endpoint exponents of the measure of ``spec``: radial ``(e0, e1)`` at
    ``s = 0`` and at ``s = 1`` (disk), angular ``(e0, e1)`` at the ends of
    the span, or ``None`` when the angular factor is smooth and periodic."""
    w, domain = spec.weight, spec.domain
    r0, r1 = w.radial_exponents(domain)
    angular = w.angular_exponents(domain)
    if domain is Domain.DISK:
        if spec.kind is SpaceKind.BESOV:
            r1 += spec.p - 2.0
    else:
        a = _halfplane_exponent(spec)
        r0 += a
        a0, a1 = angular or (0.0, 0.0)
        angular = (a0 + a, a1 + a)
    return (r0, r1), angular


def _fractional(exponents):
    return None if exponents is None else tuple(e - math.floor(e) for e in exponents)


def _measure_density(spec, grid):
    """``grid`` with its 1-D weights times the measure of ``spec``: the
    weight's radial and angular factors and the kind/domain factors."""
    w, domain = spec.weight, spec.domain
    if type(w)._values is not Weight._values:
        raise TypeError(f"{w.describe()} overrides _values; norms integrate "
                        "against a weight's radial, angular and planar factors")
    s, radial, angular = grid.radii, grid.radial_weights, grid.angle_weights
    if w.radial_factor is not None:
        radial = radial * w.radial_factor(s, domain)
    if w.angular_factor is not None:
        angular = angular * w.angular_factor(grid.angles, domain)
    if domain is Domain.DISK:
        if spec.kind is SpaceKind.BESOV and spec.p != 2:
            radial = radial * (1.0 - s**2) ** (spec.p - 2.0)
    else:
        expo = _halfplane_exponent(spec)
        if expo != 0.0:
            radial = radial * s**expo
            angular = angular * np.sin(grid.angles) ** expo
        if spec.beta != 0.0:
            radial = radial * np.exp(-spec.beta * s**2)
    return dataclasses.replace(grid, radial_weights=radial, angle_weights=angular)


def _block_integrand(parts, spec, grid):
    """``rows -> sum_part |part|^p`` (times a planar weight factor) on
    ``grid.radii[rows]`` x ``grid.angles``, in reused block buffers."""
    planar = spec.weight.planar_factor
    evaluators = polyfun.block_evaluators(parts, grid)

    def values(rows):
        shape = (rows.stop - rows.start, grid.n_theta)
        part_vals = quadrature.scratch("part", shape, complex)
        total = quadrature.scratch("integrand", shape)
        term = quadrature.scratch("term", shape)
        # an overflow leaves inf or nan, which blocked_sum refuses by node
        with np.errstate(over="ignore", invalid="ignore"):
            for i, evaluate in enumerate(evaluators):
                evaluate(rows, out=part_vals)
                out = total if i == 0 else term
                np.abs(part_vals, out=out)
                out **= spec.p
                if i:
                    total += term
            if planar is not None:
                total *= planar(grid.block_nodes(rows), spec.domain)
        return total

    return values


def _integrate(parts, spec, settings):
    """``(value, QuadratureFlags)`` of ``integral sum_part |part|^p`` against
    the measure of ``spec``, on the grid family of ``spec``."""
    settings = settings or QuadSettings()
    family = spec.grid_family(settings.n_r, settings.n_theta)

    def value_at(level):
        grid = _measure_density(spec, family(level))
        return quadrature.blocked_sum(_block_integrand(parts, spec, grid), grid)

    if settings.refine:
        res = quadrature.refine_levels(value_at, rel_tol=settings.rel_tol,
                                       max_level=settings.max_level)
        return res.value, QuadratureFlags(True, res.converged, res.level,
                                          res.rel_change, spec.truncated)
    return value_at(0), QuadratureFlags(False, True, 0, math.nan, spec.truncated)


def space_norm(f, spec, settings=None):
    """Norm of ``f`` in the space ``spec``; dispatches on ``spec.kind``."""
    if spec.kind is SpaceKind.BERGMAN:
        parts = [f]
        point_term = 0.0
    else:
        parts = [polyfun.d_z(f), polyfun.d_zbar(f)]
        with np.errstate(over="ignore"):
            point_term = float(np.float64(abs(f(spec.base_point))) ** spec.p)
        if not math.isfinite(point_term):
            raise ValueError(f"point term |f(z0)|^p at the base point "
                             f"z0 = {spec.base_point} is {point_term}")
    integral, flags = _integrate(parts, spec, settings)
    integral = max(integral, 0.0)
    try:
        seminorm = integral ** (1.0 / spec.p)
        full = (point_term + integral) ** (1.0 / spec.p)
    except OverflowError:
        raise ValueError(f"p is {spec.p!r}, too small: the norm "
                         f"{point_term + integral}^(1/p) overflows") from None
    return NormResult(full, seminorm, point_term, flags)


def _kind_norm(f, spec, settings, kind, name):
    if spec.kind is not kind:
        raise ValueError(f"{name} expects a spec of kind {kind}, got {spec.kind}")
    return space_norm(f, spec, settings)


def bergman_norm(f, spec, settings=None):
    """p-integral norm of ``f`` itself (no derivatives, no point term)."""
    return _kind_norm(f, spec, settings, SpaceKind.BERGMAN, "bergman_norm")


def dirichlet_norm(f, spec, settings=None):
    """Point value at the base point plus the two first-order Wirtinger
    seminorm integrals."""
    return _kind_norm(f, spec, settings, SpaceKind.DIRICHLET, "dirichlet_norm")


def besov_norm(f, spec, settings=None):
    """Dirichlet-type norm with the boundary-distance factor; coincides with
    the Dirichlet norm at ``p = 2``."""
    return _kind_norm(f, spec, settings, SpaceKind.BESOV, "besov_norm")


def norm_of_difference(f, g, spec, settings=None):
    """Norm of ``f - g`` in ``spec`` — the workhorse of every convergence
    experiment."""
    return space_norm(polyfun.sub(f, g), spec, settings)


def weighted_p_integral(g, spec, settings=None):
    """``(value, QuadratureFlags)`` of ``integral |g|^p`` against the full
    measure of ``spec`` (weight times boundary/confinement factors).

    This is one half of a Dirichlet/Besov seminorm; the dilatation-limit
    experiments compare these part integrals side by side.
    """
    return _integrate([g], spec, settings)
