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
grid's radii and one on its angles (:func:`_measure_density`).  Only
:class:`~polyspace.weights.ExpRePow` adds a factor that does not separate; it
is evaluated on each block's nodes.  The integrand is formed one block of
radii at a time (:func:`quadrature.blocked_sum`): each part as one radial ×
harmonic product (:func:`polyfun.evaluate_on_block`), then ``|.|^p``, the
density and the node weights, in reused block buffers.  No per-node density
and no array the size of the grid is ever built.  Horner's scheme is used only
for the point term at the base point.
"""

from __future__ import annotations

import enum
import functools
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


@dataclass(frozen=True)
class _Measure:
    """Density of a measure on a grid: ``radial[i] * angular[l]`` at node
    ``(i, l)``, times ``planar(nodes)`` when the weight does not separate.  A
    factor that is identically one is ``None``."""

    radial: np.ndarray | None
    angular: np.ndarray | None
    planar: object

    def apply(self, vals, grid, rows):
        """Multiply ``vals``, the block at ``grid.radii[rows]``, by the density
        in place."""
        dens = None
        if self.radial is not None and self.angular is not None:
            dens = np.multiply(self.radial[rows, None], self.angular,
                               out=quadrature.scratch("density", vals.shape))
        elif self.radial is not None:
            dens = self.radial[rows, None]
        elif self.angular is not None:
            dens = self.angular
        if self.planar is not None:
            planar = self.planar(grid.block_nodes(rows))
            dens = planar if dens is None else np.multiply(dens, planar, out=planar)
        if dens is not None:
            vals *= dens


def _times(factor, values):
    return values if factor is None else factor * values


def _measure_density(spec, grid):
    """The measure of ``spec`` on ``grid``: the weight's factors times the
    kind/domain factors, as a :class:`_Measure` of 1-D vectors."""
    w, domain = spec.weight, spec.domain
    if type(w)._values is not Weight._values:
        raise TypeError(f"{w.describe()} overrides _values; norms integrate "
                        "against a weight's radial, angular and planar factors")
    s = grid.radii
    radial = None if w.radial_factor is None else w.radial_factor(s, domain)
    angular = None if w.angular_factor is None else w.angular_factor(grid.angles, domain)
    if domain is Domain.DISK:
        if spec.kind is SpaceKind.BESOV and spec.p != 2:
            radial = _times(radial, (1.0 - s**2) ** (spec.p - 2.0))
    else:
        expo = spec.alpha + (spec.p - 2.0 if spec.kind is SpaceKind.BESOV else 0.0)
        if expo != 0.0:
            radial = _times(radial, s**expo)
            angular = _times(angular, np.sin(grid.angles) ** expo)
        if spec.beta != 0.0:
            radial = _times(radial, np.exp(-spec.beta * s**2))
    planar = None
    if w.planar_factor is not None:
        planar = functools.partial(w.planar_factor, domain=domain)
    return _Measure(radial, angular, planar)


def _block_integrand(parts, spec, grid):
    """``rows -> sum_part |part|^p * density`` on ``grid.radii[rows]`` x
    ``grid.angles``, in reused block buffers."""
    measure = _measure_density(spec, grid)

    def values(rows):
        shape = (rows.stop - rows.start, grid.n_theta)
        part_vals = quadrature.scratch("part", shape, complex)
        total = quadrature.scratch("integrand", shape)
        term = quadrature.scratch("term", shape)
        for i, part in enumerate(parts):
            polyfun.evaluate_on_block(part, grid, rows, out=part_vals)
            out = total if i == 0 else term
            np.abs(part_vals, out=out)
            out **= spec.p
            if i:
                total += term
        measure.apply(total, grid, rows)
        return total

    return values


def _integrate(parts, spec, settings):
    """``(value, QuadratureFlags)`` of ``integral sum_part |part|^p`` against
    the measure of ``spec``, on the grid family of ``spec``."""
    settings = settings or QuadSettings()
    family = quadrature.grid_family(spec.domain, settings.n_r, settings.n_theta,
                                    spec.truncation_radius)

    def value_at(level):
        grid = family(level)
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
        point_term = abs(f(spec.base_point)) ** spec.p
    integral, flags = _integrate(parts, spec, settings)
    integral = max(integral, 0.0)
    seminorm = integral ** (1.0 / spec.p)
    full = (point_term + integral) ** (1.0 / spec.p)
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
    """``integral |g|^p`` against the full measure of ``spec`` (weight times
    boundary/confinement factors), for a single function ``g``.

    This is one half of a Dirichlet/Besov seminorm; the dilatation-limit
    experiments compare these part integrals side by side.
    """
    return _integrate([g], spec, settings)[0]
