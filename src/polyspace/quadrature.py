"""Polar quadrature grids for the unit disk and the (truncated) upper half-plane.

Both grids are Gauss-Legendre in the radius, with the area Jacobian folded into
the node weights.  The angular rule differs by domain:

* disk — uniform midpoints on the full period ``[0, 2*pi)``, which integrates
  every harmonic ``exp(i m theta)`` with ``0 < |m| < n_theta`` to roundoff;
* half-plane — Gauss-Legendre on ``(0, pi)``, since integrands there are not
  periodic and a uniform rule would stall at ``O(n^-2)``.

The half-plane is truncated to the half-disk ``{|z| <= R, Im z > 0}``; with the
Gaussian factor ``exp(-beta |z|^2)`` in the measure, ``R`` from
:func:`default_radius` pushes the discarded tail below 1e-16 of the integral.
Endpoint-singular integrands (fractional powers of ``1 - |z|^2``) converge only
algebraically, so tight tolerances on those go through :func:`refine_until`.

Every grid keeps the 1-D ``radii`` and ``angles`` its nodes are the tensor
product of, so a caller that knows the polar structure of its integrand (see
:func:`polyspace.polyfun.evaluate_on_grid`) can produce the values without
touching the nodes.  Integration is two pieces: :func:`weighted_sum` checks a
values array and reduces it against the node weights, and
:func:`refine_levels` runs the one refinement loop over ``level -> value``.
:func:`integrate` and :func:`refine_until` are those two pieces applied to a
callable of the nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .domain import Domain

__all__ = [
    "QuadratureGrid",
    "RefineResult",
    "disk_grid",
    "halfplane_grid",
    "grid_family",
    "integrate",
    "weighted_sum",
    "refine_levels",
    "refine_until",
    "halfplane_mc_check",
    "default_radius",
    "DEFAULT_N_R",
    "DEFAULT_N_THETA",
    "DEFAULT_REL_TOL",
    "DEFAULT_MAX_LEVEL",
]

DEFAULT_N_R = 128
DEFAULT_N_THETA = 256
DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_LEVEL = 5


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes strictly inside the domain plus positive area weights.

    ``nodes`` is the radius-major tensor product
    ``(radii[:, None] * exp(1j * angles)[None, :]).ravel()``, and
    ``node_weights`` is laid out the same way.
    """

    domain: Domain
    nodes: np.ndarray
    node_weights: np.ndarray
    n_r: int
    n_theta: int
    radius: float
    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.node_weights, self.radii, self.angles):
            arr.flags.writeable = False

    @property
    def size(self):
        return self.nodes.size


def _radial_rule(n_r, radius):
    x, w = np.polynomial.legendre.leggauss(n_r)
    s = (x + 1.0) / 2.0 * radius
    ws = w / 2.0 * radius
    return s, ws


def _tensor_nodes(radii, angles):
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


@functools.lru_cache(maxsize=32)
def disk_grid(n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA):
    """Polar grid on the open unit disk.

    Radial Gauss-Legendre exactness (with the Jacobian ``s``) makes the grid
    integrate ``|z|^(2m)`` exactly for ``m <= n_r - 1``; the node weights sum
    to the disk area pi up to roundoff.
    """
    s, ws = _radial_rule(n_r, 1.0)
    dtheta = 2.0 * np.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dtheta
    weights = np.broadcast_to((ws * s)[:, None] * dtheta, (n_r, n_theta)).ravel().copy()
    return QuadratureGrid(Domain.DISK, _tensor_nodes(s, theta), weights,
                          n_r, n_theta, 1.0, s, theta)


@functools.lru_cache(maxsize=32)
def halfplane_grid(R, n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA):
    """Polar grid on the half-disk ``{|z| <= R, Im z > 0}`` (truncated upper
    half-plane).  Node weights sum to the half-disk area ``pi R^2 / 2``."""
    if not R > 0:
        raise ValueError("truncation radius R must be positive")
    s, ws = _radial_rule(n_r, float(R))
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    theta = (xt + 1.0) / 2.0 * np.pi
    wtheta = wt / 2.0 * np.pi
    weights = np.outer(ws * s, wtheta).ravel()
    return QuadratureGrid(Domain.HALFPLANE, _tensor_nodes(s, theta), weights,
                          n_r, n_theta, float(R), s, theta)


def grid_family(domain, n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, R=None):
    """Return ``level -> grid`` with both resolutions doubled per level."""
    if domain is Domain.DISK:
        return lambda level: disk_grid(n_r << level, n_theta << level)
    if R is None:
        raise ValueError("half-plane grids need a truncation radius R")

    return lambda level: halfplane_grid(R, n_r << level, n_theta << level)


def default_radius(beta):
    """Truncation radius for the Gaussian measure ``exp(-beta |z|^2)``: the tail
    beyond ``R`` is below ``exp(-40) ~ 4e-18`` of the total."""
    if not beta > 0:
        raise ValueError("default_radius needs beta > 0; pass an explicit R instead")
    return max(8.0, float(np.sqrt(40.0 / beta)))


def weighted_sum(vals, grid):
    """Sum ``vals * node_weights`` with numpy's deterministic pairwise
    summation.  ``vals`` holds one real, finite value per node of ``grid``, in
    node order; a non-finite value raises ``ValueError`` naming the offending
    node."""
    vals = np.asarray(vals)
    if np.iscomplexobj(vals):
        raise TypeError("integrand must be real-valued on the nodes")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"integrand is {vals.flat[i]} at node {grid.nodes[i]} (index {i})"
        )
    return float(np.sum(vals * grid.node_weights))


def integrate(g, grid):
    """:func:`weighted_sum` of ``g(nodes)``: ``g`` must be real and finite on
    the nodes."""
    return weighted_sum(g(grid.nodes), grid)


@dataclass(frozen=True)
class RefineResult:
    """Outcome of :func:`refine_until`: the last value, the final relative
    change between levels, whether that change met the tolerance, and the level
    at which iteration stopped."""

    value: float
    rel_change: float
    converged: bool
    level: int


def refine_levels(value_at, rel_tol=DEFAULT_REL_TOL, max_level=DEFAULT_MAX_LEVEL):
    """Compute ``value_at(0), value_at(1), ...`` until successive values agree
    to ``rel_tol`` relative, or ``max_level`` is hit — then the result is
    flagged as not converged."""
    prev = value_at(0)
    change = np.inf
    for level in range(1, max_level + 1):
        cur = value_at(level)
        denom = max(abs(cur), abs(prev))
        change = 0.0 if denom == 0.0 else abs(cur - prev) / denom
        if change <= rel_tol:
            return RefineResult(cur, change, True, level)
        prev = cur
    return RefineResult(prev, change, False, max_level)


def refine_until(g, family, rel_tol=DEFAULT_REL_TOL, max_level=DEFAULT_MAX_LEVEL):
    """Integrate ``g`` on ``family(0), family(1), ...`` (each level doubles both
    grid resolutions) through :func:`refine_levels`."""
    return refine_levels(lambda level: integrate(g, family(level)), rel_tol, max_level)


def halfplane_mc_check(R=8.0, n_samples=10_000_000, seed=0,
                       n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA):
    """Monte Carlo cross-check of the half-plane grid on ``Im(z) exp(-|z|^2)``.

    Samples uniformly on the half-disk of radius ``R`` and returns
    ``(quad_value, mc_value, mc_sigma)``; the two values should agree to a few
    ``mc_sigma``.
    """
    rng = np.random.default_rng(seed)
    s = R * np.sqrt(rng.random(n_samples))
    y = s * np.sin(np.pi * rng.random(n_samples))
    vals = y * np.exp(-(s * s))
    area = np.pi * R * R / 2.0
    mc = area * float(np.mean(vals))
    sigma = area * float(np.std(vals, ddof=1)) / np.sqrt(n_samples)
    quad = integrate(
        lambda z: np.imag(z) * np.exp(-np.abs(z) ** 2),
        halfplane_grid(R, n_r, n_theta),
    )
    return quad, mc, sigma
