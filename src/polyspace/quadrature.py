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

A grid stores only its 1-D rules: ``radii`` with ``radial_weights`` (the
Gauss-Legendre weights times the Jacobian ``s``) and ``angles`` with
``angle_weights``.  The node ``(i, l)`` is ``radii[i] * exp(1j * angles[l])``
with weight ``radial_weights[i] * angle_weights[l]``; the flat ``nodes`` and
``node_weights`` are built from these on first access, for callers that want
them.  A caller that knows the polar structure of its integrand (see
:func:`polyspace.polyfun.evaluate_on_block`) produces values without touching
the nodes.

Integration is two pieces.  :func:`blocked_sum` is the one reduction: it asks
for the integrand one block of radii at a time (a power-of-two number of
radii, at most :data:`BLOCK_VALUES` nodes), multiplies by the node weights,
refuses a non-finite value by naming its node, and combines the block sums
pairwise — for power-of-two grids that is bit for bit numpy's pairwise sum of
the whole array.  :func:`refine_levels` runs the one refinement loop over
``level -> value``.  :func:`weighted_sum`, :func:`integrate` and
:func:`refine_until` are these pieces applied to an array or a callable of the
nodes.  Block arrays live in per-thread buffers from :func:`scratch`, reused
from call to call, so no call allocates memory in proportion to the grid.
"""

from __future__ import annotations

import functools
import math
import threading
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
    "blocked_sum",
    "block_rows",
    "scratch",
    "refine_levels",
    "refine_until",
    "halfplane_mc_check",
    "default_radius",
    "DEFAULT_N_R",
    "DEFAULT_N_THETA",
    "DEFAULT_REL_TOL",
    "DEFAULT_MAX_LEVEL",
    "BLOCK_VALUES",
]

DEFAULT_N_R = 128
DEFAULT_N_THETA = 256
DEFAULT_REL_TOL = 1e-9
DEFAULT_MAX_LEVEL = 5
# nodes per radial block: 256 KB of complex values
BLOCK_VALUES = 16384


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product polar grid strictly inside the domain, stored as its
    1-D rules: ``radii`` with ``radial_weights`` and ``angles`` with
    ``angle_weights``, all positive and read-only.

    ``nodes`` is the radius-major tensor product
    ``(radii[:, None] * exp(1j * angles)[None, :]).ravel()`` and
    ``node_weights`` is ``outer(radial_weights, angle_weights).ravel()``; both
    are built on first access and are read-only.
    """

    domain: Domain
    n_r: int
    n_theta: int
    radius: float
    radii: np.ndarray
    angles: np.ndarray
    radial_weights: np.ndarray
    angle_weights: np.ndarray

    def __post_init__(self):
        for arr in (self.radii, self.angles, self.radial_weights, self.angle_weights):
            arr.flags.writeable = False

    @property
    def size(self):
        return self.n_r * self.n_theta

    def block_nodes(self, rows):
        """Nodes at ``radii[rows]`` x ``angles``, shape ``(len, n_theta)``."""
        return self.radii[rows, None] * np.exp(1j * self.angles)[None, :]

    def block_weights(self, rows, out=None):
        """Node weights at ``radii[rows]`` x ``angles``, shape ``(len, n_theta)``."""
        return np.multiply(self.radial_weights[rows, None], self.angle_weights, out=out)

    @functools.cached_property
    def nodes(self):
        return _frozen(self.block_nodes(slice(None)).ravel())

    @functools.cached_property
    def node_weights(self):
        return _frozen(self.block_weights(slice(None)).ravel())


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _radial_rule(n_r, radius):
    """Gauss-Legendre radii on ``(0, radius)`` and their weights times the
    area Jacobian ``s``."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    s = (x + 1.0) / 2.0 * radius
    ws = w / 2.0 * radius
    return s, ws * s


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
    return QuadratureGrid(Domain.DISK, n_r, n_theta, 1.0, s, theta, ws,
                          np.full(n_theta, dtheta))


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
    return QuadratureGrid(Domain.HALFPLANE, n_r, n_theta, float(R), s, theta, ws,
                          wtheta)


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


_SCRATCH = threading.local()


def scratch(slot, shape, dtype=float):
    """A reusable C-contiguous array of ``shape`` for ``slot``: a view of a
    per-thread buffer of at least :data:`BLOCK_VALUES` values that grows
    when a larger block asks for it.  Its contents are undefined, and it stays
    valid until the next request for the same slot and dtype."""
    pool = _SCRATCH.__dict__
    key = (slot, np.dtype(dtype))
    n = math.prod(shape)
    buf = pool.get(key)
    if buf is None or buf.size < n:
        buf = pool[key] = np.empty(max(n, BLOCK_VALUES), dtype)
    return buf[:n].reshape(shape)


def block_rows(n_theta):
    """Radii per block: the largest power of two whose block holds at most
    :data:`BLOCK_VALUES` nodes, and at least one."""
    rows = 1
    while 2 * rows * n_theta <= BLOCK_VALUES:
        rows *= 2
    return rows


def _pairwise(sums):
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])] + sums[len(sums) & ~1:]
    return sums[0]


def blocked_sum(block_values, grid):
    """``sum(values * node_weights)`` over ``grid``, one block of radii at a
    time.

    ``block_values(rows)`` returns the real integrand on ``grid.radii[rows]``
    x ``grid.angles`` as a ``(len, n_theta)`` array; ``rows`` are consecutive
    slices of :func:`block_rows` radii.  Each block is summed with numpy's
    pairwise summation and the block sums are combined pairwise.  A
    non-finite value raises ``ValueError`` naming the offending node.
    """
    step = block_rows(grid.n_theta)
    sums = []
    for start in range(0, grid.n_r, step):
        rows = slice(start, min(start + step, grid.n_r))
        vals = block_values(rows)
        terms = grid.block_weights(rows, out=scratch("weights", vals.shape))
        terms *= vals
        total = float(np.sum(terms.reshape(-1)))
        # a non-finite value makes the block sum non-finite
        if not math.isfinite(total):
            _refuse_non_finite(vals, grid, start)
        sums.append(total)
    return _pairwise(sums)


def _refuse_non_finite(vals, grid, start):
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i, l = divmod(int(bad[0]), grid.n_theta)
        raise ValueError(
            f"integrand is {vals.flat[bad[0]]} at node "
            f"s_{start + i} e^(i theta_{l}) = {grid.radii[start + i]} * "
            f"exp({grid.angles[l]}j)"
        )


def weighted_sum(vals, grid):
    """:func:`blocked_sum` of an array: ``vals`` holds one real, finite value
    per node of ``grid``, in node order; a non-finite value raises
    ``ValueError`` naming the offending node."""
    vals = np.asarray(vals)
    if np.iscomplexobj(vals):
        raise TypeError("integrand must be real-valued on the nodes")
    vals = vals.reshape(grid.n_r, grid.n_theta)
    return blocked_sum(lambda rows: vals[rows], grid)


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
