"""Polar quadrature grids for the unit disk and the (truncated) upper half-plane.

A grid is the tensor product of a radial and an angular rule, with the area
Jacobian ``s`` folded into the radial weights; every grid integrates plain
``dA``.  A rule may place its nodes for fractional endpoint powers of the
measure, so that it converges spectrally on integrands that carry them:

* radius — Gauss-Jacobi on ``(0, R)`` for ``s^e0 (R - s)^e1`` (``R = 1`` on
  the disk); exponents ``(0, 0)`` give Gauss-Legendre;
* angle on the disk — uniform midpoints on the full period ``[0, 2*pi)``
  when the angular factor is smooth and periodic (``angular=None``); the
  midpoint rule integrates every harmonic ``exp(i m theta)`` with
  ``0 < |m| < n_theta`` to roundoff.  Otherwise Gauss-Jacobi on ``(0, 2*pi)``
  for ``theta^e0 (2*pi - theta)^e1``;
* angle on the half-plane — Gauss-Jacobi on ``(0, pi)`` for
  ``theta^e0 (pi - theta)^e1``, since integrands there are not periodic and
  a uniform rule would stall at ``O(n^-2)``.

A Gauss-Jacobi rule's weights are divided by its power at its nodes, so it
integrates ``g`` exactly when ``g`` is the power times a polynomial of degree
below ``2n``.  The exponents lie in ``[0, 1)``.  Every Gauss rule comes from
:func:`gauss_jacobi` (Newton's method on the three-term recurrence, O(n)
memory) and is cached, so grids that share a rule do not build it again.

The half-plane is truncated to the half-disk ``{|z| <= R, Im z > 0}``; with the
Gaussian factor ``exp(-beta |z|^2)`` in the measure, ``R`` from
:func:`default_radius` pushes the discarded tail below 1e-16 of the integral.
Tight tolerances on integrands that are not smooth go through
:func:`refine_until`.

A grid stores only its 1-D rules: ``radii`` with ``radial_weights`` (the
rule's weights times the Jacobian ``s``) and ``angles`` with
``angle_weights``.  The node ``(i, l)`` is ``radii[i] * exp(1j * angles[l])``
with weight ``radial_weights[i] * angle_weights[l]``; :meth:`block_nodes` and
:meth:`block_weights` build them for a block of radii.  A caller that knows
the polar structure of its integrand (see
:func:`polyspace.polyfun.block_evaluators`) produces values without touching
the nodes.

Every integral is blockwise.  :func:`blocked_sum` is the one reduction: it
asks for the integrand one block of radii at a time (a power-of-two number of
radii, at most :data:`BLOCK_VALUES` nodes), multiplies by the node weights,
refuses a non-finite value by naming its node, and combines the block sums
pairwise — for power-of-two grids that is bit for bit numpy's pairwise sum of
the whole array.  :func:`refine_levels` runs the one refinement loop over
``level -> value``.  :func:`integrate` and :func:`refine_until` are these
pieces applied to a callable of one block of nodes.  Block arrays live in
per-thread buffers from :func:`scratch`, reused from call to call, so no call
allocates memory in proportion to the grid.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .domain import Domain, check_integer

__all__ = [
    "QuadratureGrid",
    "RefineResult",
    "gauss_jacobi",
    "disk_grid",
    "halfplane_grid",
    "grid_family",
    "integrate",
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

    The nodes are the radius-major tensor product
    ``radii[:, None] * exp(1j * angles)[None, :]`` with weights
    ``outer(radial_weights, angle_weights)``, built one block of radii at a
    time by :meth:`block_nodes` and :meth:`block_weights`; the sum of
    ``g(nodes)`` times the weights approximates the integral of ``g`` dA.
    The rules' nodes are those of ``s^e0 (radius - s)^e1`` for
    ``radial_exponents`` ``(e0, e1)`` and of ``theta^e0 (span - theta)^e1``
    for ``angular_exponents``, or ``None`` for periodic midpoints.
    """

    domain: Domain
    n_r: int
    n_theta: int
    radius: float
    radii: np.ndarray
    angles: np.ndarray
    radial_weights: np.ndarray
    angle_weights: np.ndarray
    radial_exponents: tuple = (0.0, 0.0)
    angular_exponents: tuple | None = None

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


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def gauss_jacobi(n, a=0.0, b=0.0):
    """Gauss-Jacobi rule of ``n`` points for the weight ``(1 - x)^a (1 + x)^b``
    on ``(-1, 1)``, ``a, b >= 0``: nodes in increasing order and their weights.

    The nodes are the zeros of the orthonormal Jacobi polynomial ``p_n``,
    found by Newton's method from the asymptotic guesses
    ``cos((k + a/2 - 1/4) pi / (n + (a + b + 1)/2))``; ``p_n`` comes from the
    three-term recurrence and ``p_n'`` from the identity
    ``(2n+a+b)(1-x^2) P_n' = n(a-b-(2n+a+b)x) P_n + 2(n+a)(n+b) P_(n-1)``.
    The weights are the Christoffel numbers ``1 / sum_(j<n) p_j(x_k)^2``,
    which keep their relative accuracy at the endpoints.  Memory is O(n) and
    time O(n^2); a symmetric rule (``a == b``) solves for half the nodes.
    ``a = b = 0`` is Gauss-Legendre.
    """
    check_integer("n", n, 1)
    a, b = float(a), float(b)
    ab = a + b
    j = np.arange(n, dtype=float)
    # x p_j = beta_j p_(j+1) + alpha_j p_j + beta_(j-1) p_(j-1), orthonormal
    two_j = 2.0 * j + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (b * b - a * a) / (two_j * (two_j + 2.0))
    alpha[0] = (b - a) / (ab + 2.0)
    k = j + 1.0
    t = 2.0 * k + ab
    beta = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + ab) / (t * t * (t + 1.0) * (t - 1.0)))
    beta[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + ab) ** 2 * (3.0 + ab)))
    p0 = math.exp(-0.5 * _log_jacobi_mass(a, b))
    steps = list(zip(alpha.tolist(), (1.0 / beta).tolist(),
                     [0.0] + (beta[:-1] / beta[1:]).tolist()))

    def recurrence(x, christoffel=False):
        # (p_n, p_(n-1)) at x, or sum_(j<n) p_j(x)^2
        p_prev, p, nxt = np.zeros_like(x), np.full_like(x, p0), np.empty_like(x)
        total = p * p if christoffel else None
        for i, (alpha_i, inv_beta, beta_ratio) in enumerate(steps):
            if christoffel and i:
                total += p * p
            np.subtract(x, alpha_i, out=nxt)
            nxt *= p
            nxt *= inv_beta
            p_prev *= beta_ratio
            nxt -= p_prev
            p_prev, p, nxt = p, nxt, p_prev
        return total if christoffel else (p, p_prev)

    # P_(n-1) / P_n = norm_ratio * p_(n-1) / p_n
    norm_ratio = math.sqrt((2 * n + ab + 1.0) / (2 * n + ab - 1.0) * n * (n + ab)
                      / ((n + a) * (n + b)))
    symmetric = a == b
    count = (n + 1) // 2 if symmetric else n
    x = np.cos((np.arange(1, count + 1) + a / 2.0 - 0.25) * math.pi
               / (n + (ab + 1.0) / 2.0))
    for _ in range(_NEWTON_STEPS):
        pn, pn1 = recurrence(x)
        dx = (2 * n + ab) * (1.0 - x) * (1.0 + x) * pn / (
            n * (a - b - (2 * n + ab) * x) * pn + 2.0 * (n + a) * (n + b) * norm_ratio * pn1)
        x -= dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    else:
        raise ArithmeticError(f"Gauss-Jacobi nodes for n={n}, a={a}, b={b} did not converge")
    if symmetric and n % 2:
        x[-1] = 0.0
    w = 1.0 / recurrence(x, christoffel=True)
    if symmetric:
        half = n // 2
        return np.concatenate([-x, x[:half][::-1]]), np.concatenate([w, w[:half][::-1]])
    return x[::-1].copy(), w[::-1].copy()


# Newton converges quadratically from the asymptotic guesses: a step below
# _NEWTON_TOL leaves an error far below roundoff for n up to ~1e5.
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-14


def _log_jacobi_mass(a, b):
    """``log of integral (1 - x)^a (1 + x)^b dx`` over ``(-1, 1)``."""
    return ((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0))


@functools.lru_cache(maxsize=64)
def _rule(n, end, exponents):
    """Gauss-Jacobi on ``(0, end)`` for ``x^e0 (end - x)^e1``, its weights
    divided by that power so that it integrates ``dx``: read-only arrays."""
    e0, e1 = exponents
    x, w = gauss_jacobi(n, e1, e0)
    nodes = (x + 1.0) / 2.0 * end
    weights = w * (end / 2.0) ** (1.0 + e0 + e1)
    if exponents != (0.0, 0.0):
        weights /= nodes**e0 * (end - nodes) ** e1
    return _frozen(nodes), _frozen(weights)


def _radial_rule(n_r, radius, exponents):
    """Radii on ``(0, radius)`` and their weights times the area Jacobian
    ``s``; a radius whose weights are not finite is refused."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            s, ws = _rule(n_r, radius, exponents)
            weights = ws * s
    except OverflowError:   # the rule's float power of the radius
        weights = np.array([math.inf])
    if not np.isfinite(weights).all():
        raise ValueError(f"R is {radius!r}, too large for finite grid weights")
    return s, weights


def _angular_rule(n_theta, span, exponents):
    """Angles on ``(0, span)`` and their weights: uniform midpoints for
    ``exponents=None``, else Gauss-Jacobi."""
    if exponents is not None:
        return _rule(n_theta, span, exponents)
    dtheta = span / n_theta
    return (_frozen((np.arange(n_theta) + 0.5) * dtheta),
            _frozen(np.full(n_theta, dtheta)))


def _exponents(pair):
    if pair is None:
        return None
    e0, e1 = (float(e) for e in pair)
    if not (0.0 <= e0 < 1.0 and 0.0 <= e1 < 1.0):
        raise ValueError(f"folded exponents must lie in [0, 1), got {pair!r}")
    return (e0, e1)


@functools.lru_cache(maxsize=32)
def disk_grid(n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, radial=(0.0, 0.0), angular=None):
    """Polar grid on the open unit disk; ``radial`` and ``angular`` are the
    exponents that place the nodes (``angular=None``: periodic midpoints).

    With exponents ``(0, 0)``, radial Gauss-Legendre exactness (with the
    Jacobian ``s``) makes the grid integrate ``|z|^(2m)`` exactly for
    ``m <= n_r - 1``, and the node weights sum to the disk area pi up to
    roundoff.
    """
    radial, angular = _exponents(radial), _exponents(angular)
    s, ws = _radial_rule(n_r, 1.0, radial)
    theta, wtheta = _angular_rule(n_theta, Domain.DISK.angle_span, angular)
    return QuadratureGrid(Domain.DISK, n_r, n_theta, 1.0, s, theta, ws, wtheta,
                          radial, angular)


@functools.lru_cache(maxsize=32)
def halfplane_grid(R, n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, radial=(0.0, 0.0),
                   angular=(0.0, 0.0)):
    """Polar grid on the half-disk ``{|z| <= R, Im z > 0}`` (truncated upper
    half-plane); ``radial`` and ``angular`` are the exponents that place the
    nodes.  With exponents ``(0, 0)``, node weights sum to the half-disk area
    ``pi R^2 / 2``."""
    if not R > 0:
        raise ValueError("truncation radius R must be positive")
    radial, angular = _exponents(radial), _exponents(angular)
    if angular is None:
        raise ValueError("half-plane grids have no periodic angular rule")
    s, ws = _radial_rule(n_r, float(R), radial)
    theta, wtheta = _angular_rule(n_theta, Domain.HALFPLANE.angle_span, angular)
    return QuadratureGrid(Domain.HALFPLANE, n_r, n_theta, float(R), s, theta, ws,
                          wtheta, radial, angular)


def grid_family(domain, n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, R=None, **rules):
    """Return ``level -> grid`` with both resolutions doubled per level;
    ``rules`` (``radial``, ``angular``) go to :func:`disk_grid` or
    :func:`halfplane_grid`."""
    if domain is Domain.DISK:
        return lambda level: disk_grid(n_r << level, n_theta << level, **rules)
    if R is None:
        raise ValueError("half-plane grids need a truncation radius R")

    return lambda level: halfplane_grid(R, n_r << level, n_theta << level, **rules)


def default_radius(beta):
    """Truncation radius for the Gaussian measure ``exp(-beta |z|^2)``: the tail
    beyond ``R`` is below ``exp(-40) ~ 4e-18`` of the total."""
    if not beta > 0:
        raise ValueError("default_radius needs beta > 0; pass an explicit R instead")
    R = math.sqrt(40.0 / beta)
    if not math.isfinite(R):
        raise ValueError(f"beta is {beta!r}, too small for a finite truncation radius")
    return max(8.0, R)


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
    """The sum of the integrand times the node weights over ``grid``, one
    block of radii at a time.

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
        # inf times an underflowed weight is nan, which is refused below
        with np.errstate(over="ignore", invalid="ignore"):
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


def integrate(g, grid):
    """:func:`blocked_sum` of ``g`` over ``grid``: ``g`` gets one
    ``(rows, n_theta)`` block of nodes per call and returns one real value per
    node, in any shape of that size.  A complex result raises ``TypeError``; a
    non-finite value raises ``ValueError`` naming the offending node."""

    def block_values(rows):
        nodes = grid.block_nodes(rows)
        vals = np.asarray(g(nodes))
        if np.iscomplexobj(vals):
            raise TypeError("integrand must be real-valued on the nodes")
        return vals.reshape(nodes.shape)

    return blocked_sum(block_values, grid)


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
