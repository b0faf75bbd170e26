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
below ``2n``.  The exponents lie in ``[0, 1)``.  Every Gauss rule is the
reference rule of :func:`gauss_jacobi` on ``(-1, 1)`` (Newton's method on
the three-term recurrence, O(n) memory) mapped to its interval.  The
reference rules are cached, so a radial and an angular rule of one size and
one set of exponents, on any interval, share one solve.  Both grid builders
assemble their rules in one place, :func:`_polar_grid`.

The half-plane is truncated to the half-disk ``{|z| <= R, Im z > 0}``.  ``R``
from :func:`default_radius` bounds the tail of the Gaussian measure
``exp(-beta |z|^2)`` alone, not of ``|g|^p`` times it, and refinement keeps
``R``: the half-plane Bergman norm of ``z^30`` at ``alpha = 0, beta = 1``
reports ``converged`` yet is off by -8.5e-7, -2.6e-3 and -9.8e-2 at
``p = 2, 3, 4``.
Tight tolerances on integrands that are not smooth go through
:func:`refine_until`.

A grid stores only its 1-D rules: ``radii`` with ``radial_weights`` (the
rule's weights times the Jacobian ``s``) and ``angles`` with
``angle_weights``.  The node ``(i, l)`` is ``radii[i] * exp(1j * angles[l])``
with weight ``radial_weights[i] * angle_weights[l]``; :meth:`block_nodes` and
:meth:`block_weights` build them for a block of radii.  A caller that knows
the polar structure of its integrand produces values without touching the
nodes: :func:`polyspace.polyfun.block_evaluators` forms a polynomial on a
block as ``powers[rows] @ B``, real powers of the block's radii times an
angular matrix on ``angles``.

Each 1-D rule is built once (:func:`_rule`) and held by every grid that
uses it, and it keeps the powers of its nodes, built on first use:
``u^m = exp(i m theta)`` of an angular rule (:meth:`QuadratureGrid.harmonics`,
row 1 is what :meth:`block_nodes` multiplies) and ``s^n`` of a radial one
(:meth:`QuadratureGrid.radius_powers`).  A table grows to the widest range
asked for and is handed out as read-only slices; a row of ``u^m`` and a
column of ``s^n`` have the same bits whatever the table's width.  A rule
serves only a grid whose nodes are its own, and keeps a table of at most
:data:`BLOCK_VALUES` values; a wider one is built per call.  A rule lives
while :func:`_rule`'s cache (256 rules) or a grid holds it.

Every integral of node values is blockwise.  :func:`blocked_sums` is the
one reduction: it asks for the integrands of a family one block of radii at
a time (at most :data:`BLOCK_VALUES` nodes), sums each through the two 1-D
rules, refuses a non-finite value by naming its node and an overflowing sum
as such, and adds each integrand's block sums exactly rounded;
:func:`blocked_sum` is its family of one.  :class:`QuadSettings` holds the
ladder of grid levels, and :func:`refine_family` runs ``level -> values``
up it for a family of integrals, fixed or refined, each member from its own
first level to its own stop, and returns one :class:`RefineResult` per
member, the value with its flags; :func:`refine_levels` is its family of
one.
:func:`integrate` and :func:`refine_until` are these pieces applied to a
callable of one block of nodes.  Block arrays live in per-thread buffers
from :func:`scratch`, reused from call to call, so no call allocates memory
in proportion to the grid.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import Domain, check_integer, check_positive

__all__ = [
    "QuadSettings",
    "QuadratureGrid",
    "RefineResult",
    "disk_grid",
    "halfplane_grid",
    "grid_family",
    "integrate",
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
# nodes per radial block: 256 KB of complex values
BLOCK_VALUES = 16384


@dataclass(frozen=True)
class QuadSettings:
    """Grid resolution and refinement policy for norm evaluation: the ladder
    of grids that an integral climbs from :meth:`first_level` to at most
    :attr:`last_level`.  Level 0 is the ``n_r x n_theta`` grid, the only one
    on a fixed grid (``refine=False``); each level above doubles both sizes
    and each below halves them (:meth:`sizes`).  Levels are absolute
    wherever they are reported.

    Out-of-range values raise ``ValueError`` with a message that starts with
    the field's name.
    """

    n_r: int = DEFAULT_N_R
    n_theta: int = DEFAULT_N_THETA
    rel_tol: float = DEFAULT_REL_TOL
    max_level: int = DEFAULT_MAX_LEVEL
    refine: bool = True

    def __post_init__(self):
        check_integer("n_r", self.n_r, 1)
        check_integer("n_theta", self.n_theta, 1)
        check_positive("rel_tol", self.rel_tol)
        check_integer("max_level", self.max_level, 0)

    def sizes(self, level):
        """``(n_r, n_theta)`` at ``level``: both doubled per level above 0 and
        halved per level below it.  A level that would halve a size to a
        fraction raises ``ValueError`` naming ``level``."""
        if level >= 0:
            return self.n_r << level, self.n_theta << level
        if (self.n_r | self.n_theta) % (1 << -level):
            raise ValueError(f"level {level} halves {self.n_r} x {self.n_theta} to a fraction")
        return self.n_r >> -level, self.n_theta >> -level

    @property
    def last_level(self):
        """The finest level allowed: ``max_level``, or 0 on a fixed grid."""
        return self.max_level if self.refine else 0

    def first_level(self, band):
        """The level at which an integral whose angular harmonics lie within
        ``band`` starts: the coarsest whose ``n_theta`` exceeds ``band``, as
        periodic midpoints on ``n`` angles sum harmonic ``m`` to ``n
        (-1)^(m / n)`` when ``n`` divides ``m``, so two coarser levels could
        agree on a wrong value.  It is 0 on a fixed grid, and never more than
        two levels below 0 nor below what both sizes halve to: a value that
        the default 128 x 256 grid resolves is confirmed on 32 x 64 and
        64 x 128 before 128 x 256 and 256 x 512 are built.  A band that the
        finest level allowed does not resolve raises ``ValueError`` starting
        with ``n_theta``."""
        # n_r | n_theta has the trailing zero bits that both sizes share
        both = self.n_r | self.n_theta
        lowest = -min(2, (both & -both).bit_length() - 1) if self.refine else 0
        first = lowest + (band // self.sizes(lowest)[1]).bit_length()
        if first > (last := self.last_level):
            raise ValueError(f"n_theta is {self.n_theta}, but the integrand's angular band "
                             f"{band} needs more than {band} angles, and the finest level "
                             f"allowed, {last}, has {self.sizes(last)[1]}")
        return first


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
    ``radial_rule`` and ``angular_rule`` are the :func:`_rule` records those
    arrays come from, ``None`` on a grid built by hand.
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
    radial_rule: _Rule | None = field(default=None, repr=False, compare=False)
    angular_rule: _Rule | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.radii, self.angles, self.radial_weights, self.angle_weights):
            arr.flags.writeable = False

    @property
    def size(self):
        return self.n_r * self.n_theta

    def block_nodes(self, rows):
        """Nodes at ``radii[rows]`` x ``angles``, shape ``(len, n_theta)``."""
        return self.radii[rows, None] * self.harmonics(0, 1)[1]

    def harmonics(self, lo, hi):
        """Rows ``exp(i m angles)``, ``m = lo .. hi`` with ``lo <= 0 <= hi``
        (:func:`_harmonic_table`), read-only, from the angular rule's table
        (:func:`_rule_table`)."""
        low, table = _rule_table(self.angular_rule, self.angles, lo, hi, _harmonic_table)
        return table[lo - low: hi - low + 1]

    def radius_powers(self, width):
        """``radii[:, None] ** arange(width)``, read-only, from the radial
        rule's table (:func:`_rule_table`)."""
        table = _rule_table(self.radial_rule, self.radii, 0, width - 1, _radius_powers)[1]
        return table[:, :width]

    def block_weights(self, rows):
        """Node weights at ``radii[rows]`` x ``angles``, shape ``(len, n_theta)``."""
        return self.radial_weights[rows, None] * self.angle_weights


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n, a=0.0, b=0.0):
    """Gauss-Jacobi rule of ``n`` points for the weight ``(1 - x)^a (1 + x)^b``
    on ``(-1, 1)``, ``a, b >= 0``: nodes in increasing order and their
    weights, as read-only arrays kept for every interval that maps them.

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
        x, w = np.concatenate([-x, x[:half][::-1]]), np.concatenate([w, w[:half][::-1]])
    else:
        x, w = x[::-1].copy(), w[::-1].copy()
    return _frozen(x), _frozen(w)


# Newton converges quadratically from the asymptotic guesses: a step below
# _NEWTON_TOL leaves an error far below roundoff for n up to ~1e5.
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-14


def _log_jacobi_mass(a, b):
    """``log of integral (1 - x)^a (1 + x)^b dx`` over ``(-1, 1)``."""
    return ((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0))


class _Rule(NamedTuple):
    """A 1-D rule: read-only ``nodes`` and ``weights``, and the power tables
    of its nodes that :func:`_rule_table` keeps, one per table builder."""

    nodes: np.ndarray
    weights: np.ndarray
    tables: dict


@functools.lru_cache(maxsize=256)
def _rule(n, end, exponents):
    """The 1-D rule of ``n`` nodes on ``(0, end)`` that integrates ``dx``,
    kept for every grid that uses it: uniform midpoints for
    ``exponents=None``, else Gauss-Jacobi for ``x^e0 (end - x)^e1``, its
    weights divided by that power, the reference rule mapped to the
    interval."""
    if exponents is None:
        return _Rule(_frozen((np.arange(n) + 0.5) * (end / n)), _frozen(np.full(n, end / n)), {})
    e0, e1 = exponents
    x, w = gauss_jacobi(n, e1, e0)
    nodes = (x + 1.0) / 2.0 * end
    weights = w * (end / 2.0) ** (1.0 + e0 + e1)
    weights /= nodes**e0 * (end - nodes) ** e1
    return _Rule(_frozen(nodes), _frozen(weights), {})


def power_rows(row, u, out):
    """Fill ``out[m] = row * u^m`` by repeated multiplication from ``out[0] =
    row``: the factors Horner's scheme multiplies on grid nodes ``s * u``."""
    out[0] = row
    for m in range(1, len(out)):
        np.multiply(out[m - 1], u, out=out[m])


def _harmonic_table(angles, lo, hi):
    """Rows ``exp(i m angles)`` for ``m = lo .. hi``, ``lo <= 0 <= hi``: row
    ``m >= 0`` is the ``m``-th power of the rounded unit ``u = exp(i
    angles)`` (:func:`power_rows`), the same bits whatever range the table
    spans, and row ``-m`` its exact conjugate."""
    table = np.empty((max(hi, -lo) - lo + 1, angles.size), dtype=complex)
    power_rows(1.0, np.exp(1j * angles), table[-lo:])
    np.conj(table[-2 * lo: -lo: -1], out=table[:-lo])
    return table[: hi - lo + 1]


def _radius_powers(radii, lo, hi):
    """Columns ``radii^n``, ``n = lo .. hi``, each the same bits whatever range
    the table spans."""
    return radii[:, None] ** np.arange(lo, hi + 1)


def _rule_table(rule, nodes, lo, hi, build):
    """``(low, table)``: ``build(nodes, low, high)``, read-only, for a range
    ``low .. high`` that covers ``lo .. hi``.

    While ``nodes`` are ``rule``'s own, the rule keeps the table, grown to
    the widest range asked for, if it holds at most :data:`BLOCK_VALUES`
    values.  A table is replaced when it grows, never written, so a slice
    handed out stays valid in every thread.  Other nodes (a grid built by
    hand, or one whose ``angles`` or ``radii`` were replaced) get a table of
    ``lo .. hi`` built for the call and not kept."""
    own = rule is not None and nodes is rule.nodes
    low, high, table = rule.tables.get(build, (0, -1, None)) if own else (0, -1, None)
    if lo < low or hi > high:
        low, high = min(lo, low), max(hi, high)
        table = _frozen(build(nodes, low, high))
        if own and table.size <= BLOCK_VALUES:
            rule.tables[build] = low, high, table
    return low, table


def _exponents(pair):
    if pair is None:
        return None
    e0, e1 = (float(e) for e in pair)
    if not (0.0 <= e0 < 1.0 and 0.0 <= e1 < 1.0):
        raise ValueError(f"folded exponents must lie in [0, 1), got {pair!r}")
    return (e0, e1)


def _polar_grid(domain, R, n_r, n_theta, radial, angular):
    """The grid of the radii on ``(0, R)`` that ``radial`` places, their
    weights times the area Jacobian ``s``, and the angles on ``(0,
    domain.angle_span)`` that ``angular`` places, uniform midpoints for
    ``angular=None``.  Sizes below 1, and a radius whose weights are not
    finite, are refused."""
    check_integer("n_r", n_r, 1)
    check_integer("n_theta", n_theta, 1)
    radial, angular = _exponents(radial), _exponents(angular)
    if angular is None and domain is Domain.HALFPLANE:
        raise ValueError("half-plane grids have no periodic angular rule")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            s = _rule(n_r, R, radial)
            weights = s.weights * s.nodes
    except OverflowError:   # the rule's float power of the radius
        weights = np.array([math.inf])
    if not np.isfinite(weights).all():
        raise ValueError(f"R is {R!r}, too large for finite grid weights")
    theta = _rule(n_theta, domain.angle_span, angular)
    return QuadratureGrid(domain, n_r, n_theta, R, s.nodes, theta.nodes, weights, theta.weights,
                          radial, angular, s, theta)


@functools.lru_cache(maxsize=32)
def disk_grid(n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, radial=(0.0, 0.0), angular=None):
    """Polar grid on the open unit disk; ``radial`` and ``angular`` are the
    exponents that place the nodes (``angular=None``: periodic midpoints).

    With exponents ``(0, 0)``, radial Gauss-Legendre exactness (with the
    Jacobian ``s``) makes the grid integrate ``|z|^(2m)`` exactly for
    ``m <= n_r - 1``, and the node weights sum to the disk area pi up to
    roundoff.
    """
    return _polar_grid(Domain.DISK, 1.0, n_r, n_theta, radial, angular)


@functools.lru_cache(maxsize=32)
def halfplane_grid(R, n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, radial=(0.0, 0.0),
                   angular=(0.0, 0.0)):
    """Polar grid on the half-disk ``{|z| <= R, Im z > 0}`` (truncated upper
    half-plane); ``radial`` and ``angular`` are the exponents that place the
    nodes.  With exponents ``(0, 0)``, node weights sum to the half-disk area
    ``pi R^2 / 2``."""
    if not R > 0:
        raise ValueError("truncation radius R must be positive")
    return _polar_grid(Domain.HALFPLANE, float(R), n_r, n_theta, radial, angular)


def grid_family(domain, n_r=DEFAULT_N_R, n_theta=DEFAULT_N_THETA, R=None, **rules):
    """Return ``level -> grid`` of ``(n_r << level) x (n_theta << level)``
    nodes, the levels from 0 up of :class:`QuadSettings`; a negative level
    raises ``ValueError`` naming ``level``.  ``rules`` (``radial``,
    ``angular``) go to :func:`disk_grid` or :func:`halfplane_grid`."""
    if domain is not Domain.DISK and R is None:
        raise ValueError("half-plane grids need a truncation radius R")

    def family(level):
        if level < 0:
            raise ValueError(f"level is {level}, but a grid family starts at level 0")
        if domain is Domain.DISK:
            return disk_grid(n_r << level, n_theta << level, **rules)
        return halfplane_grid(R, n_r << level, n_theta << level, **rules)

    return family


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
    """Radii per block: as many as fit in :data:`BLOCK_VALUES` nodes, and at
    least one."""
    return max(1, BLOCK_VALUES // n_theta)


def blocked_sums(block_values, grid, count):
    """The sum of each of ``count`` integrands times the node weights over
    ``grid``, in one pass over its blocks of radii.

    ``block_values(rows)`` yields the real values of each integrand in turn
    on ``grid.radii[rows]`` x ``grid.angles``, as ``(len, n_theta)`` arrays;
    ``rows`` are consecutive slices of :func:`block_rows` radii, and each
    array is summed before the next is asked for, so all may share one
    buffer.  Each block is summed through the grid's two 1-D rules,
    ``radial_weights[rows] @ (vals @ angle_weights)``, and an integrand's
    block sums are added exactly rounded (``math.fsum``).  An integrand is
    refused, and summed no further, at a non-finite value or else a
    non-finite node weight, by a ``ValueError`` naming the offending node,
    and a sum of finite terms that overflows by a ``ValueError`` starting
    with ``integral``.  Returns each sum, or the ``ValueError`` that refused
    it.
    """
    step = block_rows(grid.n_theta)
    sums = [[] for _ in range(count)]
    out = [None] * count
    # an overflow or inf times an underflowed weight is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, grid.n_r, step):
            rows = slice(start, min(start + step, grid.n_r))
            for i, vals in enumerate(block_values(rows)):
                if out[i] is not None:
                    continue
                total = float(grid.radial_weights[rows] @ (vals @ grid.angle_weights))
                # a non-finite value or weight makes the block sum non-finite
                if not math.isfinite(total):
                    out[i] = _refusal(vals, grid, rows, total)
                    continue
                sums[i].append(total)
    for i, terms in enumerate(sums):
        if out[i] is None:
            try:
                out[i] = math.fsum(terms)
            except OverflowError:
                out[i] = ValueError("integral overflows: its finite block sums add up "
                                    "beyond the float range")
    return out


def blocked_sum(block_values, grid):
    """:func:`blocked_sums` of one integrand, ``block_values(rows)`` returning
    its values on the block, raising the ``ValueError`` that refuses it."""
    (total,) = blocked_sums(lambda rows: (block_values(rows),), grid, 1)
    if isinstance(total, ValueError):
        raise total
    return total


def _refusal(vals, grid, rows, total):
    weights = grid.block_weights(rows)
    for what, arr in (("integrand", vals), ("measure weight", weights)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            i, l = divmod(int(bad[0]), grid.n_theta)
            i += rows.start
            return ValueError(
                f"{what} is {arr.flat[bad[0]]} at node "
                f"s_{i} e^(i theta_{l}) = {grid.radii[i]} * exp({grid.angles[l]}j)"
            )
    return ValueError(f"integral overflows: its block of radii s_{rows.start} to "
                      f"s_{rows.stop - 1} sums to {total} from finite values and weights")


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
    """An integral and how it was obtained: the last value, the final relative
    change between levels (``nan`` on a fixed grid), whether it met the
    tolerance, the level at which iteration stopped, whether the grid was
    refined, and whether the domain was truncated.  ``level`` is absolute on
    the ladder of :class:`QuadSettings`, and may be negative."""

    value: float
    rel_change: float
    converged: bool
    level: int
    refined: bool = True
    truncated: bool = False

    def describe(self):
        mode = "refined" if self.refined else "fixed-grid"
        out = f"{mode}(level={self.level},rel_change={self.rel_change:.3g})"
        if not self.converged:
            out += ":NOT-CONVERGED"
        if self.truncated:
            out += ":truncated"
        return out


def refine_family(values_at, settings=None, firsts=(0,), truncated=False):
    """One :class:`RefineResult` per member of a family of integrals, member
    ``i`` walking up from level ``firsts[i]`` as :func:`refine_levels` walks
    one integral, each flagged ``truncated`` as given.  The levels are
    visited in order, and ``values_at(level, running)`` returns the values
    at ``level`` of the members ``running`` (their indices, ascending): those
    that have not stopped and whose walk has reached ``level``.  So a level
    is computed once for all the members that need it, and each member keeps
    its own stopping level and flags."""
    settings = settings or QuadSettings()
    out, prev, change = [None] * len(firsts), [None] * len(firsts), [np.inf] * len(firsts)
    # a member whose first level lies above max_level still computes it
    for level in range(min(firsts, default=0), max([settings.max_level, *firsts]) + 1):
        if all(out):
            break
        running = [i for i, first in enumerate(firsts) if first <= level and out[i] is None]
        for i, cur in zip(running, values_at(level, running) if running else (), strict=True):
            if level == firsts[i] and not settings.refine:
                out[i] = RefineResult(cur, math.nan, True, level, False, truncated)
            elif level > firsts[i]:
                denom = max(abs(cur), abs(prev[i]))
                change[i] = 0.0 if denom == 0.0 else abs(cur - prev[i]) / denom
                if change[i] <= settings.rel_tol:
                    out[i] = RefineResult(cur, change[i], True, level, True, truncated)
            if out[i] is None and level >= settings.max_level:
                out[i] = RefineResult(cur, change[i], False, settings.max_level, True, truncated)
            prev[i] = cur
    return out


def refine_levels(value_at, settings=None, first=0):
    """Compute ``value_at(first), value_at(first + 1), ...`` until successive
    values agree to ``settings.rel_tol`` relative, or ``settings.max_level``
    is hit — then the result is flagged as not converged.  With
    ``settings.refine`` false only ``value_at(first)`` is computed.
    ``settings`` defaults to ``QuadSettings()``; ``first`` is usually its
    :meth:`~QuadSettings.first_level`.  It is :func:`refine_family` of one
    member."""
    return refine_family(lambda level, running: [value_at(level)], settings, (first,))[0]


def refine_until(g, family, rel_tol=DEFAULT_REL_TOL, max_level=DEFAULT_MAX_LEVEL):
    """Integrate ``g`` on ``family(0), family(1), ...`` (:func:`grid_family`)
    through :func:`refine_levels`.  An out-of-range ``rel_tol`` or
    ``max_level`` raises ``ValueError`` naming it."""
    settings = QuadSettings(rel_tol=rel_tol, max_level=max_level)
    return refine_levels(lambda level: integrate(g, family(level)), settings)


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
