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

Every integral goes through one integrator, :func:`_integrate`, and comes
back as one :class:`~polyspace.quadrature.RefineResult`.  The integrator
takes a family: ``f``'s parts and one ``sigma`` per member, a factor
``sigma[n]`` per radial degree ``n`` that turns ``f``'s parts into the
member's — ``r^(n+1)`` for ``d f_r``, ``r^(n+1) - 1`` for ``d (f_r - f)``
and ``r^n - 1`` for a Bergman ``f_r - f`` — or ``None`` for ``f``'s parts
themselves.  A member is its ``sigma`` alone: where it needs coefficients,
for its zero pattern, its Gram sum or its point term, they are ``f``'s
scaled by it (:func:`polyfun.scale_by_degree`, which :func:`polyfun.dilate`
is too).  :func:`space_norm` and :func:`weighted_p_integral` are families
of one; :func:`dilatation_norms` (``f`` and ``f_r - f`` along an r-grid)
and ``weighted_p_integral``'s ``sigmas`` (a part of ``f`` and of each
``f_r``) serve the dilatation experiments.  Members share their rules,
levels and, on the nodes, each part's angular matrix per level and the
planar factor per block; each member keeps its own stopping level and
flags (:func:`quadrature.refine_family`).

The measure is polar-separable: the weight's radial and angular factors times
the kind/domain factors — Besov ``(1-s^2)^(p-2)`` on the disk; ``s^a sin^a theta``
for ``Im(z)^a`` and ``exp(-beta s^2)`` on the half-plane — as one vector on the
grid's radii and one on its angles, which multiply the grid's 1-D weights
(:func:`_measure_density`).  Only :class:`~polyspace.weights.ExpRePow` adds a
factor that does not separate; it is evaluated on each block's nodes.  The
grid with its measure-weighted 1-D weights is a space's rule on a grid of
one size (:func:`_level_rule`); it is built once and kept for every later
integral in that space, and so are the rule's moments for a width, with
their Gram matrix up to width 64 (:func:`_level_moments`).

The measure's endpoint powers — the weight's declared exponents plus Besov
``(1-s)^(p-2)``, ``s^a`` and ``sin^a theta ~ [theta (pi - theta)]^a`` — pick
the grids (:meth:`SpaceSpec.grid_family`): the fractional part of each
places the nodes of a Gauss-Jacobi rule.  A spec whose exponents are all
integers integrates on Gauss-Legendre radii (and, on the disk, periodic
midpoint angles when the angular factor is smooth and periodic).

A part whose coefficients are all zero is dropped before any evaluation.
When every part is, and the weight has no planar factor, a level whose 1-D
measure weights are all finite is worth exactly ``0.0`` without a node; at
any other level one zero part stays on the nodes, where a measure weight or
planar factor that is not finite is refused by its node.

An integral's angular band is the largest over its parts: ``k (degree_z +
q - 1)`` for ``|part|^p = |part^k|^2`` at an even ``p = 2k``, on the moments
and the nodes alike, and ``degree_z + q - 1``, the band of ``|part|^2``, for
other ``p`` and for an even ``p`` whose ``k`` no level allowed reaches.  The
band picks the level at which the integral starts on the ladder of grids of
its :class:`~polyspace.quadrature.QuadSettings`, which states the rule.

At an even ``p = 2k`` on a separable measure whose finest allowed level
resolves the band of each ``part^k`` (the exact product
:func:`polyfun.mul`, formed once per integral from the member's
coefficients), the integral of ``sum_part |part^k|^2`` is a quadratic form
in the coefficients of ``part^k`` and the moments of the measure-weighted
radial and angular rules (:func:`polyfun.gram_sum`): the same quadrature
value, without a value on any node.  Otherwise, and at a level whose
moment sum is not finite or could have lost digits to cancellation, the
integrand is formed on the nodes one block of radii at a time, in reused block buffers: each part as one
real product ``powers[rows] @ B`` of the radius powers and the float view of
its complex angular matrix (:func:`polyfun.block_evaluators`, which reads
the powers from the tables the grid's rules keep and builds each matrix once
per level for the whole family), a member's powers scaled by its ``sigma``,
so that its node sum moves from that of its coefficients by rounding
only, then ``|.|^p`` (:func:`_power`):
for ``p = n + k/4 <= 4`` from products and one or two square roots, which
cost a fraction of ``pow``, for any other ``p`` by ``**``.
:func:`quadrature.blocked_sums` sums the blocks through the grid's 1-D
rules, every member of the family in one pass, and its refusals name a
node.  No array the size of the grid is ever built.
The point term at the disk's base point 0 is ``|C[0, 0]|``, the value
Horner's scheme gives there; at the half-plane's ``i`` it is Horner's value.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import polyfun, quadrature
from .domain import Domain, check_positive
from .weights import Weight

__all__ = [
    "SpaceKind",
    "SpaceSpec",
    "NormResult",
    "space_norm",
    "bergman_norm",
    "dirichlet_norm",
    "besov_norm",
    "norm_of_difference",
    "weighted_p_integral",
]


class SpaceKind(enum.Enum):
    BERGMAN = "bergman"
    DIRICHLET = "dirichlet"
    BESOV = "besov"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SpaceSpec:
    """A concrete function space: domain, norm kind, exponent, weight, and (on
    the half-plane) the measure parameters ``alpha``, ``beta``.

    ``beta = 0`` removes the Gaussian confinement, which is only allowed with
    an explicit truncation radius ``quad_R``; such evaluations are marked
    truncated in every report.  ``alpha``, ``beta`` and ``quad_R`` belong to
    the half-plane only.  Invalid fields raise ``ValueError`` with a message
    that starts with the field's name.

    Norms keep the measure rules of a space keyed by its spec, so the weight
    must be hashable, and it must not change once a spec holds it.
    """

    domain: Domain
    kind: SpaceKind
    p: float
    weight: Weight
    alpha: float | None = None
    beta: float | None = None
    quad_R: float | None = None

    def __post_init__(self):
        try:
            hash(self.weight)
        except TypeError as err:
            raise ValueError(f"weight {self.weight!r} is not hashable ({err}); "
                             "declare it a frozen dataclass") from None
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
class NormResult:
    """Full norm together with its decomposition
    ``full_norm^p = point_term + seminorm^p``.

    For Bergman norms the point term is zero and ``full_norm == seminorm``.
    ``flags`` is the :class:`~polyspace.quadrature.RefineResult` of the
    integral behind the norm; its ``value`` is ``seminorm^p``.
    """

    full_norm: float
    seminorm: float
    point_term: float
    flags: quadrature.RefineResult


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
    # an overflowing factor leaves a non-finite weight, refused by blocked_sum
    with np.errstate(over="ignore", invalid="ignore"):
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


def _power(a, p, spare):
    """``a **= p`` in place, for ``a >= 0``.

    When ``4 p`` is an integer and ``p <= 4``, ``p = n + k/4`` and ``a^p`` is
    ``a^n`` by squaring (``a (a a)`` for ``n = 3``) times ``a^(k/4)`` from one
    or two square roots: at most six correctly rounded operations, so within
    a few ulp of ``a ** p``, with the same zeros, infinities and NaNs, and
    bit for bit ``a ** p`` at ``p = 1`` and ``p = 2``.  ``spare`` holds two
    scratch arrays of the shape of ``a``.  Any other ``p`` takes ``**``.
    """
    q = 4.0 * p
    if not (q.is_integer() and q <= 16):
        a **= p
        return
    n, k = divmod(int(q), 4)
    root, square = spare
    if k:
        if n == 0:
            root = a
        np.sqrt(a, out=root)
        if k == 1:
            np.sqrt(root, out=root)
        elif k == 3:
            root *= np.sqrt(root, out=square)
    if n == 3:
        a *= np.multiply(a, a, out=square)
    elif n > 1:
        a *= a
        if n == 4:
            a *= a
    if k and n:
        a *= root


def _block_integrands(parts, members, spec, grid):
    """``rows -> `` each member's ``sum_part |part|^p`` (times a planar weight
    factor) on ``grid.radii[rows]`` x ``grid.angles``, yielded in turn in one
    reused block buffer.  A member is ``(used, sigma)``: the indices of the
    ``parts`` it sums, each scaled by ``sigma`` per radial degree
    (:func:`polyfun.block_evaluators`; ``None``: the part itself)."""
    planar = spec.weight.planar_factor
    evaluators = polyfun.block_evaluators(parts, grid)
    forms = [([evaluators[i] for i in used], sigma) for used, sigma in members]

    def values(rows):
        shape = (rows.stop - rows.start, grid.n_theta)
        part_vals = quadrature.scratch("part", shape, complex)
        total = quadrature.scratch("integrand", shape)
        term = quadrature.scratch("term", shape)
        # once |part| is taken, the part's buffer holds two float arrays
        spare = part_vals.reshape(-1).view(float).reshape((2,) + shape)
        factor = None if planar is None else planar(grid.block_nodes(rows), spec.domain)
        for member, sigma in forms:
            # an overflow leaves inf or nan, which blocked_sums refuses by node
            for n, evaluate in enumerate(member):
                evaluate(rows, part_vals, sigma)
                out = term if n else total
                np.abs(part_vals, out=out)
                _power(out, spec.p, spare)
                if n:
                    total += term
            if factor is not None:
                total *= factor
            yield total

    return values


def _half_powers(parts, k, spec):
    """``part^k``, whose ``|.|^2`` is ``|part|^(2k)``, of each part when the
    measure of ``spec`` separates; ``None`` otherwise, and when a product
    overflows.

    Left-to-right binary powering takes at most ``2 log2 k`` products per
    part: ``f f`` at ``k = 2`` and ``(f f) f`` at ``k = 3``, as sequential
    products would."""
    if spec.weight.planar_factor is not None:
        return None

    def power(f):
        acc = f
        for bit in bin(k)[3:]:
            acc = polyfun.mul(acc, acc)
            if bit == "1":
                acc = polyfun.mul(acc, f)
        return acc

    try:
        return [power(f) for f in parts]
    except ValueError:   # coefficients that overflow
        return None


@functools.lru_cache(maxsize=128)
def _level_rule(spec, n_r, n_theta):
    """The measure rule of ``spec`` on its ``n_r x n_theta`` grid, with the
    measure folded into the 1-D weights (:func:`_measure_density`), read-only
    like every grid.  It is built once and kept for every later integral in
    the space, whichever settings reach the grid.  At most 128 are kept, at
    6 KiB each at 128 x 256 and 192 KiB at 4096 x 8192, the finest default
    level, so the cache holds at most 24 MiB.
    """
    return _measure_density(spec, spec.grid_family(n_r, n_theta)(0))


@functools.lru_cache(maxsize=256)
def _level_moments(spec, n_r, n_theta, width):
    """:func:`polyfun.gram_moments` of :func:`_level_rule` for ``width``, at
    most the grid's ``n_theta`` (:func:`_integrate`).  An entry holds ``2
    width - 1`` radial and angular moments, 48 bytes per unit of width: at
    most 12 KiB at 128 x 256 and 384 KiB at 4096 x 8192.  Up to width 64 it
    also holds the Gram matrix ``W`` and ``|W|``, 24 bytes per entry of
    ``W``: at most 96 KiB, so such entries take at most 24 MiB.  The 256
    kept reach 96 MiB only after 256 integrals of high degree; a suite's
    take under 2 MiB.
    """
    return polyfun.gram_moments(_level_rule(spec, n_r, n_theta), width)


class _Member(NamedTuple):
    """What one member of a family integrates: whether every part is
    identically zero, the indices of the parts it sums on the nodes with its
    ``sigma``, its band, the level it starts at, and the half powers of its
    parts for the moments."""

    zero: bool
    used: list
    sigma: np.ndarray | None
    band: int
    first: int
    halves: list | None


def _integrate(parts, spec, settings, sigmas=(None,)):
    """One :class:`~polyspace.quadrature.RefineResult` of ``integral
    sum_part |part|^p`` against the measure of ``spec`` per member of a
    family, flagged truncated when ``spec`` is, on its rules at the levels of
    ``settings`` from the
    :meth:`~polyspace.quadrature.QuadSettings.first_level` of the member's
    band up (:func:`quadrature.refine_family`).

    A member is its ``sigma``, a factor ``sigma[n]`` for each radial degree
    ``n`` of every part, which scales no coefficient beyond the float range:
    its parts are ``parts`` with each ``s^n`` term times ``sigma[n]``, as a
    dilatation's are, and ``None`` is ``parts`` themselves.  Its zero
    pattern, band and Gram sum read the coefficients
    :func:`polyfun.scale_by_degree` forms; on the nodes it is formed from
    the angular matrices of ``parts`` with the radius powers scaled by
    ``sigma``, built once per level for every member that needs them there.
    The error a member raises is raised once every member before it is
    done, so that it is the error the members would raise one at a time."""
    settings = settings or quadrature.QuadSettings()
    finest = settings.sizes(settings.last_level)[1]
    # the angular harmonics of |part|^2 lie within D + q - 1, and those of
    # |part|^p = |part^k|^2 at p = 2k within k times that, on the moments and
    # the nodes alike.  An even p whose k no level reaches (p = 1e300 is
    # even) keeps the band of |part|^2, as odd and fractional p do
    even = spec.p % 2 == 0 and spec.p < 2 * finest
    k = int(spec.p) // 2 if even else 1
    plans = []
    for sigma in sigmas:
        own = parts if sigma is None else [polyfun.scale_by_degree(f, sigma) for f in parts]
        # a part that is identically zero adds nothing
        used = [i for i, f in enumerate(own) if np.count_nonzero(f.coeffs)]
        band = k * max((own[i].degree_z + own[i].q - 1 for i in used), default=0)
        halves = _half_powers([own[i] for i in used], k, spec) if even else None
        zero = not used
        if zero:   # on the nodes, a zero integrand is the first part times 0
            used, sigma = [0], np.zeros(parts[0].degree_z + parts[0].q)
        plans.append(_Member(zero, used, sigma, band, settings.first_level(band), halves))
    # a zero integrand is 0.0 at a level whose 1-D weights are all finite
    separable = spec.weight.planar_factor is None
    errors = {}

    def values_at(level, running):
        rule = (spec, *settings.sizes(level))
        grid = _level_rule(*rule)
        values, nodes = {}, []
        for i in running:
            plan = plans[i]
            if errors and i > min(errors):   # its error comes after one raised
                values[i] = math.nan
            elif plan.zero and separable and np.isfinite(grid.radial_weights).all() and (
                    np.isfinite(grid.angle_weights).all()):
                values[i] = 0.0
            elif plan.halves and (value := polyfun.gram_sum(
                    plan.halves, _level_moments(*rule, plan.band + 1))) is not None:
                values[i] = value
            else:
                nodes.append(i)
        if nodes:
            # a measure weight or planar factor that is not finite is refused
            # by its node, under a zero integrand too
            forms = [(plans[i].used, plans[i].sigma) for i in nodes]
            integrands = _block_integrands(parts, forms, spec, grid)
            for i, value in zip(nodes, quadrature.blocked_sums(integrands, grid, len(nodes))):
                if isinstance(value, ValueError):
                    errors.setdefault(i, value)
                    value = math.nan
                values[i] = value
        return [values[i] for i in running]

    results = quadrature.refine_family(values_at, settings, [plan.first for plan in plans],
                                       spec.truncated)
    if errors:
        raise errors[min(errors)]
    return results


def _parts(f, spec):
    """The functions whose ``|.|^p`` a norm of ``f`` in ``spec`` integrates."""
    if spec.kind is SpaceKind.BERGMAN:
        return [f]
    return [polyfun.d_z(f), polyfun.d_zbar(f)]


def _point_term(f, spec):
    """``|f(z0)|^p`` at the base point of a Dirichlet or Besov ``spec``, else
    0."""
    if spec.kind is SpaceKind.BERGMAN:
        return 0.0
    # at 0 every term but C[0, 0] vanishes, so Horner's value is C[0, 0]
    base = f.coeffs[0, 0] if spec.domain is Domain.DISK else f(spec.base_point)
    with np.errstate(over="ignore"):
        point_term = float(np.float64(abs(base)) ** spec.p)
    if not math.isfinite(point_term):
        raise ValueError(f"point term |f(z0)|^p at the base point "
                         f"z0 = {spec.base_point} is {point_term}")
    return point_term


def _norm_result(point_term, flags, spec):
    integral = max(flags.value, 0.0)
    try:
        seminorm = integral ** (1.0 / spec.p)
        full = (point_term + integral) ** (1.0 / spec.p)
    except OverflowError:
        raise ValueError(f"p is {spec.p!r}, too small: the norm "
                         f"{point_term + integral}^(1/p) overflows") from None
    return NormResult(full, seminorm, point_term, flags)


def dilatation_norms(f, spec, r_grid=(), settings=None):
    """:class:`NormResult` of ``f``, then of ``f_r - f`` for each ``r`` of
    ``r_grid``: :func:`space_norm` of ``f`` and, to rounding,
    :func:`norm_of_difference` of ``polyfun.dilate(f, r)`` and ``f``, as one
    family (:func:`_integrate`).

    ``f_r - f`` is ``f`` with radial degree ``n`` scaled by ``r^n - 1``, and
    a member is that factor alone: its point term reads ``f`` scaled by it,
    and its integral ``f``'s parts scaled by ``r^n - 1`` (Bergman) or
    ``r^(n+1) - 1`` (the derivatives of Dirichlet and Besov)."""
    parts, point_terms, sigmas = _parts(f, spec), [_point_term(f, spec)], [None]
    shift = 0 if spec.kind is SpaceKind.BERGMAN else 1
    try:
        for r in r_grid:
            sigma = float(r) ** np.arange(f.degree_z + f.q + shift) - 1.0
            point_terms.append(_point_term(polyfun.scale_by_degree(f, sigma), spec))
            sigmas.append(sigma[shift:])
    except ValueError:
        # a refused member is raised once the members before it are done
        _integrate(parts, spec, settings, sigmas)
        raise
    flags = _integrate(parts, spec, settings, sigmas)
    return [_norm_result(point, res, spec) for point, res in zip(point_terms, flags)]


def space_norm(f, spec, settings=None):
    """Norm of ``f`` in the space ``spec``; dispatches on ``spec.kind``.  It
    is :func:`dilatation_norms` of ``f`` alone."""
    return dilatation_norms(f, spec, (), settings)[0]


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


def weighted_p_integral(g, spec, settings=None, sigmas=None):
    """:class:`~polyspace.quadrature.RefineResult` of ``integral |g|^p``
    against the full measure of ``spec`` (weight times boundary/confinement
    factors): the value with the flags of how it was obtained.

    With ``sigmas``, a sequence of factors per radial degree: a list of the
    result of each member, as one family (:func:`_integrate`).  The member
    ``sigma`` is ``g`` with its ``s^n`` terms times ``sigma[n]``
    (:func:`polyfun.scale_by_degree`), such as the part of a dilatation, and
    ``None`` is ``g``.  A ``sigma`` that is not a finite 1-D array of at
    least ``g.degree_z + g.q`` real numbers, or that scales a coefficient of
    ``g`` beyond the float range, raises ``ValueError`` starting with
    ``sigmas``, before any member is integrated.

    This is one half of a Dirichlet/Besov seminorm; the dilatation-limit
    experiments compare these part integrals side by side.
    """
    if sigmas is None:
        return _integrate([g], spec, settings)[0]
    return _integrate([g], spec, settings, [_checked_sigma(sigma, i, g)
                                            for i, sigma in enumerate(sigmas)])


def _checked_sigma(sigma, i, g):
    if sigma is None:
        return None
    arr = np.asarray(sigma)
    if not (arr.ndim == 1 and arr.dtype.kind in "iuf" and arr.size >= g.degree_z + g.q
            and np.isfinite(arr).all()):
        raise ValueError(f"sigmas[{i}] is not a finite 1-D array of at least degree_z + q = "
                         f"{g.degree_z + g.q} real numbers")
    try:
        polyfun.scale_by_degree(g, arr)
    except ValueError:
        raise ValueError(f"sigmas[{i}] scales a coefficient of g beyond the float range") from None
    return arr.astype(float)
