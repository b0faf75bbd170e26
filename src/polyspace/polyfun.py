"""Polyanalytic polynomials and their exact Wirtinger calculus.

``f(z) = sum_(k < q, j <= D) C[k, j] conj(z)^k z^j`` is stored as its one
read-only, finite ``(q, D + 1)`` complex array ``PolyFunction.coeffs = C``,
and every operation maps that array as a whole: ``d_z`` shifts the columns
and scales column ``j`` by ``j``, ``d_zbar`` shifts the rows and scales row
``k`` by ``k``, the dilatation ``f_r`` multiplies entry ``(k, j)`` by
``r^(k+j)``, truncation drops columns, and sums pad both arrays to one
shape.  So the only floating-point error anywhere is the rounding of
individual scalar products.  Transcendental test functions enter as Taylor
truncations (see :func:`exp_taylor`).  :class:`PolyFunction` is the one
polynomial type the library builds or accepts.

Values come two ways.  On a polar tensor grid of radii ``s_i`` and angles
``theta_l``, ``conj(z)^k z^j = s^(k+j) exp(i (j-k) theta)``, so
:func:`block_evaluators` forms ``f`` on a block of radii as one real matrix
product ``powers[rows] @ B``: the radius powers ``powers[i, n] = s_i^n``
times the float view of the complex angular matrix
``B[n, l] = sum_k C[k, n-k] exp(i (n-2k) theta_l)``,
``n = 0 .. degree_z + q - 1``, which is summed from one harmonic table for
all the functions passed.
:func:`gram_sum` forms the grid's sum of ``|f|^2`` from the moments of its
two rules instead (:func:`gram_moments`), without a value on any node, as a
quadratic form through the Gram matrix ``W[Q, P] = R[P + Q] mu[P - Q]``,
which the moments keep up to width 64 and which is built chunk by chunk
beyond it, both by :func:`_gram_block`; with the exact product :func:`mul`,
``|f|^(2k) = |f^k|^2`` brings every even power to it.  A function keeps its
coefficients shifted as the form pairs them, once it has been summed.
A factor ``sigma[n]`` per radial degree names the function whose ``s^n``
terms are ``sigma[n]`` times ``f``'s, such as a dilatation: its
coefficients are ``C[k, j] sigma[k + j]`` (:func:`scale_by_degree`, which
:func:`dilate` is at ``sigma[n] = r^n``), and :func:`block_evaluators`
forms its values on ``f``'s angular matrix.  Both paths form the powers of
``u = exp(i theta)`` by one recurrence
(:func:`~polyspace.quadrature.power_rows`), negative harmonics as exact
conjugates.  The node path reads its harmonic table and radius powers from
the tables that the grid's rules keep
(:meth:`~polyspace.quadrature.QuadratureGrid.harmonics`,
:meth:`~polyspace.quadrature.QuadratureGrid.radius_powers`); the moments
form theirs one block at a time.  The moments are kept by
:mod:`polyspace.norms`, keyed by space, grid size and width (at most 256),
with the Gram matrix up to width 64 and the measure-weighted grid they come
from (keyed by space and grid size, at most 128).  Point values use one
Horner scheme, :func:`evaluate`, in ``z`` along every row at once and then
in ``conj(z)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import BLOCK_VALUES, block_rows, power_rows, scratch

__all__ = [
    "PolyFunction",
    "evaluate",
    "block_evaluators",
    "d_z",
    "d_zbar",
    "dilate",
    "truncate",
    "from_monomials",
    "sub",
    "add",
    "mul",
    "scale",
    "zero",
    "monomial",
    "exp_taylor",
]


def _frozen(c):
    """``c``, made read-only, once every entry is known to be finite."""
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    c.flags.writeable = False
    return c


def _stripped(c):
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1] if nz.size else c[:1] * 0


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """A finite power series ``sum_j coeffs[j] z^j``, kept only for callers
    outside the package; the library itself uses :class:`PolyFunction`.

    Trailing zero coefficients are legal and preserved; two series compare
    equal exactly when their stripped coefficient vectors are identical.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", PolyFunction([coeffs]).coeffs[0])

    def __call__(self, z):
        """Value at ``z`` (scalar or array): :func:`evaluate` of its
        coefficients as a ``(1, size)`` array."""
        return evaluate(PolyFunction(self.coeffs[None]), z)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return np.array_equal(_stripped(self.coeffs), _stripped(other.coeffs))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class PolyFunction:
    """Polyanalytic function of order ``q``: ``coeffs[k, j]`` is the
    coefficient of ``conj(z)^k z^j`` in one read-only ``(q, degree_z + 1)``
    array, built from a 2-D array or from ``q`` rows (sequences or 1-D arrays
    of numbers, the shorter ones padded with zeros).  Trailing zero rows are
    kept: they record the declared order.
    """

    coeffs: np.ndarray

    def __init__(self, rows):
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.size:
            c = rows.astype(complex)
        else:
            rows = [np.atleast_1d(np.asarray(h, dtype=complex)) for h in rows]
            if any(h.ndim != 1 for h in rows):
                raise ValueError("each row of coefficients must be one-dimensional")
            c = np.zeros((len(rows), max([1] + [h.size for h in rows])), dtype=complex)
            for k, h in enumerate(rows):
                c[k, : h.size] = h
        if not c.shape[0]:
            raise ValueError("a polyanalytic function needs at least one component")
        object.__setattr__(self, "coeffs", _frozen(c))

    @property
    def components(self):
        """Row ``k`` of :attr:`coeffs`, the analytic coefficient of
        ``conj(z)^k``, as a function of order 1, for each ``k``."""
        return tuple(PolyFunction(h[None]) for h in self.coeffs)

    @property
    def q(self):
        return self.coeffs.shape[0]

    @property
    def degree_z(self):
        """Largest power of ``z`` stored."""
        return self.coeffs.shape[1] - 1

    def __call__(self, z):
        return evaluate(self, z)

    @functools.cached_property
    def _gram_columns(self):
        """``(s1, s2, |s1|, |s2|)``: :attr:`coeffs` shifted by each order as
        :func:`gram_sum` pairs them, built on first use and kept with the
        function, whose Gram sum is formed at every level."""
        c, (q, m), n = self.coeffs, self.coeffs.shape, self.degree_z + self.q
        # column x q + y: conj(z)^x from row y on (s1), conj(z)^y from row x on (s2)
        s1, s2 = np.zeros((2, n, q, q), dtype=complex)
        for i in range(q):
            s1[i: i + m, :, i] = s2[i: i + m, i, :] = c.T
        s1, s2 = s1.reshape(n, q * q), s2.reshape(n, q * q)
        # an overflow leaves inf, which fails gram_sum's bound
        with np.errstate(over="ignore"):
            columns = s1, s2, np.abs(s1), np.abs(s2)
        for arr in columns:
            arr.flags.writeable = False
        return columns

    def __eq__(self, other):
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return np.array_equal(*_aligned(self, other))

    __hash__ = None

    def __repr__(self):
        return f"PolyFunction(q={self.q}, degree_z={self.degree_z})"


def evaluate(f, z):
    """Value of ``f`` at ``z`` (scalar or array), by Horner in ``conj(z)``.

    >>> f = from_monomials({(1, 1): 1.0}, q=2)   # conj(z) * z = |z|^2
    >>> f(0.5 + 0.5j)
    (0.5+0j)
    """
    z = np.asarray(z, dtype=complex)
    zbar, column = np.conj(z), z[..., None]
    rows = np.zeros(z.shape + (f.q,), dtype=complex)
    for c in f.coeffs.T[::-1]:   # Horner in z on every row at once
        rows = rows * column + c
    out = np.zeros_like(z)
    for k in range(f.q - 1, -1, -1):
        out = out * zbar + rows[..., k]
    return out if out.ndim else complex(out)


def _angular_matrix(f, table, lo, buf):
    """``B[n] = sum_k C[k, n-k] table[n - 2k - lo]``, ``n = 0 .. degree_z +
    q - 1``: the angular factor of ``s^n`` in ``f``.  Row ``k = 0`` is written
    into ``B``; the terms of each later row are formed in ``buf``, one block
    of rows of ``table`` at a time, and added."""
    c, (q, width) = f.coeffs, f.coeffs.shape
    out = np.empty((width + q - 1, table.shape[1]), dtype=complex)
    out[width:] = 0.0
    # an overflow leaves inf or nan, which blocked_sum refuses by node
    with np.errstate(over="ignore", invalid="ignore"):
        # conj(z)^k z^j lands in harmonic j - k with radial power k + j
        np.multiply(c[0, :, None], table[-lo: width - lo], out=out[:width])
        for k, j in itertools.product(range(1, q), range(0, width, buf.shape[0])):
            term = buf[: min(buf.shape[0], width - j)]
            np.multiply(c[k, j: j + len(term), None], table[j - k - lo: j - k - lo + len(term)],
                        out=term)
            out[k + j: k + j + len(term)] += term
    return out


def block_evaluators(fs, grid):
    """One ``(rows, out=None, sigma=None) -> values`` per function ``f`` of
    ``fs``: ``f`` at ``grid.radii[rows]`` x ``grid.angles`` as a ``(len,
    n_theta)`` array ``powers[rows] @ B``, written into ``out`` if given
    (``rows=slice(None)``, raveled, is node order).  With ``sigma``, a factor
    per radial degree ``n`` that covers ``f``'s, it is ``(powers[rows] *
    sigma) @ B`` instead: the function whose ``s^n`` terms are ``sigma[n]``
    times ``f``'s, such as a dilatation ``f_r`` (``sigma[n] = r^n``), on the
    same ``B``.

    ``grid`` is a polar tensor grid with 1-D ``radii`` and ``angles`` (a
    :class:`polyspace.quadrature.QuadratureGrid`).  On the ring of radius
    ``s``, ``f = sum_n s^n B_n(theta)``: ``powers[i, n] = radii[i]^n`` is real
    and ``B`` (:func:`_angular_matrix`) has one complex row per power
    ``n = 0 .. degree_z + q - 1``, summed from one harmonic table for all of
    ``fs``, so a block is one real product of ``powers`` with the float view
    of ``B``, half the arithmetic of a complex one.  The harmonic table and
    ``powers`` are read from the grid's rules
    (:meth:`~polyspace.quadrature.QuadratureGrid.harmonics`,
    :meth:`~polyspace.quadrature.QuadratureGrid.radius_powers`); each ``B``
    is built once per call, through the ``"part"`` block buffer of
    :func:`~polyspace.quadrature.scratch`.  A value does not depend on the
    other functions or on the block its row is in.
    """
    lo = min(1 - f.q for f in fs)
    table = grid.harmonics(lo, max(f.degree_z for f in fs))
    buf = scratch("part", (block_rows(grid.n_theta), grid.n_theta), complex)
    angular = [_angular_matrix(f, table, lo, buf) for f in fs]
    powers = grid.radius_powers(max(b.shape[0] for b in angular))

    def evaluator(b):
        width, real = b.shape[0], b.view(float)

        def evaluate(rows, out=None, sigma=None):
            radial = powers[rows, :width]
            if sigma is not None:
                radial = radial * sigma[:width]
            if out is None:
                out = np.empty((radial.shape[0], grid.n_theta), dtype=complex)
            np.matmul(radial, real, out=out.view(float))
            return out

        return evaluate

    return [evaluator(b) for b in angular]


def _angular_moments(angles, weights, lags):
    """``mu[k + lags] = sum_l weights_l exp(i k angles_l)``, ``k = -lags ..
    lags``: the rows ``k >= 0`` of the harmonic table (:func:`power_rows`),
    at most :data:`~polyspace.quadrature.BLOCK_VALUES` values at a time, each
    block carrying on from the last, summed pairwise; ``mu[0]`` exactly
    rounded (``math.fsum``) and ``mu[-k] = conj(mu[k])``."""
    mu = np.empty(2 * lags + 1, dtype=complex)
    u = np.exp(1j * angles)
    block = np.empty((max(1, BLOCK_VALUES // u.size), u.size), dtype=complex)
    row = np.ones(u.size, dtype=complex)
    for start in range(lags, 2 * lags + 1, len(block)):
        rows = block[: 2 * lags + 1 - start]
        power_rows(row, u, rows)
        mu[start: start + len(rows)] = (rows * weights).sum(axis=1)
        np.multiply(rows[-1], u, out=row)
    try:
        mu[lags] = math.fsum(weights)
    except OverflowError:   # finite weights whose sum overflows
        mu[lags] = math.nan
    mu[:lags] = np.conj(mu[:lags:-1])
    return mu


class Moments(NamedTuple):
    """The moments of a grid's two rules for a width (:func:`gram_moments`):
    ``radial`` ``R``, ``mu``, and, while ``width`` is at most 64, the Gram
    matrix ``gram`` ``W`` with its entrywise modulus ``size`` ``|W|``
    (:func:`_gram_block`); ``None`` at a wider width."""

    radial: np.ndarray
    mu: np.ndarray
    gram: np.ndarray | None
    size: np.ndarray | None


def _gram_block(radial, mu, rows, n):
    """Rows ``rows`` (a slice) and columns ``0 .. n - 1`` of the Gram matrix
    ``W[Q, P] = R[P + Q] mu[P - Q]``."""
    index = np.arange(n)
    rows = index[rows, None]
    return radial[rows + index] * mu[mu.size // 2 + index - rows]


def gram_moments(grid, width):
    """:class:`Moments` of ``grid``'s two rules that :func:`gram_sum` pairs
    the coefficients of functions with ``degree_z + q <= width`` through, as
    read-only arrays.  ``R[n] = radial_weights @ s^n``, ``n < 2 width - 1``,
    is summed in chunks of radii of at most
    :data:`~polyspace.quadrature.BLOCK_VALUES` powers, so its bits depend on
    ``width``; ``mu`` is :func:`_angular_moments` with ``width - 1`` lags.
    Neither builds more than a block of powers, so a wide band takes no
    table of the grid's size.  The Gram matrix ``W`` of the width, and
    ``|W|``, are kept while ``W`` has at most ``BLOCK_VALUES // 4`` entries
    (``width <= 64``, 96 KiB); :func:`gram_sum` builds a wider one chunk by
    chunk.  An overflow leaves inf or nan, which fails :func:`gram_sum`'s
    bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = max(1, BLOCK_VALUES // (2 * width))
        radial = sum(grid.radial_weights[i: i + step]
                     @ grid.radii[i: i + step, None] ** np.arange(2 * width - 1)
                     for i in range(0, grid.n_r, step))
        mu = _angular_moments(grid.angles, grid.angle_weights, width - 1)
        gram = size = None
        if width * width <= BLOCK_VALUES // 4:
            gram = _gram_block(radial, mu, slice(None), width)
            size = np.abs(gram)
    for arr in (radial, mu, gram, size):
        if arr is not None:
            arr.flags.writeable = False
    return Moments(radial, mu, gram, size)


def gram_sum(fs, moments):
    """``sum_f`` of the quadrature sum of ``|f|^2`` from ``moments``, the
    :func:`gram_moments` of a grid for a width of at least every
    ``f.degree_z + f.q``, or ``None`` when it could have lost digits.

    It is ``Re sum_(a, b) c_a conj(c_b) R[n_a + n_b] mu[m_a - m_b]`` over the
    monomials ``conj(z)^k z^j = s^n exp(i m theta)`` of each ``f``
    (``n = k + j``, ``m = j - k``).  The pair ``a = (x, j)``, ``b = (y, j')``
    meets ``W[Q, P] = R[P + Q] mu[P - Q]`` at ``P = y + j``, ``Q = x + j'``,
    so ``W``, read from the kept matrix as ``W[:n, :n]`` or else built in
    chunks of rows of at most :data:`~polyspace.quadrature.BLOCK_VALUES`
    entries (:func:`_gram_block`), multiplies the coefficients of each order
    shifted by each other order.  The sum is refused when ``sum_(a, b) |c_a|
    |c_b| |R mu|``, which bounds its terms and is summed through ``|W|``, is
    not below ``10^3`` times it: when the terms cancel, or the sum is not
    positive or not finite.
    """
    total = bound = 0.0
    # an overflow leaves inf or nan, which fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        for f in fs:
            n = f.degree_z + f.q
            s1, s2, abs1, abs2 = f._gram_columns
            # a kept W has at most 64 rows, so its n rows are one chunk
            kept, step = moments.gram is not None, max(1, BLOCK_VALUES // n)
            for start in range(0, n, step):
                rows = slice(start, min(start + step, n))
                gram = (moments.gram[rows, :n] if kept
                        else _gram_block(moments.radial, moments.mu, rows, n))
                total += np.vdot(s2[rows], gram @ s1).real
                size = moments.size[rows, :n] if kept else np.abs(gram)
                bound += np.vdot(abs2[rows], size @ abs1)
                del size   # a built |W| is not kept into the next chunk
    return float(total) if bound < 1e3 * total else None


def d_z(f):
    """Wirtinger derivative in ``z``: column ``j`` moves to ``j - 1``, times ``j``."""
    # an overflow leaves inf, which PolyFunction refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        return PolyFunction(f.coeffs[:, 1:] * np.arange(1, f.degree_z + 1))


def d_zbar(f):
    """Wirtinger derivative in ``conj(z)``: row ``k`` moves to ``k - 1``, times
    ``k``; ``q`` applications annihilate ``f`` exactly."""
    if f.q == 1:
        return zero(1)
    # an overflow leaves inf, which PolyFunction refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        return PolyFunction(f.coeffs[1:] * np.arange(1, f.q)[:, None])


def scale_by_degree(f, sigma):
    """``f`` with each ``conj(z)^k z^j`` times ``sigma[k + j]``, one factor per
    radial degree, of which ``sigma`` has at least ``degree_z + q``: a member
    of a dilatation family, such as ``f_r`` (``sigma[n] = r^n``,
    :func:`dilate`) or ``f_r - f`` (``r^n - 1``).  Coefficients that overflow
    raise ``ValueError``."""
    degrees = np.add.outer(np.arange(f.q), np.arange(f.degree_z + 1))
    # an overflow leaves inf, which PolyFunction refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        return PolyFunction(f.coeffs * sigma[degrees])


def dilate(f, r):
    """The dilatation ``f_r(z) = f(r z)``: each ``conj(z)^k z^j`` picks up ``r^(k+j)``."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"dilatation factor must lie in (0, 1], got {r}")
    return scale_by_degree(f, float(r) ** np.arange(f.degree_z + f.q))


def truncate(f, m):
    """Drop every power ``z^j`` with ``j > m``."""
    if m < 0:
        raise ValueError("truncation degree must be nonnegative")
    return PolyFunction(f.coeffs[:, : m + 1])


def from_monomials(entries, q):
    """Build a PolyFunction from ``{(k, j): coefficient}`` with declared order ``q``.

    Raises ``ValueError`` on ``q < 1``, a negative index, or an index with
    ``k >= q`` (the declared order must bound every antiholomorphic power).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q!r}")
    for (k, j) in entries:
        if k < 0 or j < 0:
            raise ValueError(f"monomial indices must be nonnegative, got {(k, j)}")
        if k >= q:
            raise ValueError(f"monomial conj(z)^{k} z^{j} exceeds declared order q={q}")
    coeffs = np.zeros((q, 1 + max((j for _, j in entries), default=0)), dtype=complex)
    for (k, j), c in entries.items():
        coeffs[k, j] = c
    return PolyFunction(coeffs)


def zero(q=1):
    return PolyFunction(np.zeros((q, 1)))


def monomial(k, j, coefficient=1.0):
    """The single term ``coefficient * conj(z)^k z^j`` with minimal order ``q = k + 1``."""
    return from_monomials({(k, j): coefficient}, q=k + 1)


def _aligned(f, g):
    """``f.coeffs`` and ``g.coeffs``, zero-padded to one shape."""
    out = np.zeros((2,) + tuple(np.maximum(f.coeffs.shape, g.coeffs.shape)), dtype=complex)
    out[0, : f.q, : f.degree_z + 1] = f.coeffs
    out[1, : g.q, : g.degree_z + 1] = g.coeffs
    return out


def sub(f, g):
    """Coefficient-wise difference; the result has order ``max(f.q, g.q)``."""
    return PolyFunction(np.subtract(*_aligned(f, g)))


def add(f, g):
    return PolyFunction(np.add(*_aligned(f, g)))


def mul(f, g):
    """The exact product ``f g``: ``conj(z)^k z^j`` times ``conj(z)^k' z^j'`` is
    ``conj(z)^(k+k') z^(j+j')``, so the order is ``f.q + g.q - 1``.  Each row
    is convolved up to its last nonzero coefficient, so the rounding does not
    depend on the zeros it is padded with.  A product whose coefficients
    overflow raises ``ValueError``."""
    out = np.zeros((f.q + g.q - 1, f.degree_z + g.degree_z + 1), dtype=complex)
    # an overflow leaves inf or nan, which PolyFunction refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for (k, h), (k2, h2) in itertools.product(enumerate(map(_stripped, f.coeffs)),
                                                  enumerate(map(_stripped, g.coeffs))):
            out[k + k2, : h.size + h2.size - 1] += np.convolve(h, h2)
    return PolyFunction(out)


def scale(f, c):
    return PolyFunction(f.coeffs * complex(c))


def exp_taylor(degree=30):
    """Taylor truncation of ``exp(z)``, a function of order 1 — the standard
    stand-in for transcendental test functions."""
    return PolyFunction([[1.0 / math.factorial(j) for j in range(degree + 1)]])
