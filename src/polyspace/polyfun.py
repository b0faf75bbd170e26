"""Polyanalytic polynomials and their exact Wirtinger calculus.

A function of polyanalytic order ``q`` is stored as

    f(z) = sum_{k=0}^{q-1} conj(z)^k h_k(z),

with each analytic component ``h_k`` a (truncated) power series in ``z``.
Everything here is coefficient arithmetic: derivatives, dilatations and
truncations act exactly on the coefficient arrays, so the only floating-point
error anywhere is the rounding of individual scalar products.  Transcendental
test functions enter as Taylor truncations (see :func:`exp_taylor`).

Values come two ways.  On a polar tensor grid of radii ``s_i`` and angles
``theta_l``, ``conj(z)^k z^j = s^(k+j) exp(i (j-k) theta)``, so
:func:`block_evaluators` forms ``f`` on a block of radii as one matrix
product ``A @ E``: the radial matrix ``A[i, m] = sum_k c_{k, m+k} s_i^(m+2k)``
of the block times the harmonic table ``E[m, l] = exp(i m theta_l)``,
``m = -(q-1) .. degree_z``, one table per call for all the functions passed.
Nothing is cached between calls.  Point values (the base-point term of a
norm) use Horner's scheme in :func:`evaluate` and :meth:`PowerSeries.__call__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerSeries",
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
    "scale",
    "zero",
    "monomial",
    "exp_taylor",
]


def _as_coeffs(seq):
    c = np.atleast_1d(np.asarray(seq, dtype=complex)).copy()
    if c.ndim != 1:
        raise ValueError("coefficients must form a one-dimensional sequence")
    if c.size == 0:
        c = np.zeros(1, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    c.flags.writeable = False
    return c


def _stripped(c):
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1] if nz.size else c[:1] * 0


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """A finite power series ``sum_j coeffs[j] z^j``.

    Trailing zero coefficients are legal and preserved; two series compare
    equal exactly when their stripped coefficient vectors are identical.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _as_coeffs(coeffs))

    @property
    def degree(self):
        """Index of the last stored coefficient (trailing zeros included)."""
        return self.coeffs.size - 1

    def __call__(self, z):
        """Evaluate by Horner's scheme; ``z`` may be a scalar or an array."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return out if out.ndim else complex(out)

    def derivative(self):
        if self.coeffs.size == 1:
            return PowerSeries([0.0])
        # an overflow leaves inf, which PowerSeries refuses as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            return PowerSeries(self.coeffs[1:] * np.arange(1, self.coeffs.size))

    def truncated(self, m):
        return PowerSeries(self.coeffs[: m + 1])

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return np.array_equal(_stripped(self.coeffs), _stripped(other.coeffs))

    __hash__ = None

    def __repr__(self):
        return f"PowerSeries({np.array2string(self.coeffs, separator=', ')})"


@dataclass(frozen=True, eq=False)
class PolyFunction:
    """Polyanalytic function of order ``q = len(components)``.

    ``components[k]`` is the analytic coefficient series of ``conj(z)^k``.
    Trailing zero components are kept: they record the declared order.
    """

    components: tuple

    def __init__(self, components):
        comps = tuple(
            c if isinstance(c, PowerSeries) else PowerSeries(c) for c in components
        )
        if not comps:
            raise ValueError("a polyanalytic function needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def q(self):
        return len(self.components)

    @property
    def degree_z(self):
        """Largest power of ``z`` stored in any component."""
        return max(h.degree for h in self.components)

    def __call__(self, z):
        return evaluate(self, z)

    def __eq__(self, other):
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in _zip_components(self, other))

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
    zbar = np.conj(z)
    out = np.zeros_like(z)
    for h in f.components[::-1]:
        out = out * zbar + h(z)
    return out if out.ndim else complex(out)


def _harmonic_table(angles, lo, hi):
    """Rows ``exp(i m angles)`` for ``m = lo .. hi``, ``lo <= 0 <= hi``.

    Row ``m`` is the ``|m|``-th power of the rounded unit ``u = exp(i angles)``
    (of ``conj(u)`` for ``m < 0``) by repeated multiplication: the same factors
    Horner's scheme multiplies on grid nodes ``s * u``, and the same bits
    whatever range the table spans.
    """
    u = np.exp(1j * angles)
    table = np.empty((hi - lo + 1, angles.size), dtype=complex)
    table[-lo] = 1.0
    for m in range(1, hi + 1):
        np.multiply(table[m - 1 - lo], u, out=table[m - lo])
    np.conj(u, out=u)
    for m in range(-1, lo - 1, -1):
        np.multiply(table[m + 1 - lo], u, out=table[m - lo])
    return table


def _radial_matrix(f, radii):
    """``A[i, m] = sum_k c_{k, m+k} radii[i]^(m+2k)``, ``m = -(q-1) .. degree_z``."""
    lo, hi = 1 - f.q, f.degree_z
    powers = radii[:, None] ** np.arange(hi + f.q)
    radial = np.zeros((radii.size, hi - lo + 1), dtype=complex)
    for k, h in enumerate(f.components):
        n = h.coeffs.size
        # conj(z)^k z^j lands in harmonic j - k with radial power k + j
        first = -k - lo
        radial[:, first: first + n] += powers[:, k: k + n] * h.coeffs
    return radial


def block_evaluators(fs, grid):
    """One ``(rows, out=None) -> values`` per function ``f`` of ``fs``: ``f``
    at ``grid.radii[rows]`` x ``grid.angles`` as a ``(len, n_theta)`` array
    ``A[rows] @ E``, written into ``out`` if given (``rows=slice(None)``,
    raveled, is node order).

    ``grid`` is a polar tensor grid with 1-D ``radii`` and ``angles`` (a
    :class:`polyspace.quadrature.QuadratureGrid`).  ``A`` has one column per
    harmonic ``m = -(q-1) .. degree_z`` of ``f``, and ``E`` is their slice of
    one table built for every function of ``fs``.  A value does not depend on
    the other functions or on the block its row is in.
    """
    lo = min(1 - f.q for f in fs)
    table = _harmonic_table(grid.angles, lo, max(f.degree_z for f in fs))

    def evaluator(f):
        harmonics = table[1 - f.q - lo: f.degree_z - lo + 1]
        return lambda rows, out=None: np.matmul(_radial_matrix(f, grid.radii[rows]),
                                                harmonics, out=out)

    return [evaluator(f) for f in fs]


def d_z(f):
    """Wirtinger derivative with respect to ``z``: differentiate every component."""
    return PolyFunction([h.derivative() for h in f.components])


def d_zbar(f):
    """Wirtinger derivative with respect to ``conj(z)``.

    Shifts the component stack down and scales: the new component ``k`` is
    ``(k + 1) * h_{k+1}``.  Applying it ``q`` times annihilates ``f`` exactly.
    """
    if f.q == 1:
        return zero(1)
    # an overflow leaves inf, which PowerSeries refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        comps = [f.components[k + 1].coeffs * (k + 1) for k in range(f.q - 1)]
    return PolyFunction(comps)


def dilate(f, r):
    """The dilatation ``f_r(z) = f(r z)``: each ``conj(z)^k z^j`` picks up ``r^(k+j)``."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"dilatation factor must lie in (0, 1], got {r}")
    comps = []
    for k, h in enumerate(f.components):
        powers = float(r) ** (k + np.arange(h.coeffs.size))
        comps.append(PowerSeries(h.coeffs * powers))
    return PolyFunction(comps)


def truncate(f, m):
    """Drop every power ``z^j`` with ``j > m`` from every component."""
    if m < 0:
        raise ValueError("truncation degree must be nonnegative")
    return PolyFunction([h.truncated(m) for h in f.components])


def from_monomials(entries, q):
    """Build a PolyFunction from ``{(k, j): coefficient}`` with declared order ``q``.

    Raises ``ValueError`` on ``q < 1``, a negative index, or an index with
    ``k >= q`` (the declared order must bound every antiholomorphic power).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q!r}")
    degrees = [0] * q
    for (k, j) in entries:
        if k < 0 or j < 0:
            raise ValueError(f"monomial indices must be nonnegative, got {(k, j)}")
        if k >= q:
            raise ValueError(f"monomial conj(z)^{k} z^{j} exceeds declared order q={q}")
        degrees[k] = max(degrees[k], j)
    comps = [np.zeros(d + 1, dtype=complex) for d in degrees]
    for (k, j), c in entries.items():
        comps[k][j] = c
    return PolyFunction(comps)


def zero(q=1):
    return PolyFunction([PowerSeries([0.0]) for _ in range(q)])


def monomial(k, j, coefficient=1.0):
    """The single term ``coefficient * conj(z)^k z^j`` with minimal order ``q = k + 1``."""
    return from_monomials({(k, j): coefficient}, q=k + 1)


def _zip_components(f, g):
    q = max(f.q, g.q)
    zs = PowerSeries([0.0])
    for k in range(q):
        a = f.components[k] if k < f.q else zs
        b = g.components[k] if k < g.q else zs
        n = max(a.coeffs.size, b.coeffs.size)
        ca = np.zeros(n, dtype=complex)
        cb = np.zeros(n, dtype=complex)
        ca[: a.coeffs.size] = a.coeffs
        cb[: b.coeffs.size] = b.coeffs
        yield ca, cb


def sub(f, g):
    """Coefficient-wise difference; the result has order ``max(f.q, g.q)``."""
    return PolyFunction([PowerSeries(ca - cb) for ca, cb in _zip_components(f, g)])


def add(f, g):
    return PolyFunction([PowerSeries(ca + cb) for ca, cb in _zip_components(f, g)])


def scale(f, c):
    return PolyFunction([PowerSeries(h.coeffs * complex(c)) for h in f.components])


def exp_taylor(degree=30):
    """Taylor truncation of ``exp(z)`` — the standard stand-in for transcendental
    test functions."""
    return PowerSeries([1.0 / math.factorial(j) for j in range(degree + 1)])
