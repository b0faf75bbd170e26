"""Independent oracles used to freeze expected values before trusting the
library's own pathways.

The midpoint and finite-difference oracles share no code with the package:
quadrature is plain midpoint in polar coordinates (no Gauss nodes),
derivatives are central finite differences of plain point evaluations (no
coefficient calculus).  Accuracy is a few parts in 1e6 to 1e9 — enough to
confirm the hand-computed closed forms that the tight assertions then use.

:func:`per_node_integral` checks the factored measure and the blocked
reduction of the norms instead: on the library's own grid it builds the whole
integrand node by node, from Horner point values and ``eval_weight`` on all
the grid's nodes at once times the kind/domain factors in complex form, and
sums it against the node weights, which integrate plain area, in one call.

:func:`monomial_norm` is exact: ``|c conj(z)^k z^j|`` is radial, so every norm
of a monomial against the Beta- and Gamma-type measures below has a closed
form.  :func:`even_p_integral` is exact too, for any polyanalytic polynomial
at an even ``p`` on a rotation-invariant disk measure: it multiplies
coefficient dictionaries and pairs monomials of equal harmonic with the same
closed-form moments, sharing nothing with the library's moment sums.

The ``series_*`` functions are a reference for the coefficient calculus: a
function is a tuple of 1-D complex arrays of any lengths, the coefficient
rows of ``conj(z)^k``, and each operation is the row-by-row formula
the library used before it stored one ``(q, degree_z + 1)`` array, with the
same floating-point operations in the same order.

:func:`loop_harmonic_table`, :func:`loop_angular_moments` and
:func:`powerseries_horner` are the loops the library used before one power
recurrence fed its harmonic table and its angular moments and
:meth:`PowerSeries.__call__` went through :func:`evaluate`, kept as
references for those, bit for bit.
"""

import math

import numpy as np

from polyspace import (AngularPoly, Domain, PowerLaw, Product, SpaceKind, Uniform,
                       eval_weight, evaluate)


def midpoint_disk(g, n_s=2000, n_t=2000):
    """Midpoint-rule integral of ``g`` over the unit disk, O(n^-2) accurate."""
    s = (np.arange(n_s) + 0.5) / n_s
    t = (np.arange(n_t) + 0.5) / n_t * 2.0 * np.pi
    z = s[:, None] * np.exp(1j * t[None, :])
    vals = g(z) * s[:, None]
    return float(np.sum(vals)) * (1.0 / n_s) * (2.0 * np.pi / n_t)


def midpoint_halfdisk(g, R=8.0, n_s=2000, n_t=2000):
    """Same, over the half-disk of radius ``R`` in the upper half-plane."""
    s = (np.arange(n_s) + 0.5) / n_s * R
    t = (np.arange(n_t) + 0.5) / n_t * np.pi
    z = s[:, None] * np.exp(1j * t[None, :])
    vals = g(z) * s[:, None]
    return float(np.sum(vals)) * (R / n_s) * (np.pi / n_t)


def fd_d_z(f, z, h=1e-6):
    """Central finite-difference Wirtinger derivative d/dz = (d_x - i d_y)/2."""
    dx = (f(z + h) - f(z - h)) / (2.0 * h)
    dy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx - 1j * dy)


def fd_d_zbar(f, z, h=1e-6):
    """Central finite-difference Wirtinger derivative d/dzbar = (d_x + i d_y)/2."""
    dx = (f(z + h) - f(z - h)) / (2.0 * h)
    dy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


def dirichlet_norm_fd(f, weight_fn, p=2.0, n_s=1500, n_t=1500):
    """Disk Dirichlet norm computed entirely from point values of ``f``:
    finite-difference derivatives under a midpoint rule."""
    integrand = lambda z: (
        np.abs(fd_d_z(f, z)) ** p + np.abs(fd_d_zbar(f, z)) ** p
    ) * weight_fn(z)
    # keep the stencil strictly inside the disk
    s = (np.arange(n_s) + 0.5) / n_s * (1.0 - 1e-5)
    t = (np.arange(n_t) + 0.5) / n_t * 2.0 * np.pi
    z = s[:, None] * np.exp(1j * t[None, :])
    vals = integrand(z) * s[:, None]
    integral = float(np.sum(vals)) * ((1.0 - 1e-5) / n_s) * (2.0 * np.pi / n_t)
    return (abs(f(0j)) ** p + integral) ** (1.0 / p)


def per_node_integral(parts, spec, grid):
    """``integral sum_part |part|^p`` against the measure of ``spec`` on
    ``grid``, from a per-node density and per-node values."""
    nodes = grid.block_nodes(slice(None)).ravel()
    dens = eval_weight(spec.weight, nodes, spec.domain)
    besov = spec.kind is SpaceKind.BESOV
    if spec.domain is Domain.DISK:
        if besov and spec.p != 2:
            dens = dens * (1.0 - np.abs(nodes) ** 2) ** (spec.p - 2.0)
    else:
        dens = dens * np.imag(nodes) ** (spec.alpha + (spec.p - 2.0 if besov else 0.0))
        dens = dens * np.exp(-spec.beta * np.abs(nodes) ** 2)
    vals = sum(np.abs(evaluate(part, nodes)) ** spec.p for part in parts)
    return float(np.sum(vals * dens * grid.block_weights(slice(None)).ravel()))


def _beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _moment(spec, t):
    """``integral s^t`` against the measure of ``spec``, for the uniform,
    ``Product(PowerLaw, Uniform)`` and ``AngularPoly(alpha, 2 pi)`` weights on
    the disk (Besov or not) and the uniform weight on the half-plane."""
    w, besov = spec.weight, spec.kind is SpaceKind.BESOV
    if spec.domain is Domain.HALFPLANE:
        assert isinstance(w, Uniform)
        a = spec.alpha + (spec.p - 2.0 if besov else 0.0)
        # integral_0^pi sin^a, times integral_0^inf s^(t+a+1) exp(-beta s^2) ds
        angular = math.sqrt(math.pi) * math.exp(math.lgamma((a + 1.0) / 2.0)
                                                - math.lgamma(a / 2.0 + 1.0))
        e = (t + a + 2.0) / 2.0
        return angular * math.gamma(e) / (2.0 * spec.beta**e)
    b = spec.p - 2.0 if besov else 0.0
    if isinstance(w, Uniform):
        # (1 - s^2)^b s ds = (1/2) (1 - u)^b u^(t/2) du
        return math.pi * _beta(t / 2.0 + 1.0, b + 1.0)
    if isinstance(w, Product) and isinstance(w.radial, PowerLaw) and b == 0.0:
        return 2.0 * math.pi * _beta(t + 2.0, w.radial.gamma + 1.0)
    if isinstance(w, AngularPoly) and w.theta_max == 2.0 * math.pi and b == 0.0:
        # integral_0^(2 pi) ((2 pi)^2 - theta^2)^alpha dtheta, u = theta / (2 pi)
        angular = (2.0 * math.pi) ** (2.0 * w.alpha + 1.0) * _beta(0.5, w.alpha + 1.0) / 2.0
        return angular / (t + 2.0)
    raise ValueError(f"no closed form for {spec.describe()}")


def monomial_norm(spec, k, j, c):
    """Exact full norm of ``c conj(z)^k z^j`` in the Dirichlet or Besov space
    ``spec``: both Wirtinger derivatives are monomials of degree ``k + j - 1``,
    and the point term is ``|f(0)|^p`` on the disk, ``|f(i)|^p = |c|^p`` on the
    half-plane."""
    p, m = spec.p, k + j - 1
    total = sum(abs(c * factor) ** p for factor in (j, k) if factor) * _moment(spec, m * p)
    if spec.domain is Domain.HALFPLANE or k == j == 0:
        total += abs(c) ** p
    return total ** (1.0 / p)


def _square(coeffs):
    """``{(k, j): c}`` of the product of the polynomial ``coeffs`` with itself."""
    out = {}
    for (k1, j1), c1 in coeffs.items():
        for (k2, j2), c2 in coeffs.items():
            out[(k1 + k2, j1 + j2)] = out.get((k1 + k2, j1 + j2), 0) + c1 * c2
    return out


def wirtinger_parts(coeffs):
    """``(d_z f, d_zbar f)`` of ``f = {(k, j): c}`` as coefficient dictionaries."""
    dz = {(k, j - 1): j * c for (k, j), c in coeffs.items() if j}
    dzbar = {(k - 1, j): k * c for (k, j), c in coeffs.items() if k}
    return dz, dzbar


def even_p_integral(parts, spec):
    """``integral sum_part |part|^p`` for ``p`` = 2 or 4 against a rotation-
    invariant disk measure of ``spec``, each part a ``{(k, j): c}`` dict:
    ``sum_(m_a = m_b) c_a conj(c_b) _moment(spec, n_a + n_b)`` over the
    monomials of ``part`` (``p = 2``) or of its square (``p = 4``), with
    ``n = k + j`` and ``m = j - k``."""
    assert spec.domain is Domain.DISK and spec.p in (2, 4)
    total = []
    for part in parts:
        terms = list((_square(part) if spec.p == 4 else part).items())
        for (ka, ja), ca in terms:
            for (kb, jb), cb in terms:
                if ja - ka == jb - kb:
                    total.append((ca * cb.conjugate()).real * _moment(spec, ka + ja + kb + jb))
    return math.fsum(total)


def series_d_z(rows):
    """Each row differentiated: ``c_j z^j -> j c_j z^(j-1)``."""
    return tuple(h[1:] * np.arange(1, h.size) for h in rows)


def series_d_zbar(rows):
    """Row ``k + 1`` times ``k + 1`` becomes row ``k``; a single row gives zero."""
    if len(rows) == 1:
        return (np.zeros(1, dtype=complex),)
    return tuple(rows[k + 1] * (k + 1) for k in range(len(rows) - 1))


def series_dilate(rows, r):
    """Coefficient ``(k, j)`` times ``r^(k + j)``."""
    return tuple(h * float(r) ** (k + np.arange(h.size)) for k, h in enumerate(rows))


def series_truncate(rows, m):
    return tuple(h[: m + 1] for h in rows)


def _series_padded(a, b):
    """Row pairs of ``a`` and ``b``, each pair zero-padded to one length, a
    missing row taken as zero."""
    for k in range(max(len(a), len(b))):
        ha = a[k] if k < len(a) else np.zeros(1, dtype=complex)
        hb = b[k] if k < len(b) else np.zeros(1, dtype=complex)
        n = max(ha.size, hb.size)
        yield np.pad(ha, (0, n - ha.size)), np.pad(hb, (0, n - hb.size))


def series_sub(a, b):
    return tuple(ca - cb for ca, cb in _series_padded(a, b))


def series_add(a, b):
    return tuple(ca + cb for ca, cb in _series_padded(a, b))


def series_mul(a, b):
    """Row ``k + k'`` of the product accumulates ``np.convolve`` of rows ``k``
    and ``k'``, in the order of ``(k, k')``; the rows as one array."""
    out = np.zeros((len(a) + len(b) - 1,
                    max(h.size for h in a) + max(h.size for h in b) - 1), dtype=complex)
    for k, h in enumerate(a):
        for k2, h2 in enumerate(b):
            out[k + k2, : h.size + h2.size - 1] += np.convolve(h, h2)
    return out


def series_evaluate(rows, z):
    """Horner in ``z`` along each row, then Horner in ``conj(z)`` over the rows."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for h in rows[::-1]:
        row = np.zeros_like(z)
        for c in h[::-1]:
            row = row * z + c
        out = out * np.conj(z) + row
    return out


def series_array(rows, width):
    """The rows zero-padded to ``width`` columns, as one array."""
    out = np.zeros((len(rows), width), dtype=complex)
    for k, h in enumerate(rows):
        out[k, : h.size] = h
    return out


def loop_harmonic_table(angles, lo, hi):
    """Rows ``exp(i m angles)``, ``m = lo .. hi``: powers of ``u = exp(i
    angles)`` upward from row 0, and powers of ``conj(u)`` downward."""
    u = np.exp(1j * angles)
    table = np.empty((hi - lo + 1, angles.size), dtype=complex)
    table[-lo] = 1.0
    for m in range(1, hi + 1):
        np.multiply(table[m - 1 - lo], u, out=table[m - lo])
    np.conj(u, out=u)
    for m in range(-1, lo - 1, -1):
        np.multiply(table[m + 1 - lo], u, out=table[m - lo])
    return table


def loop_angular_moments(angles, weights, lags, block_values):
    """``mu[k + lags] = sum_l weights_l exp(i k angles_l)``: rows of powers of
    ``exp(i angles)`` at most ``block_values`` values at a time, the last
    power of a block kept as the first of the next, summed pairwise;
    ``mu[0]`` by ``math.fsum`` and ``mu[-k] = conj(mu[k])``."""
    mu = np.empty(2 * lags + 1, dtype=complex)
    u = np.exp(1j * angles)
    step = max(1, block_values // u.size)
    powers = np.ones((step + 1, u.size), dtype=complex)
    for start in range(lags, 2 * lags + 1, step):
        powers[0] = powers[step]
        rows = min(step, 2 * lags + 1 - start)
        for r in range(rows):
            np.multiply(powers[r], u, out=powers[r + 1])
        mu[start: start + rows] = (powers[:rows] * weights).sum(axis=1)
    try:
        mu[lags] = math.fsum(weights)
    except OverflowError:
        mu[lags] = math.nan
    mu[:lags] = np.conj(mu[:lags:-1])
    return mu


def powerseries_horner(coeffs, z):
    """``sum_j coeffs[j] z^j`` by Horner's scheme on a scalar or an array."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        out = out * z + c
    return out if out.ndim else complex(out)
