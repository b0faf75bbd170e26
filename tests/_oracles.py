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
form.
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
