"""Independent oracles used to freeze expected values before trusting the
library's own pathways.

The midpoint and finite-difference oracles share no code with the package:
quadrature is plain midpoint in polar coordinates (no Gauss nodes),
derivatives are central finite differences of plain point evaluations (no
coefficient calculus).  Accuracy is a few parts in 1e6 to 1e9 — enough to
confirm the hand-computed closed forms that the tight assertions then use.

:func:`per_node_integral` checks the factored measure and the blocked
reduction of the norms instead: on the library's own grid it builds the whole
integrand node by node, from Horner point values and ``eval_weight`` on the
flat nodes times the kind/domain factors in complex form, and sums it against
``node_weights`` in one call.
"""

import numpy as np

from polyspace import Domain, SpaceKind, eval_weight, evaluate


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
    nodes = grid.nodes
    dens = eval_weight(spec.weight, nodes, spec.domain)
    besov = spec.kind is SpaceKind.BESOV
    if spec.domain is Domain.DISK:
        if besov and spec.p != 2:
            dens = dens * (1.0 - np.abs(nodes) ** 2) ** (spec.p - 2.0)
    else:
        dens = dens * np.imag(nodes) ** (spec.alpha + (spec.p - 2.0 if besov else 0.0))
        dens = dens * np.exp(-spec.beta * np.abs(nodes) ** 2)
    vals = sum(np.abs(evaluate(part, nodes)) ** spec.p for part in parts)
    return float(np.sum(vals * dens * grid.node_weights))
