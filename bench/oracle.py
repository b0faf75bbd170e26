"""Closed-form values the benchmark checks polyspace against.

Nothing here imports polyspace: functions are plain ``{(k, j): coefficient}``
dicts for ``sum c_kj conj(z)^k z^j`` and every value comes from a formula.

* Disk, uniform weight, ``p = 2``: harmonic orthogonality.  Only monomials
  with the same ``j - k`` interact, and ``int_D s^(a+b) dA = 2 pi / (a+b+2)``.
* Monomials at any ``p``: ``|c conj(z)^k z^j| = |c| s^(k+j)`` is radial, so
  each measure used by the ``refine`` workload splits into Beta or Gamma
  integrals.
"""

import math

SQRT_PI = math.sqrt(math.pi)


def d_z(coeffs):
    return {(k, j - 1): j * c for (k, j), c in coeffs.items() if j}


def d_zbar(coeffs):
    return {(k - 1, j): k * c for (k, j), c in coeffs.items() if k}


def dilation_difference(coeffs, r):
    """Coefficients of ``f(r z) - f(z)``."""
    return {(k, j): c * (r ** (k + j) - 1.0) for (k, j), c in coeffs.items()}


def disk_l2_squared(coeffs):
    """``int_D |f|^2 dA`` for the unit disk."""
    by_harmonic = {}
    for (k, j), c in coeffs.items():
        if c:
            by_harmonic.setdefault(j - k, []).append((k + j, complex(c)))
    terms = []
    for group in by_harmonic.values():
        for a, ca in group:
            for b, cb in group:
                terms.append((ca * cb.conjugate()).real * 2.0 * math.pi / (a + b + 2))
    return math.fsum(terms)


def disk_uniform_p2(coeffs, kind):
    """``(full_norm, seminorm)`` on the disk, uniform weight, ``p = 2``.

    Besov at ``p = 2`` has boundary factor ``(1 - |z|^2)^0 = 1`` and so equals
    Dirichlet.
    """
    if kind == "bergman":
        norm = math.sqrt(disk_l2_squared(coeffs))
        return norm, norm
    semi2 = disk_l2_squared(d_z(coeffs)) + disk_l2_squared(d_zbar(coeffs))
    point = abs(coeffs.get((0, 0), 0.0)) ** 2
    return math.sqrt(point + semi2), math.sqrt(semi2)


def _beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _part_integral(family, params, p, m):
    """``int s^(m p) dmu`` for the measure ``mu`` of a ``refine`` family."""
    if family == "besov-frac":          # (1 - s^2)^(p - 2) dA on the disk
        return math.pi * _beta(m * p / 2.0 + 1.0, p - 1.0)
    if family == "product-powerlaw":    # (1 - s)^gamma dA on the disk
        return 2.0 * math.pi * _beta(m * p + 2.0, params["gamma"] + 1.0)
    if family == "disk-angular":        # (theta_max^2 - theta^2) dA, theta_max = 2 pi
        return (16.0 * math.pi ** 3 / 3.0) / (m * p + 2.0)
    if family == "hp-frac-alpha":       # Im(z)^alpha exp(-beta |z|^2) dA
        alpha, beta = params["alpha"], params["beta"]
        angular = SQRT_PI * math.gamma((alpha + 1.0) / 2.0) / math.gamma(alpha / 2.0 + 1.0)
        e = (m * p + alpha + 2.0) / 2.0
        return angular * math.gamma(e) / (2.0 * beta ** e)
    raise ValueError(f"no closed form for family {family!r}")


def monomial_norm(family, params, p, k, j, c):
    """Full Dirichlet/Besov norm of ``c conj(z)^k z^j`` in a ``refine`` family.

    Both derivative parts are monomials of total degree ``k + j - 1``; the
    point term is ``|f(0)|^p`` on the disk and ``|f(i)|^p = |c|^p`` on the
    half-plane.
    """
    m = k + j - 1
    total = 0.0
    for factor in (j, k):
        if factor:
            total += abs(c * factor) ** p * _part_integral(family, params, p, m)
    if family == "hp-frac-alpha":
        total += abs(c) ** p
    elif k == 0 and j == 0:
        total += abs(c) ** p
    return total ** (1.0 / p)


def rel_err(value, exact):
    return abs(value - exact) / abs(exact)
