"""The Gauss-Jacobi rule builder against mpmath, the Beta-function moments,
scipy and numpy's Gauss-Legendre rule."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from polyspace.quadrature import gauss_jacobi

mp = pytest.importorskip("mpmath")

EXPONENTS = (0.0, 0.25, 0.5, 0.75)
PAIRS = [(a, b) for a in EXPONENTS for b in EXPONENTS]
# every pair at small n; four pairs at n = 128, where mpmath takes ~0.3 s each
CASES = ([(n, a, b) for n in (1, 2, 5, 32) for a, b in PAIRS]
         + [(128, a, b) for a, b in [(0.0, 0.0), (0.5, 0.0), (0.25, 0.75), (0.75, 0.75)]])


def _mp_rule(n, a, b, guesses, dps=32):
    """Nodes and weights to ``dps`` digits: two Newton steps on mpmath's
    ``P_n^(a,b)`` from ``guesses``, and the classical weight formula
    ``c / ((1 - x^2) P_n'(x)^2)``, exact in ``mp`` arithmetic."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        c = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
             / (mp.gamma(n + a + b + 1) * mp.factorial(n)))

        def deriv(x):
            return (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, x)

        nodes, weights = [], []
        for x in guesses:
            x = mp.mpf(float(x))
            # the middle node of an odd symmetric rule is exactly 0, where
            # mpmath cannot evaluate the vanishing P_n to relative accuracy
            for _ in range(0 if a == b and x == 0 else 2):
                x -= mp.jacobi(n, a, b, x) / deriv(x)
            nodes.append(x)
            weights.append(c / ((1 - x) * (1 + x) * deriv(x) ** 2))
        return nodes, weights


def _mass(a, b):
    return 2.0 ** (a + b + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))


@pytest.mark.parametrize("n, a, b", CASES)
def test_rule_matches_mpmath(n, a, b):
    x, w = gauss_jacobi(n, a, b)
    assert x.shape == w.shape == (n,)
    nodes, weights = _mp_rule(n, a, b, x)
    node_err = max(abs(float(xe - mp.mpf(float(xi)))) for xe, xi in zip(nodes, x))
    weight_err = max(abs(float((we - mp.mpf(float(wi))) / we)) for we, wi in zip(weights, w))
    assert node_err <= 2.5e-16
    # the Christoffel sums keep their relative accuracy at the endpoints
    # (measured: 2.3e-13 at n = 128, against 5e-11 for scipy's roots_jacobi)
    assert weight_err <= 1e-12


@pytest.mark.parametrize("a, b", PAIRS)
@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_moments_are_beta_functions(n, a, b):
    # sum w t^k = integral (1-x)^a (1+x)^b t^k dx = 2^(a+b+1) B(k+b+1, a+1)
    # with t = (1+x)/2, for every k < 2n
    x, w = gauss_jacobi(n, a, b)
    t = (1.0 + x) / 2.0
    for k in range(2 * n):
        exact = 2.0 ** (a + b + 1.0) * math.exp(
            math.lgamma(k + b + 1.0) + math.lgamma(a + 1.0) - math.lgamma(k + a + b + 2.0))
        assert float(np.sum(w * t**k)) == pytest.approx(exact, rel=1e-13), k


@pytest.mark.parametrize("a, b", PAIRS)
@pytest.mark.parametrize("n", [3, 32, 128, 512])
def test_rule_agrees_with_scipy_relative_to_the_mass(n, a, b):
    # scipy's weights lose relative accuracy (1.2e-13 of the mass apart from
    # these at n = 512), so they are compared against the total mass only
    special = pytest.importorskip("scipy.special")
    x, w = gauss_jacobi(n, a, b)
    xs, ws = special.roots_jacobi(n, a, b)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert np.max(np.abs(w - ws)) <= 5e-13 * _mass(a, b)
    assert float(np.sum(w)) == pytest.approx(_mass(a, b), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
def test_zero_exponents_are_gauss_legendre(n):
    # leggauss's own weights drift beyond n ~ 32 (6e-15 at n = 128, where
    # these are within 1.1e-16 of mpmath)
    x, w = gauss_jacobi(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xl)) <= 1e-15
    assert np.max(np.abs(w - wl)) <= 1e-15


def test_symmetric_rules_are_symmetric():
    for n in (1, 4, 7, 64):
        x, w = gauss_jacobi(n, 0.25, 0.25)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_large_rule_is_fast_and_small():
    # each measured call solves afresh: the rules are cached
    gauss_jacobi.cache_clear()
    start = time.perf_counter()
    x, w = gauss_jacobi(4096, 0.5, 0.25)
    assert time.perf_counter() - start < 1.0
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    gauss_jacobi.cache_clear()
    tracemalloc.start()
    try:
        gauss_jacobi(4096, 0.5, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense eigensolver such as numpy's leggauss takes 285 MB at this size
    assert peak < 10 * 2**20


def test_rule_size_is_checked():
    with pytest.raises(ValueError, match="^n must be"):
        gauss_jacobi(0)
