import numpy as np
import pytest

from polyspace import PolyFunction, exp_taylor, from_monomials


def corpus():
    """Ten deterministic test functions spanning orders, degrees and
    coefficient types."""
    rng = np.random.default_rng(20230815)
    random_coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return [
        ("const", from_monomials({(0, 0): 1.0}, q=1)),
        ("z", from_monomials({(0, 1): 1.0}, q=1)),
        ("zbar", from_monomials({(1, 0): 1.0}, q=2)),
        ("zbar*z", from_monomials({(1, 1): 1.0}, q=2)),
        ("exp", exp_taylor(30)),
        ("zbar*exp", PolyFunction([[0.0], exp_taylor(30).coeffs[0]])),
        ("pure-zbar", from_monomials({(1, 0): 1.0, (2, 0): 0.5}, q=3)),
        ("mixed-q3", from_monomials({(0, 2): 1.0, (1, 1): 1.0, (2, 2): 0.25}, q=3)),
        ("complex-q2", from_monomials(
            {(0, 0): 0.5 - 0.5j, (0, 3): 1j, (1, 2): -0.75 + 0.25j}, q=2)),
        ("random-q4", PolyFunction([
            random_coeffs[:2], random_coeffs[1:4], [0.3 * random_coeffs[4]],
            [0.0, 0.1j],
        ])),
    ]


@pytest.fixture(scope="session")
def corpus_functions():
    return corpus()


@pytest.fixture
def power_tables(monkeypatch):
    """Rules with no power tables for one test, and the log ``(table
    function, len(nodes), lo, hi, nbytes)`` of every table built."""
    from polyspace import norms, quadrature

    def clear():
        # the rules, and the grids that hold them
        for cache in (quadrature._rule, quadrature.disk_grid, quadrature.halfplane_grid,
                      norms._level_rule, norms._level_moments):
            cache.cache_clear()

    clear()
    built = []
    for name in ("_harmonic_table", "_radius_powers"):
        build = getattr(quadrature, name)

        def logged(nodes, lo, hi, build=build, name=name):
            table = build(nodes, lo, hi)
            built.append((name, nodes.size, lo, hi, table.nbytes))
            return table

        monkeypatch.setattr(quadrature, name, logged)
    yield built
    clear()
