import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import _oracles
from polyspace import (
    PolyFunction,
    PowerSeries,
    add,
    block_evaluators,
    d_z,
    d_zbar,
    dilate,
    disk_grid,
    evaluate,
    exp_taylor,
    halfplane_grid,
    from_monomials,
    monomial,
    scale,
    sub,
    truncate,
    zero,
)

# ---------------------------------------------------------------------------
# hypothesis strategies: small polyanalytic polynomials.  Integer coefficients
# keep every scaling exact, which is what the coefficient-exact invariants are
# stated for; float corpora get tolerances instead.

_int_coeff = st.tuples(
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
).map(lambda ab: complex(*ab))

_int_series = st.lists(_int_coeff, min_size=1, max_size=5)
_int_polys = st.lists(_int_series, min_size=1, max_size=4).map(PolyFunction)


def _naive_eval(f, z):
    out = 0j
    for k, h in enumerate(f.components):
        for j, c in enumerate(h.coeffs):
            out += c * np.conj(z) ** k * z**j
    return out


def _rng_points(n, radius=0.95, seed=42):
    rng = np.random.default_rng(seed)
    s = radius * np.sqrt(rng.random(n))
    return s * np.exp(2j * np.pi * rng.random(n))


# ---------------------------------------------------------------------------
# construction and evaluation


def test_eval_zbar_z():
    f = from_monomials({(1, 1): 1.0}, q=2)
    assert f(0.5 + 0.5j) == pytest.approx(0.5)  # |z|^2 at that point
    assert f.q == 2


def test_eval_matches_naive_sum(corpus_functions):
    zs = _rng_points(25)
    for label, f in corpus_functions:
        expected = np.array([_naive_eval(f, z) for z in zs])
        assert_allclose(f(zs), expected, rtol=1e-12, atol=1e-14, err_msg=label)


def test_eval_scalar_vs_array():
    f = from_monomials({(0, 2): 1.0, (1, 0): -2j}, q=2)
    z = 0.3 - 0.4j
    assert isinstance(f(z), complex)
    assert f(np.array([z]))[0] == f(z)


def test_eval_linearity():
    rng = np.random.default_rng(0)
    f = from_monomials({(0, 1): 1.5, (1, 2): -0.5j}, q=2)
    g = from_monomials({(0, 0): 2.0, (2, 1): 1.0}, q=3)
    zs = _rng_points(100)
    a, b = 1.25 - 0.5j, -0.75j
    lhs = add(scale(f, a), scale(g, b))(zs)
    rhs = a * f(zs) + b * g(zs)
    scale_ref = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale_ref


# ---------------------------------------------------------------------------
# grid evaluation (A @ E) against Horner on the nodes

# coefficients are exact zeros or of magnitude 1e-3 .. 1e3, so no product of a
# coefficient and a radial power reaches the subnormal range
_real = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
)
_float_coeff = st.tuples(_real, _real).map(lambda ab: complex(*ab))
# degree 0..30 per component, then up to three trailing zeros
_float_series = st.tuples(
    st.lists(_float_coeff, min_size=1, max_size=31), st.integers(0, 3)
).map(lambda cz: cz[0] + [0j] * cz[1])
_float_polys = st.one_of(
    st.lists(_float_series, min_size=1, max_size=4).map(PolyFunction),
    st.integers(1, 4).map(zero),
)
_small_grids = [disk_grid(1, 1), disk_grid(4, 1), disk_grid(6, 7), disk_grid(16, 16),
                halfplane_grid(1.0, 5, 1), halfplane_grid(2.0, 8, 9),
                halfplane_grid(8.0, 6, 16)]


def _abs_term_sum(f, grid):
    """``sum_kj |c_kj| s^(k+j)`` at every node, in node order."""
    s = grid.radii
    per_radius = sum(
        np.abs(c) * s ** (k + j)
        for k, h in enumerate(f.components) for j, c in enumerate(h.coeffs)
    )
    return np.repeat(per_radius, grid.n_theta)


@settings(max_examples=200, deadline=None)
@given(f=_float_polys, grid=st.sampled_from(_small_grids))
def test_grid_evaluation_matches_horner(f, grid):
    nodes = grid.block_nodes(slice(None)).ravel()
    got = block_evaluators([f], grid)[0](slice(None)).ravel()
    want = evaluate(f, nodes)
    assert got.shape == want.shape == nodes.shape
    bound = 64 * np.finfo(float).eps * _abs_term_sum(f, grid)
    assert np.all(np.abs(got - want) <= bound)


def test_grid_values_do_not_depend_on_the_companion_functions():
    from polyspace import polyfun

    low = from_monomials({(0, 2): 1.0, (1, 0): 0.5j}, q=2)
    high = from_monomials({(0, 12): 1.0, (3, 0): 2.0}, q=4)
    for grid in (disk_grid(4, 9), halfplane_grid(2.0, 8, 9)):
        alone = block_evaluators([low], grid)[0](slice(None))
        paired = block_evaluators([high, low], grid)
        # `low` reads its harmonics from the wider table built for `high`
        assert np.array_equal(paired[1](slice(None)), alone)
        assert_allclose(paired[0](slice(None)), evaluate(high, grid.block_nodes(slice(None))),
                        rtol=1e-13)
    # the table lives in the evaluators only: polyfun holds no array or table
    state = [name for name, value in vars(polyfun).items()
             if not name.startswith("__") and isinstance(value, (dict, list, np.ndarray))]
    assert state == []


def test_block_rows_are_the_grid_rows_bit_for_bit():
    rng = np.random.default_rng(3)
    f = PolyFunction([rng.standard_normal(20) + 1j * rng.standard_normal(20)
                      for _ in range(3)])
    grid = halfplane_grid(8.0, 48, 64)
    evaluate_block, = block_evaluators([f], grid)
    full = evaluate_block(slice(None))
    out = np.empty((16, 64), dtype=complex)
    for start in (0, 16, 32):
        rows = slice(start, start + 16)
        assert evaluate_block(rows, out=out) is out
        assert np.array_equal(out, full[rows])


def test_powerseries_equality_strips_trailing_zeros():
    assert PowerSeries([1.0, 2.0, 0.0, 0.0]) == PowerSeries([1.0, 2.0])
    assert PowerSeries([0.0]) == PowerSeries([0.0, 0.0, 0.0])
    assert PowerSeries([1.0]) != PowerSeries([1.0, 1e-30])


def test_polyfunction_equality_pads_orders():
    f = from_monomials({(0, 1): 1.0}, q=1)
    g = from_monomials({(0, 1): 1.0}, q=3)  # same values, higher declared order
    assert f == g
    assert f != from_monomials({(0, 1): 1.0 + 1e-16j}, q=1)


def test_coefficients_are_immutable():
    f = monomial(1, 2)
    with pytest.raises(ValueError):
        f.components[1].coeffs[0] = 5.0


def test_from_monomials_rejects_bad_indices():
    with pytest.raises(ValueError):
        from_monomials({(2, 0): 1.0}, q=2)
    with pytest.raises(ValueError):
        from_monomials({(0, -1): 1.0}, q=1)
    with pytest.raises(ValueError):
        from_monomials({}, q=0)


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        PowerSeries([1.0, np.inf])


# ---------------------------------------------------------------------------
# derivatives


def test_d_zbar_drops_one_order():
    f = from_monomials({(1, 2): 1.0}, q=2)  # conj(z) z^2
    g = d_zbar(f)
    assert g.q == 1
    assert g == from_monomials({(0, 2): 1.0}, q=1)  # z^2


def test_d_zbar_on_analytic_is_zero():
    f = PolyFunction([exp_taylor(10)])
    g = d_zbar(f)
    assert g.q == 1
    assert g == zero(1)


def test_d_z_termwise():
    f = from_monomials({(1, 2): 1.0}, q=2)
    assert d_z(f) == from_monomials({(1, 1): 2.0}, q=2)
    assert d_z(zero(3)) == zero(3)


def test_second_zbar_component_scaling():
    f = from_monomials({(2, 0): 1.0}, q=3)  # conj(z)^2
    assert d_zbar(f) == from_monomials({(1, 0): 2.0}, q=2)
    assert d_zbar(d_zbar(f)) == from_monomials({(0, 0): 2.0}, q=1)


@given(_int_polys)
@settings(max_examples=60, deadline=None)
def test_q_annihilation(f):
    g = f
    for _ in range(f.q):
        g = d_zbar(g)
    assert g == zero(1)
    for h in g.components:  # exactly zero coefficients, not merely tiny
        assert np.all(h.coeffs == 0)


@given(_int_polys)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(f):
    assert d_z(d_zbar(f)) == d_zbar(d_z(f))


def test_mixed_partials_commute_on_corpus(corpus_functions):
    for label, f in corpus_functions:
        a, b = d_z(d_zbar(f)), d_zbar(d_z(f))
        for ca, cb in zip(a.components, b.components):
            assert_allclose(ca.coeffs, cb.coeffs, rtol=1e-15, atol=0, err_msg=label)


def test_derivatives_match_finite_differences(corpus_functions):
    zs = _rng_points(8, radius=0.7, seed=3)
    for label, f in corpus_functions:
        for z in zs:
            assert_allclose(d_z(f)(z), _oracles.fd_d_z(f, z),
                            rtol=2e-6, atol=2e-8, err_msg=label)
            assert_allclose(d_zbar(f)(z), _oracles.fd_d_zbar(f, z),
                            rtol=2e-6, atol=2e-8, err_msg=label)


# ---------------------------------------------------------------------------
# dilatation


def test_dilate_scales_each_monomial():
    f = from_monomials({(1, 2): 1.0, (0, 1): 3.0}, q=2)
    g = dilate(f, 0.5)
    assert g == from_monomials({(1, 2): 0.125, (0, 1): 1.5}, q=2)


def test_dilate_identity_and_validation():
    f = from_monomials({(1, 3): 2.0 - 1j}, q=2)
    g = dilate(f, 1.0)
    for ch, cg in zip(f.components, g.components):
        assert np.array_equal(ch.coeffs, cg.coeffs)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            dilate(f, bad)


@given(_int_polys, st.sampled_from([1.0, 0.5, 0.25, 0.125]),
       st.sampled_from([1.0, 0.5, 0.25]))
@settings(max_examples=60, deadline=None)
def test_dilate_semigroup_exact_for_dyadic(f, r, s):
    a = dilate(dilate(f, r), s)
    b = dilate(f, r * s)
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.coeffs, cb.coeffs)


@given(_int_polys, st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_dilate_semigroup_float(f, r, s):
    a = dilate(dilate(f, r), s)
    b = dilate(f, r * s)
    for ca, cb in zip(a.components, b.components):
        assert_allclose(ca.coeffs, cb.coeffs, rtol=1e-13, atol=1e-300)


def test_dilate_commutes_with_derivatives(corpus_functions):
    # d_z f_r(z) = r (d_z f)(r z), and the same for d_zbar
    zs = _rng_points(100, seed=11)
    for r in (0.5, 0.9, 0.999):
        for label, f in corpus_functions:
            for deriv in (d_z, d_zbar):
                lhs = deriv(dilate(f, r))(zs)
                rhs = r * deriv(f)(r * zs)
                ref = np.max(np.abs(rhs)) + 1e-30
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * ref, (label, r)


# ---------------------------------------------------------------------------
# truncation, subtraction, helpers


def test_truncate_drops_high_powers():
    f = from_monomials({(0, 5): 1.0, (1, 2): 2.0}, q=2)
    g = truncate(f, 2)
    assert g == from_monomials({(1, 2): 2.0}, q=2)
    assert g.q == 2
    with pytest.raises(ValueError):
        truncate(f, -1)


def test_truncate_beyond_degree_is_identity():
    f = from_monomials({(0, 3): 1.0, (2, 1): 1j}, q=3)
    assert truncate(f, 10) == f


def test_sub_pads_orders_and_lengths():
    f = from_monomials({(0, 2): 1.0}, q=1)
    g = from_monomials({(2, 0): 1.0}, q=3)
    h = sub(f, g)
    assert h.q == 3
    assert h == from_monomials({(0, 2): 1.0, (2, 0): -1.0}, q=3)
    d = sub(f, f)
    assert d == zero(1)
    assert all(np.all(c.coeffs == 0) for c in d.components)


def test_exp_taylor():
    e = exp_taylor()
    assert e.degree == 30
    assert e.coeffs[5] == pytest.approx(1.0 / 120.0)
    z = 0.3 + 0.1j
    assert_allclose(e(z), np.exp(z), rtol=1e-15)
