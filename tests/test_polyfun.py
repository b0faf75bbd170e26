import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import _oracles
from polyspace import (
    PolyFunction,
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
    mul,
    scale,
    sub,
    truncate,
    zero,
)
from polyspace.polyfun import PowerSeries, scale_by_degree

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
    for (k, j), c in np.ndenumerate(f.coeffs):
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
# grid evaluation (powers @ B) against Horner on the nodes

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
        np.abs(c) * s ** (k + j) for (k, j), c in np.ndenumerate(f.coeffs)
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
    # the tables live with the grid's rules in quadrature: polyfun holds no array or table
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


# ---------------------------------------------------------------------------
# one power recurrence and one Horner scheme, against the loops they replaced

_ANGLES = {
    "random": lambda n: np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, n),
    "disk": lambda n: disk_grid(1, n).angles,
    "halfplane": lambda n: halfplane_grid(1.0, 1, n, angular=(0.25, 0.5)).angles,
}


@settings(max_examples=120, deadline=None)
@example(kind="disk", n=7, lo=-3, hi=1, moment_n=1000, blocks=3, offset=1)
@given(kind=st.sampled_from(sorted(_ANGLES)), n=st.sampled_from([1, 7, 16, 256, 512, 1000]),
       lo=st.integers(-3, 0), hi=st.sampled_from([0, 1, 2, 5, 33]),
       moment_n=st.sampled_from([7, 16, 256, 1000, 4096]), blocks=st.integers(0, 3),
       offset=st.integers(-1, 1))
def test_power_recurrence_matches_the_loops_bit_for_bit(kind, n, lo, hi, moment_n, blocks,
                                                         offset):
    from polyspace import polyfun
    from polyspace.quadrature import BLOCK_VALUES, _harmonic_table

    angles = _ANGLES[kind](n)
    table = _harmonic_table(angles, lo, hi)
    assert table.shape == (hi - lo + 1, n)
    assert np.array_equal(table, _oracles.loop_harmonic_table(angles, lo, hi))
    for m in range(max(lo, -hi), 0):
        assert np.array_equal(table[m - lo], np.conj(table[-m - lo]))
    # up to three blocks of BLOCK_VALUES // n rows, ending on either side of a
    # block boundary
    angles = _ANGLES[kind](moment_n)
    weights = np.random.default_rng(moment_n + blocks).uniform(0.5, 2.0, moment_n)
    lags = max(0, blocks * (BLOCK_VALUES // moment_n) + offset)
    assert np.array_equal(polyfun._angular_moments(angles, weights, lags),
                          _oracles.loop_angular_moments(angles, weights, lags, BLOCK_VALUES))


@settings(max_examples=100, deadline=None)
@given(coeffs=_float_series, seed=st.integers(0, 40))
def test_powerseries_call_is_evaluate_bit_for_bit(coeffs, seed):
    z = _rng_points(9, radius=0.99, seed=seed)
    h, f = PowerSeries(coeffs), PolyFunction([coeffs])
    want = _oracles.powerseries_horner(coeffs, z)
    assert np.array_equal(h(z), want) and np.array_equal(h(z), evaluate(f, z))
    assert isinstance(h(z[0]), complex)
    assert h(z[0]) == want[0] == evaluate(f, z[0])
    assert np.array_equal(h.coeffs, f.coeffs[0]) and not h.coeffs.flags.writeable


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
        f.coeffs[1, 0] = 5.0


def test_from_monomials_rejects_bad_indices():
    with pytest.raises(ValueError):
        from_monomials({(2, 0): 1.0}, q=2)
    with pytest.raises(ValueError):
        from_monomials({(0, -1): 1.0}, q=1)
    with pytest.raises(ValueError):
        from_monomials({}, q=0)


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        PolyFunction([[1.0, np.inf]])
    with pytest.raises(ValueError):
        PowerSeries([1.0, np.inf])


def test_rows_are_one_dimensional_sequences_of_numbers():
    f = PolyFunction([[1.0, 2j], np.array([3.0]), (), 4.0])
    assert np.array_equal(f.coeffs, [[1.0, 2j], [3.0, 0.0], [0.0, 0.0], [4.0, 0.0]])
    assert PolyFunction([[]]).coeffs.shape == (1, 1)
    for bad in ([[[1.0]]], [np.ones((2, 2))], [PowerSeries([1.0])]):
        with pytest.raises((ValueError, TypeError)):
            PolyFunction(bad)


def test_components_are_the_rows_as_functions_of_order_1():
    f = from_monomials({(0, 2): 1.0, (2, 1): -0.5j}, q=3)
    rows = f.components
    assert [h.q for h in rows] == [1, 1, 1]
    assert all(isinstance(h, PolyFunction) for h in rows)
    assert np.array_equal(np.concatenate([h.coeffs for h in rows]), f.coeffs)
    with pytest.raises(ValueError):
        rows[2].coeffs[0, 1] = 1.0


# ---------------------------------------------------------------------------
# the array calculus against the row-by-row reference of _oracles, bit for bit

_float_rows = st.lists(_float_series, min_size=1, max_size=4)


def _same(f, rows):
    """``f.coeffs`` equals the reference ``rows`` padded to its width."""
    assert f.coeffs.shape[1] >= max(h.size for h in rows)
    return np.array_equal(f.coeffs, _oracles.series_array(rows, f.coeffs.shape[1]))


def _stripped_rows(rows):
    """Each row up to its last nonzero coefficient, as from_monomials builds it;
    a zero row as one zero."""
    return tuple(np.trim_zeros(h, "b") if h.any() else h[:1] * 0 for h in rows)


@settings(max_examples=150, deadline=None)
@given(a=_float_rows, b=_float_rows, r=st.sampled_from([0.5, 0.9, 0.999]),
       m=st.integers(0, 34))
def test_array_calculus_matches_the_row_reference_bit_for_bit(a, b, r, m):
    f, g = PolyFunction(a), PolyFunction(b)
    ra, rb = (tuple(np.array(h, dtype=complex) for h in rows) for rows in (a, b))
    assert _same(f, ra) and f.q == len(a)
    assert _same(d_z(f), _oracles.series_d_z(ra))
    assert _same(d_zbar(f), _oracles.series_d_zbar(ra))
    assert _same(dilate(f, r), _oracles.series_dilate(ra, r))
    assert _same(truncate(f, m), _oracles.series_truncate(ra, m))
    assert _same(sub(f, g), _oracles.series_sub(ra, rb))
    assert _same(add(f, g), _oracles.series_add(ra, rb))
    # mul convolves each row up to its last nonzero coefficient, the rows the
    # row-by-row product saw for every function built from monomials
    want = _oracles.series_mul(_stripped_rows(ra), _stripped_rows(rb))
    got = mul(f, g).coeffs
    assert np.array_equal(got[:, : want.shape[1]], want) and not got[:, want.shape[1]:].any()
    z = _rng_points(7, radius=0.99, seed=len(a))
    assert np.array_equal(evaluate(f, z), _oracles.series_evaluate(ra, z))
    assert evaluate(f, z[0]) == _oracles.series_evaluate(ra, z[0])


@settings(max_examples=40, deadline=None)
@given(a=_float_rows, data=st.data())
def test_polyfunction_is_one_finite_read_only_array(a, data):
    f = PolyFunction(a)
    assert f.coeffs.shape == (len(a), max(map(len, a)))
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 1.0
    k = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(0, len(a[k]) - 1))
    bad = [list(row) for row in a]
    bad[k][j] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan, complex(0, np.inf)]))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        PolyFunction(bad)
    array = np.zeros(f.coeffs.shape, dtype=complex)
    for i, row in enumerate(bad):
        array[i, : len(row)] = row
    with pytest.raises(ValueError, match="coefficients must be finite"):
        PolyFunction(array)


# ---------------------------------------------------------------------------
# derivatives


def test_d_zbar_drops_one_order():
    f = from_monomials({(1, 2): 1.0}, q=2)  # conj(z) z^2
    g = d_zbar(f)
    assert g.q == 1
    assert g == from_monomials({(0, 2): 1.0}, q=1)  # z^2


def test_d_zbar_on_analytic_is_zero():
    f = exp_taylor(10)
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
    assert np.all(g.coeffs == 0)  # exactly zero coefficients, not merely tiny


@given(_int_polys)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(f):
    assert d_z(d_zbar(f)) == d_zbar(d_z(f))


def test_mixed_partials_commute_on_corpus(corpus_functions):
    for label, f in corpus_functions:
        a, b = d_z(d_zbar(f)), d_zbar(d_z(f))
        assert_allclose(a.coeffs, b.coeffs, rtol=1e-15, atol=0, err_msg=label)


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


@given(_int_polys, st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=9, max_size=9))
@settings(max_examples=60, deadline=None)
def test_scale_by_degree_scales_each_monomial_by_its_radial_degree(f, sigma):
    sigma = np.array(sigma)
    g = scale_by_degree(f, sigma)
    assert g.coeffs.shape == f.coeffs.shape
    for (k, j), c in np.ndenumerate(f.coeffs):
        assert g.coeffs[k, j] == c * sigma[k + j]


@given(_int_polys, st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_dilate_is_the_termwise_product_bit_for_bit(f, r):
    powers = r ** np.add.outer(np.arange(f.q), np.arange(f.degree_z + 1))
    assert np.array_equal(dilate(f, r).coeffs, f.coeffs * powers)


def test_dilate_identity_and_validation():
    f = from_monomials({(1, 3): 2.0 - 1j}, q=2)
    g = dilate(f, 1.0)
    assert np.array_equal(f.coeffs, g.coeffs)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            dilate(f, bad)


@given(_int_polys, st.sampled_from([1.0, 0.5, 0.25, 0.125]),
       st.sampled_from([1.0, 0.5, 0.25]))
@settings(max_examples=60, deadline=None)
def test_dilate_semigroup_exact_for_dyadic(f, r, s):
    a = dilate(dilate(f, r), s)
    b = dilate(f, r * s)
    assert np.array_equal(a.coeffs, b.coeffs)


@given(_int_polys, st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_dilate_semigroup_float(f, r, s):
    a = dilate(dilate(f, r), s)
    b = dilate(f, r * s)
    assert_allclose(a.coeffs, b.coeffs, rtol=1e-13, atol=1e-300)


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
    assert np.all(d.coeffs == 0)


def test_exp_taylor():
    e = exp_taylor()
    assert isinstance(e, PolyFunction) and (e.q, e.degree_z) == (1, 30)
    assert e.coeffs[0, 5] == pytest.approx(1.0 / 120.0)
    z = 0.3 + 0.1j
    assert_allclose(e(z), np.exp(z), rtol=1e-15)


def test_mul_matches_the_product_of_point_values():
    rng = np.random.default_rng(16)
    z = 0.9 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    for qf, qg, df, dg in [(1, 1, 8, 5), (2, 3, 3, 8), (3, 3, 8, 8), (3, 1, 0, 6)]:
        f = PolyFunction([rng.standard_normal(df + 1) + 1j * rng.standard_normal(df + 1)
                          for _ in range(qf)])
        g = PolyFunction([rng.standard_normal(dg + 1) + 1j * rng.standard_normal(dg + 1)
                          for _ in range(qg)])
        h = mul(f, g)
        assert (h.q, h.degree_z) == (qf + qg - 1, df + dg)
        want = f(z) * g(z)
        assert np.max(np.abs(h(z) - want)) <= 1e-13 * np.max(np.abs(want))


def test_mul_refuses_coefficients_that_overflow():
    f = PolyFunction([[1e200, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        mul(f, f)
