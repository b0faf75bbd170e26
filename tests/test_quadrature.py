import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from polyspace import quadrature
from polyspace import (
    DEFAULT_MAX_LEVEL,
    DEFAULT_N_R,
    DEFAULT_N_THETA,
    DEFAULT_REL_TOL,
    Domain,
    RefineResult,
    default_radius,
    disk_grid,
    grid_family,
    halfplane_grid,
    halfplane_mc_check,
    integrate,
    refine_levels,
    refine_until,
)

import _oracles


# ---------------------------------------------------------------------------
# grid structure


def _all_nodes(grid):
    return grid.block_nodes(slice(None)).ravel(), grid.block_weights(slice(None)).ravel()


def test_disk_grid_shape_and_interior():
    grid = disk_grid(16, 32)
    nodes, weights = _all_nodes(grid)
    assert nodes.shape == weights.shape == (16 * 32,)
    assert np.all(np.abs(nodes) < 1)
    assert np.all(weights > 0)
    # total mass is the disk area
    assert np.sum(weights) == pytest.approx(np.pi, rel=1e-13)


def test_disk_grid_is_cached():
    assert disk_grid(16, 32) is disk_grid(16, 32)
    assert halfplane_grid(8.0, 16, 32) is halfplane_grid(8.0, 16, 32)


def test_radial_rule_is_gauss_exact():
    # Gauss-Legendre with n_r points integrates s^m exactly up to degree
    # 2 n_r - 1; radially symmetric monomials |z|^{2m} land in that range
    grid = disk_grid(16, 32)
    for m in range(16):
        val = integrate(lambda z: np.abs(z) ** (2 * m), grid)
        assert val == pytest.approx(np.pi / (m + 1), rel=1e-13)


@pytest.mark.parametrize("m", [1, 5, 100, 255])
def test_midpoint_angle_kills_harmonics(m):
    # e^{im theta} integrates to zero exactly on the midpoint rule while
    # 0 < |m| < n_theta; this is what makes norms of monomials exact
    grid = disk_grid(32, 256)
    val = integrate(lambda z: np.cos(m * np.angle(z)), grid)
    assert abs(val) < 1e-12


def test_halfplane_grid_lives_in_upper_halfdisk():
    nodes, weights = _all_nodes(halfplane_grid(8.0, 32, 64))
    assert np.all(nodes.imag > 0)
    assert np.all(np.abs(nodes) <= 8.0)
    assert np.all(weights > 0)
    # mass of the half-disk of radius R
    assert np.sum(weights) == pytest.approx(np.pi * 32, rel=1e-12)


def test_halfplane_grid_validation():
    with pytest.raises(ValueError):
        halfplane_grid(0.0, 16, 32)
    with pytest.raises(ValueError):
        halfplane_grid(-1.0, 16, 32)


@pytest.mark.parametrize("R, radial", [(1e200, (0.0, 0.0)), (1e150, (0.9, 0.9)),
                                       (math.inf, (0.0, 0.0))])
def test_a_radius_whose_weights_overflow_is_refused(R, radial):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^R is .*, too large for finite grid weights"):
            halfplane_grid(R, 16, 32, radial=radial)
    assert not caught


# ---------------------------------------------------------------------------
# closed-form fixtures


def test_disk_area():
    val = integrate(lambda z: np.ones_like(z, dtype=float), disk_grid())
    assert val == pytest.approx(np.pi, rel=1e-13)


def test_disk_second_moment():
    val = integrate(lambda z: np.abs(z) ** 2, disk_grid())
    assert val == pytest.approx(np.pi / 2, rel=1e-13)


def test_sqrt_weight_needs_refinement():
    # (1 - |z|^2)^{1/2} has a boundary singularity in its derivatives, so a
    # fixed grid stalls around 2e-7; the refinement ladder reaches 1e-10
    g = lambda z: np.sqrt(1 - np.abs(z) ** 2)
    coarse = integrate(g, disk_grid())
    assert abs(coarse - 2 * np.pi / 3) / (2 * np.pi / 3) > 1e-8

    family = grid_family(Domain.DISK)
    result = refine_until(g, family, DEFAULT_REL_TOL, DEFAULT_MAX_LEVEL)
    assert result.converged
    assert result.value == pytest.approx(2 * np.pi / 3, rel=1e-10)


def test_refine_until_reports_level_and_change():
    g = lambda z: np.sqrt(1 - np.abs(z) ** 2)
    family = grid_family(Domain.DISK)
    result = refine_until(g, family, rel_tol=1e-8, max_level=DEFAULT_MAX_LEVEL)
    assert result.converged
    assert result.level <= 3
    assert result.rel_change <= 1e-8
    assert result.value == pytest.approx(2 * np.pi / 3, rel=1e-8)


def test_refinement_errors_shrink_monotonically():
    g = lambda z: np.sqrt(1 - np.abs(z) ** 2)
    exact = 2 * np.pi / 3
    errs = [abs(integrate(g, disk_grid(DEFAULT_N_R << lvl, DEFAULT_N_THETA)) - exact)
            for lvl in range(5)]
    for fine, coarse in zip(errs[1:], errs[:-1]):
        assert fine <= coarse + 1e-14


def test_refine_until_flags_non_convergence():
    g = lambda z: np.sqrt(1 - np.abs(z) ** 2)
    family = grid_family(Domain.DISK)
    result = refine_until(g, family, rel_tol=1e-16, max_level=2)
    assert not result.converged
    assert result.level == 2


def test_halfplane_gaussian():
    grid = halfplane_grid(default_radius(1.0))
    val = integrate(lambda z: np.exp(-np.abs(z) ** 2), grid)
    assert val == pytest.approx(np.pi / 2, rel=1e-10)


def test_halfplane_halfdisk_area():
    val = integrate(lambda z: np.ones_like(z, dtype=float), halfplane_grid(1.0))
    assert val == pytest.approx(np.pi / 2, rel=1e-8)


def test_halfplane_agrees_with_midpoint_oracle():
    g = lambda z: z.imag * np.exp(-np.abs(z) ** 2)
    val = integrate(g, halfplane_grid(8.0))
    ref = _oracles.midpoint_halfdisk(g, R=8.0)
    assert val == pytest.approx(ref, rel=1e-6)


def test_halfplane_agrees_with_monte_carlo():
    quad, mc, sigma = halfplane_mc_check(n_samples=2_000_000, seed=123)
    assert abs(quad - mc) < 3 * sigma


# ---------------------------------------------------------------------------
# behaviour and validation


def test_integrate_rejects_complex_integrand():
    with pytest.raises(TypeError):
        integrate(lambda z: z, disk_grid(8, 8))


def test_integrate_names_bad_node():
    def g(z):
        out = np.ones_like(z, dtype=float)
        out[3] = np.nan
        return out

    with pytest.raises(ValueError) as err:
        integrate(g, disk_grid(8, 8))
    assert "nan" in str(err.value)
    assert "node" in str(err.value)


def test_grid_family_requires_radius_off_the_disk():
    with pytest.raises(ValueError):
        grid_family(Domain.HALFPLANE)
    family = grid_family(Domain.HALFPLANE, R=4.0)
    assert family(1).n_r == 2 * DEFAULT_N_R


def test_default_radius():
    assert default_radius(1.0) == 8.0
    assert default_radius(100.0) == 8.0
    # small beta pushes the Gaussian tail out
    assert default_radius(0.1) == pytest.approx(np.sqrt(400.0))
    with pytest.raises(ValueError):
        default_radius(0.0)
    with pytest.raises(ValueError):
        default_radius(-1.0)
    with pytest.raises(ValueError, match="^beta is 1e-310, too small"):
        default_radius(1e-310)


def test_integration_is_deterministic():
    g = lambda z: np.exp(np.real(z)) * (1 - np.abs(z) ** 2)
    a = integrate(g, disk_grid())
    b = integrate(g, disk_grid())
    assert a == b


def test_grid_arrays_are_frozen():
    grid = disk_grid(8, 8)
    with pytest.raises(ValueError):
        grid.radial_weights[0] = 0.0
    with pytest.raises(ValueError):
        grid.angle_weights[0] = 0.0


@pytest.mark.parametrize("grid", [disk_grid(8, 8), disk_grid(3, 1),
                                  halfplane_grid(8.0, 8, 8), halfplane_grid(2.0, 4, 1)])
def test_radii_and_angles_rebuild_the_nodes(grid):
    assert grid.radii.shape == (grid.n_r,)
    assert grid.angles.shape == (grid.n_theta,)
    rebuilt = (grid.radii[:, None] * np.exp(1j * grid.angles)[None, :]).ravel()
    # one radius per block gives the same nodes as the whole grid at once
    rows = [grid.block_nodes(slice(i, i + 1)) for i in range(grid.n_r)]
    assert np.array_equal(rebuilt, np.concatenate(rows).ravel())
    assert np.array_equal(rebuilt, _all_nodes(grid)[0])
    with pytest.raises(ValueError):
        grid.radii[0] = 0.0
    with pytest.raises(ValueError):
        grid.angles[0] = 0.0


def test_integrate_and_refine_levels():
    grid = disk_grid(8, 8)
    assert integrate(lambda z: np.ones(z.size), grid) == pytest.approx(np.pi, rel=1e-13)
    with pytest.raises(TypeError):
        integrate(lambda z: z, grid)
    # a constant sequence converges at the first comparison
    assert refine_levels(lambda level: 2.0) == RefineResult(2.0, 0.0, True, 1)
    slow = refine_levels(lambda level: 1.0 + 2.0 ** -level, rel_tol=1e-3, max_level=3)
    assert slow == RefineResult(1.125, 0.125 / 1.25, False, 3)


@pytest.mark.parametrize("grid", [disk_grid(8, 8), halfplane_grid(8.0, 8, 8)])
def test_grids_store_only_their_1d_rules(grid):
    fresh = type(grid)(grid.domain, grid.n_r, grid.n_theta, grid.radius, grid.radii,
                       grid.angles, grid.radial_weights, grid.angle_weights)
    arrays = [v for v in vars(fresh).values() if isinstance(v, np.ndarray)]
    assert all(a.ndim == 1 for a in arrays)
    # the node weights are built per block, bit for bit the products
    assert np.array_equal(fresh.block_weights(slice(None)),
                          np.outer(grid.radial_weights, grid.angle_weights))
    assert fresh.size == fresh.block_nodes(slice(None)).size == grid.n_r * grid.n_theta
    assert not hasattr(fresh, "nodes") and not hasattr(fresh, "node_weights")


@pytest.mark.parametrize("n_r, n_theta", [(128, 256), (256, 512), (512, 64), (4, 8)])
def test_blocked_sum_is_numpys_pairwise_sum_on_power_of_two_grids(n_r, n_theta):
    grid = disk_grid(n_r, n_theta)
    vals = np.random.default_rng(n_r).random((n_r, n_theta))
    want = float(np.sum(vals.ravel() * _all_nodes(grid)[1]))
    assert quadrature.blocked_sum(lambda rows: vals[rows], grid) == want


def test_blocks_are_bounded_powers_of_two():
    for n_theta in (1, 40, 256, 512, 2048, 16384, 40000):
        rows = quadrature.block_rows(n_theta)
        assert rows & (rows - 1) == 0
        assert rows * n_theta <= max(quadrature.BLOCK_VALUES, n_theta)
        assert 2 * rows * n_theta > quadrature.BLOCK_VALUES


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blocked_sum_names_a_bad_node_in_a_later_block():
    grid = disk_grid(300, 100)   # three blocks of radii, the last one short
    vals = np.ones((300, 100))
    vals[290, 7] = -np.inf
    with pytest.raises(ValueError) as err:
        quadrature.blocked_sum(lambda rows: vals[rows], grid)
    assert str(err.value) == (f"integrand is -inf at node s_290 e^(i theta_7) = "
                              f"{grid.radii[290]} * exp({grid.angles[7]}j)")
    # an overflowing sum of finite values is returned, as numpy's sum would be
    assert integrate(lambda z: np.full(z.shape, 1e308), grid) == np.inf


def test_integrate_on_a_large_grid_allocates_little():
    import tracemalloc

    grid = disk_grid(1024, 2048)
    tracemalloc.start()
    try:
        area = integrate(lambda z: np.abs(z), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert area == pytest.approx(2 * np.pi / 3, rel=1e-12)
    # the grid has 2**21 nodes: one complex array of them is 32 MB
    assert peak < 4 * 2**20


def test_scratch_buffers_are_reused():
    a = quadrature.scratch("test", (4, 8))
    b = quadrature.scratch("test", (2, 16), complex)
    assert a.shape == (4, 8) and b.dtype == complex
    assert np.shares_memory(a, quadrature.scratch("test", (8, 2)))
    big = quadrature.scratch("test", (2, quadrature.BLOCK_VALUES))
    assert big.flags.c_contiguous and not np.shares_memory(a, big)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules with folded endpoint powers


def _beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@pytest.mark.parametrize("e0, e1", [(0.0, 0.5), (0.25, 0.0), (0.75, 0.25)])
def test_radial_rule_integrates_the_folded_power_exactly(e0, e1):
    # s^(2m) s^e0 (1 - s)^e1 s ds = B(2m + e0 + 2, e1 + 1), exact for m < n_r
    grid = disk_grid(16, 32, radial=(e0, e1))
    assert grid.radial_exponents == (e0, e1)
    assert np.array_equal(grid.angles, disk_grid(16, 32).angles)
    for m in range(16):
        val = integrate(lambda z: np.abs(z) ** (2 * m + e0) * (1 - np.abs(z)) ** e1, grid)
        assert val == pytest.approx(2 * np.pi * _beta(2 * m + e0 + 2, e1 + 1), rel=1e-13)


def test_angular_rules_integrate_the_folded_power():
    # theta^a0 (span - theta)^a1 over (0, span) = span^(1+a0+a1) B(a0+1, a1+1)
    disk = disk_grid(8, 16, angular=(0.0, 0.5))
    assert disk.angular_exponents == (0.0, 0.5)
    want = (2 * np.pi) ** 1.5 * _beta(1.0, 1.5) / 2.0
    theta = lambda z: np.angle(z) % (2 * np.pi)
    got = integrate(lambda z: (2 * np.pi - theta(z)) ** 0.5, disk)
    assert got == pytest.approx(want, rel=1e-13)
    half = halfplane_grid(2.0, 8, 16, radial=(0.5, 0.0), angular=(0.25, 0.25))
    # s^0.5 s ds over (0, 2) = 2^2.5 / 2.5
    want = 2.0**2.5 / 2.5 * np.pi**1.5 * _beta(1.25, 1.25)
    got = integrate(lambda z: np.abs(z) ** 0.5 * (np.angle(z) * (np.pi - np.angle(z))) ** 0.25,
                    half)
    assert got == pytest.approx(want, rel=1e-13)


def test_folded_exponents_are_checked():
    with pytest.raises(ValueError, match="folded exponents"):
        disk_grid(8, 8, radial=(0.0, 1.0))
    with pytest.raises(ValueError, match="folded exponents"):
        disk_grid(8, 8, angular=(-0.5, 0.0))
    with pytest.raises(ValueError, match="periodic"):
        halfplane_grid(2.0, 8, 8, angular=None)


def test_import_builds_no_rule_and_needs_only_numpy():
    code = ("import sys, polyspace.cli; from polyspace import quadrature; "
            "print(quadrature._rule.cache_info().currsize, "
            "sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0", "[]"]
