import numpy as np
import pytest

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
    weighted_sum,
)

import _oracles


# ---------------------------------------------------------------------------
# grid structure


def test_disk_grid_shape_and_interior():
    grid = disk_grid(16, 32)
    assert grid.nodes.shape == (16 * 32,)
    assert grid.node_weights.shape == (16 * 32,)
    assert np.all(np.abs(grid.nodes) < 1)
    assert np.all(grid.node_weights > 0)
    # total mass is the disk area
    assert np.sum(grid.node_weights) == pytest.approx(np.pi, rel=1e-13)


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
    grid = halfplane_grid(8.0, 32, 64)
    assert np.all(grid.nodes.imag > 0)
    assert np.all(np.abs(grid.nodes) <= 8.0)
    assert np.all(grid.node_weights > 0)
    # mass of the half-disk of radius R
    assert np.sum(grid.node_weights) == pytest.approx(np.pi * 32, rel=1e-12)


def test_halfplane_grid_validation():
    with pytest.raises(ValueError):
        halfplane_grid(0.0, 16, 32)
    with pytest.raises(ValueError):
        halfplane_grid(-1.0, 16, 32)


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


def test_integration_is_deterministic():
    g = lambda z: np.exp(np.real(z)) * (1 - np.abs(z) ** 2)
    a = integrate(g, disk_grid())
    b = integrate(g, disk_grid())
    assert a == b


def test_grid_arrays_are_frozen():
    grid = disk_grid(8, 8)
    with pytest.raises(ValueError):
        grid.nodes[0] = 0.0
    with pytest.raises(ValueError):
        grid.node_weights[0] = 0.0


@pytest.mark.parametrize("grid", [disk_grid(8, 8), disk_grid(3, 1),
                                  halfplane_grid(8.0, 8, 8), halfplane_grid(2.0, 4, 1)])
def test_radii_and_angles_rebuild_the_nodes(grid):
    assert grid.radii.shape == (grid.n_r,)
    assert grid.angles.shape == (grid.n_theta,)
    rebuilt = (grid.radii[:, None] * np.exp(1j * grid.angles)[None, :]).ravel()
    assert np.array_equal(rebuilt, grid.nodes)
    with pytest.raises(ValueError):
        grid.radii[0] = 0.0
    with pytest.raises(ValueError):
        grid.angles[0] = 0.0


def test_weighted_sum_and_refine_levels():
    grid = disk_grid(8, 8)
    assert weighted_sum(np.ones(grid.size), grid) == pytest.approx(np.pi, rel=1e-13)
    with pytest.raises(TypeError):
        weighted_sum(grid.nodes, grid)
    # a constant sequence converges at the first comparison
    assert refine_levels(lambda level: 2.0) == RefineResult(2.0, 0.0, True, 1)
    slow = refine_levels(lambda level: 1.0 + 2.0 ** -level, rel_tol=1e-3, max_level=3)
    assert slow == RefineResult(1.125, 0.125 / 1.25, False, 3)
