import dataclasses
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
    QuadSettings,
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


def test_quad_settings_sizes_halve_both_sizes_per_level_below_0():
    ladder = QuadSettings(n_r=8, n_theta=12)
    assert ladder.sizes(-2) == (2, 3) and ladder.sizes(-1) == (4, 6)
    assert ladder.sizes(0) == (8, 12) and ladder.sizes(1) == (16, 24)
    # 12 halves twice, 8 three times: level -3 would leave a fraction
    for n_r, n_theta in [(8, 12), (12, 8)]:
        with pytest.raises(ValueError, match=f"^level -3 halves {n_r} x {n_theta} to a "
                                             "fraction$"):
            QuadSettings(n_r=n_r, n_theta=n_theta).sizes(-3)


def test_grid_family_doubles_both_sizes_per_level_and_refuses_a_negative_level():
    disk = grid_family(Domain.DISK, 8, 12)
    assert disk(0) is disk_grid(8, 12) and disk(1) is disk_grid(16, 24)
    half = grid_family(Domain.HALFPLANE, 8, 12, R=8.0)
    assert (half(2).n_r, half(2).n_theta) == (32, 48)
    for family in (disk, half):
        with pytest.raises(ValueError, match="^level is -1"):
            family(-1)


# the ladder: where an integral of a given angular band starts and stops


@pytest.mark.parametrize("band, first", [(0, -2), (63, -2), (64, -1), (255, 0), (256, 1)])
def test_the_first_level_is_the_coarsest_whose_angles_exceed_the_band(band, first):
    assert QuadSettings().first_level(band) == first
    # each level doubles the angles of the one below
    assert QuadSettings().sizes(first)[1] > band
    if first > -2:
        assert QuadSettings().sizes(first - 1)[1] <= band


@pytest.mark.parametrize("n_r, n_theta, lowest", [(3, 6, 0), (6, 12, -1), (8, 6, -1)])
def test_the_first_level_is_no_lower_than_both_sizes_halve(n_r, n_theta, lowest):
    ladder = QuadSettings(n_r=n_r, n_theta=n_theta, max_level=3)
    assert ladder.first_level(0) == lowest
    assert min(ladder.first_level(band) for band in range(n_theta << 3)) == lowest


def test_a_fixed_grid_starts_at_level_0_for_any_band_it_resolves():
    fixed = QuadSettings(refine=False)
    assert fixed.last_level == 0 and QuadSettings(max_level=3).last_level == 3
    assert {fixed.first_level(band) for band in range(DEFAULT_N_THETA)} == {0}


@pytest.mark.parametrize("settings, finest", [
    (QuadSettings(refine=False), 256),
    (QuadSettings(max_level=2), 1024),
    (QuadSettings(n_r=3, n_theta=6, max_level=0), 6),
])
def test_a_band_beyond_the_finest_level_is_refused(settings, finest):
    assert settings.first_level(finest - 1) == settings.last_level
    for band in (finest, 2 * finest):
        with pytest.raises(ValueError, match=f"^n_theta is {settings.n_theta}, but the "
                                             f"integrand's angular band {band} needs more "
                                             f"than {band} angles, and the finest level "
                                             f"allowed, {settings.last_level}, has {finest}$"):
            settings.first_level(band)


def test_refine_levels_walks_absolute_levels_from_first():
    visited = []

    def value_at(level):
        visited.append(level)
        return 1.0 + 2.0 ** -(level + 3)

    res = refine_levels(value_at, QuadSettings(rel_tol=1e-3, max_level=3), first=-2)
    assert visited == [-2, -1, 0, 1, 2, 3]
    assert res == RefineResult(1.0 + 2.0 ** -6, 2.0 ** -6 / (1.0 + 2.0 ** -5), False, 3)
    visited.clear()
    res = refine_levels(value_at, QuadSettings(rel_tol=0.2), first=-2)
    assert visited == [-2, -1] and res.converged and res.level == -1
    visited.clear()
    res = refine_levels(value_at, QuadSettings(refine=False), first=-1)
    assert visited == [-1]
    assert (res.value, res.level, res.refined) == (1.25, -1, False)



def test_refine_family_walks_each_member_as_refine_levels_walks_it_alone():
    # member i's values settle at level i, so it stops at level i + 1 at most
    def value(i, level):
        return 1.0 + 2.0 ** -max(level + 3, 0) * (level < i)

    firsts = (-2, 0, -1, 2)
    for settings in (QuadSettings(rel_tol=1e-3, max_level=3), QuadSettings(refine=False)):
        visits = []

        def values_at(level, running):
            visits.append((level, running))
            return [value(i, level) for i in running]

        family = quadrature.refine_family(values_at, settings, firsts)
        alone = [refine_levels(lambda level, i=i: value(i, level), settings, first)
                 for i, first in enumerate(firsts)]
        assert family == alone
        if settings.refine:
            # a level is asked for once, for the members that have reached it
            # and not stopped
            assert visits == [(-2, [0]), (-1, [0, 2]), (0, [0, 1, 2]), (1, [0, 1, 2]),
                              (2, [1, 2, 3]), (3, [2, 3])]
            assert [res.level for res in family] == [1, 2, 3, 3]
            assert [res.converged for res in family] == [True, True, True, False]
        else:
            assert visits == [(-2, [0]), (-1, [2]), (0, [1]), (2, [3])]


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


@pytest.mark.parametrize("build, args, name", [
    (disk_grid, (4, 0), "n_theta"),
    (disk_grid, (0, 4), "n_r"),
    (disk_grid, (2.5, 4), "n_r"),
    (halfplane_grid, (8.0, 4, 0), "n_theta"),
    (halfplane_grid, (8.0, 0, 4), "n_r"),
])
def test_grid_builders_name_a_bad_size(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got "):
        build(*args)


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
    slow = refine_levels(lambda level: 1.0 + 2.0 ** -level,
                         QuadSettings(rel_tol=1e-3, max_level=3))
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


@pytest.mark.parametrize("n_r, n_theta", [
    (128, 256),
    (300, 100),                               # two blocks, not powers of two
    (3, 2 * quadrature.BLOCK_VALUES + 1),     # one radius per block
])
def test_blocked_sum_is_the_sum_of_the_weighted_values(n_r, n_theta):
    grid = disk_grid(n_r, n_theta)
    vals = np.random.default_rng(n_r).random((n_r, n_theta))
    want = math.fsum(vals.ravel() * _all_nodes(grid)[1])
    assert quadrature.blocked_sum(lambda rows: vals[rows], grid) == pytest.approx(want, rel=1e-14)


def test_blocked_sum_does_not_depend_on_the_block_split(monkeypatch):
    grid = disk_grid(300, 100)
    vals = np.random.default_rng(5).random((300, 100))
    whole = quadrature.blocked_sum(lambda rows: vals[rows], grid)
    monkeypatch.setattr(quadrature, "BLOCK_VALUES", 700)
    seen = []

    def block_values(rows):
        seen.append(rows)
        return vals[rows]

    assert quadrature.blocked_sum(block_values, grid) == pytest.approx(whole, rel=1e-14)
    # seven radii per block, the last block short
    assert [(r.start, r.stop) for r in seen] == [(i, min(i + 7, 300)) for i in range(0, 300, 7)]


def test_blocks_are_bounded_powers_of_two():
    for n_theta in (1, 40, 256, 512, 2048, 16384, 40000):
        rows = quadrature.block_rows(n_theta)
        assert rows * n_theta <= max(quadrature.BLOCK_VALUES, n_theta)
        assert 2 * rows * n_theta > quadrature.BLOCK_VALUES


def test_blocked_sum_names_a_bad_node_in_a_later_block():
    grid = disk_grid(300, 100)   # two blocks of radii, the last one short
    vals = np.ones((300, 100))
    vals[290, 7] = -np.inf
    with pytest.raises(ValueError) as err:
        quadrature.blocked_sum(lambda rows: vals[rows], grid)
    assert str(err.value) == (f"integrand is -inf at node s_290 e^(i theta_7) = "
                              f"{grid.radii[290]} * exp({grid.angles[7]}j)")
    # an overflowing sum of finite values is refused
    with pytest.raises(ValueError, match="^integral overflows"):
        integrate(lambda z: np.full(z.shape, 1e308), grid)


def test_an_overflowing_total_of_finite_block_sums_is_refused():
    n_theta = quadrature.BLOCK_VALUES   # one radius per block
    grid = dataclasses.replace(disk_grid(2, n_theta), radial_weights=np.ones(2),
                               angle_weights=np.full(n_theta, 1.0 / n_theta))
    # each block sums to 0.6 of the largest float, the two to 1.2
    big = np.full((1, n_theta), 0.6 * np.finfo(float).max)
    with pytest.raises(ValueError, match="^integral overflows: its finite block sums"):
        quadrature.blocked_sum(lambda rows: big, grid)


def test_blocked_sum_names_a_node_whose_weight_is_not_finite():
    grid = disk_grid(8, 8)
    radial, angular = grid.radial_weights.copy(), grid.angle_weights.copy()
    radial[5], angular[0] = np.inf, 0.0   # inf * 0 is nan
    bad = dataclasses.replace(grid, radial_weights=radial, angle_weights=angular)
    with pytest.raises(ValueError) as err:
        quadrature.blocked_sum(lambda rows: np.ones((rows.stop - rows.start, 8)), bad)
    assert str(err.value) == (f"measure weight is nan at node s_5 e^(i theta_0) = "
                              f"{grid.radii[5]} * exp({grid.angles[0]}j)")


@pytest.mark.parametrize("field, value", [("rel_tol", math.nan), ("max_level", -1)])
def test_refine_until_refuses_an_out_of_range_policy(field, value):
    args = {"rel_tol": DEFAULT_REL_TOL, "max_level": DEFAULT_MAX_LEVEL, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        refine_until(lambda z: np.ones(z.shape), grid_family(Domain.DISK, 4, 4), **args)


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


def test_a_radial_and_an_angular_rule_share_one_reference_solve():
    gauss_jacobi = quadrature.gauss_jacobi
    gauss_jacobi.cache_clear()
    quadrature._rule.cache_clear()
    # x^e0 (end - x)^e1 on (0, end) is the reference weight (1 - x)^e1 (1 + x)^e0
    grid = halfplane_grid.__wrapped__(2.0, 24, 24, radial=(0.25, 0.5), angular=(0.25, 0.5))
    info = gauss_jacobi.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    x, _ = gauss_jacobi(24, 0.5, 0.25)
    assert np.array_equal(grid.radii, (x + 1.0) / 2.0 * 2.0)
    assert np.array_equal(grid.angles, (x + 1.0) / 2.0 * np.pi)
    # a disk grid of that size maps the same solve again
    disk_grid.__wrapped__(24, 24, radial=(0.25, 0.5), angular=(0.25, 0.5))
    assert gauss_jacobi.cache_info().misses == 1
    assert not x.flags.writeable


def test_import_builds_no_rule_and_needs_only_numpy():
    code = ("import sys, polyspace.cli; from polyspace import norms, quadrature; "
            "print(quadrature.gauss_jacobi.cache_info().currsize, "
            "quadrature._rule.cache_info().currsize, "
            "norms._level_rule.cache_info().currsize, "
            "norms._level_moments.cache_info().currsize, "
            "sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0", "0", "0", "0", "[]"]


# ---------------------------------------------------------------------------
# the power tables kept per rule


def _kept(grid):
    """The power tables that the grid's rules keep."""
    return [table for rule in (grid.radial_rule, grid.angular_rule)
            for *_, table in rule.tables.values()]


_TABLE_GRIDS = [
    lambda: disk_grid.__wrapped__(12, 16),
    lambda: disk_grid.__wrapped__(9, 7, radial=(0.0, 0.5), angular=(0.25, 0.0)),
    lambda: halfplane_grid.__wrapped__(8.0, 10, 12, radial=(0.5, 0.0), angular=(0.25, 0.25)),
]


@pytest.mark.parametrize("make", _TABLE_GRIDS)
def test_rule_tables_are_the_fresh_tables_whatever_order_of_widths(make, power_tables):
    # the loop oracle is a fresh _harmonic_table bit for bit (test_polyfun.py)
    fresh = _oracles.loop_harmonic_table
    grid = make()
    for lo, hi in [(0, 1), (-1, 3), (-3, 40), (0, 2), (-2, 5), (-4, 45), (0, 0)]:
        assert np.array_equal(grid.harmonics(lo, hi), fresh(grid.angles, lo, hi))
    for width in [3, 50, 7, 1, 61]:
        assert np.array_equal(grid.radius_powers(width),
                              grid.radii[:, None] ** np.arange(width))
    # row 1 is u = exp(i theta) itself, so the nodes are as before
    assert np.array_equal(grid.block_nodes(slice(2, 5)),
                          grid.radii[2:5, None] * np.exp(1j * grid.angles)[None, :])
    # each table is built again only when a wider range is asked for
    ranges = [(lo, hi) for name, _, lo, hi, _ in power_tables if name == "_harmonic_table"]
    assert ranges == [(0, 1), (-1, 3), (-3, 40), (-4, 45)]
    widths = [hi + 1 for name, _, _, hi, _ in power_tables if name == "_radius_powers"]
    assert widths == [3, 50, 61]
    # each rule keeps its widest table
    assert [table.shape for table in _kept(grid)] == [(grid.n_r, 61), (50, grid.n_theta)]


@pytest.mark.parametrize("field, change", [("angles", lambda a: a + 0.125),
                                           ("radii", lambda s: s * 0.5)])
def test_a_grid_with_replaced_nodes_never_reads_its_rule_table(field, change, power_tables):
    grid = disk_grid.__wrapped__(8, 16)
    kept = (grid.harmonics(-2, 10), grid.radius_powers(12))
    rules = (grid.radial_rule, grid.angular_rule)
    tables = [dict(rule.tables) for rule in rules]
    swapped = dataclasses.replace(grid, **{field: change(getattr(grid, field))})
    got = (swapped.harmonics(-2, 10), swapped.radius_powers(12))
    assert np.array_equal(got[0], _oracles.loop_harmonic_table(swapped.angles, -2, 10))
    assert np.array_equal(got[1], swapped.radii[:, None] ** np.arange(12))
    assert np.array_equal(swapped.block_nodes(slice(None)),
                          swapped.radii[:, None] * np.exp(1j * swapped.angles)[None, :])
    changed = 0 if field == "angles" else 1
    assert not np.array_equal(got[changed], kept[changed])
    # the swapped grid still holds the rules, whose tables are kept as they
    # were: the swapped nodes' tables are not kept
    assert (swapped.radial_rule, swapped.angular_rule) == rules
    for rule, before in zip(rules, tables):
        assert rule.tables.keys() == before.keys()
        assert all(rule.tables[key] is entry for key, entry in before.items())


def test_rule_tables_are_read_only(power_tables):
    grid = halfplane_grid.__wrapped__(4.0, 6, 8)
    arrays = [grid.harmonics(-1, 3), grid.radius_powers(4)]
    arrays += _kept(grid)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


def test_a_rule_keeps_a_table_of_at_most_a_block_of_values(power_tables):
    grid = disk_grid.__wrapped__(4, 64)
    rows = quadrature.BLOCK_VALUES // 64
    grid.harmonics(0, rows - 1)
    assert len(power_tables) == 1 and _kept(grid)[0].size == quadrature.BLOCK_VALUES
    # a wider range is built per call, not kept, and every call builds it
    for _ in range(2):
        wide = grid.harmonics(0, rows)
        assert np.array_equal(wide, _oracles.loop_harmonic_table(grid.angles, 0, rows))
    assert len(power_tables) == 3 and _kept(grid)[0].shape == (rows, 64)
    # the kept table still serves what it holds
    grid.harmonics(0, rows - 1)
    assert len(power_tables) == 3


def test_grids_of_one_rule_share_its_tables(power_tables):
    plain = disk_grid(8, 16)
    other = disk_grid(8, 16, radial=(0.0, 0.5), angular=None)
    assert other.angular_rule is plain.angular_rule
    assert other.radial_rule is not plain.radial_rule
    # the second grid reads the first's angular table and builds its own radial one
    plain.harmonics(-1, 6)
    other.harmonics(0, 3)
    plain.radius_powers(5)
    other.radius_powers(5)
    assert [name for name, *_ in power_tables] == ["_harmonic_table", "_radius_powers",
                                                   "_radius_powers"]


def test_a_grid_reads_its_rules_tables_without_asking_for_a_rule(power_tables):
    grid = disk_grid(8, 16, radial=(0.0, 0.5))
    grid.harmonics(-1, 4)
    grid.radius_powers(6)
    quadrature._rule.cache_clear()
    grid.harmonics(-1, 2)
    grid.radius_powers(6)
    # no rule was built to check the nodes, and no table was built again
    assert quadrature._rule.cache_info().currsize == 0
    assert len(power_tables) == 2


def test_threads_sharing_a_rule_read_the_fresh_tables(power_tables):
    import sys
    import threading

    grid = disk_grid(6, 24, angular=(0.25, 0.0))
    ranges = [(-(i % 4), 3 + 7 * (i % 5)) for i in range(40)]
    want = {r: _oracles.loop_harmonic_table(grid.angles, *r) for r in set(ranges)}
    bad = []

    def work(k):
        for lo, hi in ranges[k:] + ranges[:k]:
            if not np.array_equal(grid.harmonics(lo, hi), want[lo, hi]):
                bad.append((lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(0, 40, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # a racing build replaces a table, never writes into one, so every read is whole
    assert bad == []
