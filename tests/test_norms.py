import math
import warnings

import numpy as np
import pytest

from polyspace import (
    AngularPoly,
    Domain,
    ExpAbs,
    ExpAbsPow,
    ExpRePow,
    PolyFunction,
    PowerLaw,
    PowerSeries,
    Product,
    QuadSettings,
    SpaceKind,
    SpaceSpec,
    Uniform,
    bergman_norm,
    besov_norm,
    d_z,
    d_zbar,
    dilate,
    dirichlet_norm,
    disk_grid,
    eval_weight,
    from_monomials,
    monomial,
    norm_of_difference,
    scale,
    space_norm,
    sub,
    weighted_p_integral,
)

import _oracles

DISK, HALF = Domain.DISK, Domain.HALFPLANE
UNI = Uniform()


def disk_spec(kind, p, weight=UNI, **kw):
    return SpaceSpec(domain=DISK, kind=kind, p=p, weight=weight, **kw)


def hp_spec(kind, p, weight=UNI, alpha=0.0, beta=1.0, **kw):
    return SpaceSpec(domain=HALF, kind=kind, p=p, weight=weight,
                     alpha=alpha, beta=beta, **kw)


# ---------------------------------------------------------------------------
# closed-form norms


def test_bergman_norm_of_one():
    res = bergman_norm(monomial(0, 0), disk_spec(SpaceKind.BERGMAN, 2))
    assert res.full_norm == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert res.point_term == 0.0


def test_bergman_norm_of_zbar():
    # |conj(z)|^2 integrates like |z|^2
    res = bergman_norm(monomial(1, 0), disk_spec(SpaceKind.BERGMAN, 2))
    assert res.full_norm == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_halfplane_bergman_gaussian_mass():
    res = bergman_norm(monomial(0, 0), hp_spec(SpaceKind.BERGMAN, 2))
    assert res.full_norm == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)


def test_dirichlet_norm_of_zbar():
    # f = conj(z): d_z f = 0, d_zbar f = 1, f(0) = 0
    res = dirichlet_norm(monomial(1, 0), disk_spec(SpaceKind.DIRICHLET, 2))
    assert res.point_term == 0.0
    assert res.seminorm == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert res.full_norm == res.seminorm


def test_halfplane_dirichlet_norm_of_z():
    # f = z: |f(i)|^2 = 1 and the gradient term is the Gaussian mass pi/2
    res = dirichlet_norm(monomial(0, 1), hp_spec(SpaceKind.DIRICHLET, 2))
    assert res.point_term == pytest.approx(1.0)
    assert res.full_norm == pytest.approx(math.sqrt(1 + math.pi / 2), rel=1e-10)


def test_besov_p4_norm_of_z():
    # f = z on the disk, p = 4: integrand (1 - |z|^2)^2 -> integral pi/3
    res = besov_norm(monomial(0, 1), disk_spec(SpaceKind.BESOV, 4))
    assert res.full_norm == pytest.approx((math.pi / 3) ** 0.25, rel=1e-12)


def test_dilatation_error_closed_form():
    # || (zbar z)_r - zbar z || in the p = 2 Besov space is (1 - r^2) sqrt(pi)
    f = monomial(1, 1)
    spec = disk_spec(SpaceKind.BESOV, 2)
    for r in (0.5, 0.9, 0.99):
        got = norm_of_difference(dilate(f, r), f, spec).full_norm
        assert got == pytest.approx((1 - r * r) * math.sqrt(math.pi), rel=1e-8)


def test_norm_of_difference_with_self_is_zero():
    f = from_monomials({(0, 1): 1.0, (1, 0): 2.0, (2, 3): 1.5j}, q=3)
    res = norm_of_difference(f, f, disk_spec(SpaceKind.DIRICHLET, 2))
    assert res.full_norm == 0.0


# ---------------------------------------------------------------------------
# cross-checks against independent machinery


def test_dirichlet_norm_matches_finite_difference_oracle():
    f = from_monomials({(1, 1): 1.0, (0, 2): 0.5}, q=2)
    w = ExpAbsPow(beta=1.0, n=2)
    res = dirichlet_norm(f, disk_spec(SpaceKind.DIRICHLET, 2, weight=w))
    ref = _oracles.dirichlet_norm_fd(
        f, lambda z: eval_weight(w, z), p=2.0)
    assert res.full_norm == pytest.approx(ref, rel=2e-4)


def test_bergman_norm_matches_midpoint_oracle():
    f = from_monomials({(1, 0): 1.0, (0, 1): 1.0j, (1, 2): 0.25}, q=2)
    w = ExpAbsPow(beta=0.5, n=2)
    res = bergman_norm(f, disk_spec(SpaceKind.BERGMAN, 3, weight=w))
    ref = _oracles.midpoint_disk(
        lambda z: np.abs(f(z)) ** 3 * eval_weight(w, z)) ** (1 / 3)
    assert res.full_norm == pytest.approx(ref, rel=1e-5)


def test_analytic_dirichlet_reduces_to_classical_form():
    # for q = 1 the zbar-derivative vanishes, leaving |f(0)|^p + int |f'|^p w
    f = PolyFunction((PowerSeries([0.3, 1.0, 0.5j]),))
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    res = dirichlet_norm(f, spec)
    fp = f.components[0].derivative()
    ref = _oracles.midpoint_disk(lambda z: np.abs(fp(z)) ** 2)
    assert res.point_term == pytest.approx(abs(0.3) ** 2)
    assert res.seminorm**2 == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# structural properties


def test_besov_p2_equals_dirichlet_exactly(corpus_functions):
    for label, f in corpus_functions:
        for spec_b, spec_d in [
            (disk_spec(SpaceKind.BESOV, 2), disk_spec(SpaceKind.DIRICHLET, 2)),
            (hp_spec(SpaceKind.BESOV, 2), hp_spec(SpaceKind.DIRICHLET, 2)),
        ]:
            nb = besov_norm(f, spec_b).full_norm
            nd = dirichlet_norm(f, spec_d).full_norm
            assert nb == nd, label


def test_norm_homogeneity(corpus_functions):
    spec = disk_spec(SpaceKind.DIRICHLET, 3)
    for label, f in corpus_functions:
        base = space_norm(f, spec).full_norm
        scaled = space_norm(scale(f, -2.0j), spec).full_norm
        assert scaled == pytest.approx(2.0 * base, rel=1e-12), label


def test_triangle_inequality(corpus_functions):
    # on a fixed grid every norm is a discrete Minkowski norm, so the
    # inequality holds up to roundoff with no quadrature caveats
    fixed = QuadSettings(refine=False)
    specs = [disk_spec(SpaceKind.DIRICHLET, 2),
             disk_spec(SpaceKind.BERGMAN, 1),
             disk_spec(SpaceKind.BESOV, 3)]
    fns = [f for _, f in corpus_functions]
    pairs = [(fns[1], fns[3]), (fns[2], fns[6]), (fns[7], fns[9])]
    for spec in specs:
        for f, g in pairs:
            both = space_norm(sub(f, scale(g, -1.0)), spec, fixed).full_norm
            split = (space_norm(f, spec, fixed).full_norm
                     + space_norm(g, spec, fixed).full_norm)
            assert both <= split + 1e-10


def test_norm_decomposition(corpus_functions):
    spec = disk_spec(SpaceKind.DIRICHLET, 3)
    for label, f in corpus_functions:
        res = space_norm(f, spec)
        assert res.full_norm**spec.p == pytest.approx(
            res.point_term + res.seminorm**spec.p, rel=1e-12, abs=1e-300), label


def test_bergman_ignores_derivatives():
    # two functions with the same modulus surface have equal Bergman norms
    f = monomial(1, 0)   # conj(z)
    g = monomial(0, 1)   # z
    spec = disk_spec(SpaceKind.BERGMAN, 2)
    assert bergman_norm(f, spec).full_norm == pytest.approx(
        bergman_norm(g, spec).full_norm, rel=1e-14)


def test_point_term_uses_base_point():
    f = from_monomials({(0, 0): 2.0, (0, 1): 1.0}, q=1)  # 2 + z
    disk_res = dirichlet_norm(f, disk_spec(SpaceKind.DIRICHLET, 2))
    assert disk_res.point_term == pytest.approx(4.0)
    hp_res = dirichlet_norm(f, hp_spec(SpaceKind.DIRICHLET, 2))
    assert hp_res.point_term == pytest.approx(abs(2 + 1j) ** 2)


# ---------------------------------------------------------------------------
# settings, flags, validation


def test_kind_dispatch_is_checked():
    spec = disk_spec(SpaceKind.BERGMAN, 2)
    with pytest.raises(ValueError):
        dirichlet_norm(monomial(0, 1), spec)
    with pytest.raises(ValueError):
        besov_norm(monomial(0, 1), spec)


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="besov requires p >= 2"):
        disk_spec(SpaceKind.BESOV, 1.5)
    with pytest.raises(ValueError, match="p"):
        disk_spec(SpaceKind.DIRICHLET, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        SpaceSpec(domain=DISK, kind=SpaceKind.DIRICHLET, p=2, weight=UNI,
                  alpha=1.0)
    with pytest.raises(ValueError, match="alpha"):
        SpaceSpec(domain=HALF, kind=SpaceKind.DIRICHLET, p=2, weight=UNI,
                  beta=1.0)
    with pytest.raises(ValueError,
                       match="requires an explicit truncation radius"):
        SpaceSpec(domain=HALF, kind=SpaceKind.DIRICHLET, p=2, weight=UNI,
                  alpha=0.0, beta=0.0)


def test_beta_zero_with_explicit_radius_truncates():
    spec = SpaceSpec(domain=HALF, kind=SpaceKind.BERGMAN, p=2, weight=UNI,
                     alpha=0.0, beta=0.0, quad_R=1.0)
    assert spec.truncated
    assert spec.truncation_radius == 1.0
    res = bergman_norm(monomial(0, 0), spec)
    # the measure is plain area on the half-disk of radius 1
    assert res.full_norm == pytest.approx(math.sqrt(math.pi / 2), rel=1e-8)
    assert res.flags.truncated


def test_fixed_grid_flags():
    res = space_norm(monomial(0, 1), disk_spec(SpaceKind.BERGMAN, 2),
                     QuadSettings(refine=False))
    assert not res.flags.refined
    assert res.flags.converged
    assert res.flags.level == 0
    assert math.isnan(res.flags.rel_change)


def test_non_convergence_is_flagged_not_hidden():
    # d_z(z^2 - z) = 2z - 1 vanishes at z = 1/2, so |.|^2.5 has a kink inside
    # the disk that no rule folds away; one level cannot settle it to 1e-12
    settings = QuadSettings(rel_tol=1e-12, max_level=1)
    f = from_monomials({(0, 2): 1.0, (0, 1): -1.0}, q=1)
    res = space_norm(f, disk_spec(SpaceKind.BESOV, 2.5), settings)
    assert not res.flags.converged
    assert res.full_norm > 0


def test_angular_weight_norm_is_finite():
    # the weight jumps across the positive real axis; the angular rule is
    # Gauss-Legendre on (0, 2 pi), so a fixed grid already resolves it
    w = AngularPoly(alpha=1.0, theta_max=2 * math.pi)
    res = dirichlet_norm(monomial(1, 1),
                         disk_spec(SpaceKind.DIRICHLET, 2, weight=w),
                         QuadSettings(refine=False))
    assert res.full_norm > 0
    assert math.isfinite(res.full_norm)


@pytest.mark.parametrize("settings", [QuadSettings(), QuadSettings(refine=False)],
                         ids=["refined", "fixed-grid"])
def test_bergman_seminorm_is_the_weighted_p_integral(settings):
    f = from_monomials({(0, 1): 1.0, (1, 1): 0.5 - 0.25j}, q=2)
    spec = disk_spec(SpaceKind.BERGMAN, 2, weight=ExpAbsPow(beta=1.0, n=2))
    res = space_norm(f, spec, settings)
    assert res.seminorm == weighted_p_integral(f, spec, settings)[0] ** (1 / spec.p)
    assert res.full_norm == res.seminorm


def test_weight_outside_its_support_fails_at_the_first_integral():
    # theta_max = pi leaves the lower half of the disk outside the support
    spec = disk_spec(SpaceKind.BERGMAN, 2,
                     weight=AngularPoly(alpha=1.0, theta_max=math.pi))
    with pytest.raises(ValueError, match="outside the support"):
        space_norm(monomial(0, 1), spec)


def test_describe_mentions_the_pieces():
    text = hp_spec(SpaceKind.BESOV, 3).describe()
    assert "halfplane" in text and "besov" in text and "p=3" in text


@pytest.mark.parametrize("field, value", [
    ("n_r", 0), ("n_theta", 0), ("rel_tol", 0.0), ("rel_tol", -1.0),
    ("rel_tol", math.nan), ("max_level", -1),
])
def test_quad_settings_refuse_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        QuadSettings(**{field: value})


def test_norm_integrals_evaluate_point_values_only(monkeypatch):
    from polyspace import polyfun

    sizes = []
    evaluate, call = polyfun.evaluate, polyfun.PowerSeries.__call__

    def traced_evaluate(f, z):
        sizes.append(np.size(z))
        return evaluate(f, z)

    def traced_call(h, z):
        sizes.append(np.size(z))
        return call(h, z)

    monkeypatch.setattr(polyfun, "evaluate", traced_evaluate)
    monkeypatch.setattr(polyfun.PowerSeries, "__call__", traced_call)
    f = from_monomials({(0, 3): 1.0, (1, 1): 0.5j, (2, 0): 0.25}, q=3)
    for spec in (disk_spec(SpaceKind.DIRICHLET, 3), hp_spec(SpaceKind.BESOV, 2)):
        space_norm(f, spec, QuadSettings(max_level=1))
        weighted_p_integral(f, spec, QuadSettings(refine=False))
    assert sizes and max(sizes) == 1


@pytest.mark.parametrize("field, value", [
    ("n_r", 2.5), ("n_theta", math.inf), ("rel_tol", math.inf), ("max_level", math.nan),
])
def test_quad_settings_refuse_non_integer_and_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        QuadSettings(**{field: value})


@pytest.mark.parametrize("domain, fields, name", [
    (DISK, {"p": math.inf}, "p"),
    (DISK, {"p": math.nan}, "p"),
    (DISK, {"quad_R": 4.0}, "quad_R"),
    (DISK, {"beta": 1.0}, "beta"),
    (HALF, {"alpha": math.nan}, "alpha"),
    (HALF, {"alpha": math.inf}, "alpha"),
    (HALF, {"beta": math.nan}, "beta"),
    (HALF, {"beta": math.inf}, "beta"),
    (HALF, {"quad_R": -1.0}, "quad_R"),
    (HALF, {"quad_R": 0.0}, "quad_R"),
    (HALF, {"quad_R": math.nan}, "quad_R"),
    (HALF, {"quad_R": math.inf}, "quad_R"),
])
def test_spec_refuses_non_finite_and_misplaced_fields(domain, fields, name):
    base = {"p": 2.0}
    if domain is HALF:
        base.update(alpha=0.0, beta=1.0)
    base.update(fields)
    with pytest.raises(ValueError, match=f"^{name} ") as err:
        SpaceSpec(domain=domain, kind=SpaceKind.BERGMAN, weight=UNI, **base)
    if domain is DISK and name != "p":
        assert "halfplane" in str(err.value)


# ---------------------------------------------------------------------------
# the factored measure and the blocked reduction against a per-node oracle


def _oracle_weights(domain):
    theta_max = 2 * math.pi if domain is DISK else math.pi
    angular = AngularPoly(alpha=1.0, theta_max=theta_max)
    return [
        UNI, ExpAbsPow(beta=1.0, n=2), ExpAbsPow(beta=0.5, n=3), ExpRePow(beta=1.0, n=1),
        ExpRePow(beta=2.0, n=2), ExpAbs(), angular,
        AngularPoly(alpha=0.5, theta_max=theta_max),
        Product(radial=PowerLaw(gamma=0.5), angular=angular),
        Product(radial=ExpAbsPow(beta=1.0, n=2), angular=UNI),
        Product(radial=ExpAbsPow(beta=1.0, n=2), angular=angular),
    ]


_ORACLE_F = from_monomials({(0, 0): 0.5, (0, 3): 1.0 - 0.5j, (1, 2): 0.75j,
                            (2, 1): -0.25, (1, 0): 0.3}, q=3)
# power-of-two grids, a non-power-of-two grid in one block, and one in three
# blocks of radii with a short last block
_ORACLE_GRIDS = [(16, 32), (64, 512), (24, 40), (300, 100)]


@pytest.mark.parametrize("domain", [DISK, HALF], ids=str)
@pytest.mark.parametrize("w", range(len(_oracle_weights(DISK))))
def test_norms_match_the_per_node_oracle(domain, w):
    weight = _oracle_weights(domain)[w]
    f = _ORACLE_F
    for n_r, n_theta in _ORACLE_GRIDS:
        settings = QuadSettings(n_r=n_r, n_theta=n_theta, refine=False)
        for kind in SpaceKind:
            for p in (2.0, 2.5, 3.0):
                spec = (disk_spec(kind, p, weight) if domain is DISK
                        else hp_spec(kind, p, weight, alpha=0.5))
                grid = spec.grid_family(n_r, n_theta)(0)
                parts = [f] if kind is SpaceKind.BERGMAN else [d_z(f), d_zbar(f)]
                want = _oracles.per_node_integral(parts, spec, grid)
                res = space_norm(f, spec, settings)
                assert res.seminorm**p == pytest.approx(want, rel=1e-13), (n_r, kind, p)
                got = weighted_p_integral(f, spec, settings)[0]
                assert got == pytest.approx(_oracles.per_node_integral([f], spec, grid),
                                            rel=1e-13), (n_r, kind, p)


# monomials against the Beta and Gamma closed forms of their measures

_CLOSED_FORM_CASES = [
    (disk_spec(SpaceKind.BESOV, 2.5), (1, 2, 1.5)),
    (disk_spec(SpaceKind.BESOV, 2.25), (0, 3, 1.0 - 0.5j)),
    (disk_spec(SpaceKind.DIRICHLET, 2.0, Product(radial=PowerLaw(gamma=0.5), angular=UNI)),
     (2, 1, 1.0)),
    (disk_spec(SpaceKind.DIRICHLET, 3.0, Product(radial=PowerLaw(gamma=0.25), angular=UNI)),
     (1, 1, 0.5j)),
    (hp_spec(SpaceKind.DIRICHLET, 2.0, alpha=0.5, beta=1.0), (1, 1, 1.0)),
    (hp_spec(SpaceKind.DIRICHLET, 2.0, alpha=0.25, beta=0.5), (0, 2, 1.0)),
    (hp_spec(SpaceKind.BESOV, 2.5, alpha=0.25, beta=1.0), (1, 2, 0.75)),
    (disk_spec(SpaceKind.DIRICHLET, 3.0, AngularPoly(alpha=1.0, theta_max=2 * math.pi)),
     (1, 2, 1.0)),
    (disk_spec(SpaceKind.DIRICHLET, 2.0, AngularPoly(alpha=0.5, theta_max=2 * math.pi)),
     (0, 2, 1.0)),
]


@pytest.mark.parametrize("spec, monomial_kjc", _CLOSED_FORM_CASES,
                         ids=[spec.describe() for spec, _ in _CLOSED_FORM_CASES])
def test_fractional_endpoint_powers_converge_to_the_closed_form(spec, monomial_kjc):
    # the fractional powers are folded into Gauss-Jacobi rules, so the
    # default settings converge at level 1 to roundoff
    k, j, c = monomial_kjc
    res = space_norm(from_monomials({(k, j): c}, q=k + 1), spec)
    assert res.flags.converged and res.flags.level <= 1
    assert res.full_norm == pytest.approx(_oracles.monomial_norm(spec, k, j, c), rel=1e-13)


def test_grids_fold_only_fractional_exponents():
    # integer exponents keep Gauss-Legendre radii and midpoint angles
    plain, legendre = disk_spec(SpaceKind.BESOV, 3.0).grid_family()(0), disk_grid()
    assert np.array_equal(plain.radii, legendre.radii)
    assert np.array_equal(plain.angles, legendre.angles)
    grid = disk_spec(SpaceKind.BESOV, 3.5, Product(
        radial=PowerLaw(gamma=0.75), angular=UNI)).grid_family()(0)
    assert grid.radial_exponents == (0.0, 0.25) and grid.angular_exponents is None
    angular = AngularPoly(alpha=1.5, theta_max=math.pi)
    grid = hp_spec(SpaceKind.DIRICHLET, 2, angular, alpha=0.25).grid_family(8, 16)(0)
    assert grid.radial_exponents == (0.25, 0.0)
    assert grid.angular_exponents == (0.25, 0.75)


def test_non_finite_integrand_names_the_node():
    # |1e200|^2 overflows at every node, so the first node of the grid is
    # named, and the overflow itself raises no warning
    grid = disk_grid(16, 32)
    spec = disk_spec(SpaceKind.BERGMAN, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^integrand is inf at node") as err:
            space_norm(from_monomials({(0, 0): 1e200}, q=1), spec,
                       QuadSettings(n_r=16, n_theta=32, refine=False))
    assert not caught
    assert f"s_0 e^(i theta_0) = {grid.radii[0]} * exp({grid.angles[0]}j)" in str(err.value)


def test_norms_never_build_the_flat_nodes():
    # ExpRePow's planar factor, the one factor that reads nodes, gets them
    # one block of radii at a time
    spec = disk_spec(SpaceKind.BESOV, 3, ExpRePow(beta=1.0, n=2))
    result = space_norm(monomial(1, 2), spec, QuadSettings(n_r=8, n_theta=16, refine=False))
    assert math.isfinite(result.full_norm)


def test_one_norm_on_a_large_grid_allocates_little():
    import tracemalloc

    rng = np.random.default_rng(8)
    f = PolyFunction([rng.standard_normal(31) + 1j * rng.standard_normal(31)
                      for _ in range(4)])
    spec = disk_spec(SpaceKind.BESOV, 3, Product(
        radial=PowerLaw(gamma=0.5), angular=AngularPoly(alpha=1.0, theta_max=2 * math.pi)))
    settings = QuadSettings(n_r=1024, n_theta=2048, refine=False)
    spec.grid_family(1024, 2048)(0)
    tracemalloc.start()
    try:
        space_norm(f, spec, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grid has 2**21 nodes: one complex array of them is 32 MB
    assert peak < 4 * 2**20
