import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspace import (
    AngularPoly,
    Domain,
    ExpAbs,
    ExpAbsPow,
    ExpRePow,
    PolyFunction,
    PowerLaw,
    Product,
    QuadSettings,
    RefineResult,
    SpaceKind,
    SpaceSpec,
    Uniform,
    Weight,
    bergman_norm,
    besov_norm,
    d_z,
    d_zbar,
    dilate,
    dirichlet_norm,
    disk_grid,
    eval_weight,
    exp_taylor,
    from_monomials,
    default_matrix,
    halfplane_grid,
    limsup_check,
    monomial,
    norm_of_difference,
    norms,
    polyfun,
    quadrature,
    run_theorem_suite,
    scale,
    space_norm,
    sub,
    weighted_p_integral,
)
from polyspace.norms import _block_integrands, _level_moments, _level_rule, _power

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
    f = PolyFunction([[0.3, 1.0, 0.5j]])
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    res = dirichlet_norm(f, spec)
    fp = d_z(f)
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


def test_the_disk_point_term_is_horner_at_0_bit_for_bit():
    rng = np.random.default_rng(30)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e308, -1.1e308, 1.0]
    for q, degree in [(1, 0), (1, 5), (3, 0), (2, 7), (4, 30)]:
        for _ in range(20):
            parts = rng.choice(special, size=(2, q, degree + 1)) * rng.choice(
                [1.0, rng.uniform(-1.0, 1.0)], size=(2, q, degree + 1))
            f = PolyFunction(parts[0] + 1j * parts[1])
            horner = abs(polyfun.evaluate(f, 0j))
            assert np.float64(abs(f.coeffs[0, 0])).tobytes() == np.float64(horner).tobytes()
    # the norm's point term is the one Horner's value gave
    f = PolyFunction([rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2)])
    for kind, p in [(SpaceKind.DIRICHLET, 2), (SpaceKind.BESOV, 3.5)]:
        res = space_norm(f, disk_spec(kind, p), QuadSettings(refine=False))
        assert res.point_term == float(np.float64(abs(f(0j))) ** p)


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
    assert res.seminorm == weighted_p_integral(f, spec, settings).value ** (1 / spec.p)
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
    evaluate = polyfun.evaluate

    def traced_evaluate(f, z):
        sizes.append(np.size(z))
        return evaluate(f, z)

    monkeypatch.setattr(polyfun, "evaluate", traced_evaluate)
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


@pytest.mark.parametrize("name", ["p", "alpha", "beta", "quad_R", "rel_tol"])
def test_a_number_beyond_the_float_range_is_refused_at_construction(name):
    # 10**400 compares below inf but converts to no float
    with pytest.raises(ValueError, match=f"^{name} must be finite .* beyond the float range"):
        if name == "rel_tol":
            QuadSettings(rel_tol=10**400)
        else:
            fields = {"p": 2.0, "alpha": 0.0, "beta": 1.0, name: 10**400}
            SpaceSpec(domain=HALF, kind=SpaceKind.BERGMAN, weight=UNI, **fields)


def test_spec_refuses_a_weight_it_cannot_hash():
    @dataclasses.dataclass
    class Mutable(Weight):   # eq without frozen: no hash
        gamma: float = 0.5

    with pytest.raises(ValueError, match="^weight .*Mutable.* is not hashable"):
        disk_spec(SpaceKind.BERGMAN, 2, Mutable())
    with pytest.raises(ValueError, match="^weight "):
        hp_spec(SpaceKind.DIRICHLET, 2, Mutable())


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
            for p in (2.0, 2.5, 3.0, 4.0):
                spec = (disk_spec(kind, p, weight) if domain is DISK
                        else hp_spec(kind, p, weight, alpha=0.5))
                grid = spec.grid_family(n_r, n_theta)(0)
                parts = [f] if kind is SpaceKind.BERGMAN else [d_z(f), d_zbar(f)]
                want = _oracles.per_node_integral(parts, spec, grid)
                res = space_norm(f, spec, settings)
                assert res.seminorm**p == pytest.approx(want, rel=1e-13), (n_r, kind, p)
                got = weighted_p_integral(f, spec, settings).value
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


# exact even-p integrals on the rotation-invariant disk measures

_EVEN_P_FUNCTIONS = [
    {(0, 0): 0.5, (0, 3): 1.0 - 0.5j, (1, 2): 0.75j, (2, 1): -0.25, (1, 0): 0.3},
    {(0, 8): 0.2j, (1, 1): 1.0, (2, 5): -0.4 + 0.1j, (2, 0): 0.7},
    {(1, 7): 1.5, (0, 2): -1.0j, (2, 8): 0.05, (0, 0): 2.0},
]
_EVEN_P_SPECS = [
    spec for p in (2, 4) for spec in (
        disk_spec(SpaceKind.BERGMAN, p), disk_spec(SpaceKind.DIRICHLET, p),
        disk_spec(SpaceKind.BESOV, p),
        disk_spec(SpaceKind.BERGMAN, p, Product(radial=PowerLaw(gamma=0.25), angular=UNI)),
        disk_spec(SpaceKind.DIRICHLET, p, Product(radial=PowerLaw(gamma=0.5), angular=UNI)))
]


@pytest.mark.parametrize("spec", _EVEN_P_SPECS, ids=[s.describe() for s in _EVEN_P_SPECS])
def test_even_p_integrals_match_the_exact_oracle(spec):
    for coeffs in _EVEN_P_FUNCTIONS:
        f = from_monomials(coeffs, q=3)
        parts = ([coeffs] if spec.kind is SpaceKind.BERGMAN
                 else list(_oracles.wirtinger_parts(coeffs)))
        res = space_norm(f, spec, QuadSettings(refine=False))
        assert res.flags.value == pytest.approx(_oracles.even_p_integral(parts, spec),
                                                rel=1e-12)


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


class _NodeEvaluation(Exception):
    pass


def test_even_p_separable_norms_form_no_node_values(monkeypatch):
    from polyspace import polyfun

    def refuse(fs, grid):
        raise _NodeEvaluation

    monkeypatch.setattr(polyfun, "block_evaluators", refuse)
    f = from_monomials({(0, 3): 1.0, (1, 1): 0.5j, (2, 0): 0.25}, q=3)
    settings = QuadSettings(max_level=1)
    for p in (2, 4):
        space_norm(f, disk_spec(SpaceKind.DIRICHLET, p), settings)
        space_norm(f, hp_spec(SpaceKind.BERGMAN, p, alpha=0.5), settings)
    # a planar factor, or an odd p, leaves nodes as the only way
    for spec in (disk_spec(SpaceKind.DIRICHLET, 2, ExpRePow(beta=1.0, n=2)),
                 disk_spec(SpaceKind.DIRICHLET, 3)):
        with pytest.raises(_NodeEvaluation):
            space_norm(f, spec, settings)


def test_a_zero_integrand_forms_no_node_values(monkeypatch):
    from polyspace import polyfun

    def refuse(fs, grid):
        raise _NodeEvaluation

    monkeypatch.setattr(polyfun, "block_evaluators", refuse)
    zero = d_zbar(exp_taylor(30))
    for spec in (disk_spec(SpaceKind.BESOV, 2.5), disk_spec(SpaceKind.DIRICHLET, 3),
                 disk_spec(SpaceKind.DIRICHLET, 2), hp_spec(SpaceKind.BERGMAN, 2.25, alpha=0.5)):
        # refinement starts two levels below the fixed grid and confirms one up
        assert weighted_p_integral(zero, spec) == RefineResult(0.0, 0.0, True, -1)
    # 0 times a planar factor is refused where that factor is not finite, so
    # the nodes stay the only way
    with pytest.raises(_NodeEvaluation):
        weighted_p_integral(zero, disk_spec(SpaceKind.DIRICHLET, 2, ExpRePow(beta=1.0, n=2)))


def test_a_level_whose_moment_sum_cancels_is_summed_on_its_nodes():
    from polyspace import polyfun
    from polyspace.norms import _measure_density

    # |exp(2iz)| <= 1 on the half-plane, but its Taylor terms reach ~4e16 at
    # |z| = 20, so the moment sum cancels far past its 10^3 bound
    f = PolyFunction([[(2j) ** j / math.factorial(j) for j in range(161)]])
    spec = hp_spec(SpaceKind.BERGMAN, 2, alpha=0.0, beta=0.1)
    grid = spec.grid_family(256, 512)(0)
    moments = polyfun.gram_moments(_measure_density(spec, grid), f.degree_z + f.q)
    assert polyfun.gram_sum([f], moments) is None
    res = space_norm(f, spec, QuadSettings(n_r=256, n_theta=512, refine=False))
    want = _oracles.per_node_integral([f], spec, grid)
    assert res.seminorm**2 == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spec, grid", [
    (disk_spec(SpaceKind.BERGMAN, 2), disk_grid(48, 96)),
    # s^n reaches 8^33 on the outer radii
    (hp_spec(SpaceKind.BERGMAN, 2), halfplane_grid(8.0, 48, 96)),
], ids=["disk", "halfplane-R8"])
@pytest.mark.parametrize("seed", range(6))
def test_node_and_moment_sums_of_the_square_agree(spec, grid, seed):
    from polyspace import polyfun

    # the node form sums powers[rows] @ B on each node; the moment form pairs
    # coefficients through R[n + n'] mu[m - m'] without a node
    rng = np.random.default_rng(seed)
    degrees = rng.integers(10, 31, size=4)
    f = PolyFunction([rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
                      for d in degrees])
    moments = polyfun.gram_sum([f], polyfun.gram_moments(grid, f.degree_z + f.q))
    assert moments is not None
    (nodes,) = quadrature.blocked_sums(_block_integrands([f], [([0], None)], spec, grid), grid, 1)
    assert nodes == pytest.approx(moments, rel=1e-12)


# ---------------------------------------------------------------------------
# the level rules: one measure grid and one set of moments per space and grid


def _clear_level_rules():
    _level_rule.cache_clear()
    _level_moments.cache_clear()


_CACHE_F = from_monomials({(0, 3): 1.0 - 0.5j, (1, 2): 0.75j, (2, 1): -0.25, (0, 0): 0.5}, q=3)


@pytest.mark.parametrize("call, moments", [
    # the node form, a limsup check's four part integrals, the Gram form
    (lambda s: space_norm(_CACHE_F, disk_spec(SpaceKind.DIRICHLET, 3), s), False),
    (lambda s: limsup_check(_CACHE_F, disk_spec(SpaceKind.BESOV, 2.5), r_grid=(0.9,),
                            settings=s), False),
    (lambda s: space_norm(_CACHE_F, hp_spec(SpaceKind.BERGMAN, 4, alpha=0.5), s), True),
], ids=["dirichlet-nodes", "limsup", "even-p-gram"])
def test_results_from_cold_and_warm_level_rules_are_equal(call, moments):
    settings = QuadSettings(n_r=16, n_theta=32, max_level=2)
    _clear_level_rules()
    cold = call(settings)
    assert (_level_moments.cache_info().currsize > 0) == moments
    rules = _level_rule.cache_info()
    assert call(settings) == cold
    # the warm call built nothing
    assert _level_rule.cache_info().misses == rules.misses
    assert _level_rule.cache_info().hits > rules.hits


def test_a_refined_norm_builds_one_rule_per_level_and_the_next_norm_none():
    _clear_level_rules()
    spec = disk_spec(SpaceKind.BESOV, 2.5, Product(radial=PowerLaw(gamma=0.5), angular=UNI))
    settings = QuadSettings(n_r=8, n_theta=16, max_level=3)
    res = space_norm(_CACHE_F, spec, settings)
    # the band 4 of d_z f needs more than the 16 >> 2 = 4 angles of level -2,
    # so refinement starts at level -1
    first = -1
    assert res.flags.level >= 1
    assert _level_rule.cache_info().currsize == res.flags.level - first + 1
    # conj(z) z^4 has the same band, so it starts at the same level
    space_norm(monomial(1, 4), spec, settings)
    weighted_p_integral(_CACHE_F, spec, settings)
    assert _level_rule.cache_info().misses == res.flags.level - first + 1


# refinement starts up to two levels below the fixed grid: level -j has
# (n_r >> j) x (n_theta >> j) nodes, and exists when both sizes halve j times

_POOL_F = PolyFunction([[0.5, 1.0 - 0.5j, 0.25j, -0.125, 0.0625, 0.03j, -0.015, 0.008, 0.004]])


@pytest.mark.parametrize("spec", [
    disk_spec(SpaceKind.DIRICHLET, 2, Product(radial=PowerLaw(gamma=0.5), angular=UNI)),
    hp_spec(SpaceKind.DIRICHLET, 2, alpha=0.5),
], ids=["disk-powerlaw", "halfplane-alpha"])
def test_a_default_refined_norm_confirms_below_the_fixed_grid(spec):
    _clear_level_rules()
    settings = QuadSettings(max_level=1)
    res = space_norm(_POOL_F, spec, settings)
    # the band 9 of d_z f is far below the 64 angles of level -2
    assert res.flags.converged and res.flags.level in (-2, -1)
    visited = range(-2, res.flags.level + 1)
    assert _level_rule.cache_info().misses == len(visited)
    for level in visited:
        _level_rule(spec, 128 >> -level, 256 >> -level)
    # every rule asked for was built by the norm, and no other
    assert _level_rule.cache_info().misses == len(visited)
    assert _level_rule.cache_info().currsize == len(visited)


@pytest.mark.parametrize("n_r, n_theta, lowest", [
    (3, 6, 0), (1, 256, 0), (4, 6, -1), (8, 16, -2), (128, 256, -2),
])
def test_refinement_starts_no_lower_than_both_sizes_halve(monkeypatch, n_r, n_theta, lowest):
    requested = []

    def traced(n_r, n_theta, **rules):
        requested.append((n_r, n_theta))
        return disk_grid_(n_r, n_theta, **rules)

    disk_grid_ = quadrature.disk_grid
    monkeypatch.setattr(quadrature, "disk_grid", traced)
    _clear_level_rules()
    # a constant has band 0, so it starts at the lowest level there is
    res = space_norm(monomial(0, 0), disk_spec(SpaceKind.BERGMAN, 2.5),
                     QuadSettings(n_r=n_r, n_theta=n_theta, max_level=2))
    assert res.flags.converged
    assert requested[0] == (n_r >> -lowest, n_theta >> -lowest)
    assert len(requested) == res.flags.level - lowest + 1
    assert all(n >= 1 and m >= 1 for n, m in requested)


def test_coarse_start_norms_of_the_corpus_match_the_finest_grid_and_closed_forms(
        corpus_functions):
    settings = QuadSettings(max_level=1)
    finest = QuadSettings(n_r=256, n_theta=512, refine=False)
    specs = [disk_spec(kind, p, weight)
             for kind in SpaceKind for p in (2, 2.5, 3, 4)
             for weight in (UNI, Product(radial=PowerLaw(gamma=0.5), angular=UNI),
                            AngularPoly(alpha=1.0, theta_max=2 * math.pi))]
    specs += [hp_spec(kind, p, alpha=alpha)
              for kind in SpaceKind for p in (2, 2.5, 3) for alpha in (0.0, 0.5)]
    coarse = closed = 0
    for spec in specs:
        for _, f in corpus_functions:
            res = space_norm(f, spec, settings).flags
            if not res.converged:
                continue
            coarse += res.level < 0
            reference = space_norm(f, spec, finest).flags.value
            assert res.value == pytest.approx(reference, rel=settings.rel_tol, abs=0)
            # the exact even-p integrals need a rotation-invariant disk measure
            if spec.domain is HALF or spec.p not in (2, 4) or isinstance(spec.weight,
                                                                        AngularPoly):
                continue
            coeffs = {(k, j): c for (k, j), c in np.ndenumerate(f.coeffs) if c}
            parts = ([coeffs] if spec.kind is SpaceKind.BERGMAN
                     else list(_oracles.wirtinger_parts(coeffs)))
            try:
                exact = _oracles.even_p_integral(parts, spec)
            except ValueError:   # no closed form for a Besov power law
                continue
            closed += 1
            assert res.value == pytest.approx(exact, rel=settings.rel_tol, abs=1e-300)
    assert coarse > len(specs) * len(corpus_functions) // 2
    assert closed > 0


def test_equal_specs_share_a_level_rule_and_each_key_field_misses():
    _clear_level_rules()
    a, b = (hp_spec(SpaceKind.BESOV, 2.5, Product(radial=PowerLaw(gamma=0.5), angular=UNI),
                    alpha=0.25) for _ in range(2))
    assert a is not b and a == b
    rule = _level_rule(a, 8, 16)
    assert _level_rule(b, 8, 16) is rule
    # each size misses alone, and so does the next level's grid, both doubled
    for key in [(a, 16, 16), (a, 8, 32), (a, 16, 32)]:
        assert _level_rule(*key) is not rule
    assert _level_rule.cache_info().currsize == 4
    moments = _level_moments(a, 8, 16, 5)
    assert _level_moments(b, 8, 16, 5) is moments
    for key in [(a, 16, 16, 5), (a, 8, 32, 5), (a, 16, 32, 5), (a, 8, 16, 6)]:
        assert _level_moments(*key) is not moments
    assert _level_moments.cache_info().currsize == 5


def test_an_even_p_norm_takes_the_moments_of_its_widest_half():
    _clear_level_rules()
    spec = hp_spec(SpaceKind.BERGMAN, 4, alpha=0.5)
    res = space_norm(_CACHE_F, spec, QuadSettings(n_r=16, n_theta=32, refine=False))
    half = polyfun.mul(_CACHE_F, _CACHE_F)
    moments = _level_moments(spec, 16, 32, half.degree_z + half.q)
    info = _level_moments.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert res.flags.value == polyfun.gram_sum([half], moments)


def test_an_even_p_norm_takes_the_moments_at_every_level_that_resolves_its_band(monkeypatch):
    # the band of |f|^2 is 400: 256 angles alias it, so the moments start at
    # level 1 with 512, and no level sums its nodes
    rng = np.random.default_rng(400)
    c = rng.standard_normal(401) + 1j * rng.standard_normal(401)
    node_angles = []

    def traced(parts, members, spec, grid):
        node_angles.append(grid.n_theta)
        return block_integrands(parts, members, spec, grid)

    block_integrands = _block_integrands
    monkeypatch.setattr(norms, "_block_integrands", traced)
    res = space_norm(PolyFunction([c]), disk_spec(SpaceKind.BERGMAN, 2))
    exact = math.fsum(abs(cj) ** 2 * math.pi / (j + 1) for j, cj in enumerate(c))
    assert res.flags.converged and res.flags.level >= 2
    assert res.flags.value == pytest.approx(exact, rel=1e-12)
    assert node_angles == []


def test_half_powers_take_few_products_and_keep_k_2_and_3_bit_for_bit(monkeypatch):
    from polyspace.norms import _half_powers

    f = from_monomials({(0, 0): 0.3 - 0.2j, (0, 2): 1.1, (1, 1): 0.7j}, q=2)
    spec = disk_spec(SpaceKind.BERGMAN, 2)
    mul, calls = polyfun.mul, []
    monkeypatch.setattr(polyfun, "mul", lambda a, b: calls.append(1) or mul(a, b))
    for k in range(1, 40):
        calls.clear()
        sequential = f
        for _ in range(k - 1):
            sequential = mul(sequential, f)
        (power,) = _half_powers([f], k, spec)
        assert len(calls) <= 2 * math.floor(math.log2(k))
        if k <= 3:
            assert np.array_equal(power.coeffs, sequential.coeffs)
        np.testing.assert_allclose(power.coeffs, sequential.coeffs, rtol=1e-12,
                                   atol=1e-14 * np.abs(sequential.coeffs).max())
    # 8191 has 13 set bits: 12 squarings and 12 products a part
    calls.clear()
    one, z = _half_powers([monomial(0, 0), monomial(0, 1)], 8191, spec)
    assert one.coeffs.tolist() == [[1.0]] and z.coeffs.tolist() == [[0.0] * 8191 + [1.0]]
    assert len(calls) == 2 * 24


# the first level is the first whose angles resolve the integrand's band; a
# periodic midpoint rule of n angles sums harmonic m to n (-1)^(m/n) when n
# divides m, so on 256 and 512 angles 1 + z^1024 aliases with one sign


def _one_plus_z_to(n):
    return from_monomials({(0, 0): 1.0, (0, n): 1.0}, q=1)


@pytest.mark.parametrize("n", [256, 1024])
def test_a_refined_even_p_norm_starts_where_its_band_is_resolved(monkeypatch, n):
    sizes = []

    def traced(spec, n_r, n_theta, width):
        sizes.append((n_r, n_theta))
        return level_moments(spec, n_r, n_theta, width)

    level_moments = _level_moments
    monkeypatch.setattr(norms, "_level_moments", traced)
    res = space_norm(_one_plus_z_to(n), disk_spec(SpaceKind.BERGMAN, 2))
    assert res.flags.converged
    assert res.full_norm == pytest.approx(math.sqrt(math.pi * (1 + 1 / (n + 1))),
                                          rel=0, abs=1e-12)
    # band n: 256 angles first resolve it at level (n // 256).bit_length(),
    # whose grid is 128 x 256 doubled once per level
    first = (n // 256).bit_length()
    assert sizes == [(128 << first, 256 << first), (256 << first, 512 << first)]
    assert res.flags.level == first + 1


def test_one_grid_is_one_rule_whichever_settings_reach_it():
    _clear_level_rules()
    spec, f = disk_spec(SpaceKind.BERGMAN, 2), _one_plus_z_to(256)
    # band 256: level 1 of 128 x 256 is the first to resolve it, the 256 x 512
    # grid that is level 0 of the second settings
    refined = space_norm(f, spec, QuadSettings(max_level=1))
    fixed = space_norm(f, spec, QuadSettings(n_r=256, n_theta=512, refine=False))
    assert refined.flags.level == 1 and fixed.flags.level == 0
    assert refined.flags.value == fixed.flags.value
    for cache in (_level_rule, _level_moments):
        assert cache.cache_info().currsize == cache.cache_info().misses == 1
    assert _level_rule(spec, 256, 512).n_theta == 512
    assert _level_rule.cache_info().misses == 1


@pytest.mark.parametrize("n, settings", [
    (256, QuadSettings(refine=False)),
    (1024, QuadSettings(refine=False)),
    (1024, QuadSettings(max_level=2)),
], ids=["256-fixed", "1024-fixed", "1024-max-level-2"])
def test_a_grid_whose_finest_level_aliases_the_band_is_refused(n, settings):
    with pytest.raises(ValueError, match=f"^n_theta is 256, but the integrand's angular "
                                         f"band {n} "):
        space_norm(_one_plus_z_to(n), disk_spec(SpaceKind.BERGMAN, 2), settings)


# |1 + z^128|^4 = |1 + 2 z^128 + z^256|^2 has band 256 whether it is formed on
# the moments (uniform) or on the nodes (ExpRePow's planar factor)
_P4_WEIGHTS = pytest.mark.parametrize("weight", [UNI, ExpRePow(beta=1.0, n=2)],
                                      ids=["uniform", "exprepow"])


@_P4_WEIGHTS
def test_a_fixed_grid_even_p_norm_is_refused_on_the_band_of_its_powers(weight):
    with pytest.raises(ValueError, match="^n_theta is 256, but the integrand's angular "
                                         "band 256 "):
        space_norm(_one_plus_z_to(128), disk_spec(SpaceKind.BERGMAN, 4, weight),
                   QuadSettings(refine=False))


@_P4_WEIGHTS
def test_a_refined_even_p_norm_starts_where_the_band_of_its_powers_is_resolved(weight):
    spec = disk_spec(SpaceKind.BERGMAN, 4, weight)
    res = space_norm(_one_plus_z_to(128), spec)
    reference = space_norm(_one_plus_z_to(128), spec,
                           QuadSettings(n_r=1024, n_theta=2048, refine=False))
    assert res.flags.converged and res.flags.level == 2
    assert res.full_norm == pytest.approx(reference.full_norm, rel=0, abs=1e-12)
    if weight is UNI:
        exact = (math.pi * (1 + 4 / 129 + 1 / 257)) ** 0.25
        assert res.full_norm == pytest.approx(exact, rel=0, abs=1e-12)
        assert reference.full_norm == pytest.approx(exact, rel=0, abs=1e-12)


@pytest.mark.parametrize("p, rel_change", [(1, 8.5e-5), (3, 4.8e-5)])
def test_an_odd_p_norm_of_a_high_band_ends_unconverged_from_its_first_level(p, rel_change):
    res = space_norm(_one_plus_z_to(256), disk_spec(SpaceKind.BERGMAN, p),
                     QuadSettings(max_level=3))
    assert not res.flags.converged and res.flags.level == 3
    assert res.flags.describe().endswith(":NOT-CONVERGED")
    assert res.flags.rel_change == pytest.approx(rel_change, rel=0.05)


def test_level_rules_and_moments_are_read_only():
    spec = hp_spec(SpaceKind.DIRICHLET, 2.5, AngularPoly(alpha=0.5, theta_max=math.pi),
                   alpha=0.5)
    grid = _level_rule(spec, 8, 16)
    moments = _level_moments(spec, 8, 16, 4)
    assert moments.gram is not None
    for arr in (grid.radii, grid.angles, grid.radial_weights, grid.angle_weights, *moments):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_the_level_caches_stay_within_their_bounds():
    _clear_level_rules()
    rules, moments = _level_rule.cache_info().maxsize, _level_moments.cache_info().maxsize
    for i in range(max(rules, moments) + 8):
        spec = disk_spec(SpaceKind.BESOV, 2.0 + i / 64)
        _level_moments(spec, 4, 4, 2)
        assert _level_rule.cache_info().currsize <= rules
        assert _level_moments.cache_info().currsize <= moments
    assert _level_rule.cache_info().currsize == rules
    assert _level_moments.cache_info().currsize == moments


def test_a_suite_pass_keeps_every_rule_it_builds():
    _clear_level_rules()
    run_theorem_suite()
    # one rule per spec of the matrix, and nothing evicted for the next pass
    assert _level_rule.cache_info().misses == len({spec for spec, _, _ in default_matrix()})
    for cache in (_level_rule, _level_moments):
        assert cache.cache_info().currsize == cache.cache_info().misses


def test_an_overflowing_square_is_refused_on_the_nodes():
    # the square of 1e200 overflows, so p = 4 falls back to the nodes, where
    # |1e200|^4 is refused by node without a warning
    spec = disk_spec(SpaceKind.BERGMAN, 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^integrand is inf at node"):
            space_norm(from_monomials({(0, 0): 1e200}, q=1), spec,
                       QuadSettings(n_r=16, n_theta=32, refine=False))
    assert not caught


def test_a_huge_even_p_of_a_constant_part_stays_on_the_nodes():
    # d_z z = 1 has one harmonic at any power, but 5e299 products are out of
    # reach: the integral of |1|^p is the disk's area
    res = space_norm(monomial(0, 1), disk_spec(SpaceKind.DIRICHLET, 1e300),
                     QuadSettings(n_r=8, n_theta=16, refine=False))
    assert res.flags.value == pytest.approx(math.pi, rel=1e-14)


def test_norms_never_build_the_flat_nodes():
    # ExpRePow's planar factor, the one factor that reads nodes, gets them
    # one block of radii at a time
    spec = disk_spec(SpaceKind.BESOV, 3, ExpRePow(beta=1.0, n=2))
    result = space_norm(monomial(1, 2), spec, QuadSettings(n_r=8, n_theta=16, refine=False))
    assert math.isfinite(result.full_norm)


def test_two_disk_norms_share_one_angular_table_per_level(power_tables):
    f = from_monomials({(0, 3): 1.0, (1, 1): 0.5j, (0, 0): 0.25}, q=2)
    levels = set()
    # one midpoint angular rule per level, and two radial rules
    for weight in (UNI, Product(radial=PowerLaw(gamma=0.5), angular=UNI)):
        res = space_norm(f, disk_spec(SpaceKind.BERGMAN, 3, weight))
        first = QuadSettings().first_level(f.degree_z + f.q - 1)
        visited = set(range(first, res.flags.level + 1))
        radial = [n for name, n, *_ in power_tables if name == "_radius_powers"]
        assert sorted(radial[-len(visited):]) == sorted(128 >> -lv if lv < 0 else 128 << lv
                                                        for lv in visited)
        levels |= visited
    angular = [n for name, n, *_ in power_tables if name == "_harmonic_table"]
    assert sorted(angular) == sorted(256 >> -lv if lv < 0 else 256 << lv for lv in levels)


def test_a_refined_degree_1024_norm_keeps_no_table_beyond_a_block(power_tables):
    f, spec = _one_plus_z_to(1024), disk_spec(SpaceKind.DIRICHLET, 3)
    res = space_norm(f, spec)
    assert res.flags.converged
    # its band needs tables beyond a block, which are built and dropped
    assert max(nbytes for *_, nbytes in power_tables) > 16 * quadrature.BLOCK_VALUES
    first = QuadSettings().first_level(1024)
    for level in range(first, res.flags.level + 1):
        grid = _level_rule(spec, *QuadSettings().sizes(level))
        for rule in (grid.radial_rule, grid.angular_rule):
            assert all(table.size <= quadrature.BLOCK_VALUES
                       for *_, table in rule.tables.values())


def test_a_refined_degree_1024_moment_norm_allocates_little():
    import tracemalloc

    f, spec = _one_plus_z_to(1024), disk_spec(SpaceKind.DIRICHLET, 2)
    space_norm(f, spec)
    _level_moments.cache_clear()
    tracemalloc.start()
    try:
        res = space_norm(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.flags.converged
    # the moments come one block of powers at a time: a harmonic table of the
    # band on its first grid, 1025 x 2048, would be 32 MiB
    assert peak < 2 * 2**20


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


def test_an_even_p_norm_allocates_little():
    import tracemalloc

    # the square has 7 x 61 = 427 monomials: their Gram matrix alone is 2.9 MB
    rng = np.random.default_rng(9)
    f = PolyFunction([rng.standard_normal(31) + 1j * rng.standard_normal(31)
                      for _ in range(4)])
    spec = hp_spec(SpaceKind.BERGMAN, 4, alpha=0.5)
    settings = QuadSettings(n_r=1024, n_theta=2048, refine=False)
    spec.grid_family(1024, 2048)(0)
    tracemalloc.start()
    try:
        space_norm(f, spec, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_refined_degree_1024_bergman_moment_norm_keeps_no_gram_matrix():
    import tracemalloc

    f, spec = _one_plus_z_to(1024), disk_spec(SpaceKind.BERGMAN, 2)
    space_norm(f, spec)
    _level_moments.cache_clear()
    tracemalloc.start()
    try:
        res = space_norm(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.flags.converged
    # width 1025: W would be 1025 x 1025, 16 MiB, so it is built chunk by
    # chunk per call and the norm peaks near 1.1 MiB
    level = QuadSettings().sizes(res.flags.level)
    moments = _level_moments(spec, *level, 1025)
    assert moments.gram is None and moments.size is None
    assert _level_moments.cache_info().hits >= 1
    assert peak < 1.15 * 2**20


# ---------------------------------------------------------------------------
# the Gram matrix kept with the moments


def _random_function(rng, q, degree):
    return PolyFunction([rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
                         for _ in range(q)])


@pytest.mark.parametrize("width", [64, 65])
@pytest.mark.parametrize("spec, grid", [
    (disk_spec(SpaceKind.BERGMAN, 2), disk_grid(48, 128)),
    (hp_spec(SpaceKind.BERGMAN, 2, alpha=0.5), halfplane_grid(8.0, 48, 128, radial=(0.5, 0.0))),
], ids=["disk", "halfplane"])
def test_a_kept_gram_matrix_sums_bit_for_bit_as_the_built_one(spec, grid, width):
    from polyspace.norms import _measure_density

    moments = polyfun.gram_moments(_measure_density(spec, grid), width)
    # W is kept while it has at most BLOCK_VALUES // 4 entries
    assert (moments.gram is None) == (width > 64)
    if moments.gram is not None:
        assert moments.gram.shape == moments.size.shape == (width, width)
        assert np.array_equal(moments.size, np.abs(moments.gram))
    built = moments._replace(gram=None, size=None)
    rng = np.random.default_rng(width)
    # n = width, then parts narrower than the width, summed together
    for fs in ([_random_function(rng, 3, width - 3)],
               [_random_function(rng, 2, 20), _random_function(rng, 1, width - 9)],
               [_random_function(rng, 4, 0)]):
        value = polyfun.gram_sum(fs, moments)
        assert value is not None
        assert value == polyfun.gram_sum(fs, built)
        # each function keeps its shifted coefficients, read-only
        for f in fs:
            assert f._gram_columns is f._gram_columns
            assert not any(arr.flags.writeable for arr in f._gram_columns)



def test_the_gram_bound_reads_the_modulus_of_the_kept_matrix():
    from polyspace.polyfun import Moments, _gram_block

    # mu[1] = 0.9985i: for 1 + iz the cross terms cancel the diagonal 2 down
    # to 0.003, which |W| bounds by 3.997 > 10^3 x 0.003; the real parts of
    # W alone would bound it by 2
    radial, mu = np.ones(3), np.array([-0.9985j, 1.0, 0.9985j])
    gram = _gram_block(radial, mu, slice(None), 2)
    kept = Moments(radial, mu, gram, np.abs(gram))
    cancels, adds = PolyFunction([[1.0, 1j]]), PolyFunction([[1.0, -1j]])
    for moments in (kept, kept._replace(gram=None, size=None)):
        assert polyfun.gram_sum([cancels], moments) is None
        assert polyfun.gram_sum([adds], moments) == pytest.approx(3.997, rel=1e-15)

# ---------------------------------------------------------------------------
# dilatation families: f and its dilatations share parts, matrices and levels


def _same_flags(a, b):
    return (a.converged, a.level, a.refined, a.truncated) == (
        b.converged, b.level, b.refined, b.truncated)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


_FAMILY_F = from_monomials({(0, 0): 0.5, (0, 1): 1.0 - 0.5j, (1, 2): 0.75j, (2, 1): -0.25,
                            (0, 4): 0.3, (1, 0): 0.2}, q=3)
_FAMILY_SETTINGS = [QuadSettings(refine=False), QuadSettings(max_level=1)]
_FAMILY_R = (0.5, 0.9, 0.999)


@pytest.mark.parametrize("settings", _FAMILY_SETTINGS, ids=["fixed", "refined"])
@pytest.mark.parametrize("spec", [
    disk_spec(SpaceKind.DIRICHLET, 1),
    disk_spec(SpaceKind.DIRICHLET, 3, AngularPoly(alpha=1.0, theta_max=2 * math.pi)),
    disk_spec(SpaceKind.BESOV, 2.5),
    disk_spec(SpaceKind.DIRICHLET, 2, ExpRePow(beta=1.0, n=2)),
    hp_spec(SpaceKind.DIRICHLET, 2, ExpRePow(beta=1.0, n=2), alpha=1.0),
    hp_spec(SpaceKind.BERGMAN, 3, alpha=0.5),
], ids=["dirichlet-p1", "angular-p3", "besov-p2.5", "exprepow-disk", "exprepow-halfplane",
        "halfplane-bergman-p3"])
def test_a_node_family_matches_its_members_one_at_a_time(spec, settings):
    from polyspace import experiments

    family = norms.dilatation_norms(_FAMILY_F, spec, _FAMILY_R, settings)
    alone = [space_norm(_FAMILY_F, spec, settings)] + [
        norm_of_difference(dilate(_FAMILY_F, r), _FAMILY_F, spec, settings) for r in _FAMILY_R]
    assert len(family) == len(alone)
    for got, want in zip(family, alone):
        assert _same_flags(got.flags, want.flags)
        for field in ("full_norm", "seminorm", "point_term"):
            assert _close(getattr(got, field), getattr(want, field), 1e-13)
    # f itself is the family's first member, bit for bit, and a member's
    # point term is that of f scaled by r^n - 1
    assert family[0].flags.value == alone[0].flags.value
    assert family[0].point_term == alone[0].point_term
    for got, r in zip(family[1:], _FAMILY_R):
        scaled = polyfun.scale_by_degree(_FAMILY_F, r ** np.arange(7) - 1.0)
        assert got.point_term == norms._point_term(scaled, spec)
    report = experiments.dilatation_convergence(_FAMILY_F, spec, _FAMILY_R, settings=settings)
    assert report.ref_norm == alone[0].full_norm
    for row, want in zip(report.rows, alone[1:]):
        assert _close(row.err_fullnorm, want.full_norm, 1e-13)
        assert _close(row.err_seminorm, want.seminorm, 1e-13)
    if spec.kind is SpaceKind.BERGMAN:
        return
    limsup = limsup_check(_FAMILY_F, spec, _FAMILY_R, settings=settings)
    for d, rhs, lhs in ((d_z, limsup.rhs_dz, [row.lhs_dz for row in limsup.rows]),
                        (d_zbar, limsup.rhs_dzbar, [row.lhs_dzbar for row in limsup.rows])):
        part = d(_FAMILY_F)
        assert rhs == weighted_p_integral(part, spec, settings).value
        members = [(part, None)] + [(d(dilate(_FAMILY_F, r)), r ** np.arange(1, 8))
                                    for r in _FAMILY_R]
        results = weighted_p_integral(part, spec, settings, [sigma for _, sigma in members])
        for (h, _), got, value in zip(members, results, [rhs] + lhs):
            want = weighted_p_integral(h, spec, settings)
            assert got.value == value
            assert _same_flags(got, want) and _close(got.value, want.value, 1e-13)


@pytest.mark.parametrize("settings", _FAMILY_SETTINGS, ids=["fixed", "refined"])
@pytest.mark.parametrize("spec", [
    disk_spec(SpaceKind.DIRICHLET, 2),
    disk_spec(SpaceKind.BESOV, 4, Product(radial=PowerLaw(gamma=0.5), angular=UNI)),
    hp_spec(SpaceKind.BERGMAN, 4, alpha=0.5),
    hp_spec(SpaceKind.DIRICHLET, 2, AngularPoly(alpha=1.0, theta_max=math.pi), alpha=1.0),
], ids=["dirichlet-p2", "besov-p4", "halfplane-bergman-p4", "halfplane-angular-p2"])
def test_a_gram_family_is_its_members_bit_for_bit(spec, settings):
    family = norms.dilatation_norms(_FAMILY_F, spec, _FAMILY_R, settings)
    alone = [space_norm(_FAMILY_F, spec, settings)] + [
        norm_of_difference(dilate(_FAMILY_F, r), _FAMILY_F, spec, settings) for r in _FAMILY_R]
    for got, want in zip(family, alone, strict=True):
        assert _same_flags(got.flags, want.flags)
        assert _close(got.point_term, want.point_term, 1e-13)
        for field in ("full_norm", "seminorm"):
            assert _close(getattr(got, field), getattr(want, field), 1e-13)
    # f itself, and a Bergman member f_r - f, which is f scaled by r^n - 1,
    # are what one call gives bit for bit
    assert family[0] == alone[0]
    if spec.kind is SpaceKind.BERGMAN:
        for got, r in zip(family[1:], _FAMILY_R):
            scaled = polyfun.scale_by_degree(_FAMILY_F, r ** np.arange(7) - 1.0)
            assert got == space_norm(scaled, spec, settings)
        return
    # a limsup member d(f_r) is d(f) scaled by r^(n + 1)
    limsup = limsup_check(_FAMILY_F, spec, _FAMILY_R, settings=settings)
    for row, r in zip(limsup.rows, _FAMILY_R):
        sigma = r ** np.arange(1, 8)
        for d, got in ((d_z, row.lhs_dz), (d_zbar, row.lhs_dzbar)):
            part = polyfun.scale_by_degree(d(_FAMILY_F), sigma)
            assert got == weighted_p_integral(part, spec, settings).value


def test_a_family_computes_a_level_only_for_members_still_running(monkeypatch):
    # |z - 1/2| has a conical zero in the disk, so f refines to the last
    # level; f_r - f = (r - 1) z does not, and stops at the first confirmation
    f = from_monomials({(0, 0): -0.5, (0, 1): 1.0}, q=1)
    spec, settings = disk_spec(SpaceKind.BERGMAN, 1), QuadSettings(n_r=16, n_theta=32,
                                                                    max_level=3)
    visits = []

    def traced(parts, members, spec, grid):
        visits.append((grid.n_theta, len(members)))
        return block_integrands(parts, members, spec, grid)

    block_integrands = _block_integrands
    monkeypatch.setattr(norms, "_block_integrands", traced)
    family = norms.dilatation_norms(f, spec, (0.3, 0.9), settings)
    assert [(res.flags.level, res.flags.converged) for res in family] == [
        (3, False), (-1, True), (-1, True)]
    # three members on the first two levels, then f alone
    assert visits == [(8, 3), (16, 3), (32, 1), (64, 1), (128, 1), (256, 1)]


def test_a_family_raises_the_error_of_its_first_refused_member():
    g = from_monomials({(0, 0): 1.0, (0, 2): 0.5}, q=1)
    spec, settings = disk_spec(SpaceKind.BERGMAN, 3), QuadSettings(n_r=16, n_theta=32)
    huge = np.full(3, 1e300)
    with pytest.raises(ValueError, match="^integrand is inf at node"):
        weighted_p_integral(g, spec, settings, [None, huge])
    # a zero member is 0.0 without a node, so the refused member's error stands
    with pytest.raises(ValueError, match="^integrand is inf at node"):
        weighted_p_integral(g, spec, settings, [np.zeros(3), huge])
    # a sigma whose coefficients overflow is refused before any member is
    # integrated, as an invalid sigma is
    big = scale(g, 1e10)
    with pytest.raises(ValueError, match=r"^sigmas\[1\] scales a coefficient of g beyond"):
        weighted_p_integral(big, spec, settings, [np.full(3, 1e290), huge])


_SIGMA_G = from_monomials({(0, 0): 1.0, (0, 3): 0.5}, q=1)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_a_sigma_member_is_its_scaled_part_integrated_alone(p):
    # the Gram path (p = 2, 4) and the node path (p = 3) read one member alike
    spec, sigma = disk_spec(SpaceKind.BERGMAN, p), np.full(4, 0.5)
    f, member = weighted_p_integral(_SIGMA_G, spec, None, [None, sigma])
    alone = weighted_p_integral(polyfun.scale_by_degree(_SIGMA_G, sigma), spec)
    assert _same_flags(member, alone) and _close(member.value, alone.value, 1e-13)
    if p % 2 == 0:
        assert member.value == alone.value
    assert member.value / f.value == pytest.approx(0.5**p, rel=1e-13)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("sigma", [np.full(3, 0.5), np.full(4, np.nan), np.full((1, 4), 0.5),
                                   np.full(4, 0.5j), [0.5, 0.5, 0.5, "x"]],
                         ids=["short", "nan", "2-d", "complex", "strings"])
def test_a_sigma_is_checked_on_the_gram_and_the_node_path_alike(p, sigma):
    spec = disk_spec(SpaceKind.BERGMAN, p)
    with pytest.raises(ValueError, match=r"^sigmas\[1\] is not a finite 1-D array of at least "
                                         r"degree_z \+ q = 4 real numbers"):
        weighted_p_integral(_SIGMA_G, spec, None, [None, sigma])


# |.|^p on the nodes from products and square roots

_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-150, 1e150, math.inf, math.nan]),
    st.floats(min_value=0.0, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.lists(_MAGNITUDES, min_size=1, max_size=32))
def test_quarter_powers_match_pow(k, values):
    a, p = np.array(values), k / 4
    with np.errstate(all="ignore"):
        want = a**p
        got = a.copy()
        _power(got, p, np.empty((2,) + a.shape))
        ulp = np.spacing(want)   # inf at the largest float
    exact = ~np.isfinite(want) | (want == 0)
    assert np.array_equal(got[exact], want[exact], equal_nan=True)
    near = ~exact
    assert np.all(np.abs(got[near] - want[near]) <= 8 * ulp[near])


@pytest.mark.parametrize("p", [1, 2, 2.1, 0.3, 4.5, 1e300])
def test_other_powers_are_pow_bit_for_bit(p):
    rng = np.random.default_rng(17)
    a = np.concatenate([rng.random(200) * 10.0 ** rng.integers(-200, 200, 200),
                        [0.0, 5e-324, 1e-150, 1e150, math.inf, math.nan]])
    with np.errstate(all="ignore"):
        want = a**p
        got = a.copy()
        _power(got, p, np.empty((2,) + a.shape))
    assert np.array_equal(got, want, equal_nan=True)
