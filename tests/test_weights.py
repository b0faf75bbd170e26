import numpy as np
import pytest
from numpy.testing import assert_allclose

from polyspace import (
    AngularPoly,
    Domain,
    ExpAbs,
    ExpAbsPow,
    ExpRePow,
    PowerLaw,
    Product,
    Uniform,
    Weight,
    check_condition,
    eval_weight,
    find_min_k,
)

DISK, HALF = Domain.DISK, Domain.HALFPLANE


def _catalog(domain):
    theta_max = 2 * np.pi if domain is DISK else np.pi
    return [
        Uniform(),
        ExpAbsPow(beta=1.0, n=2),
        ExpAbsPow(beta=0.5, n=3),
        ExpRePow(beta=1.0, n=1),
        ExpRePow(beta=2.0, n=2),
        ExpAbs(),
        AngularPoly(alpha=1.0, theta_max=theta_max),
        AngularPoly(alpha=0.5, theta_max=theta_max),
        Product(radial=PowerLaw(gamma=0.5),
                angular=AngularPoly(alpha=1.0, theta_max=theta_max)),
        Product(radial=ExpAbsPow(beta=1.0, n=2), angular=Uniform()),
    ]


# ---------------------------------------------------------------------------
# evaluation


def test_eval_values():
    z = 0.6 + 0.0j
    assert eval_weight(Uniform(), z) == 1.0
    assert eval_weight(ExpAbsPow(beta=1.0, n=2), z) == pytest.approx(np.exp(-0.36))
    assert eval_weight(ExpRePow(beta=1.0, n=1), -0.5 + 0.2j) == pytest.approx(
        np.exp(-0.5))
    assert eval_weight(ExpAbs(), 0.5j) == pytest.approx(np.exp(0.5))
    # on the positive real axis the reduced angle is 0
    w = AngularPoly(alpha=1.0, theta_max=2 * np.pi)
    assert eval_weight(w, 0.3 + 0j) == pytest.approx(4 * np.pi**2)


def test_eval_product_separates():
    w = Product(radial=PowerLaw(gamma=2.0),
                angular=AngularPoly(alpha=1.0, theta_max=2 * np.pi))
    z = 0.5 * np.exp(1j * np.pi / 3)
    expected = (1 - 0.5) ** 2 * (4 * np.pi**2 - (np.pi / 3) ** 2)
    assert eval_weight(w, z) == pytest.approx(expected, rel=1e-12)
    # PowerLaw switches to s^gamma on the half-plane
    w2 = Product(radial=PowerLaw(gamma=2.0), angular=Uniform())
    assert eval_weight(w2, 0.5j, HALF) == pytest.approx(0.25)


def test_eval_is_vectorized():
    z = np.array([0.1, 0.2 + 0.3j, -0.5j])
    vals = eval_weight(ExpAbsPow(beta=1.0, n=2), z)
    assert vals.shape == (3,)
    assert_allclose(vals, np.exp(-np.abs(z) ** 2))


def test_eval_rejects_boundary_and_exterior():
    with pytest.raises(ValueError):
        eval_weight(Uniform(), 1.0 + 0j)
    with pytest.raises(ValueError):
        eval_weight(Uniform(), 2.0j, DISK)
    with pytest.raises(ValueError):
        eval_weight(Uniform(), 0.5 - 0.1j, HALF)
    with pytest.raises(ValueError):
        eval_weight(Uniform(), 0.5 + 0j, HALF)


def test_angular_support_is_enforced():
    w = AngularPoly(alpha=1.0, theta_max=np.pi / 2)
    assert eval_weight(w, 0.5 * np.exp(0.25j * np.pi)) > 0
    with pytest.raises(ValueError):
        eval_weight(w, 0.5 * np.exp(0.75j * np.pi))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ExpAbsPow(beta=0.0, n=2)
    with pytest.raises(ValueError):
        ExpAbsPow(beta=1.0, n=0)
    with pytest.raises(ValueError):
        ExpRePow(beta=-1.0, n=1)
    with pytest.raises(ValueError):
        AngularPoly(alpha=0.0, theta_max=np.pi)
    with pytest.raises(ValueError):
        PowerLaw(gamma=-0.5)
    with pytest.raises(ValueError):
        Product(radial=Uniform(), angular=Uniform())
    with pytest.raises(ValueError):
        Product(radial=PowerLaw(gamma=1.0), angular=ExpAbs())


@pytest.mark.parametrize("domain", [DISK, HALF])
def test_positivity_at_random_interior_points(domain):
    rng = np.random.default_rng(7)
    s = 0.999 * np.sqrt(rng.random(1000))
    span = 2 * np.pi if domain is DISK else np.pi
    theta = span * rng.random(1000)
    if domain is HALF:
        theta = np.clip(theta, 1e-9, np.pi - 1e-9)
        s = s * 5.0  # exercise radii beyond 1 off the disk
    z = s * np.exp(1j * theta)
    z = z[np.abs(z) > 0]
    for w in _catalog(domain):
        vals = eval_weight(w, z, domain)
        assert np.all(vals > 0), w.describe()
        assert np.all(np.isfinite(vals)), w.describe()


def test_angular_invariance_is_exact():
    # same ray, dyadic radii: bit-identical weight values
    for w in (AngularPoly(alpha=1.5, theta_max=2 * np.pi),
              AngularPoly(alpha=1.0, theta_max=2 * np.pi)):
        for theta in (0.1, 2.0, 4.5, 6.2):
            u = np.exp(1j * theta)
            assert eval_weight(w, 0.5 * u) == eval_weight(w, 0.25 * u)
            assert eval_weight(w, 0.5 * u) == eval_weight(w, 0.0625 * u)


# ---------------------------------------------------------------------------
# the compatibility condition


def test_uniform_condition_is_exact():
    witness = check_condition(Uniform(), k=0)
    assert witness is not None
    assert witness.C == 1.0
    assert witness.k == 0
    assert 0.5 <= witness.attained_r < 1.0
    assert abs(witness.attained_z) < witness.attained_r


def test_decaying_weights_have_constant_one():
    for w in (ExpAbsPow(beta=1.0, n=2), ExpAbsPow(beta=0.5, n=1),
              ExpRePow(beta=1.0, n=1), ExpRePow(beta=1.0, n=2)):
        witness = check_condition(w, k=0, r0=0.5)
        assert witness is not None, w.describe()
        assert witness.C <= 1.0 + 1e-9, w.describe()


def test_growing_weight_needs_k_one_for_tight_constant():
    witness = check_condition(ExpAbs(), k=1, r0=0.5)
    assert witness is not None
    assert witness.C <= 1.0 + 1e-6


def test_expabs_radial_profile_is_nondecreasing_in_r():
    # the mechanism behind the k = 1 certificate: r * w(z/r) grows with r
    z = 0.3 + 0.2j
    rs = np.linspace(0.5, 0.999, 40)
    vals = np.array([r * eval_weight(ExpAbs(), z / r) for r in rs])
    assert np.all(np.diff(vals) >= 0)


def test_witness_constant_is_monotone_in_k():
    for w in (ExpAbs(), ExpAbsPow(beta=1.0, n=2), Uniform()):
        cs = []
        for k in range(4):
            witness = check_condition(w, k=k, n_r=16, n_z=256)
            assert witness is not None
            cs.append(witness.C)
        for lo, hi in zip(cs[1:], cs[:-1]):
            assert lo <= hi + 1e-12


def test_find_min_k_uniform():
    witness = find_min_k(Uniform(), k_max=3)
    assert witness.k == 0
    assert witness.C == 1.0


def _oracle_min_k(w, k_max, r0=0.5, cap=1e6):
    # brute force on an independent grid: dense midpoint radii/angles
    rs = np.linspace(r0, 1.0, 37, endpoint=False)
    best_k = None
    for k in range(k_max + 1):
        worst = 0.0
        for r in rs:
            s = np.linspace(r / 61, r, 61, endpoint=False)
            z = (s[:, None] * np.exp(1j * np.linspace(0.05, 2 * np.pi, 23)[None, :]))
            ratio = r**k * w._values(z / r, DISK) / w._values(z, DISK)
            worst = max(worst, float(np.max(ratio)))
        if worst <= cap:
            best_k = k
            break
    return best_k


def test_find_min_k_expabs_matches_oracle():
    # e^{|z|} admits a finite grid constant already at k = 0 (the ratio is
    # bounded by e^{1 - r0} on |z| < r), so the search stops before the
    # textbook k = 1
    assert _oracle_min_k(ExpAbs(), 3) == 0
    witness = find_min_k(ExpAbs(), k_max=3)
    assert witness is not None
    assert witness.k == _oracle_min_k(ExpAbs(), 3)
    assert witness.k <= 1
    assert witness.C <= np.exp(0.5) + 1e-9


class _BoundaryBlowup(Weight):
    """exp(1/(1 - |z|)): grows so fast at the rim that no k can compensate."""

    def _values(self, z, domain):
        return np.exp(1.0 / (1.0 - np.abs(z)))


def test_divergent_weight_fails_cleanly():
    assert check_condition(_BoundaryBlowup(), k=0) is None
    assert find_min_k(_BoundaryBlowup(), k_max=2) is None


def test_condition_input_validation():
    with pytest.raises(ValueError):
        check_condition(Uniform(), k=-1)
    with pytest.raises(ValueError):
        check_condition(Uniform(), k=0, r0=1.0)
    with pytest.raises(ValueError):
        check_condition(Uniform(), k=0, r0=0.0)
    with pytest.raises(ValueError, match="n_r"):
        check_condition(Uniform(), k=0, n_r=0)


def test_condition_on_halfplane_weights():
    w = AngularPoly(alpha=1.0, theta_max=np.pi)
    witness = check_condition(w, k=0, domain=HALF)
    assert witness is not None
    # purely angular: dilating along rays leaves the weight invariant
    assert witness.C <= 1.0 + 1e-12


@pytest.mark.parametrize("make, name", [
    (lambda: PowerLaw(gamma=np.nan), "gamma"),
    (lambda: PowerLaw(gamma=np.inf), "gamma"),
    (lambda: AngularPoly(alpha=1.0, theta_max=np.inf), "theta_max"),
    (lambda: AngularPoly(alpha=1.0, theta_max=np.nan), "theta_max"),
    (lambda: AngularPoly(alpha=np.inf, theta_max=np.pi), "alpha"),
    (lambda: ExpAbsPow(beta=np.inf, n=2), "beta"),
    (lambda: ExpAbsPow(beta=np.nan, n=2), "beta"),
    (lambda: ExpAbsPow(beta=1.0, n=np.inf), "n"),
    (lambda: ExpRePow(beta=np.inf, n=2), "beta"),
    (lambda: ExpRePow(beta=1.0, n=1.5), "n"),
])
def test_weights_refuse_non_finite_parameters(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make()


@pytest.mark.parametrize("k_max", [-1, 1.5, np.nan])
def test_find_min_k_refuses_a_bad_k_max(k_max):
    with pytest.raises(ValueError, match="^k_max must be"):
        find_min_k(Uniform(), k_max=k_max)


@pytest.mark.parametrize("kwargs, name", [
    ({"k": np.nan}, "k"), ({"k": 0, "r0": np.nan}, "r0"), ({"k": 0, "n_z": 0}, "n_z"),
])
def test_condition_errors_name_the_argument(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        check_condition(Uniform(), **kwargs)
