import math

import pytest

from polyspace import (
    Domain,
    ExpAbsPow,
    LimsupReport,
    QuadSettings,
    RefineResult,
    SpaceKind,
    SpaceSpec,
    Uniform,
    default_matrix,
    dilatation_convergence,
    dilate,
    from_monomials,
    limsup_check,
    monomial,
    norm_of_difference,
    poly_approx,
    run_theorem_suite,
    space_norm,
    standard_functions,
)

DISK, HALF = Domain.DISK, Domain.HALFPLANE


def disk_spec(kind, p, weight=Uniform()):
    return SpaceSpec(domain=DISK, kind=kind, p=p, weight=weight)


def hp_spec(kind, p, weight=Uniform(), alpha=0.0, beta=1.0):
    return SpaceSpec(domain=HALF, kind=kind, p=p, weight=weight,
                     alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# dilatation convergence


def test_constant_function_converges_trivially():
    report = dilatation_convergence(monomial(0, 0), disk_spec(SpaceKind.DIRICHLET, 2))
    assert report.converged
    assert all(row.err_seminorm == 0.0 for row in report.rows)
    assert all(row.err_fullnorm == 0.0 for row in report.rows)


def test_convergence_rows_match_closed_form():
    # || (zbar z)_r - zbar z ||_{Besov, p=2} = (1 - r^2) sqrt(pi)
    report = dilatation_convergence(
        monomial(1, 1), disk_spec(SpaceKind.BESOV, 2), r_grid=(0.5, 0.9, 0.99))
    for row in report.rows:
        expected = (1 - row.r**2) * math.sqrt(math.pi)
        assert row.err_fullnorm == pytest.approx(expected, rel=1e-8)
    assert report.ref_norm == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    assert report.verdict == "converged"


def test_the_threshold_sets_the_verdict_to_its_last_bit():
    # (1 - r^2) sqrt(pi) / sqrt(pi) at the last r
    f, spec = monomial(1, 1), disk_spec(SpaceKind.BESOV, 2)
    report = dilatation_convergence(f, spec, r_grid=(0.5, 0.9))
    ratio = report.rows[-1].err_fullnorm / report.ref_norm
    above = dilatation_convergence(f, spec, r_grid=(0.5, 0.9), threshold=ratio * (1 + 1e-9))
    below = dilatation_convergence(f, spec, r_grid=(0.5, 0.9), threshold=ratio * (1 - 1e-9))
    assert (above.verdict, below.verdict) == ("converged", "not_converged")


def test_errors_that_grow_are_not_convergence():
    from polyspace.experiments import ConvergenceRow, _errors_converge

    falling = [ConvergenceRow(0.5, 0.2, 0.3), ConvergenceRow(0.9, 0.01, 0.02)]
    assert _errors_converge(falling, 0.05)
    assert not _errors_converge(falling, 0.01)
    # below the limit, but larger than at the first r
    growing = [ConvergenceRow(0.5, 0.01, 0.02), ConvergenceRow(0.9, 0.02, 0.03)]
    assert not _errors_converge(growing, 0.05)
    flat = [ConvergenceRow(0.5, 0.01, 0.02), ConvergenceRow(0.9, 0.01, 0.02)]
    assert _errors_converge(flat, 0.05)


@pytest.mark.parametrize("part", ["dz", "dzbar"])
def test_a_limsup_margin_is_certified_up_to_its_tolerance(part, monkeypatch):
    from polyspace import experiments

    spec, tol, rhs = disk_spec(SpaceKind.DIRICHLET, 2), 1e-3, 2.0

    def report(margin, last_converged=True):
        # limsup_check integrates one family per part, d_z then d_zbar: the
        # part of f, then that of f_r at the one r
        lhs = (rhs + margin, rhs / 2) if part == "dz" else (rhs / 2, rhs + margin)
        results = iter([[RefineResult(rhs, 0.0, True, 0), RefineResult(lhs[0], 0.0, True, 0)],
                        [RefineResult(rhs, 0.0, True, 0),
                         RefineResult(lhs[1], 0.0, last_converged, 0)]])

        def family(g, spec, settings, members):
            assert len(members) == 2 and members[0] == (g, None)
            return next(results)

        monkeypatch.setattr(experiments, "weighted_p_integral", family)
        rep = limsup_check(monomial(0, 1), spec, r_grid=(0.9,), tol=tol)
        assert isinstance(rep, LimsupReport) and next(results, None) is None
        assert (rep.margin_dz, rep.margin_dzbar)[part == "dzbar"] == pytest.approx(
            margin, abs=1e-15)
        return rep

    assert report(tol * rhs - 1e-12).certified
    assert not report(tol * rhs + 1e-12).certified
    assert report(tol * rhs + 1e-12).verdict == "not_converged"
    blocked = report(0.0, last_converged=False)
    assert blocked.unresolved and not blocked.certified and blocked.verdict == "unresolved"


def test_zbar_exp_converges_in_weighted_dirichlet():
    f = from_monomials({(1, j): 1.0 / math.factorial(j) for j in range(31)}, q=2)
    spec = disk_spec(SpaceKind.DIRICHLET, 2, weight=ExpAbsPow(beta=1.0, n=2))
    report = dilatation_convergence(f, spec)
    assert report.converged
    errs = [row.err_fullnorm for row in report.rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 0.02 * report.ref_norm


def test_convergence_errors_decompose(corpus_functions):
    # each row's full error splits into the base-point term and the seminorm;
    # on the half-plane the base point i moves under dilation, so both pieces
    # are live
    f = dict(corpus_functions)["mixed-q3"]
    spec = hp_spec(SpaceKind.DIRICHLET, 2)
    report = dilatation_convergence(f, spec, r_grid=(0.5, 0.9))
    for row in report.rows:
        diff = norm_of_difference(dilate(f, row.r), f, spec)
        assert row.err_fullnorm == pytest.approx(diff.full_norm, rel=1e-12)
        assert row.err_seminorm == pytest.approx(diff.seminorm, rel=1e-12)
        assert row.err_fullnorm >= row.err_seminorm
        assert diff.point_term > 0


def test_non_convergence_verdict_with_absurd_threshold():
    report = dilatation_convergence(
        monomial(1, 1), disk_spec(SpaceKind.BESOV, 2),
        r_grid=(0.5, 0.9), threshold=1e-12)
    assert not report.converged
    assert report.verdict == "not_converged"


def test_r_grid_is_validated():
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    with pytest.raises(ValueError):
        dilatation_convergence(monomial(0, 1), spec, r_grid=(0.5, 1.0))
    with pytest.raises(ValueError):
        dilatation_convergence(monomial(0, 1), spec, r_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        dilatation_convergence(monomial(0, 1), spec, r_grid=())


def test_report_csv_shape():
    report = dilatation_convergence(
        monomial(1, 1), disk_spec(SpaceKind.BESOV, 2), r_grid=(0.5,))
    assert report.csv_header() == ("r", "err_seminorm", "err_fullnorm")
    rows = report.csv_rows()
    assert len(rows) == 1
    assert len(rows[0]) == 3


# ---------------------------------------------------------------------------
# the limsup certificate


def test_limsup_for_z_is_exact():
    # f = z, p = 2, uniform weight: the dilated derivative integral is
    # r^2 * pi for every r, and the limit value is pi
    report = limsup_check(monomial(0, 1), disk_spec(SpaceKind.DIRICHLET, 2),
                          r_grid=(0.5, 0.9, 0.99))
    assert report.rhs_dz == pytest.approx(math.pi, rel=1e-10)
    assert report.rhs_dzbar == 0.0
    for row in report.rows:
        assert row.lhs_dz == pytest.approx(row.r**2 * math.pi, rel=1e-10)
        assert row.lhs_dzbar == 0.0
    assert report.certified


def test_limsup_for_constant_is_all_zero():
    report = limsup_check(monomial(0, 0), disk_spec(SpaceKind.DIRICHLET, 2))
    assert report.rhs_dz == 0.0
    assert report.rhs_dzbar == 0.0
    assert report.certified


def test_limsup_scaling_for_zbar_z_squared():
    # f = zbar z^2, Besov p = 4: both derivative integrands are homogeneous
    # of degree 8 in |z| against (1 - |z|^2)^2 |.|^4 ... the dilated integral
    # picks up exactly r^12 relative to the limit value
    f = monomial(1, 2)
    spec = disk_spec(SpaceKind.BESOV, 4)
    report = limsup_check(f, spec, r_grid=(0.5, 0.9))
    for row in report.rows:
        assert row.lhs_dz == pytest.approx(row.r**12 * report.rhs_dz, rel=1e-10)
        assert row.lhs_dzbar == pytest.approx(row.r**12 * report.rhs_dzbar,
                                              rel=1e-10)
    assert report.certified
    assert report.margin_dz <= 0
    assert report.margin_dzbar <= 0


def test_limsup_on_halfplane_cell():
    f = from_monomials({(1, 0): 1.0, (0, 1): 0.5}, q=2)
    report = limsup_check(f, hp_spec(SpaceKind.DIRICHLET, 2))
    assert report.certified


def test_limsup_rejects_bergman():
    with pytest.raises(ValueError):
        limsup_check(monomial(0, 1), disk_spec(SpaceKind.BERGMAN, 2))


def test_no_verdict_rests_on_an_unresolved_integral():
    # at rel_tol 1e-12 and one refinement the d_z integrals of z^2 - z stop
    # NOT-CONVERGED, although their margins and errors would pass
    f = from_monomials({(0, 2): 1.0, (0, 1): -1.0}, q=1)
    spec = disk_spec(SpaceKind.BESOV, 2.5)
    settings = QuadSettings(rel_tol=1e-12, max_level=1)
    report = limsup_check(f, spec, r_grid=(0.9,), settings=settings)
    assert report.unresolved and not report.certified
    assert report.margin_dz <= 0 and report.margin_dzbar <= 0
    for rep in (dilatation_convergence(f, spec, settings=settings),
                poly_approx(f, spec, 0.9, settings=settings)):
        assert rep.unresolved and not rep.converged and rep.verdict == "unresolved"
    resolved = limsup_check(f, spec, r_grid=(0.9,), settings=QuadSettings(max_level=1))
    assert resolved.certified and not resolved.unresolved


# ---------------------------------------------------------------------------
# polynomial approximation


def test_truncation_beyond_degree_is_lossless():
    f = from_monomials({(0, 3): 1.0, (1, 1): 2.0, (2, 0): 0.5}, q=3)
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    report = poly_approx(f, spec, r=0.9, m_grid=(1, 2, 3, 5))
    # once m reaches the z-degree the truncation is the dilation itself
    assert report.rows[-1].error == report.dilation_error
    assert report.verdict == "converged"


def test_truncation_errors_decrease_to_dilation_error():
    f = from_monomials({(1, j): 1.0 / math.factorial(j) for j in range(31)}, q=2)
    spec = disk_spec(SpaceKind.BESOV, 2)
    report = poly_approx(f, spec, r=0.99, m_grid=(2, 5, 10, 20))
    errs = [row.error for row in report.rows]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12
    assert errs[-1] <= (1 + report.slack) * report.dilation_error
    assert report.verdict == "converged"


def test_the_approx_verdict_flips_at_its_own_slack_margin():
    f = from_monomials({(0, j): 1.0 / math.factorial(j) for j in range(12)}, q=1)
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    report = poly_approx(f, spec, r=0.9, m_grid=(3,))
    margin = report.rows[-1].error / report.dilation_error - 1.0
    assert margin > 0
    for slack, converged in ((margin * (1 + 1e-9), True), (margin * (1 - 1e-9), False)):
        report = poly_approx(f, spec, r=0.9, m_grid=(3,), slack=slack)
        assert report.converged is converged and report.verdict != "unresolved"


def test_poly_approx_validation():
    f = monomial(0, 1)
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    with pytest.raises(ValueError):
        poly_approx(f, spec, r=1.0)
    with pytest.raises(ValueError, match=r"^m_grid must hold nonnegative degrees, got -1$"):
        poly_approx(f, spec, r=0.9, m_grid=(-1, 2))
    with pytest.raises(ValueError, match="^m_grid must hold nonnegative degrees, got none$"):
        poly_approx(f, spec, r=0.9, m_grid=())
    # out-of-order degrees are tolerated and come back sorted
    report = poly_approx(f, spec, r=0.9, m_grid=(5, 2))
    assert [row.m for row in report.rows] == [2, 5]


@pytest.mark.parametrize("bad", [2.7, 0.9, -0.5, math.nan, math.inf])
def test_poly_approx_refuses_a_degree_that_is_not_a_whole_number(bad):
    # 2.7 would otherwise report a row for m = 2
    with pytest.raises(ValueError, match=f"^m_grid must hold nonnegative degrees, "
                                         f"got {bad!r}$"):
        poly_approx(monomial(0, 1), disk_spec(SpaceKind.DIRICHLET, 2), r=0.9,
                    m_grid=(1, bad))


# ---------------------------------------------------------------------------
# the cross-product suite


def test_standard_functions_are_the_three_regimes():
    fns = dict(standard_functions())
    assert set(fns) == {"analytic", "pure-zbar", "mixed"}
    assert fns["analytic"].q == 1
    assert fns["pure-zbar"].q == 3
    assert fns["mixed"].q == 3


def test_default_matrix_size_and_ids():
    cells = default_matrix()
    assert len(cells) == 2 * 7 * 6 * 3
    specs = [spec for spec, _, _ in cells]
    assert sum(1 for s in specs if s.domain is HALF) == len(cells) // 2
    ids = {f"{s.domain}-{s.kind}-p{s.p:g}-{s.weight.tag()}-{label}"
           for s, label, _ in cells}
    assert len(ids) == len(cells)


def test_suite_on_a_small_slice():
    cells = [c for c in default_matrix()
             if c[0].domain is DISK and c[0].weight.tag() == "uniform"
             and c[0].kind is SpaceKind.DIRICHLET and c[0].p == 2]
    assert len(cells) == 3
    suite = run_theorem_suite(cells)
    assert suite.all_converged
    assert suite.failures == ()
    assert len(suite.cells) == 3
    for cell in suite.cells:
        errs = [row.err_fullnorm for row in cell.report.rows]
        assert errs[-1] <= errs[0]


def test_suite_failures_are_reported_not_masked():
    cells = [c for c in default_matrix()
             if c[0].domain is DISK and c[0].weight.tag() == "uniform"
             and c[0].kind is SpaceKind.DIRICHLET and c[0].p == 2][:1]
    suite = run_theorem_suite(cells, r_grid=(0.5,), threshold=1e-15)
    assert not suite.all_converged
    assert len(suite.failures) == 1


def test_suite_csv_layout():
    cells = default_matrix()[:1]
    suite = run_theorem_suite(cells, r_grid=(0.5, 0.999))
    header = suite.csv_header()
    assert header[0] == "cell"
    assert "verdict" in header
    rows = suite.csv_rows()
    assert len(rows) == 1
    assert len(rows[0]) == len(header)


def test_suite_norms_match_direct_calls():
    # the suite's fixed-grid numbers are reproducible with plain space_norm
    spec, label, f = default_matrix()[0]
    suite = run_theorem_suite([(spec, label, f)], r_grid=(0.5,))
    direct = space_norm(f, spec, QuadSettings(refine=False)).full_norm
    assert suite.cells[0].report.ref_norm == direct


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -0.02])
def test_threshold_must_be_finite_and_positive(threshold):
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    with pytest.raises(ValueError, match="^threshold must be"):
        dilatation_convergence(monomial(0, 1), spec, threshold=threshold)
    cells = [(spec, "z", monomial(0, 1))]
    with pytest.raises(ValueError, match="^threshold must be"):
        run_theorem_suite(cells, threshold=threshold)


def test_r_grid_errors_name_the_argument():
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    for grid in ((0.5, 1.5), (), (math.nan,)):
        with pytest.raises(ValueError, match="^r_grid "):
            dilatation_convergence(monomial(0, 1), spec, r_grid=grid)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
def test_limsup_tol_and_approx_slack_must_be_finite_and_positive(value):
    spec = disk_spec(SpaceKind.DIRICHLET, 2)
    with pytest.raises(ValueError, match="^tol must be"):
        limsup_check(monomial(0, 1), spec, r_grid=(0.5,), tol=value)
    with pytest.raises(ValueError, match="^slack must be"):
        poly_approx(monomial(0, 1), spec, 0.9, slack=value)
