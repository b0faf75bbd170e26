"""Numerical experiments for the dilatation-convergence and density theorems.

Three drivers, each returning a report object with CSV-ready rows:

* :func:`dilatation_convergence` — tabulates ``||f_r - f||`` along an r-grid
  and issues a converged / not_converged verdict;
* :func:`limsup_check` — certifies the dilated seminorm-part integrals stay
  below the fixed right-hand integrals (the limsup inequality behind the
  convergence proofs);
* :func:`poly_approx` — polynomial density: truncations of ``f_r`` approximate
  ``f`` essentially as well as ``f_r`` itself once the truncation degree
  passes the effective degree of ``f``.

:func:`run_theorem_suite` sweeps the full domain x space x weight x function
matrix and aggregates per-cell verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polyfun
from .domain import Domain, check_positive
from .norms import (
    QuadSettings,
    SpaceKind,
    SpaceSpec,
    norm_of_difference,
    space_norm,
    weighted_p_integral,
)
from .weights import (
    AngularPoly,
    ExpAbs,
    ExpAbsPow,
    ExpRePow,
    PowerLaw,
    Product,
    Uniform,
)

__all__ = [
    "DEFAULT_R_GRID",
    "DEFAULT_M_GRID",
    "ConvergenceRow",
    "ConvergenceReport",
    "LimsupRow",
    "LimsupReport",
    "ApproxRow",
    "ApproxReport",
    "SuiteCell",
    "SuiteReport",
    "dilatation_convergence",
    "limsup_check",
    "poly_approx",
    "run_theorem_suite",
    "default_matrix",
    "standard_functions",
]

DEFAULT_R_GRID = (0.5, 0.9, 0.99, 0.999)
DEFAULT_M_GRID = (2, 5, 10, 20)

VERDICT_CONVERGED = "converged"
VERDICT_NOT_CONVERGED = "not_converged"
VERDICT_UNRESOLVED = "unresolved"


def _verdict(ok, results):
    """A report's verdict; none rests on a norm whose quadrature did not converge."""
    if not all(res.flags.converged for res in results):
        return VERDICT_UNRESOLVED
    return VERDICT_CONVERGED if ok else VERDICT_NOT_CONVERGED


class _Verdict:
    @property
    def converged(self):
        return self.verdict == VERDICT_CONVERGED

    @property
    def unresolved(self):
        return self.verdict == VERDICT_UNRESOLVED


def _checked_r_grid(r_grid):
    rs = tuple(float(r) for r in r_grid)
    if not rs:
        raise ValueError("r_grid must not be empty")
    for r in rs:
        if not 0.0 < r < 1.0:
            raise ValueError(f"r_grid values must lie in (0, 1), got {r}")
    return tuple(sorted(rs))


@dataclass(frozen=True)
class ConvergenceRow:
    r: float
    err_seminorm: float
    err_fullnorm: float


@dataclass(frozen=True)
class ConvergenceReport(_Verdict):
    """Dilatation errors along an r-grid plus the convergence verdict.

    The verdict is ``converged`` when the final full-norm error is below
    ``threshold * ||f||`` and the errors did not grow from the first grid
    point to the last, and ``unresolved`` when any norm behind it did not
    converge.
    """

    spec: SpaceSpec
    function_label: str
    rows: tuple
    ref_norm: float
    threshold: float
    verdict: str

    def csv_header(self):
        return ("r", "err_seminorm", "err_fullnorm")

    def csv_rows(self):
        return [(row.r, row.err_seminorm, row.err_fullnorm) for row in self.rows]


def dilatation_convergence(
    f,
    spec,
    r_grid=DEFAULT_R_GRID,
    threshold=0.02,
    settings=None,
    function_label="f",
):
    """Tabulate ``||f_r - f||`` (seminorm and full norm) over ``r_grid``."""
    rs = _checked_r_grid(r_grid)
    check_positive("threshold", threshold)
    ref = space_norm(f, spec, settings)
    errs = [norm_of_difference(polyfun.dilate(f, r), f, spec, settings) for r in rs]
    rows = [ConvergenceRow(r, err.seminorm, err.full_norm) for r, err in zip(rs, errs)]
    ok = (
        rows[-1].err_fullnorm <= threshold * ref.full_norm
        and rows[-1].err_fullnorm <= rows[0].err_fullnorm
    )
    return ConvergenceReport(
        spec=spec,
        function_label=function_label,
        rows=tuple(rows),
        ref_norm=ref.full_norm,
        threshold=threshold,
        verdict=_verdict(ok, [ref] + errs),
    )


@dataclass(frozen=True)
class LimsupRow:
    r: float
    lhs_dz: float
    lhs_dzbar: float


@dataclass(frozen=True)
class LimsupReport:
    """Dilated part integrals against their fixed right-hand sides.

    ``margin_dz = max_r LHS_dz(r) - RHS_dz`` (same for the ``d_zbar`` part); a
    nonpositive margin — up to the certificate tolerance — realizes the
    limsup inequality on the grid.  Nothing is certified when ``unresolved``:
    the quadrature of some integral did not converge.
    """

    spec: SpaceSpec
    function_label: str
    rows: tuple
    rhs_dz: float
    rhs_dzbar: float
    tol: float
    unresolved: bool = False

    @property
    def margin_dz(self):
        return max(row.lhs_dz for row in self.rows) - self.rhs_dz

    @property
    def margin_dzbar(self):
        return max(row.lhs_dzbar for row in self.rows) - self.rhs_dzbar

    @property
    def certified(self):
        return (
            not self.unresolved
            and self.margin_dz <= self.tol * self.rhs_dz
            and self.margin_dzbar <= self.tol * self.rhs_dzbar
        )

    def csv_header(self):
        return ("r", "lhs_dz", "lhs_dzbar", "rhs_dz", "rhs_dzbar")

    def csv_rows(self):
        return [
            (row.r, row.lhs_dz, row.lhs_dzbar, self.rhs_dz, self.rhs_dzbar)
            for row in self.rows
        ]


def limsup_check(f, spec, r_grid=DEFAULT_R_GRID, tol=1e-3, settings=None,
                 function_label="f"):
    """Compare each dilated part integral with its fixed right-hand side.

    Works for Dirichlet and Besov specs (the Bergman norm has no seminorm
    parts to compare).
    """
    if spec.kind is SpaceKind.BERGMAN:
        raise ValueError("limsup_check applies to Dirichlet and Besov specs only")
    rs = _checked_r_grid(r_grid)
    check_positive("tol", tol)
    converged = []

    def integral(g):
        value, flags = weighted_p_integral(g, spec, settings)
        converged.append(flags.converged)
        return value

    rhs_dz = integral(polyfun.d_z(f))
    rhs_dzbar = integral(polyfun.d_zbar(f))
    rows = []
    for r in rs:
        fr = polyfun.dilate(f, r)
        rows.append(LimsupRow(r, integral(polyfun.d_z(fr)), integral(polyfun.d_zbar(fr))))
    return LimsupReport(
        spec=spec,
        function_label=function_label,
        rows=tuple(rows),
        rhs_dz=rhs_dz,
        rhs_dzbar=rhs_dzbar,
        tol=tol,
        unresolved=not all(converged),
    )


@dataclass(frozen=True)
class ApproxRow:
    r: float
    m: int
    error: float


@dataclass(frozen=True)
class ApproxReport(_Verdict):
    """Errors of polynomial truncations of ``f_r`` against ``f``.

    Verdict ``converged`` when the error at the largest truncation degree is
    within ``slack`` (default 10%) of the pure dilatation error ``||f - f_r||``,
    and ``unresolved`` when any norm behind it did not converge.
    """

    spec: SpaceSpec
    function_label: str
    r: float
    rows: tuple
    dilation_error: float
    slack: float
    verdict: str

    def csv_header(self):
        return ("r", "m", "error")

    def csv_rows(self):
        return [(row.r, row.m, row.error) for row in self.rows]


def poly_approx(f, spec, r, m_grid=DEFAULT_M_GRID, slack=0.1, settings=None,
                function_label="f"):
    """Error of approximating ``f`` by the degree-``m`` truncations of ``f_r``."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    ms = tuple(sorted(int(m) for m in m_grid))
    if not ms or ms[0] < 0:
        raise ValueError("m_grid must hold nonnegative degrees")
    check_positive("slack", slack)
    fr = polyfun.dilate(f, r)
    dil = norm_of_difference(f, fr, spec, settings)
    errs = [norm_of_difference(f, polyfun.truncate(fr, m), spec, settings) for m in ms]
    rows = [ApproxRow(r, m, err.full_norm) for m, err in zip(ms, errs)]
    ok = rows[-1].error <= (1.0 + slack) * dil.full_norm
    return ApproxReport(
        spec=spec,
        function_label=function_label,
        r=r,
        rows=tuple(rows),
        dilation_error=dil.full_norm,
        slack=slack,
        verdict=_verdict(ok, [dil] + errs),
    )


# --- the theorem matrix -----------------------------------------------------


def standard_functions():
    """The three canonical test functions: analytic, purely antiholomorphic,
    and genuinely mixed (q = 3)."""
    analytic = polyfun.PolyFunction([polyfun.exp_taylor(30)])
    pure_zbar = polyfun.from_monomials({(1, 0): 1.0, (2, 0): 0.5}, q=3)
    mixed = polyfun.from_monomials(
        {(0, 2): 1.0, (1, 1): 1.0, (2, 2): 0.25}, q=3
    )
    return (("analytic", analytic), ("pure-zbar", pure_zbar), ("mixed", mixed))


def _matrix_weights(domain):
    theta_max = 2.0 * math.pi if domain is Domain.DISK else math.pi
    return (
        Uniform(),
        ExpAbsPow(beta=1.0, n=2),
        ExpRePow(beta=1.0, n=2),
        ExpAbs(),
        AngularPoly(alpha=1.0, theta_max=theta_max),
        Product(radial=PowerLaw(gamma=0.5),
                angular=AngularPoly(alpha=1.0, theta_max=theta_max)),
    )


_MATRIX_KINDS = (
    (SpaceKind.DIRICHLET, (1.0, 2.0, 3.0)),
    (SpaceKind.BESOV, (2.0, 3.0, 4.0)),
    (SpaceKind.BERGMAN, (2.0,)),
)


def default_matrix():
    """All (spec, function) cells of the theorem matrix, in deterministic
    order: domain, then kind/p, then weight, then function; the half-plane
    measure has ``alpha = beta = 1``."""
    cells = []
    for domain in (Domain.DISK, Domain.HALFPLANE):
        ab = {"alpha": 1.0, "beta": 1.0} if domain is Domain.HALFPLANE else {}
        for kind, ps in _MATRIX_KINDS:
            for p in ps:
                for w in _matrix_weights(domain):
                    spec = SpaceSpec(domain=domain, kind=kind, p=p, weight=w, **ab)
                    for label, f in standard_functions():
                        cells.append((spec, label, f))
    return cells


@dataclass(frozen=True)
class SuiteCell:
    cell_id: str
    report: ConvergenceReport

    @property
    def converged(self):
        return self.report.converged


@dataclass(frozen=True)
class SuiteReport:
    cells: tuple

    @property
    def all_converged(self):
        return all(cell.converged for cell in self.cells)

    @property
    def failures(self):
        return tuple(c for c in self.cells if not c.converged)

    def csv_header(self):
        return (
            "cell", "domain", "kind", "p", "weight", "function",
            "ref_norm", "err_first", "err_last", "threshold", "verdict",
        )

    def csv_rows(self):
        rows = []
        for cell in self.cells:
            rep = cell.report
            rows.append(
                (
                    cell.cell_id,
                    str(rep.spec.domain),
                    str(rep.spec.kind),
                    rep.spec.p,
                    rep.spec.weight.describe(),
                    rep.function_label,
                    rep.ref_norm,
                    rep.rows[0].err_fullnorm,
                    rep.rows[-1].err_fullnorm,
                    rep.threshold,
                    rep.verdict,
                )
            )
        return rows


def run_theorem_suite(
    cells=None,
    r_grid=DEFAULT_R_GRID,
    threshold=0.02,
    settings=None,
):
    """Run :func:`dilatation_convergence` over every cell of the matrix.

    ``cells`` defaults to :func:`default_matrix`; an empty iterable yields an
    empty report.  The bulk run evaluates on the fixed default grid (no
    refinement) — the 2% verdict threshold sits far above the grid error for
    every catalog weight.
    """
    if cells is None:
        cells = default_matrix()
    if settings is None:
        settings = QuadSettings(refine=False)
    out = []
    for spec, label, f in cells:
        report = dilatation_convergence(
            f, spec, r_grid=r_grid, threshold=threshold,
            settings=settings, function_label=label,
        )
        cell_id = (
            f"{spec.domain}-{spec.kind}-p{spec.p:g}-{spec.weight.tag()}-{label}"
        )
        out.append(SuiteCell(cell_id, report))
    return SuiteReport(tuple(out))
