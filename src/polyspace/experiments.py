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

from dataclasses import dataclass

import numpy as np

from . import polyfun, quadrature
from .domain import Domain, check_positive
from .norms import (
    SpaceKind,
    SpaceSpec,
    dilatation_norms,
    norm_of_difference,
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
    "ConvergenceReport",
    "LimsupReport",
    "ApproxReport",
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


def _verdict(ok, flags):
    """A report's verdict from its rule's outcome ``ok`` and the
    :class:`~polyspace.quadrature.RefineResult` of every integral behind it;
    none rests on an integral whose quadrature did not converge."""
    if not all(res.converged for res in flags):
        return VERDICT_UNRESOLVED
    return VERDICT_CONVERGED if ok else VERDICT_NOT_CONVERGED


class _Report:
    """A theorem report: its ``verdict`` (:func:`_verdict`), and a CSV with
    one column per name in ``COLUMNS``, read from each row, or from the
    report when the row has no such field."""

    @property
    def converged(self):
        return self.verdict == VERDICT_CONVERGED

    @property
    def unresolved(self):
        return self.verdict == VERDICT_UNRESOLVED

    def csv_header(self):
        return self.COLUMNS

    def csv_rows(self):
        return [tuple(getattr(row if hasattr(row, name) else self, name)
                      for name in self.COLUMNS) for row in self.rows]


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
class ConvergenceReport(_Report):
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

    COLUMNS = ("r", "err_seminorm", "err_fullnorm")


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
    ref, *errs = dilatation_norms(f, spec, rs, settings)
    rows = [ConvergenceRow(r, err.seminorm, err.full_norm) for r, err in zip(rs, errs)]
    return ConvergenceReport(
        spec=spec,
        function_label=function_label,
        rows=tuple(rows),
        ref_norm=ref.full_norm,
        threshold=threshold,
        verdict=_verdict(_errors_converge(rows, threshold * ref.full_norm),
                         [res.flags for res in [ref, *errs]]),
    )


def _errors_converge(rows, limit):
    """The dilatation criterion: the last full-norm error is at most ``limit``
    and did not grow from the first row."""
    return rows[-1].err_fullnorm <= limit and rows[-1].err_fullnorm <= rows[0].err_fullnorm


@dataclass(frozen=True)
class LimsupRow:
    r: float
    lhs_dz: float
    lhs_dzbar: float


@dataclass(frozen=True)
class LimsupReport(_Report):
    """Dilated part integrals against their fixed right-hand sides.

    ``margin_dz = max_r LHS_dz(r) - RHS_dz`` (same for the ``d_zbar`` part).
    The report is ``certified`` (its verdict is ``converged``) when neither
    margin exceeds ``tol`` times its right-hand side: the limsup inequality
    holds on the grid up to the certificate tolerance.  Nothing is certified
    when ``unresolved``: the quadrature of some integral did not converge.
    """

    spec: SpaceSpec
    function_label: str
    rows: tuple
    rhs_dz: float
    rhs_dzbar: float
    tol: float
    verdict: str

    COLUMNS = ("r", "lhs_dz", "lhs_dzbar", "rhs_dz", "rhs_dzbar")
    certified = _Report.converged

    @property
    def margin_dz(self):
        return max(row.lhs_dz for row in self.rows) - self.rhs_dz

    @property
    def margin_dzbar(self):
        return max(row.lhs_dzbar for row in self.rows) - self.rhs_dzbar


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
    # per part d, one family: the right-hand side d(f), then d(f_r) for each
    # r, whose s^n terms are r^(n + 1) times those of d(f)
    results = []
    for d in (polyfun.d_z, polyfun.d_zbar):
        part = d(f)
        degrees = np.arange(1, part.degree_z + part.q + 1)
        members = [(part, None)] + [(d(polyfun.dilate(f, r)), float(r) ** degrees) for r in rs]
        results.append(weighted_p_integral(part, spec, settings, members))
    (rhs_dz, *dz), (rhs_dzbar, *dzbar) = ([res.value for res in family] for family in results)
    ok = max(dz) - rhs_dz <= tol * rhs_dz and max(dzbar) - rhs_dzbar <= tol * rhs_dzbar
    return LimsupReport(
        spec=spec,
        function_label=function_label,
        rows=tuple(map(LimsupRow, rs, dz, dzbar)),
        rhs_dz=rhs_dz,
        rhs_dzbar=rhs_dzbar,
        tol=tol,
        verdict=_verdict(ok, results[0] + results[1]),
    )


@dataclass(frozen=True)
class ApproxRow:
    r: float
    m: int
    error: float


@dataclass(frozen=True)
class ApproxReport(_Report):
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

    COLUMNS = ("r", "m", "error")


def poly_approx(f, spec, r, m_grid=DEFAULT_M_GRID, slack=0.1, settings=None,
                function_label="f"):
    """Error of approximating ``f`` by the degree-``m`` truncations of ``f_r``."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    ms = tuple(m_grid)
    bad = [m for m in ms if not (m >= 0 and m % 1 == 0)] if ms else ["none"]
    if bad:
        raise ValueError(f"m_grid must hold nonnegative degrees, got {bad[0]}")
    ms = tuple(sorted(int(m) for m in ms))
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
        verdict=_verdict(ok, [res.flags for res in [dil, *errs]]),
    )


# --- the theorem matrix -----------------------------------------------------


def standard_functions():
    """The three canonical test functions: analytic, purely antiholomorphic,
    and genuinely mixed (q = 3)."""
    analytic = polyfun.exp_taylor(30)
    pure_zbar = polyfun.from_monomials({(1, 0): 1.0, (2, 0): 0.5}, q=3)
    mixed = polyfun.from_monomials(
        {(0, 2): 1.0, (1, 1): 1.0, (2, 2): 0.25}, q=3
    )
    return (("analytic", analytic), ("pure-zbar", pure_zbar), ("mixed", mixed))


def _matrix_weights(domain):
    theta_max = domain.angle_span
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
        settings = quadrature.QuadSettings(refine=False)
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
