"""Command-line front end.

Subcommands: ``norm``, ``converge``, ``limsup-check``, ``approx``,
``check-weight``, ``suite``.  All output is CSV (header plus rows, floats with
17 significant digits); exit status is 0 on success, 1 on invalid input, 2 when
a verdict or certificate fails.

Function files are plain text: a ``q <int>`` header line, then one monomial per
line as ``k j re im`` (the coefficient of ``conj(z)^k z^j``), with ``#``
comments ignored.  Weight parameters are spelled ``--weight-beta``,
``--weight-n``, ``--weight-alpha``, ``--weight-gamma``, ``--weight-theta-max``
(``--alpha``/``--beta`` belong to the half-plane measure); ``check-weight``
takes no measure parameters, so the bare spellings work there too.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass, field

from . import experiments, polyfun, quadrature
from .domain import Domain
from .norms import QuadSettings, SpaceKind, SpaceSpec, space_norm
from .weights import (
    AngularPoly,
    ExpAbs,
    ExpAbsPow,
    ExpRePow,
    PowerLaw,
    Product,
    Uniform,
    check_condition,
    find_min_k,
)

__all__ = ["RunConfig", "UsageError", "parse_args", "load_function",
           "write_function", "emit_csv", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# library argument -> the flag that sets it, for errors the library finds
_QUAD_FLAGS = {"n_r": "--quad-nr", "n_theta": "--quad-ntheta",
               "rel_tol": "--quad-rel-tol"}
_CHECK_WEIGHT_FLAGS = {"k": "--k", "n_r": "--grid-nr", "n_z": "--grid-nz"}


def _flag_error(exc, flags):
    """A :class:`UsageError` for a library ``ValueError`` whose message starts
    with the name of the argument at fault, prefixed with its flag."""
    name = str(exc).split(" ", 1)[0]
    return UsageError(f"{flags[name]}: {exc}" if name in flags else str(exc))


def _quad_settings(**fields):
    try:
        return QuadSettings(**fields)
    except ValueError as exc:
        raise _flag_error(exc, _QUAD_FLAGS)


@dataclass
class RunConfig:
    """Everything one invocation needs: the subcommand, the resolved space and
    weight, input function, grids, quadrature settings and output sink."""

    command: str
    spec: SpaceSpec | None = None
    function_path: str | None = None
    function_label: str = "f"
    r: float | None = None
    r_grid: tuple = experiments.DEFAULT_R_GRID
    m_grid: tuple = experiments.DEFAULT_M_GRID
    threshold: float = 0.02
    settings: QuadSettings = field(default_factory=QuadSettings)
    weight: object = None
    k: int | None = None
    k_max: int | None = None
    r0: float = 0.5
    cond_n_r: int = 64
    cond_n_z: int = 4096
    domain: Domain = Domain.DISK
    output: str | None = None
    seed: int = 0


def _add_weight_args(parser, bare_spellings):
    parser.add_argument(
        "--weight",
        choices=["uniform", "expabspow", "exprepow", "expabs", "angularpoly",
                 "product"],
        default="uniform",
    )
    wb = ["--weight-beta"] + (["--beta"] if bare_spellings else [])
    wa = ["--weight-alpha"] + (["--alpha"] if bare_spellings else [])
    parser.add_argument(*wb, dest="weight_beta", type=float, default=None)
    parser.add_argument("--weight-n", "--n", dest="weight_n", type=int, default=None)
    parser.add_argument(*wa, dest="weight_alpha", type=float, default=None)
    parser.add_argument("--weight-gamma", "--gamma", dest="weight_gamma",
                        type=float, default=None)
    parser.add_argument("--weight-theta-max", "--theta-max",
                        dest="weight_theta_max", type=float, default=None)


def _add_space_args(parser):
    parser.add_argument("--space", choices=["bergman", "dirichlet", "besov"],
                        required=True)
    parser.add_argument("--domain", choices=["disk", "halfplane"], required=True)
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--function", required=True)


def _add_quad_args(parser):
    parser.add_argument("--quad-nr", type=int, default=quadrature.DEFAULT_N_R)
    parser.add_argument("--quad-ntheta", type=int, default=quadrature.DEFAULT_N_THETA)
    parser.add_argument("--output", default=None)


def _build_parser():
    parser = _Parser(prog="polyspace")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("norm", "converge", "limsup-check", "approx"):
        p = sub.add_parser(name)
        _add_space_args(p)
        _add_weight_args(p, bare_spellings=False)
        _add_quad_args(p)
        p.add_argument("--quad-R", dest="quad_R", type=float, default=None)
        p.add_argument("--quad-rel-tol", type=float,
                       default=quadrature.DEFAULT_REL_TOL)
        p.add_argument("--no-refine", action="store_true")
        if name in ("converge", "limsup-check"):
            p.add_argument("--r-grid", default=None)
        if name == "converge":
            p.add_argument("--threshold", type=float, default=0.02)
        if name == "approx":
            p.add_argument("--r", type=float, required=True)
            p.add_argument("--m-grid", default=None)

    p = sub.add_parser("check-weight")
    _add_weight_args(p, bare_spellings=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--r0", type=float, default=0.5)
    p.add_argument("--grid-nr", type=int, default=64)
    p.add_argument("--grid-nz", type=int, default=4096)
    p.add_argument("--domain", choices=["disk", "halfplane"], default="disk")
    p.add_argument("--output", default=None)

    p = sub.add_parser("suite")
    p.add_argument("--r-grid", default=None)
    p.add_argument("--threshold", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    _add_quad_args(p)
    return parser


def _parse_grid(text, flag, caster, check):
    try:
        values = tuple(caster(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list, got {text!r}")
    for v in values:
        if not check(v):
            raise UsageError(f"{flag} value {v} is out of range")
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _build_weight(args, domain):
    tag = args.weight
    beta = args.weight_beta
    n = args.weight_n
    alpha = args.weight_alpha
    gamma = args.weight_gamma
    theta_max = args.weight_theta_max
    if theta_max is None:
        theta_max = 2.0 * math.pi if domain is Domain.DISK else math.pi
    try:
        if tag == "uniform":
            return Uniform()
        if tag == "expabspow":
            return ExpAbsPow(beta=beta if beta is not None else 1.0,
                             n=n if n is not None else 2)
        if tag == "exprepow":
            return ExpRePow(beta=beta if beta is not None else 1.0,
                            n=n if n is not None else 2)
        if tag == "expabs":
            return ExpAbs()
        if tag == "angularpoly":
            return AngularPoly(alpha=alpha if alpha is not None else 1.0,
                               theta_max=theta_max)
        if tag == "product":
            if beta is not None:
                radial = ExpAbsPow(beta=beta, n=n if n is not None else 2)
            else:
                radial = PowerLaw(gamma=gamma if gamma is not None else 0.5)
            if alpha is not None:
                angular = AngularPoly(alpha=alpha, theta_max=theta_max)
            else:
                angular = Uniform()
            return Product(radial=radial, angular=angular)
    except ValueError as exc:
        raise UsageError(f"--weight {tag}: {exc}")
    raise UsageError(f"unknown weight {tag!r}")


def _build_spec(args, weight):
    domain = Domain(args.domain)
    kind = SpaceKind(args.space)
    alpha, beta = args.alpha, args.beta
    if domain is Domain.HALFPLANE:
        alpha = 0.0 if alpha is None else alpha
        beta = 1.0 if beta is None else beta
    elif alpha is not None or beta is not None:
        raise UsageError("--alpha/--beta apply to --domain halfplane only")
    try:
        return SpaceSpec(domain=domain, kind=kind, p=args.p, weight=weight,
                         alpha=alpha, beta=beta, quad_R=args.quad_R)
    except ValueError as exc:
        raise UsageError(str(exc))


def parse_args(argv=None):
    """Turn ``argv`` into a validated :class:`RunConfig`.

    Any inconsistency raises :class:`UsageError` with a one-line message
    naming the offending flag; :func:`main` maps that to exit status 1.
    """
    args = _build_parser().parse_args(argv)
    config = RunConfig(command=args.command)

    if args.command == "check-weight":
        config.domain = Domain(args.domain)
        config.weight = _build_weight(args, config.domain)
        config.k = args.k
        config.k_max = args.k_max
        if config.k is None and config.k_max is None:
            raise UsageError("check-weight needs --k or --k-max")
        if not 0.0 < args.r0 < 1.0:
            raise UsageError(f"--r0 value {args.r0} is out of range (0, 1)")
        config.r0 = args.r0
        config.cond_n_r = args.grid_nr
        config.cond_n_z = args.grid_nz
        config.output = args.output
        return config

    config.output = args.output
    if args.command == "suite":
        # refinement gains little on the matrix's AngularPoly cells, so the
        # suite always runs on the fixed grid
        config.settings = _quad_settings(n_r=args.quad_nr, n_theta=args.quad_ntheta,
                                         refine=False)
        config.seed = args.seed
        if args.r_grid is not None:
            config.r_grid = _parse_grid(args.r_grid, "--r-grid", float,
                                        lambda r: 0.0 < r < 1.0)
        config.threshold = args.threshold
        return config

    config.settings = _quad_settings(
        n_r=args.quad_nr,
        n_theta=args.quad_ntheta,
        rel_tol=args.quad_rel_tol,
        refine=not args.no_refine,
    )
    domain = Domain(args.domain)
    weight = _build_weight(args, domain)
    config.spec = _build_spec(args, weight)
    if not os.path.exists(args.function):
        raise UsageError(f"--function file not found: {args.function}")
    config.function_path = args.function
    config.function_label = os.path.splitext(os.path.basename(args.function))[0]

    if args.command in ("converge", "limsup-check") and args.r_grid is not None:
        config.r_grid = _parse_grid(args.r_grid, "--r-grid", float,
                                    lambda r: 0.0 < r < 1.0)
    if args.command == "converge":
        config.threshold = args.threshold
    if args.command == "approx":
        if not 0.0 < args.r < 1.0:
            raise UsageError(f"--r value {args.r} is out of range (0, 1)")
        config.r = args.r
        if args.m_grid is not None:
            config.m_grid = _parse_grid(args.m_grid, "--m-grid", int,
                                        lambda m: m >= 0)
    return config


def load_function(path):
    """Read a function file; every malformed line is reported by number."""
    q = None
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if q is None:
                if len(tokens) != 2 or tokens[0] != "q":
                    raise UsageError(
                        f"{path}:{lineno}: expected header 'q <int>', got {line!r}"
                    )
                try:
                    q = int(tokens[1])
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: order {tokens[1]!r} is not an integer")
                if q < 1:
                    raise UsageError(f"{path}:{lineno}: order q must be >= 1")
                continue
            if len(tokens) != 4:
                raise UsageError(
                    f"{path}:{lineno}: expected 'k j re im', got {line!r}"
                )
            try:
                k, j = int(tokens[0]), int(tokens[1])
                re, im = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise UsageError(f"{path}:{lineno}: non-numeric entry in {line!r}")
            if (k, j) in entries:
                raise UsageError(f"{path}:{lineno}: duplicate monomial ({k}, {j})")
            if k < 0 or j < 0:
                raise UsageError(f"{path}:{lineno}: negative monomial index ({k}, {j})")
            if k >= q:
                raise UsageError(
                    f"{path}:{lineno}: monomial conj(z)^{k} z^{j} exceeds declared order q={q}"
                )
            entries[(k, j)] = complex(re, im)
    if q is None:
        raise UsageError(f"{path}: missing 'q <int>' header line")
    return polyfun.from_monomials(entries, q)


def write_function(f, path):
    """Inverse of :func:`load_function`; round-trips coefficients exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"q {f.q}\n")
        for k, h in enumerate(f.components):
            for j, c in enumerate(h.coeffs):
                if c != 0:
                    fh.write(f"{k} {j} {c.real:.17g} {c.imag:.17g}\n")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(header, rows, sink):
    sink.write(",".join(header) + "\n")
    for row in rows:
        sink.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_report(report, sink):
    emit_csv(report.csv_header(), report.csv_rows(), sink)


def _run(config):
    """Run the command and write its CSV only once it is complete, so a run
    that fails on its input leaves no ``--output`` file behind."""
    sink = io.StringIO()
    code = _dispatch(config, sink)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(sink.getvalue())
    else:
        sys.stdout.write(sink.getvalue())
    return code


def _dispatch(config, sink):
    if config.command == "check-weight":
        try:
            if config.k_max is not None:
                witness = find_min_k(config.weight, k_max=config.k_max, r0=config.r0,
                                     n_r=config.cond_n_r, n_z=config.cond_n_z,
                                     domain=config.domain)
            else:
                witness = check_condition(config.weight, config.k, r0=config.r0,
                                          n_r=config.cond_n_r, n_z=config.cond_n_z,
                                          domain=config.domain)
        except ValueError as exc:
            raise _flag_error(exc, _CHECK_WEIGHT_FLAGS)
        header = ("k", "C", "r0", "grid_size", "attained_r",
                  "attained_z_re", "attained_z_im")
        if witness is None:
            emit_csv(header, [], sink)
            print("condition check failed: ratio diverges on the grid",
                  file=sys.stderr)
            return 2
        emit_csv(header, [(witness.k, witness.C, witness.r0, witness.grid_size,
                           witness.attained_r, witness.attained_z.real,
                           witness.attained_z.imag)], sink)
        return 0

    if config.command == "suite":
        quad, mc, sigma = quadrature.halfplane_mc_check(
            n_samples=1_000_000, seed=config.seed,
            n_r=config.settings.n_r, n_theta=config.settings.n_theta,
        )
        if abs(quad - mc) > 5.0 * sigma:
            print(
                f"half-plane quadrature self-check failed: quad={quad!r} "
                f"mc={mc!r} sigma={sigma!r}",
                file=sys.stderr,
            )
            return 2
        report = experiments.run_theorem_suite(
            r_grid=config.r_grid, threshold=config.threshold,
            settings=config.settings,
        )
        _emit_report(report, sink)
        if not report.all_converged:
            print(f"{len(report.failures)} cell(s) not converged", file=sys.stderr)
            return 2
        return 0

    f = load_function(config.function_path)
    spec, settings = config.spec, config.settings

    if config.command == "norm":
        result = space_norm(f, spec, settings)
        emit_csv(("full_norm", "seminorm", "point_term"),
                 [(result.full_norm, result.seminorm, result.point_term)], sink)
        if not result.flags.converged:
            print(f"quadrature did not converge: {result.flags.describe()}",
                  file=sys.stderr)
        return 0

    if config.command == "converge":
        report = experiments.dilatation_convergence(
            f, spec, r_grid=config.r_grid, threshold=config.threshold,
            settings=settings, function_label=config.function_label,
        )
        _emit_report(report, sink)
        return 0 if report.converged else 2

    if config.command == "limsup-check":
        report = experiments.limsup_check(
            f, spec, r_grid=config.r_grid, settings=settings,
            function_label=config.function_label,
        )
        _emit_report(report, sink)
        return 0 if report.certified else 2

    if config.command == "approx":
        report = experiments.poly_approx(
            f, spec, config.r, m_grid=config.m_grid, settings=settings,
            function_label=config.function_label,
        )
        _emit_report(report, sink)
        return 0 if report.converged else 2

    raise UsageError(f"unknown command {config.command!r}")


def main(argv=None):
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _run(config)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
